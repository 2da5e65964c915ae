"""Integration tests for the parallel batch scanner and cache wiring."""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core import FamilyClassifier, JSRevealer, JSRevealerConfig
from repro.core.prefix import ScriptPrefix
from repro.datasets import experiment_split
from repro.faults import ScanLimits
from repro.ml import (
    BernoulliNB,
    DecisionTreeClassifier,
    GaussianNB,
    LinearSVC,
    LogisticRegression,
    RandomForestClassifier,
)
from repro.obs import MetricsRegistry
from repro.pipeline import BatchScanner, FeatureCache, content_key


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


class TestParallelEquivalence:
    def test_parallel_matches_sequential_bytewise(self, detector, split):
        sequential = BatchScanner(detector, n_workers=1).scan(split.test.sources)
        with BatchScanner(detector, n_workers=2) as scanner:
            parallel = scanner.scan(split.test.sources)
        assert parallel.workers_used == 2
        assert np.array_equal(sequential.label_array, parallel.label_array)
        assert np.array_equal(sequential.probability_matrix, parallel.probability_matrix)
        assert [r.path_count for r in sequential.results] == [r.path_count for r in parallel.results]

    def test_pool_failure_degrades_to_sequential(self, detector, split, monkeypatch, capsys):
        def boom(self, *args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(BatchScanner, "_embed_pooled", boom)
        baseline = BatchScanner(detector, n_workers=1).scan(split.test.sources[:4])
        degraded = BatchScanner(detector, n_workers=3).scan(split.test.sources[:4])
        assert degraded.workers_used == 1
        assert np.array_equal(baseline.label_array, degraded.label_array)
        assert "scanning sequentially" in capsys.readouterr().err

    def test_rejects_bad_worker_count(self, detector):
        with pytest.raises(ValueError):
            BatchScanner(detector, n_workers=0)

    def test_unfitted_detector_rejected(self):
        det = JSRevealer(JSRevealerConfig(embed_dim=16))
        with pytest.raises(RuntimeError):
            BatchScanner(det).scan(["var a = 1;"])

    def test_names_length_mismatch(self, detector):
        with pytest.raises(ValueError):
            BatchScanner(detector).scan(["var a = 1;"], names=["a", "b"])

    def test_empty_batch(self, detector):
        report = BatchScanner(detector).scan([])
        assert report.n_files == 0 and report.label_array.shape == (0,)

    def test_unparseable_source_scans(self, detector):
        report = BatchScanner(detector).scan(["not !! valid :: javascript ((("])
        assert report.n_files == 1
        assert report.results[0].path_count == 0

    @pytest.mark.parametrize(
        "options",
        [{}, {"n_workers": 2}, {"limits": ScanLimits(timeout_s=30.0)}, {"triage": True}],
        ids=["in-process", "pooled", "limits", "triage"],
    )
    def test_digitless_binary_literal_is_a_parse_error_not_a_batch_failure(self, detector, options):
        report = detector.scan_batch(["var x = 1; f(x);", "0b", "g(2);"], **options)
        assert [r.status for r in report.results] == ["ok", "parse_error", "ok"]
        assert report.results[1].path_count == 0


class TestCacheIntegration:
    def test_second_scan_hits(self, detector, split):
        cache = FeatureCache(detector.fingerprint())
        scanner = BatchScanner(detector, cache=cache)
        first = scanner.scan(split.test.sources)
        second = scanner.scan(split.test.sources)
        assert first.cache_hits == 0 and first.cache_misses == len(split.test.sources)
        assert second.cache_hits == len(split.test.sources) and second.cache_misses == 0
        assert all(r.cache_hit for r in second.results)
        assert np.array_equal(first.probability_matrix, second.probability_matrix)

    def test_disk_cache_reused_by_fresh_scanner(self, detector, split, tmp_path):
        sources = split.test.sources[:5]
        uncached = detector.scan_batch(sources).probability_matrix.tobytes()
        for n_workers in (1, 2):
            cache_dir = str(tmp_path / f"workers-{n_workers}")
            cold = detector.scan_batch(sources, n_workers=n_workers, cache_dir=cache_dir)
            warm = detector.scan_batch(sources, n_workers=n_workers, cache_dir=cache_dir)
            assert cold.cache_hits == 0
            assert warm.cache_hits == len(sources)
            assert np.array_equal(cold.label_array, warm.label_array)
            assert cold.probability_matrix.tobytes() == uncached
            assert warm.probability_matrix.tobytes() == uncached

    def test_cache_and_pool_replies_carry_only_the_cluster_row(self, detector, split):
        sources = split.test.sources[:4]
        cache = FeatureCache(detector.fingerprint())
        report = BatchScanner(detector, cache=cache).scan(sources)
        assert all(r.path_count > detector.config.max_paths_per_script for r in report.results)
        n_features = detector.feature_extractor.n_features
        for source in sources:
            assert cache.get(content_key(source)).row.shape == (n_features,)
        # What a pool worker pipes back for one script: the row, not the
        # 300 kept path vectors and their weights.
        assert len(pickle.dumps(detector.parts().script_row(sources[0]))) < 4096

    def test_report_carries_fingerprint(self, detector, split):
        report = detector.scan_batch(split.test.sources[:2])
        assert report.model_fingerprint == detector.fingerprint()


class _ContraryForest(RandomForestClassifier):
    """A forest whose ``predict`` is *not* the argmax of its probabilities."""

    def predict(self, X):
        return self.classes_[np.argmin(self.predict_proba(X), axis=1)]


#: Every final classifier the detector's ``classifier_factory`` may build,
#: plus a forest subclass that overrides ``predict``.
CLASSIFIERS = {
    "random-forest": lambda: RandomForestClassifier(n_estimators=20, random_state=0),
    "decision-tree": lambda: DecisionTreeClassifier(max_depth=6, rng=np.random.default_rng(0)),
    "logistic": lambda: LogisticRegression(n_iter=200, learning_rate=0.5),
    "svm": lambda: LinearSVC(n_iter=15, random_state=0),
    "gaussian-nb": GaussianNB,
    "bernoulli-nb": lambda: BernoulliNB(binarize=0.5),
    "contrary-forest": lambda: _ContraryForest(n_estimators=20, random_state=0),
}


class TestClassifyStep:
    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    def test_labels_and_probabilities_equal_the_classifier(self, name, detector, split):
        candidate = JSRevealer(
            JSRevealerConfig(
                embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7,
                classifier_factory=CLASSIFIERS[name],
            )
        )
        candidate.embedder = detector.embedder  # reuse the trained embedding
        candidate.fit(split.train.sources, split.train.labels)
        sources = split.test.sources
        report = BatchScanner(candidate).scan(sources)
        features = candidate.feature_extractor
        rows = [
            features.transform_script(*candidate.embed_script(candidate.extract_paths(s)))
            for s in sources
        ]
        X = features.transform(rows)
        assert np.array_equal(report.label_array, candidate.classifier.predict(X))
        proba = candidate.classifier.predict_proba(X)
        assert report.probability_matrix.tobytes() == proba.tobytes()

    def test_refit_changes_reported_fingerprint(self, split):
        det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
        det.pretrain(split.pretrain.sources, split.pretrain.labels)
        det.fit(split.train.sources, split.train.labels)
        scanner = BatchScanner(det)
        first = scanner.scan(split.test.sources[:2]).model_fingerprint
        assert scanner.scan(split.test.sources[2:4]).model_fingerprint == first
        det.fit(split.train.sources[2:], split.train.labels[2:])
        refit = scanner.scan(split.test.sources[:2]).model_fingerprint
        assert refit != first
        det.pretrain(split.pretrain.sources[2:], split.pretrain.labels[2:])
        assert scanner.scan(split.test.sources[:2]).model_fingerprint not in (first, refit)


class TestInstrumentation:
    def test_metrics_advance_with_each_scan(self, detector, split):
        registry = MetricsRegistry()
        scanner = BatchScanner(detector, metrics=registry)
        scanner.scan(split.test.sources[:3])
        assert registry.get("repro_scan_batches_total").value == 1
        assert registry.get("repro_scan_scripts_total").value == 3
        scanner.scan(split.test.sources[:2])
        assert registry.get("repro_scan_batches_total").value == 2
        assert registry.get("repro_scan_scripts_total").value == 5
        size_histogram = registry.get("repro_scan_batch_size_scripts")
        assert size_histogram.count == 2 and size_histogram.sum == 5

    def test_stage_timings_recorded_per_stage(self, detector, split):
        registry = MetricsRegistry()
        BatchScanner(detector, metrics=registry).scan(split.test.sources[:2])
        for stage in ("path_extraction", "embedding", "feature_transform", "classifying"):
            histogram = registry.get("repro_scan_stage_seconds", {"stage": stage})
            assert histogram is not None and histogram.count == 1, stage

    def test_cache_metrics_flow_through_shared_registry(self, detector, split):
        registry = MetricsRegistry()
        cache = FeatureCache(detector.fingerprint(), metrics=registry)
        scanner = BatchScanner(detector, cache=cache, metrics=registry)
        scanner.scan(split.test.sources[:4])
        scanner.scan(split.test.sources[:4])
        assert registry.get("repro_cache_lookups_total", {"result": "miss"}).value == 4
        assert registry.get("repro_cache_lookups_total", {"result": "hit"}).value == 4

    def test_report_carries_lifetime_cache_stats(self, detector, split):
        cache = FeatureCache(detector.fingerprint())
        scanner = BatchScanner(detector, cache=cache)
        scanner.scan(split.test.sources[:3])
        report = scanner.scan(split.test.sources[:3])
        assert report.cache_stats == cache.stats()
        assert report.cache_stats["hits"] == 3 and report.cache_stats["misses"] == 3
        uncached = BatchScanner(detector).scan(split.test.sources[:1])
        assert uncached.cache_stats is None


class TestPersistentPool:
    def test_persistent_scanner_reuses_pool_and_matches_oneshot(self, detector, split):
        sources = split.test.sources
        baseline = BatchScanner(detector, n_workers=1).scan(sources)
        with BatchScanner(detector, n_workers=2) as scanner:
            first = scanner.scan(sources)
            pool = scanner._pool
            assert pool is not None  # pool survives between scans
            second = scanner.scan(sources)
            assert scanner._pool is pool
        assert scanner._pool is None  # context exit closes it
        for report in (first, second):
            assert report.workers_used == 2
            assert np.array_equal(baseline.label_array, report.label_array)
            assert np.array_equal(baseline.probability_matrix, report.probability_matrix)

    def test_dropped_scanner_stops_its_workers(self, detector, split):
        before = set(multiprocessing.active_children())
        scanner = BatchScanner(detector, n_workers=2)
        scanner.scan(split.test.sources[:4])
        assert len(set(multiprocessing.active_children()) - before) == 2
        del scanner
        assert set(multiprocessing.active_children()) - before == set()

    def test_close_is_idempotent_and_safe_without_pool(self, detector):
        scanner = BatchScanner(detector, n_workers=1)
        scanner.close()
        scanner.close()


class TestDetectorScanAPI:
    def test_scan_single(self, detector, split):
        result = detector.scan(split.test.sources[0])
        assert result.verdict in ("benign", "malicious")
        assert 0.0 <= result.probability <= 1.0
        assert result.path_count > 0

    def test_predict_wrappers_agree_with_scan(self, detector, split):
        sources = split.test.sources[:6]
        report = detector.scan_batch(sources)
        assert np.array_equal(detector.predict(sources), report.label_array)
        assert np.allclose(detector.predict_proba(sources)[:, 1], report.probabilities)

    def test_threshold_changes_verdicts_not_labels(self, detector, split):
        sources = split.test.sources
        strict = detector.scan_batch(sources, threshold=1.1)
        assert strict.n_malicious == 0  # nothing reaches an impossible threshold
        assert np.array_equal(strict.label_array, detector.predict(sources))

    def test_one_shot_scan_batch_stops_its_pool(self, detector, split):
        # Children from other tests' scanners may still be exiting; only
        # the workers these calls start must be gone when they return.
        before = set(multiprocessing.active_children())
        pooled = detector.scan_batch(split.test.sources[:4], n_workers=2)
        assert pooled.workers_used == 2
        assert set(multiprocessing.active_children()) - before == set()
        isolated = detector.scan_batch(split.test.sources[:4], limits=ScanLimits(timeout_s=30.0))
        assert [r.status for r in isolated.results] == ["ok"] * 4
        assert set(multiprocessing.active_children()) - before == set()


class TestOnePrefix:
    """Every scan path, fit and FamilyClassifier run one per-script prefix."""

    def test_rows_and_path_counts_equal_on_every_path(self, detector, split, monkeypatch):
        sources = split.test.sources[:6]
        rows: dict[str, list[bytes]] = {}
        counts: dict[str, list[int]] = {}
        for name, options in (
            ("in-process", {}),
            ("pooled", {"n_workers": 2}),
            ("isolated", {"limits": ScanLimits(timeout_s=30.0)}),
        ):
            cache = FeatureCache(detector.fingerprint())
            with BatchScanner(detector, cache=cache, **options) as scanner:
                report = scanner.scan(sources)
            assert report.workers_used == options.get("n_workers", 1)
            rows[name] = [cache.get(content_key(s)).row.tobytes() for s in sources]
            counts[name] = [r.path_count for r in report.results]

        # The raw rows FamilyClassifier trains on, caught at the Eq. 6 call.
        features = detector.feature_extractor
        caught: list[list[np.ndarray]] = []
        transform = features.transform
        monkeypatch.setattr(features, "transform", lambda batch: caught.append(batch) or transform(batch))
        FamilyClassifier(detector, n_estimators=2).fit(sources, ["a", "b"] * 3)
        rows["family"] = [row.tobytes() for row in caught[0]]

        assert rows["pooled"] == rows["in-process"]
        assert rows["isolated"] == rows["in-process"]
        assert rows["family"] == rows["in-process"]
        assert counts["pooled"] == counts["isolated"] == counts["in-process"]
        assert counts["in-process"] == [len(detector.extract_paths(s)) for s in sources]

    def test_scan_embeds_each_script_once_keeping_fits_indices(self, detector, split, monkeypatch):
        sources = split.test.sources[:4]
        calls: list[tuple] = []
        embed_script = JSRevealer.embed_script

        def counting(self, contexts, return_indices=False):
            result = embed_script(self, contexts, return_indices)
            calls.append(result)
            return result

        monkeypatch.setattr(JSRevealer, "embed_script", counting)
        BatchScanner(detector).scan(sources)
        scanned = list(calls)
        assert len(scanned) == len(sources)
        for source, (vectors, weights, kept) in zip(sources, scanned):
            paths = detector.kept_paths(source)
            assert len(kept) == detector.max_paths < len(paths.contexts)
            assert np.array_equal(paths.kept, kept)
            assert paths.vectors.tobytes() == vectors.tobytes()
            assert paths.weights.tobytes() == weights.tobytes()

    def test_workers_receive_a_plain_prefix_over_the_detectors_parts(self, detector):
        prefix = detector.parts()
        assert type(prefix) is ScriptPrefix
        assert prefix.embedder is detector.embedder
        assert prefix.feature_extractor is detector.feature_extractor
        assert prefix.extractor is detector.extractor
        assert prefix.max_paths == detector.config.max_paths_per_script
        clone = pickle.loads(pickle.dumps(prefix))
        source = "var a = [1, 2]; a.push(3); f(a);"
        assert clone.script_row(source).row.tobytes() == detector.script_row(source).row.tobytes()


class TestKeptIndexAlignment:
    def test_embed_script_indices_select_matching_rows(self, detector, split):
        capped = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, max_paths_per_script=5, seed=7))
        capped.embedder = detector.embedder  # reuse the trained embedding
        contexts = capped.extract_paths(split.test.sources[0])
        assert len(contexts) > 5
        vectors, weights, kept = capped.embed_script(contexts, return_indices=True)
        assert len(vectors) == len(weights) == len(kept) == 5
        full_vectors, full_weights = detector.embedder.embed(contexts)
        assert np.array_equal(vectors, full_vectors[kept])
        assert np.array_equal(weights, full_weights[kept])
        # The kept rows are exactly the top-weight paths.
        assert set(kept) == set(np.argsort(full_weights)[::-1][:5])

    def test_fit_with_path_cap_aligns_signatures(self, split):
        det = JSRevealer(
            JSRevealerConfig(
                embed_dim=16, pretrain_epochs=3, k_benign=3, k_malicious=3,
                max_paths_per_script=20, seed=7,
            )
        )
        det.pretrain(split.pretrain.sources, split.pretrain.labels)
        det.fit(split.train.sources, split.train.labels)  # no misalignment error
        assert all(f.central_path_signature for f in det.feature_extractor.features_)


DECISIVE_SOURCE = 'var s = unescape("%61%6c"); var t = s + "()"; eval(t);'


class TestTriageIntegration:
    def test_verdicts_identical_without_decisive_hits(self, detector, split):
        from repro.analysis import Analyzer

        sources = split.test.sources
        full = BatchScanner(detector).scan(sources)
        triaged = BatchScanner(detector, triage=Analyzer()).scan(sources)
        if triaged.triage_hits == 0:  # synthetic corpus trips no decisive rule
            assert np.array_equal(full.label_array, triaged.label_array)
            assert np.allclose(full.probabilities, triaged.probabilities)
        # non-triaged files always match the full pipeline exactly
        for full_result, tri in zip(full.results, triaged.results):
            if not tri.triaged:
                assert tri.label == full_result.label
                assert tri.probability == pytest.approx(full_result.probability)

    def test_decisive_script_short_circuits(self, detector, split):
        from repro.analysis import Analyzer

        sources = split.test.sources[:3] + [DECISIVE_SOURCE]
        report = BatchScanner(detector, triage=Analyzer()).scan(sources)
        hit = report.results[-1]
        assert hit.triaged and hit.malicious and hit.probability == 1.0
        assert hit.path_count == 0  # embedding never ran
        assert report.triage_hits == 1
        assert report.probability_matrix[-1, 1] == 1.0
        assert hit.analysis is not None and hit.analysis["decisive"]

    def test_analysis_attached_and_stage_recorded(self, detector, split):
        from repro.analysis import Analyzer

        report = BatchScanner(detector, triage=Analyzer()).scan(split.test.sources[:2])
        assert all(r.analysis is not None for r in report.results)
        assert "analysis" in report.stage_ms
        assert all("analysis" in r.stage_ms for r in report.results)

    def test_triaged_scripts_bypass_the_cache(self, detector):
        from repro.analysis import Analyzer

        cache = FeatureCache(detector.fingerprint())
        scanner = BatchScanner(detector, cache=cache, triage=Analyzer())
        first = scanner.scan([DECISIVE_SOURCE])
        second = scanner.scan([DECISIVE_SOURCE])
        assert first.triage_hits == second.triage_hits == 1
        assert first.cache_misses == 0 and second.cache_hits == 0
        assert cache.stats()["entries"] == 0

    def test_untriaged_scan_reports_untouched(self, detector, split):
        report = BatchScanner(detector).scan(split.test.sources[:2])
        assert report.triage_hits == 0
        assert all(r.analysis is None and not r.triaged for r in report.results)
        assert "analysis" not in report.stage_ms

    def test_detector_scan_batch_triage_flag(self, detector, split):
        report = detector.scan_batch(split.test.sources[:2] + [DECISIVE_SOURCE], triage=True)
        assert report.triage_hits == 1
        assert report.results[-1].triaged

    def test_all_scripts_triaged(self, detector):
        from repro.analysis import Analyzer

        report = BatchScanner(detector, triage=Analyzer()).scan([DECISIVE_SOURCE, DECISIVE_SOURCE])
        assert report.triage_hits == 2
        assert all(r.triaged for r in report.results)
        assert report.probability_matrix.shape == (2, 2)
