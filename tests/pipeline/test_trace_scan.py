"""Scanner-level tracing and verdict provenance.

Covers the tentpole contract at the pipeline layer: a traced scan emits a
span per stage and per script plus provenance for every verdict, while an
untraced scan's serialized output stays byte-identical to the pre-tracing
format (no ``trace`` keys at all).
"""

import json

import numpy as np
import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.analysis import Analyzer
from repro.obs import span_tree
from repro.pipeline import BatchScanner, FeatureCache


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


def span_names(spans):
    return {span["name"] for span in spans}


class TestTracedScan:
    def test_sequential_scan_emits_stage_and_script_spans(self, detector, split):
        scanner = BatchScanner(detector)
        report = scanner.scan(split.test.sources[:3], trace=True)
        assert report.trace is not None
        names = span_names(report.trace["spans"])
        assert {"scan.batch", "feature_transform", "classify",
                "path_extraction", "embedding", "script"} <= names
        assert sum(1 for s in report.trace["spans"] if s["name"] == "script") == 3
        roots = span_tree(report.trace["spans"])
        assert len(roots) == 1 and roots[0]["name"] == "scan.batch"
        assert roots[0]["attributes"]["n_scripts"] == 3

    def test_every_result_carries_trace_and_provenance(self, detector, split):
        scanner = BatchScanner(detector)
        report = scanner.scan(split.test.sources[:3], trace=True)
        for result in report.results:
            assert result.trace is not None
            assert result.trace["trace_id"] == report.trace["trace_id"]
            provenance = result.trace["provenance"]
            assert provenance["top_paths"], result.path
            assert provenance["top_paths"] == sorted(
                provenance["top_paths"], key=lambda e: -e["weight"]
            )
            assert provenance["cluster_features"]
            feature = provenance["cluster_features"][0]
            assert {"feature_index", "weight", "cluster_label", "central_path"} <= set(feature)
            # The per-file subtree is rooted at that file's script span.
            assert result.trace["spans"][0]["name"] == "script"

    def test_parallel_scan_traces_identically_named_stages(self, detector, split):
        with BatchScanner(detector, n_workers=2) as scanner:
            report = scanner.scan(split.test.sources[:4], trace=True)
        names = span_names(report.trace["spans"])
        assert {"scan.batch", "script", "path_extraction", "embedding", "worker.embed"} <= names
        # The scanner builds these children from the worker's embed payload;
        # a stale positional read would hand them another field's value.
        for result in report.results:
            [script] = result.trace["spans"]
            [worker] = [span for span in script["children"] if span["name"] == "worker.embed"]
            children = {span["name"]: span for span in worker["children"]}
            assert set(children) == {"path_extraction", "embedding"}
            assert children["path_extraction"]["attributes"]["status"] == result.status
            for stage in ("path_extraction", "embedding"):
                assert children[stage]["duration_ms"] == result.stage_ms[stage]

    def test_verdicts_unchanged_by_tracing(self, detector, split):
        sources = split.test.sources[:4]
        plain = BatchScanner(detector).scan(sources)
        traced = BatchScanner(detector).scan(sources, trace=True)
        assert np.array_equal(plain.label_array, traced.label_array)
        assert np.array_equal(plain.probability_matrix, traced.probability_matrix)

    def test_untraced_output_has_no_trace_keys(self, detector, split):
        # Byte-identical contract: tracing must be invisible when off —
        # a scanner that traced an earlier call included.
        sources = split.test.sources[:2]
        baseline = BatchScanner(detector).scan(sources).to_json()
        scanner = BatchScanner(detector)
        scanner.scan(sources, trace=True)
        untraced = scanner.scan(sources, trace=False)
        assert "\"trace\"" not in untraced.to_json()
        for result in untraced.results:
            assert "trace" not in result.to_dict()
        def strip(report_dict):
            # Wall-clock timings legitimately differ between runs; every
            # other byte must match.
            out = {k: v for k, v in report_dict.items() if k not in ("elapsed_ms", "stage_ms")}
            out["results"] = [
                {k: v for k, v in r.items() if k != "stage_ms"} for r in report_dict["results"]
            ]
            return out

        assert strip(json.loads(untraced.to_json())) == strip(json.loads(baseline))

    def test_trace_flag_false_overrides_tracer(self, detector, split):
        scanner = BatchScanner(detector)
        report = scanner.scan(split.test.sources[:2], trace=False)
        assert report.trace is None

    def test_triage_decisive_hit_traced_with_rule_provenance(self, detector, split):
        scanner = BatchScanner(detector, triage=Analyzer())
        decisive = "var h = unescape('%61%62');\neval(h);\n"
        report = scanner.scan([decisive, split.test.sources[0]], trace=True)
        result = report.results[0]
        assert result.triaged
        provenance = result.trace["provenance"]
        assert any(rule["decisive"] for rule in provenance["rules"])
        assert provenance["analysis_score"] > 0
        events = [e["name"] for s in result.trace["spans"] for e in s.get("events", [])]
        assert "triage_decisive" in events

    def test_cache_hit_event_and_no_embed_spans_on_warm_scan(self, detector, split, tmp_path):
        sources = split.test.sources[:2]
        cache = FeatureCache(detector.fingerprint(), cache_dir=tmp_path)
        BatchScanner(detector, cache=cache).scan(sources, trace=True)
        warm = BatchScanner(detector, cache=cache).scan(sources, trace=True)
        assert all(result.cache_hit for result in warm.results)
        events = [e["name"] for s in warm.trace["spans"] for e in s.get("events", [])]
        assert "cache_hit" in events and "cache_miss" not in events
        assert "path_extraction" not in span_names(warm.trace["spans"])

    def test_detector_scan_batch_trace_flag(self, detector, split):
        report = detector.scan_batch(split.test.sources[:2], trace=True)
        assert report.trace is not None
        assert all(result.trace is not None for result in report.results)
        untr = detector.scan_batch(split.test.sources[:2])
        assert untr.trace is None


class TestFeatureProvenance:
    def test_ranked_by_abs_value_times_importance(self, detector):
        row = np.zeros(len(detector.feature_extractor.features_))
        row[0] = 1.0
        ranked = detector.feature_provenance(row, top_n=3)
        assert ranked[0]["feature_index"] == 0
        assert ranked[0]["weight"] >= ranked[-1]["weight"]
        assert all(entry["weight"] >= 0 for entry in ranked)

    def test_top_n_bounds(self, detector):
        row = np.ones(len(detector.feature_extractor.features_))
        assert len(detector.feature_provenance(row, top_n=2)) == 2
        assert len(detector.feature_provenance(row, top_n=10_000)) <= len(detector.feature_extractor.features_)
