"""Dedup: in-batch duplicates, and a disk layer shared by processes.

Identical scripts in one batch are embedded once (``scope="batch"``),
with or without a cache.  Processes sharing one ``cache_dir`` take no
locks: each computes what it misses and publishes the row for the others.
"""

import time

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.obs import MetricsRegistry
from repro.pipeline import BatchScanner, FeatureCache, content_key
from repro.pipeline.cache import CACHE_FORMAT_VERSION


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


class TestScannerDedup:
    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
    def test_in_batch_duplicates_computed_once(self, detector, split, cached):
        metrics = MetricsRegistry()
        cache = FeatureCache(detector.fingerprint(), metrics=metrics) if cached else None
        scanner = BatchScanner(detector, cache=cache, metrics=metrics)
        source = split.test.sources[0]
        report = scanner.scan([source, source, source, split.test.sources[1]])
        assert report.n_files == 4
        # Three copies → one computed, two deduplicated.
        assert 'repro_scan_dedup_total{scope="batch"} 2' in metrics.render()
        first, second, third, _ = report.results
        assert first.label == second.label == third.label
        assert first.probability == second.probability == third.probability
        assert first.path_count == third.path_count

    def test_uncached_scan_embeds_each_distinct_script_once(self, detector, split, monkeypatch):
        distinct = split.test.sources[:4]
        batch = distinct + [distinct[1]]
        expected = [(r.label, r.probability) for r in BatchScanner(detector).scan(distinct).results]
        calls = []
        embed_script = JSRevealer.embed_script

        def counting(self, contexts, return_indices=False):
            calls.append(len(contexts))
            return embed_script(self, contexts, return_indices)

        monkeypatch.setattr(JSRevealer, "embed_script", counting)
        report = BatchScanner(detector).scan(batch)
        assert len(calls) == len(distinct)
        assert [(r.label, r.probability) for r in report.results] == expected + [expected[1]]

    def test_dedup_results_match_unique_scan(self, detector, split):
        source = split.test.sources[2]
        plain = BatchScanner(detector).scan([source])
        deduped = BatchScanner(detector, cache=FeatureCache(detector.fingerprint())).scan(
            [source, source]
        )
        for result in deduped.results:
            assert result.label == plain.results[0].label
            assert result.probability == plain.results[0].probability


class TestSharedDiskCache:
    def test_orphaned_lock_does_not_delay_a_scan(self, detector, split, tmp_path):
        """A stray ``<key>.lock`` next to the entry (a process sharing the
        dir can leave one behind) does not delay the scan."""
        source = split.test.sources[3]
        key = content_key(source)
        entry_dir = tmp_path / f"v{CACHE_FORMAT_VERSION}" / detector.fingerprint()[:16]
        entry_dir.mkdir(parents=True)
        (entry_dir / f"{key}.lock").write_text("4242")
        scanner = BatchScanner(
            detector, cache=FeatureCache(detector.fingerprint(), cache_dir=tmp_path)
        )
        started = time.monotonic()
        report = scanner.scan([source])
        assert time.monotonic() - started < 5.0
        assert report.results[0].status == "ok"
        # The row was published where another process sharing the dir reads it.
        assert FeatureCache(detector.fingerprint(), cache_dir=tmp_path).get(key) is not None
