"""Single-flight dedup on the shared cache: in-batch and cross-process.

Two shards sharing one ``cache_dir`` must compute each never-seen script
exactly once cluster-wide.  These tests drive the two mechanisms
directly: the lock-file flight protocol between two :class:`FeatureCache`
instances (standing in for two shard processes), and the in-batch dedup
inside :class:`BatchScanner`.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.obs import MetricsRegistry
from repro.pipeline import BatchScanner, FeatureCache, content_key


def make_entry(seed=0, n=4, n_features=8):
    rng = np.random.default_rng(seed)
    from repro.pipeline.cache import CacheEntry

    return CacheEntry(row=rng.random(n_features), path_count=n)


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


class TestFlightProtocol:
    def test_leader_then_follower(self, tmp_path):
        cache_a = FeatureCache("fp", cache_dir=tmp_path)
        cache_b = FeatureCache("fp", cache_dir=tmp_path)
        key = content_key("var x = 1;")
        assert cache_a.acquire_flight(key) is True  # first claimant leads
        assert cache_b.acquire_flight(key) is False  # second follows
        assert cache_a.stats()["flights_led"] == 1
        assert cache_b.stats()["flights_followed"] == 1
        entry = make_entry()
        cache_a.put(key, entry)
        cache_a.release_flight(key)
        waited = cache_b.wait_flight(key, timeout_s=5.0)
        assert waited is not None
        assert np.array_equal(waited.row, entry.row)
        # The follower's wait promoted the entry into its memory layer.
        assert cache_b.get(key) is not None

    def test_follower_waits_while_leader_computes(self, tmp_path):
        cache_a = FeatureCache("fp", cache_dir=tmp_path)
        cache_b = FeatureCache("fp", cache_dir=tmp_path)
        key = content_key("var slow = true;")
        entry = make_entry(seed=1)
        assert cache_a.acquire_flight(key)
        assert not cache_b.acquire_flight(key)

        def leader():
            time.sleep(0.2)  # "computing"
            cache_a.put(key, entry)
            cache_a.release_flight(key)

        thread = threading.Thread(target=leader)
        thread.start()
        waited = cache_b.wait_flight(key, timeout_s=5.0)
        thread.join()
        assert waited is not None and np.array_equal(waited.row, entry.row)

    def test_leader_failure_releases_followers(self, tmp_path):
        cache_a = FeatureCache("fp", cache_dir=tmp_path)
        cache_b = FeatureCache("fp", cache_dir=tmp_path)
        key = content_key("throw new Error();")
        assert cache_a.acquire_flight(key)
        assert not cache_b.acquire_flight(key)
        cache_a.release_flight(key)  # leader faulted: released without a put
        assert cache_b.wait_flight(key, timeout_s=5.0) is None  # caller computes locally

    def test_stale_lock_is_broken(self, tmp_path):
        cache_a = FeatureCache("fp", cache_dir=tmp_path)
        cache_b = FeatureCache("fp", cache_dir=tmp_path)
        key = content_key("while(1){}")
        assert cache_a.acquire_flight(key)
        # Age the lock past the stale threshold (a leader that died).
        lock = cache_a._flight_path(key)
        old = time.time() - 120.0
        import os

        os.utime(lock, (old, old))
        cache_b.flight_stale_s = 30.0
        assert cache_b.acquire_flight(key) is True  # broke the lock, now leads

    def test_wait_timeout_returns_none(self, tmp_path):
        cache_a = FeatureCache("fp", cache_dir=tmp_path)
        cache_b = FeatureCache("fp", cache_dir=tmp_path)
        key = content_key("leader.never.finishes")
        assert cache_a.acquire_flight(key)
        assert cache_b.wait_flight(key, timeout_s=0.1) is None

    def test_no_disk_layer_means_no_coordination(self):
        cache = FeatureCache("fp")  # memory-only
        key = content_key("anything")
        assert cache.acquire_flight(key) is True
        assert cache.wait_flight(key, timeout_s=0.1) is None
        cache.release_flight(key)  # no-op, no error
        assert cache.stats()["flights_led"] == 0


class TestScannerDedup:
    def test_in_batch_duplicates_computed_once(self, detector, split):
        metrics = MetricsRegistry()
        cache = FeatureCache(detector.fingerprint(), metrics=metrics)
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

    def test_dedup_results_match_unique_scan(self, detector, split):
        source = split.test.sources[2]
        plain = BatchScanner(detector).scan([source])
        deduped = BatchScanner(detector, cache=FeatureCache(detector.fingerprint())).scan(
            [source, source]
        )
        for result in deduped.results:
            assert result.label == plain.results[0].label
            assert result.probability == plain.results[0].probability

    def test_cross_process_flight_via_scanner(self, detector, split, tmp_path):
        """A second scanner (same shared dir) leads its own flights and
        publishes entries the first can read — the shard-level contract."""
        metrics = MetricsRegistry()
        cache_a = FeatureCache(detector.fingerprint(), cache_dir=tmp_path, metrics=metrics)
        scanner_a = BatchScanner(detector, cache=cache_a, metrics=metrics)
        source = split.test.sources[3]
        scanner_a.scan([source])
        assert cache_a.stats()["flights_led"] == 1  # claimed and released
        assert (cache_a._flight_path(content_key(source))).exists() is False
        # A fresh cache (another process in real life) hits the disk entry.
        cache_b = FeatureCache(detector.fingerprint(), cache_dir=tmp_path)
        assert cache_b.get(content_key(source)) is not None
