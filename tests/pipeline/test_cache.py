"""Unit tests for the content-addressed cluster-row cache."""

import numpy as np
import pytest

from repro.pipeline import CacheEntry, FeatureCache, content_key


def make_entry(seed=0, n=4, n_features=8):
    rng = np.random.default_rng(seed)
    return CacheEntry(row=rng.random(n_features), path_count=n + 3)


class TestContentKey:
    def test_deterministic(self):
        assert content_key("var a = 1;") == content_key("var a = 1;")

    def test_distinct_sources_distinct_keys(self):
        assert content_key("var a = 1;") != content_key("var a = 2;")

    def test_is_sha256_hex(self):
        key = content_key("x")
        assert len(key) == 64
        int(key, 16)  # parses as hex


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = FeatureCache("fp")
        key = content_key("a")
        assert cache.get(key) is None
        cache.put(key, make_entry())
        entry = cache.get(key)
        assert entry is not None and entry.path_count == 7
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_oldest(self):
        cache = FeatureCache("fp", max_entries=2)
        keys = [content_key(str(i)) for i in range(3)]
        cache.put(keys[0], make_entry(0))
        cache.put(keys[1], make_entry(1))
        cache.get(keys[0])  # refresh 0: now 1 is least recent
        cache.put(keys[2], make_entry(2))
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[2]) is not None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FeatureCache("fp", max_entries=0)


class TestDiskLayer:
    def test_survives_across_instances(self, tmp_path):
        key = content_key("script")
        entry = make_entry(5)
        FeatureCache("fp", cache_dir=tmp_path).put(key, entry)

        fresh = FeatureCache("fp", cache_dir=tmp_path)
        restored = fresh.get(key)
        assert restored is not None
        assert restored.row.tobytes() == entry.row.tobytes()
        assert restored.path_count == entry.path_count
        assert fresh.disk_hits == 1

    def test_fingerprint_namespaces_entries(self, tmp_path):
        key = content_key("script")
        FeatureCache("model-a", cache_dir=tmp_path).put(key, make_entry())
        other = FeatureCache("model-b", cache_dir=tmp_path)
        assert other.get(key) is None  # a retrained model never sees stale entries

    def test_corrupt_file_is_a_miss_and_healed(self, tmp_path):
        cache = FeatureCache("fp", cache_dir=tmp_path)
        key = content_key("script")
        cache.put(key, make_entry())
        path = next((tmp_path / "v2" / "fp").glob("*.npz"))
        path.write_bytes(b"not an npz archive")

        fresh = FeatureCache("fp", cache_dir=tmp_path)
        assert fresh.get(key) is None
        assert not path.exists()  # corrupt file removed
        fresh.put(key, make_entry())
        assert FeatureCache("fp", cache_dir=tmp_path).get(key) is not None

    def test_disk_promotes_into_memory(self, tmp_path):
        key = content_key("script")
        FeatureCache("fp", cache_dir=tmp_path).put(key, make_entry())
        fresh = FeatureCache("fp", cache_dir=tmp_path)
        fresh.get(key)
        fresh.get(key)
        assert fresh.disk_hits == 1  # second hit served from memory
        assert fresh.hits == 2

    def test_stats_shape(self, tmp_path):
        cache = FeatureCache("fp", cache_dir=tmp_path)
        stats = cache.stats()
        assert set(stats) == {
            "hits", "misses", "disk_hits", "evictions", "corrupt", "entries",
        }
