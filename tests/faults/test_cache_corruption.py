"""Disk-cache hardening: corrupt bytes decay to a counted miss.

The on-disk layer persists across processes, so its files are hostile
input too — truncated writes, bit flips, stale formats.  Every corruption
mode must read back as a miss (plus ``repro_cache_corrupt_total``) and the
poisoned file must be removed so the slot heals on the next put.
"""

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.pipeline import CACHE_FORMAT_VERSION, CacheEntry, FeatureCache


def make_cache(tmp_path, metrics=None):
    return FeatureCache("f" * 64, cache_dir=tmp_path, metrics=metrics)


def entry():
    return CacheEntry(row=np.array([0.5, 0.3, 0.2, 0.0]), path_count=3)


def stored_path(tmp_path, key):
    [path] = list((tmp_path / f"v{CACHE_FORMAT_VERSION}" / ("f" * 16)).glob(f"{key}.npz"))
    return path


class TestDiskCorruption:
    KEY = "a" * 64

    def put_one(self, tmp_path, metrics=None):
        cache = make_cache(tmp_path, metrics=metrics)
        cache.put(self.KEY, entry())
        return stored_path(tmp_path, self.KEY)

    def fresh_reader(self, tmp_path, metrics=None):
        # A new instance with an empty memory layer, forced to the disk path.
        return make_cache(tmp_path, metrics=metrics)

    def test_round_trip_sanity(self, tmp_path):
        self.put_one(tmp_path)
        got = self.fresh_reader(tmp_path).get(self.KEY)
        assert got is not None
        assert np.array_equal(got.row, entry().row)
        assert got.path_count == 3

    def test_bit_flip_is_a_counted_miss_and_file_is_removed(self, tmp_path):
        path = self.put_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        metrics = MetricsRegistry()
        cache = self.fresh_reader(tmp_path, metrics=metrics)
        assert cache.get(self.KEY) is None
        assert cache.stats()["corrupt"] == 1
        assert cache.stats()["misses"] == 1
        assert not path.exists()
        assert "repro_cache_corrupt_total 1" in metrics.render()

    def test_truncated_file_is_a_counted_miss(self, tmp_path):
        path = self.put_one(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        cache = self.fresh_reader(tmp_path)
        assert cache.get(self.KEY) is None
        assert cache.stats()["corrupt"] == 1
        assert not path.exists()

    def test_empty_file_is_a_counted_miss(self, tmp_path):
        path = self.put_one(tmp_path)
        path.write_bytes(b"")
        cache = self.fresh_reader(tmp_path)
        assert cache.get(self.KEY) is None
        assert cache.stats()["corrupt"] == 1

    def test_wrong_format_version_is_rejected(self, tmp_path):
        path = self.put_one(tmp_path)
        e = entry()
        with path.open("wb") as handle:
            np.savez_compressed(
                handle,
                row=e.row,
                path_count=np.int64(e.path_count),
                format_version=np.int64(CACHE_FORMAT_VERSION + 1),
            )
        cache = self.fresh_reader(tmp_path)
        assert cache.get(self.KEY) is None
        assert cache.stats()["corrupt"] == 1
        assert not path.exists()

    def test_missing_format_version_is_rejected(self, tmp_path):
        # Pre-versioning files (seed era) must be invalidated, not trusted.
        path = self.put_one(tmp_path)
        e = entry()
        with path.open("wb") as handle:
            np.savez_compressed(handle, row=e.row, path_count=np.int64(e.path_count))
        cache = self.fresh_reader(tmp_path)
        assert cache.get(self.KEY) is None
        assert cache.stats()["corrupt"] == 1

    def test_shape_mismatch_is_rejected(self, tmp_path):
        path = self.put_one(tmp_path)
        with path.open("wb") as handle:
            np.savez_compressed(
                handle,
                row=np.zeros((3, 4)),  # a row is one-dimensional
                path_count=np.int64(3),
                format_version=np.int64(CACHE_FORMAT_VERSION),
            )
        cache = self.fresh_reader(tmp_path)
        assert cache.get(self.KEY) is None
        assert cache.stats()["corrupt"] == 1

    def test_version_one_archive_is_a_plain_miss_left_in_place(self, tmp_path):
        # A version-1 shard sharing this cache_dir wrote (vectors, weights)
        # archives directly under <fp16>/.  They sit outside the versioned
        # root, so they are never opened: not corrupt, and not unlinked.
        old = tmp_path / ("f" * 16) / f"{self.KEY}.npz"
        old.parent.mkdir(parents=True)
        with old.open("wb") as handle:
            np.savez_compressed(
                handle,
                vectors=np.arange(12, dtype=np.float64).reshape(3, 4),
                weights=np.array([0.5, 0.3, 0.2]),
                path_count=np.int64(3),
                format_version=np.int64(1),
            )
        metrics = MetricsRegistry()
        cache = make_cache(tmp_path, metrics=metrics)
        assert cache.get(self.KEY) is None
        assert cache.stats()["corrupt"] == 0
        assert cache.stats()["misses"] == 1
        assert old.exists()
        assert "repro_cache_corrupt_total 0" in metrics.render()

    def test_slot_heals_after_corruption(self, tmp_path):
        path = self.put_one(tmp_path)
        path.write_bytes(b"garbage")
        cache = self.fresh_reader(tmp_path)
        assert cache.get(self.KEY) is None
        cache.put(self.KEY, entry())
        reread = self.fresh_reader(tmp_path).get(self.KEY)
        assert reread is not None and reread.path_count == 3

    def test_memory_layer_is_untouched_by_disk_corruption(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(self.KEY, entry())
        stored_path(tmp_path, self.KEY).write_bytes(b"garbage")
        # Memory hit wins; the corrupt disk file is never consulted.
        assert cache.get(self.KEY) is not None
        assert cache.stats()["corrupt"] == 0


@pytest.mark.parametrize("garbage", [b"not an npz", b"PK\x03\x04 truncated zip header"])
def test_arbitrary_garbage_never_raises(tmp_path, garbage):
    cache = make_cache(tmp_path)
    cache.put("b" * 64, entry())
    stored_path(tmp_path, "b" * 64).write_bytes(garbage)
    fresh = make_cache(tmp_path)
    assert fresh.get("b" * 64) is None
    assert fresh.stats()["corrupt"] == 1
