"""Content-addressed cache for each script's raw cluster row.

Path extraction dominates per-file cost (Table VIII: ~570 of ~900 ms), and
real scanning workloads re-see the same scripts constantly (vendored
libraries, CDN copies, re-crawls).  Extraction, embedding and cluster
aggregation (:meth:`~repro.core.prefix.ScriptPrefix.script_row`) are pure
functions of (source bytes, model), so their output is cacheable under a
content address:

* **key** — SHA-256 of the script source,
* **namespace** — the detector's *model fingerprint*: a hash of its saved
  tensors (cluster centers and radii included) and of every setting the
  row depends on (path limits, ``use_dataflow``, the path cap, the
  ``assignment`` rule and its radius factor), so a cache can never serve a
  row computed by a retrained or differently configured model,
* **value** — the script's raw cluster row (Sec. III-D, before Eq. 6's
  per-script min–max: ``n_features`` floats) plus the raw path count.
  Eq. 6 needs nothing beyond the row itself, so the post-cap path vectors
  (up to 300 × d floats) are never kept.

Two layers: a bounded in-memory LRU (always on) and an optional on-disk
layer under ``cache_dir/v<CACHE_FORMAT_VERSION>/<fingerprint>/`` that
survives across processes — the second CLI run over the same corpus skips
extraction entirely.  Processes sharing one ``cache_dir`` (cluster shards)
take no locks: two that miss one key at the same moment both compute it,
and write-then-rename makes either copy a whole, identical archive.  The
router's consistent hashing already sends each key to one owner.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import MetricsRegistry


def content_key(source: str) -> str:
    """SHA-256 content address of one script."""
    return hashlib.sha256(source.encode("utf-8", errors="replace")).hexdigest()


#: On-disk archive layout version.  It names the disk root
#: (``cache_dir/v2/``), so files of another version are never opened and
#: processes of two versions can share one ``cache_dir`` without deleting
#: each other's entries.  It is also stored inside every ``.npz``; a file
#: under this root carrying any other version (or none) is treated as
#: corrupt — miss, counted, removed — rather than deserialized on faith.
CACHE_FORMAT_VERSION = 2


@dataclass
class CacheEntry:
    """One script's per-script pipeline prefix: its raw cluster row."""

    row: np.ndarray  # (n_features,) cluster row before Eq. 6's min–max
    path_count: int  # contexts extracted before the per-script cap


class FeatureCache:
    """Two-layer (memory LRU + optional disk) cluster-row cache.

    Args:
        model_fingerprint: Namespace key; entries written under one
            fingerprint are invisible to every other (stale-model safety).
        max_entries: In-memory LRU capacity.
        cache_dir: Optional persistent layer root.  Layout is
            ``cache_dir/v2/<fingerprint16>/<content_key>.npz``, ``v2``
            being :data:`CACHE_FORMAT_VERSION`.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when given,
            lookups and LRU evictions are mirrored into
            ``repro_cache_lookups_total{result=hit|miss}`` and
            ``repro_cache_evictions_total``.
    """

    def __init__(
        self,
        model_fingerprint: str,
        max_entries: int = 4096,
        cache_dir: str | Path | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.model_fingerprint = model_fingerprint
        self.max_entries = max_entries
        self._memory: OrderedDict[str, CacheEntry] = OrderedDict()
        self._disk_root: Path | None = None
        if cache_dir is not None:
            # First 16 hex chars keep directory names short; collisions over
            # 64 bits of a cryptographic hash are not a practical concern.
            self._disk_root = (
                Path(cache_dir) / f"v{CACHE_FORMAT_VERSION}" / model_fingerprint[:16]
            )
            self._disk_root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.corrupt = 0
        self._m_hits = self._m_misses = self._m_evictions = self._m_corrupt = None
        if metrics is not None:
            self._m_hits = metrics.counter(
                "repro_cache_lookups_total", "Embedding-cache lookups", labels={"result": "hit"}
            )
            self._m_misses = metrics.counter(
                "repro_cache_lookups_total", "Embedding-cache lookups", labels={"result": "miss"}
            )
            self._m_evictions = metrics.counter(
                "repro_cache_evictions_total", "In-memory LRU evictions"
            )
            self._m_corrupt = metrics.counter(
                "repro_cache_corrupt_total",
                "Disk-cache files rejected (truncated, bit-flipped, or wrong format version)",
            )

    def __len__(self) -> int:
        return len(self._memory)

    # ---------------------------------------------------------------- lookup

    def get(self, key: str) -> CacheEntry | None:
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self._record_hit()
            return entry
        entry = self._disk_get(key)
        if entry is not None:
            self._remember(key, entry)
            self._record_hit()
            self.disk_hits += 1
            return entry
        self.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        return None

    def _record_hit(self) -> None:
        self.hits += 1
        if self._m_hits is not None:
            self._m_hits.inc()

    def put(self, key: str, entry: CacheEntry) -> None:
        self._remember(key, entry)
        self._disk_put(key, entry)

    def _remember(self, key: str, entry: CacheEntry) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.evictions += 1
            if self._m_evictions is not None:
                self._m_evictions.inc()

    # ----------------------------------------------------------------- disk

    def _disk_path(self, key: str) -> Path | None:
        return self._disk_root / f"{key}.npz" if self._disk_root is not None else None

    def _disk_get(self, key: str) -> CacheEntry | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path) as arrays:
                if int(arrays["format_version"]) != CACHE_FORMAT_VERSION:
                    raise ValueError("cache format version mismatch")
                entry = CacheEntry(
                    row=np.asarray(arrays["row"], dtype=np.float64),
                    path_count=int(arrays["path_count"]),
                )
            if entry.row.ndim != 1:
                raise ValueError("cache entry shape mismatch")
            return entry
        except Exception:
            # Disk bytes are hostile input too: truncated writes, bit flips,
            # and stale formats must all decay to a counted miss (the slot
            # heals on the next put), never to a crash or a wrong verdict.
            self._record_corrupt(path)
            return None

    def _record_corrupt(self, path: Path) -> None:
        self.corrupt += 1
        if self._m_corrupt is not None:
            self._m_corrupt.inc()
        try:
            path.unlink()
        except OSError:
            pass

    def _disk_put(self, key: str, entry: CacheEntry) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        # Write-then-rename keeps concurrent readers from ever seeing a
        # partially written archive.
        fd, tmp_name = tempfile.mkstemp(dir=str(self._disk_root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(
                    handle,
                    row=entry.row,
                    path_count=np.int64(entry.path_count),
                    format_version=np.int64(CACHE_FORMAT_VERSION),
                )
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    # ----------------------------------------------------------------- stats

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "entries": len(self._memory),
        }
