"""Router-side LRU cache of hot scan verdicts.

The shards already cache *embeddings* (content-addressed, memory +
disk); this layer caches whole *verdicts* at the front door, so content
the cluster has just answered short-circuits before any shard fan-out —
no forward, no queue wait, no GIL.  Real scan traffic repeats heavily
(the same few library scripts are re-submitted from everywhere), which
is exactly the shape an LRU wins on.

A verdict is a pure function of ``(script content, model, scan
options)``, so the cache key is ``(content SHA-256, model epoch, scan
options)`` — the epoch is the router's own reload counter, bumped by
``/v1/admin/reload``, so a model roll invalidates every cached verdict
at once (the entries of the old epoch simply stop being reachable and
age out of the LRU).  Entries remember which shard answered, so cache
hits replay the same ``X-Shard`` attribution the consistent-hash
placement would produce.

Only successful (200) single-script ``/v1/scan`` verdicts are cached:
errors are transient routing state, not content facts, and batch scans
neither read nor fill the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import MetricsRegistry


class VerdictCache:
    """Bounded LRU from (content key, epoch, options) to a verdict dict.

    ``capacity=0`` disables the cache entirely (every lookup is a
    ``bypass``).  Thread-safe: the router's event loop owns it today,
    but ``BackgroundCluster`` tests poke it cross-thread.
    """

    def __init__(self, capacity: int = 1024, metrics: "MetricsRegistry | None" = None):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.epoch = 0  # bumped by admin reloads; part of every key
        self._entries: OrderedDict[tuple, tuple[dict, str]] = OrderedDict()
        self._lock = Lock()
        self._m = None
        if metrics is not None:
            self._m = {
                result: metrics.counter(
                    "repro_router_cache_total",
                    "Router verdict-cache lookups by result",
                    labels={"result": result},
                )
                for result in ("hit", "miss", "bypass")
            }

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, result: str) -> None:
        if self._m is not None:
            self._m[result].inc()

    def _key(self, content_key: str, options: tuple) -> tuple:
        return (content_key, self.epoch, options)

    def get(self, content_key: str, options: tuple) -> tuple[dict, str] | None:
        """The cached ``(verdict data, shard id)`` for this content under
        the current epoch, or ``None``."""
        if self.capacity == 0:
            self._count("bypass")
            return None
        key = self._key(content_key, options)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count("miss")
                return None
            self._entries.move_to_end(key)
        self._count("hit")
        return entry

    def put(self, content_key: str, options: tuple, data: dict, shard_id: str) -> None:
        if self.capacity == 0:
            return
        key = self._key(content_key, options)
        with self._lock:
            self._entries[key] = (data, shard_id)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def bump_epoch(self) -> int:
        """Model epoch changed (``/v1/admin/reload``): every key under the
        old epoch becomes unreachable.  Entries are dropped eagerly so the
        memory is reclaimed immediately, not via LRU churn."""
        with self._lock:
            self.epoch += 1
            self._entries.clear()
            return self.epoch
