"""Micro-batching queue between concurrent requests and the scan engine.

The pipeline's per-batch overhead (executor hop, feature transform, forest
dispatch — and pool startup when workers are enabled) is fixed, so ten
concurrent single-script requests cost far more dispatched individually
than coalesced into one :meth:`BatchScanner.scan` call.  The batcher:

* admits items into a bounded queue (:class:`QueueFull` is the server's
  429 signal; ``queue_limit`` is the *backlog* bound, batches already
  dispatched don't count),
* is work-conserving: as soon as the scanner is idle it dispatches
  whatever is queued, up to ``max_batch`` items, with no timer — waiting
  while the only scan thread idles would add latency and coalesce nothing,
* dispatches one batch at a time to the scan callable in an executor
  thread (the scanner and its cache are not concurrency-safe; serializing
  batches also lets the queue refill while a batch runs, which is what
  makes the batching *adaptive* under load), handing it each item's
  per-request options (its ``meta``) alongside the sources, so options
  such as ``deobfuscate`` take effect per script inside one batch,
* drops items whose waiter already gave up (a timed-out request, a
  rejected batch request) instead of scanning them,
* resolves each item's future with its :class:`ScanResult` plus the
  enclosing :class:`ScanReport`; when a batch of several items raises, it
  scans each item alone, so only a script whose own scan raises is
  answered with the error,
* drains cleanly: :meth:`drain` stops admission (:class:`Draining`) and
  waits until every admitted item has been answered.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Executor

    from repro.obs import MetricsRegistry
    from repro.pipeline import ScanReport


class QueueFull(Exception):
    """Backlog at ``queue_limit``; the server answers 429 + Retry-After."""


class Draining(Exception):
    """Shutdown in progress; no new work is admitted (503)."""


@dataclass
class _Item:
    source: str
    name: str
    future: asyncio.Future = field(repr=False)
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: Per-item request options (e.g. ``{"trace": True}``), handed to the
    #: scan callable with the batch.
    meta: dict = field(default_factory=dict)


#: Dispatched batch sizes kept in :attr:`MicroBatcher.batch_sizes`.
BATCH_SIZE_HISTORY = 256


class MicroBatcher:
    """Coalesce concurrent scan submissions into bounded batches.

    Args:
        scan: ``scan(sources, names, metas) -> ScanReport``, with one meta
            dict per item; runs in ``executor``.
        executor: Where ``scan`` executes (typically a single-thread pool —
            see the class docstring for why batches are serialized).
        max_batch: Most items dispatched in one batch.
        queue_limit: Maximum admitted-but-undispatched items.
        metrics: Optional registry for queue/batch/latency metrics.
    """

    def __init__(
        self,
        scan: Callable[..., "ScanReport"],
        executor: "Executor",
        max_batch: int = 8,
        queue_limit: int = 64,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        self._scan = scan
        self._executor = executor
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self._queue: asyncio.Queue[_Item] = asyncio.Queue()
        self._pending = 0  # admitted, not yet dispatched
        self._outstanding: set[asyncio.Future] = set()  # admitted, not yet resolved
        self._draining = False
        self._task: asyncio.Task | None = None
        #: Sizes of the most recent dispatched batches, oldest first
        #: (test/bench hook).
        self.batch_sizes: deque[int] = deque(maxlen=BATCH_SIZE_HISTORY)

        self._metrics = metrics
        if metrics is not None:
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

            self._m_depth = metrics.gauge(
                "repro_serve_queue_depth", "Scripts admitted and awaiting dispatch"
            )
            self._m_batches = metrics.counter(
                "repro_serve_batches_total", "Micro-batches flushed to the scan engine"
            )
            self._m_batch_size = metrics.histogram(
                "repro_serve_batch_size_scripts", "Scripts per flushed micro-batch",
                buckets=DEFAULT_SIZE_BUCKETS,
            )
            self._m_queue_wait = metrics.histogram(
                "repro_serve_queue_wait_seconds", "Time from admission to dispatch"
            )
            self._m_rejected = metrics.counter(
                "repro_serve_rejected_total", "Submissions refused at admission",
                labels={"reason": "queue_full"},
            )
            self._m_rejected_draining = metrics.counter(
                "repro_serve_rejected_total", "Submissions refused at admission",
                labels={"reason": "draining"},
            )

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn the flush loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Refuse new work, answer everything already admitted, stop."""
        self._draining = True
        if self._outstanding:
            await asyncio.gather(*self._outstanding, return_exceptions=True)
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    @property
    def queue_depth(self) -> int:
        return self._pending

    # ------------------------------------------------------------- admission

    def submit(self, source: str, name: str, meta: dict | None = None) -> asyncio.Future:
        """Admit one script; the future resolves to ``(ScanResult, ScanReport)``."""
        if self._draining:
            if self._metrics is not None:
                self._m_rejected_draining.inc()
            raise Draining("server is draining")
        if self._pending >= self.queue_limit:
            if self._metrics is not None:
                self._m_rejected.inc()
            raise QueueFull(f"scan queue at limit ({self.queue_limit})")
        future = asyncio.get_running_loop().create_future()
        self._pending += 1
        self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        self._queue.put_nowait(_Item(source=source, name=name, future=future, meta=meta or {}))
        if self._metrics is not None:
            self._m_depth.set(self._pending)
        return future

    # ------------------------------------------------------------ flush loop

    async def _run(self) -> None:
        while True:
            batch: list[_Item] = []
            self._take(await self._queue.get(), batch)
            while len(batch) < self.max_batch and not self._queue.empty():
                self._take(self._queue.get_nowait(), batch)
            if self._metrics is not None:
                self._m_depth.set(self._pending)
            if batch:
                await self._dispatch(batch)

    def _take(self, item: _Item, batch: list[_Item]) -> None:
        self._pending -= 1
        if not item.future.done():  # a waiter that gave up is not scanned
            batch.append(item)

    async def _dispatch(self, batch: list[_Item]) -> None:
        if self._metrics is not None:
            self._m_batches.inc()
            self._m_batch_size.observe(len(batch))
            now = time.perf_counter()
            for item in batch:
                self._m_queue_wait.observe(now - item.enqueued_at)
        self.batch_sizes.append(len(batch))
        await self._scan_and_answer(batch)

    async def _scan_and_answer(self, batch: list[_Item]) -> None:
        loop = asyncio.get_running_loop()
        sources = [item.source for item in batch]
        names = [item.name for item in batch]
        metas = [item.meta for item in batch]
        try:
            report = await loop.run_in_executor(self._executor, self._scan, sources, names, metas)
        except Exception as error:
            if len(batch) > 1:
                # One script that breaks the scan must not fail its
                # batch-mates: scan each alone, so only a script whose own
                # scan raises gets the error.
                for item in batch:
                    if not item.future.done():
                        await self._scan_and_answer([item])
                return
            if not batch[0].future.done():
                batch[0].future.set_exception(error)
            return
        for item, result in zip(batch, report.results):
            if not item.future.done():  # timed-out waiters already gave up
                item.future.set_result((result, report))
