"""Micro-batcher semantics: work-conserving dispatch, coalescing,
backpressure, drain.

These tests drive the batcher directly (no HTTP, no model): the scan
callable is a stub that fabricates :class:`ScanReport` objects, so every
assertion about batching behavior is deterministic.
"""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import MetricsRegistry
from repro.pipeline import ScanReport, ScanResult
from repro.serve.batching import Draining, MicroBatcher, QueueFull


def fake_scan(sources, names, metas):
    """Deterministic stand-in for BatchScanner.scan."""
    results = [
        ScanResult(
            path=name,
            label=int(len(source) % 2),
            probability=float(len(source) % 2),
            malicious=bool(len(source) % 2),
            path_count=1,
            cache_hit=False,
        )
        for source, name in zip(sources, names)
    ]
    return ScanReport(results=results)


def run(coro):
    return asyncio.run(coro)


class RecordingScan:
    """``fake_scan`` that records the names of every batch it receives.

    With ``gate=True`` its first batch blocks until ``release`` is set, so
    tests queue work behind that batch without sleeping and what arrives
    while the scanner is busy is exact.
    """

    def __init__(self, gate: bool = False):
        self.release = threading.Event()
        if not gate:
            self.release.set()
        self.seen: list[list[str]] = []

    def __call__(self, sources, names, metas):
        self.seen.append(list(names))
        if len(self.seen) == 1:
            self.release.wait(timeout=10)
        return fake_scan(sources, names, metas)


async def turns_until(condition, limit: int = 100) -> int:
    """Yield to the event loop until ``condition()`` holds; return the turns taken."""
    for turns in range(1, limit + 1):
        await asyncio.sleep(0)
        if condition():
            return turns
    raise AssertionError(f"condition not reached in {limit} event-loop turns")


def make_batcher(executor, **kwargs):
    defaults = dict(max_batch=4, queue_limit=64)
    defaults.update(kwargs)
    return MicroBatcher(fake_scan, executor=executor, **defaults)


class TestCoalescing:
    def test_concurrent_submits_coalesce_into_max_batch_chunks(self):
        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor, max_batch=4)
                # All eight admitted before the flush loop starts: the
                # coalescing is then fully deterministic — ceil(8/4) batches.
                futures = [batcher.submit(f"src{i}", f"n{i}") for i in range(8)]
                batcher.start()
                resolved = await asyncio.gather(*futures)
                await batcher.drain()
                return list(batcher.batch_sizes), resolved

        batch_sizes, resolved = run(go())
        assert batch_sizes == [4, 4]
        assert [result.path for result, _ in resolved] == [f"n{i}" for i in range(8)]

    def test_partial_batch_flushes_once_scanner_is_idle(self):
        gate = RecordingScan(gate=True)

        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(gate, executor=executor, max_batch=10, queue_limit=64)
                batcher.start()
                first = batcher.submit("a", "first")
                await turns_until(lambda: list(batcher.batch_sizes) == [1])
                late = [batcher.submit("bb", "x"), batcher.submit("ccc", "y")]
                gate.release.set()
                await asyncio.gather(first, *late)
                await batcher.drain()
                return list(batcher.batch_sizes)

        # The two late arrivals go out together the moment the scanner is
        # free, without waiting to reach max_batch.
        assert run(go()) == [1, 2]

    def test_lone_submission_on_idle_batcher_dispatches_at_once(self):
        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor, max_batch=8)
                batcher.start()
                await asyncio.sleep(0)  # the flush loop now awaits the queue
                started = time.perf_counter()
                future = batcher.submit("a", "lone")
                turns = await turns_until(lambda: list(batcher.batch_sizes) == [1])
                elapsed = time.perf_counter() - started
                result, _ = await future
                await batcher.drain()
                return turns, elapsed, result.path

        turns, elapsed, path = run(go())
        assert path == "lone"
        # Dispatched on the next event-loop turns: no timer, no real wait.
        assert turns <= 3
        assert elapsed < 0.5

    def test_arrivals_during_a_batch_go_out_together_in_max_batch_chunks(self):
        gate = RecordingScan(gate=True)

        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(gate, executor=executor, max_batch=4, queue_limit=64)
                batcher.start()
                first = batcher.submit("a", "first")
                await turns_until(lambda: list(batcher.batch_sizes) == [1])
                late = [batcher.submit("s" * i, f"n{i}") for i in range(5)]
                gate.release.set()
                resolved = await asyncio.gather(first, *late)
                await batcher.drain()
                return list(batcher.batch_sizes), gate.seen, [r.path for r, _ in resolved]

        batch_sizes, seen, paths = run(go())
        assert batch_sizes == [1, 4, 1]
        assert seen == [["first"], ["n0", "n1", "n2", "n3"], ["n4"]]
        assert paths == ["first"] + [f"n{i}" for i in range(5)]

    def test_results_map_back_to_submitters(self):
        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor)
                futures = {name: batcher.submit(source, name)
                           for name, source in (("even", "ab"), ("odd", "abc"))}
                batcher.start()
                out = {}
                for name, future in futures.items():
                    result, report = await future
                    out[name] = result
                await batcher.drain()
                return out

        out = run(go())
        assert out["even"].label == 0 and out["odd"].label == 1
        assert out["even"].path == "even" and out["odd"].path == "odd"


class TestBackpressure:
    def test_queue_full_raises(self):
        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor, queue_limit=2)
                # Not started: nothing drains the queue.
                batcher.submit("a", "a")
                batcher.submit("b", "b")
                with pytest.raises(QueueFull):
                    batcher.submit("c", "c")
                assert batcher.queue_depth == 2
                batcher.start()
                await asyncio.gather(*list(batcher._outstanding))
                await batcher.drain()

        run(go())

    def test_rejection_is_counted(self):
        async def go():
            registry = MetricsRegistry()
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor, queue_limit=1, metrics=registry)
                batcher.submit("a", "a")
                with pytest.raises(QueueFull):
                    batcher.submit("b", "b")
                batcher.start()
                await asyncio.gather(*list(batcher._outstanding))
                await batcher.drain()
            return registry

        registry = run(go())
        rejected = registry.get("repro_serve_rejected_total", {"reason": "queue_full"})
        assert rejected.value == 1
        assert registry.get("repro_serve_batches_total").value == 1


class TestDrain:
    def test_drain_answers_everything_admitted(self):
        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor, max_batch=2)
                futures = [batcher.submit(f"s{i}", f"n{i}") for i in range(5)]
                batcher.start()
                await batcher.drain()
                assert all(f.done() for f in futures)
                return [f.result()[0].path for f in futures]

        assert run(go()) == [f"n{i}" for i in range(5)]

    def test_draining_rejects_new_submissions(self):
        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor)
                batcher.start()
                await batcher.drain()
                with pytest.raises(Draining):
                    batcher.submit("late", "late")

        run(go())

    def test_drain_waits_for_slow_scan(self):
        release = threading.Event()

        def slow_scan(sources, names, metas):
            release.wait(timeout=10)
            return fake_scan(sources, names, metas)

        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(slow_scan, executor=executor, max_batch=1, queue_limit=8)
                batcher.start()
                future = batcher.submit("x", "x")
                await asyncio.sleep(0.05)  # let the batch enter the executor
                asyncio.get_running_loop().call_later(0.05, release.set)
                started = time.perf_counter()
                await batcher.drain()
                assert future.done()
                return time.perf_counter() - started

        assert run(go()) >= 0.04  # drain blocked until the scan finished


class TestBatchSizeHistory:
    def test_only_the_most_recent_sizes_are_kept(self):
        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = make_batcher(executor, max_batch=4, queue_limit=100_000)
                history = batcher.batch_sizes.maxlen
                # All admitted before the flush loop starts: `history` full
                # batches, then one batch of a single item.
                futures = [batcher.submit("s", f"n{i}") for i in range(4 * history + 1)]
                batcher.start()
                await asyncio.gather(*futures)
                await batcher.drain()
                return history, list(batcher.batch_sizes)

        history, sizes = run(go())
        assert sizes == [4] * (history - 1) + [1]


class TestAbandonedWaiters:
    def test_cancelled_items_are_not_scanned_and_depth_settles(self):
        scan = RecordingScan()

        async def go():
            registry = MetricsRegistry()
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(scan, executor=executor, max_batch=4, queue_limit=8, metrics=registry)
                futures = [batcher.submit(s, s) for s in ("a", "b", "c")]
                futures[1].cancel()  # e.g. its request timed out while queued
                batcher.start()
                resolved = await asyncio.gather(futures[0], futures[2])
                depth = batcher.queue_depth
                await batcher.drain()
            gauge = registry.get("repro_serve_queue_depth").value
            return [r.path for r, _ in resolved], depth, gauge, list(batcher.batch_sizes)

        paths, depth, gauge, batch_sizes = run(go())
        assert scan.seen == [["a", "c"]]
        assert paths == ["a", "c"]
        assert batch_sizes == [2]
        assert depth == 0 and gauge == 0

    def test_batch_of_only_cancelled_items_is_skipped(self):
        scan = RecordingScan()

        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(scan, executor=executor, max_batch=4, queue_limit=8)
                batcher.submit("gone", "gone").cancel()
                batcher.start()
                live = batcher.submit("x", "live")
                await live
                await batcher.drain()
                return batcher.queue_depth, list(batcher.batch_sizes)

        depth, batch_sizes = run(go())
        assert scan.seen == [["live"]]
        assert batch_sizes == [1]
        assert depth == 0


class TestFailures:
    def test_scan_exception_propagates_to_futures(self):
        def broken_scan(sources, names, metas):
            raise RuntimeError("engine on fire")

        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(broken_scan, executor=executor, max_batch=4, queue_limit=8)
                batcher.start()
                future = batcher.submit("x", "x")
                with pytest.raises(RuntimeError, match="engine on fire"):
                    await future
                await batcher.drain()

        run(go())

    def test_one_failing_script_fails_only_itself(self):
        seen: list[list[str]] = []

        def scan(sources, names, metas):
            seen.append(list(names))
            if "poison" in sources:
                raise RuntimeError("poison")
            return fake_scan(sources, names, metas)

        async def go():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(scan, executor=executor, max_batch=4, queue_limit=8)
                batcher.start()
                sources = ["a", "poison", "bb", "ccc"]
                futures = [batcher.submit(source, f"s{i}") for i, source in enumerate(sources)]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                await batcher.drain()
                return outcomes, list(batcher.batch_sizes)

        outcomes, batch_sizes = run(go())
        # One micro-batch of four; it raised, so each script was scanned alone.
        assert batch_sizes == [4]
        assert seen == [["s0", "s1", "s2", "s3"], ["s0"], ["s1"], ["s2"], ["s3"]]
        assert isinstance(outcomes[1], RuntimeError)
        answered = [outcome for i, outcome in enumerate(outcomes) if i != 1]
        assert [(result.path, result.label, len(report.results)) for result, report in answered] == [
            ("s0", 1, 1), ("s2", 0, 1), ("s3", 1, 1)
        ]

    def test_constructor_validation(self):
        with ThreadPoolExecutor(max_workers=1) as executor:
            with pytest.raises(ValueError):
                MicroBatcher(fake_scan, executor=executor, max_batch=0)
            with pytest.raises(ValueError):
                MicroBatcher(fake_scan, executor=executor, queue_limit=0)
