"""Fault-isolated worker pool: one hostile script cannot take down a batch.

``multiprocessing.Pool`` is the wrong tool for adversarial inputs: it
multiplexes tasks over shared queues, so the parent never knows *which*
worker is chewing on *which* script — a SIGKILLed worker silently orphans
its task (``AsyncResult.get`` blocks forever), and recovering means tearing
down and re-dispatching the whole batch.  :class:`IsolatedPool` instead
gives every worker a private duplex pipe and tracks exactly one in-flight
task per worker, which buys the three properties the isolation layer needs:

* **attribution** — when a worker dies or overruns its deadline, the
  supervisor knows precisely which script is the poison,
* **containment** — only the poison script's worker is killed and
  replaced; every other worker keeps its task and its warm state,
* **classification** — exit codes and reply envelopes separate ``timeout``
  (parent kill), ``oom`` (``MemoryError`` under rlimit, reported
  gracefully), and ``crashed`` (signal death, injected exit, exception).

Workers apply :func:`~repro.faults.limits.apply_rlimits` at bootstrap and
answer each task with either an ``ok`` payload or a structured fault; the
parent never trusts a worker to stay alive and enforces wall-clock
deadlines itself via ``multiprocessing.connection.wait`` + SIGKILL.
Workers record no spans: an :class:`Outcome` carries the task's measured
run time and the answering worker's pid, and the caller builds its
``worker.<kind>`` span from those (see :class:`~repro.pipeline.BatchScanner`).

An embed task is one call of
:meth:`~repro.core.prefix.ScriptPrefix.script_row` on the prefix the pool
was built with (a plain prefix over a fitted detector's parts), the same
call an in-process scan makes on the detector itself; its payload is the
:class:`~repro.core.prefix.ScriptRow`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .inject import InjectedFault, maybe_inject
from .limits import ScanLimits, apply_rlimits, read_rusage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prefix import ScriptPrefix

CAUSE_TIMEOUT = "timeout"
CAUSE_OOM = "oom"
CAUSE_CRASHED = "crashed"

#: Result statuses that mean "a worker was lost to this script".
FAULT_CAUSES = (CAUSE_TIMEOUT, CAUSE_OOM, CAUSE_CRASHED)

#: How many fresh workers one task may burn through before the pool gives
#: up on it (covers workers that die while idle, not the task's fault).
_MAX_ASSIGN_ATTEMPTS = 3


@dataclass
class Task:
    """One unit of isolated work; ``index`` is the caller's correlation id."""

    kind: str  # "embed" | "analyze"
    index: int
    source: str
    name: str = "<script>"
    #: Embed tasks: ship the top attention paths back as provenance.
    capture_paths: bool = False


@dataclass
class Outcome:
    """What became of one task: a payload, or a classified fault."""

    index: int
    kind: str
    ok: bool
    payload: Any = None  # embed: a ScriptRow; analyze: an AnalysisReport dict
    cause: str | None = None  # FAULT_CAUSES member when not ok
    detail: str | None = None
    rusage: dict | None = None
    elapsed_ms: float = 0.0  # the task's run time, measured in the worker
    pid: int | None = None  # the worker that replied; ``None`` when none did


# ----------------------------------------------------------------- worker side


def _worker_main(conn, prefix: "ScriptPrefix | None", limits_dict: dict | None) -> None:
    """Worker loop: apply rlimits, then answer tasks until told to stop."""
    limits = ScanLimits.from_dict(limits_dict)
    if limits is not None:
        apply_rlimits(limits)
    analyzer = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        kind, index, source, name, capture_paths = message
        started = time.perf_counter()
        try:
            if kind == "embed":
                maybe_inject(source, stage="embed")
                payload = prefix.script_row(source, capture_paths)
            elif kind == "analyze":
                if analyzer is None:
                    from repro.analysis import Analyzer

                    analyzer = Analyzer()
                maybe_inject(source, stage="analysis")
                payload = analyzer.analyze(source, name=name).to_dict()
            else:
                raise ValueError(f"unknown task kind {kind!r}")
            reply = (index, kind, "ok", payload, None, None)
        except MemoryError:
            # The rlimit refused an allocation: the script is an OOM, the
            # worker itself is fine (the failed frame released its memory).
            reply = (index, kind, "fault", None, CAUSE_OOM, "MemoryError under rlimit")
        except InjectedFault as error:
            reply = (index, kind, "fault", None, CAUSE_CRASHED, f"injected: {error}")
        except Exception as error:
            reply = (index, kind, "fault", None, CAUSE_CRASHED, f"{type(error).__name__}: {error}")
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        try:
            conn.send(reply + (read_rusage(), elapsed_ms))
        except Exception:
            # Can't even report (pipe gone, reply unpicklable): die loudly so
            # the parent's death classifier takes over.
            import os

            os._exit(70)


# ----------------------------------------------------------------- parent side


class _Worker:
    """One process + its private pipe + the task it is running."""

    def __init__(self, ctx, prefix: "ScriptPrefix | None", limits: ScanLimits | None):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, prefix, limits.to_dict() if limits is not None else None),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.task: Task | None = None
        self.deadline: float | None = None
        self.attempts = 0  # assignment attempts for the current task

    def assign(self, task: Task, timeout_s: float | None) -> None:
        self.task = task
        self.deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        self.conn.send((task.kind, task.index, task.source, task.name, task.capture_paths))

    def clear(self) -> None:
        self.task = None
        self.deadline = None
        self.attempts = 0

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:
            pass
        self.process.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except Exception:
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.kill()
        try:
            self.conn.close()
        except Exception:
            pass


def _stop_workers(workers: list[_Worker]) -> None:
    for worker in list(workers):
        worker.shutdown()
    workers.clear()


class IsolatedPool:
    """Supervised pool of single-task workers with per-script deadlines.

    Args:
        prefix: The per-script prefix embed tasks run
            (:meth:`~repro.core.prefix.ScriptPrefix.parts` of a fitted
            detector; ``None`` for analyze-only pools, e.g. tests).
        limits: Resource bounds applied inside each worker plus the
            parent-enforced wall-clock deadline; ``None`` runs tasks
            unbounded, with deaths still attributed and workers replaced.
        n_workers: Concurrent workers; the pool is replenished to this size
            whenever a worker is lost.
    """

    def __init__(
        self,
        prefix: "ScriptPrefix | None",
        limits: ScanLimits | None = None,
        n_workers: int = 1,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        self.prefix = prefix
        self.limits = limits
        self.n_workers = n_workers
        self._ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        # A pool dropped without close() still stops its workers: under fork
        # each worker holds a copy of its own pipe's parent end, so it never
        # sees EOF and would idle until the interpreter exits.
        weakref.finalize(self, _stop_workers, self._workers)
        #: Workers lost to kills/deaths over the pool's lifetime (test hook).
        self.workers_lost = 0

    # ------------------------------------------------------------- lifecycle

    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self.prefix, self.limits)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        self.workers_lost += 1
        try:
            self._workers.remove(worker)
        except ValueError:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.kill()

    def close(self) -> None:
        _stop_workers(self._workers)

    def __enter__(self) -> "IsolatedPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------- run

    def run(self, tasks: list[Task]) -> list[Outcome]:
        """Execute every task; always returns one outcome per task, in task order.

        Faulted tasks come back with a classified cause instead of raising;
        the pool itself survives any combination of hangs and deaths.  A
        replied outcome carries the worker's pid and the task's run time
        as the worker measured it.
        """
        if not tasks:
            return []
        outcomes: dict[tuple[str, int], Outcome] = {}
        queue: list[Task] = list(tasks)
        while len(self._workers) < min(self.n_workers, len(tasks)):
            self._spawn()
        idle = [w for w in self._workers if w.task is None]
        busy = [w for w in self._workers if w.task is not None]

        def fault(task: Task, cause: str, detail: str) -> None:
            outcomes[(task.kind, task.index)] = Outcome(
                index=task.index, kind=task.kind, ok=False, cause=cause, detail=detail
            )

        while queue or busy:
            # Feed idle workers, replacing any that died while idle.
            while queue and idle:
                worker = idle.pop()
                task = queue.pop(0)
                attempts = worker.attempts + 1
                try:
                    worker.assign(task, self._deadline_for(task))
                except (BrokenPipeError, OSError):
                    self._retire(worker)
                    if attempts >= _MAX_ASSIGN_ATTEMPTS:
                        fault(task, CAUSE_CRASHED, "no worker could accept the task")
                    else:
                        replacement = self._spawn()
                        replacement.attempts = attempts
                        idle.append(replacement)
                        queue.insert(0, task)
                    continue
                busy.append(worker)

            if not busy:
                continue

            now = time.monotonic()
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            wait_s = max(0.0, min(deadlines) - now) if deadlines else None
            handles: list = []
            for worker in busy:
                handles.append(worker.conn)
                handles.append(worker.process.sentinel)
            ready = set(multiprocessing.connection.wait(handles, timeout=wait_s))

            still_busy: list[_Worker] = []
            for worker in busy:
                task = worker.task
                settled = False
                if worker.conn in ready:
                    try:
                        reply = worker.conn.recv()
                    except (EOFError, OSError):
                        reply = None  # died mid-send; classified below
                    if reply is not None:
                        index, kind, verdict, payload, cause, detail, rusage, elapsed = reply
                        outcomes[(kind, index)] = Outcome(
                            index=index,
                            kind=kind,
                            ok=verdict == "ok",
                            payload=payload,
                            cause=cause,
                            detail=detail,
                            rusage=rusage,
                            elapsed_ms=elapsed,
                            pid=worker.process.pid,
                        )
                        worker.clear()
                        idle.append(worker)
                        settled = True
                if not settled and not worker.process.is_alive():
                    cause, detail = self._classify_death(worker)
                    fault(task, cause, detail)
                    self._retire(worker)
                    idle.append(self._spawn())
                    settled = True
                if not settled and worker.deadline is not None and time.monotonic() >= worker.deadline:
                    fault(
                        task,
                        CAUSE_TIMEOUT,
                        f"exceeded {self._deadline_for(task):g}s wall-clock deadline",
                    )
                    self._retire(worker)  # SIGKILL: the only safe way out of a hot loop
                    idle.append(self._spawn())
                    settled = True
                if not settled:
                    still_busy.append(worker)
            busy = still_busy

        return [outcomes[(task.kind, task.index)] for task in tasks]

    # -------------------------------------------------------------- internals

    def _deadline_for(self, task: Task) -> float | None:
        return self.limits.deadline_for(task.kind) if self.limits is not None else None

    @staticmethod
    def _classify_death(worker: _Worker) -> tuple[str, str]:
        exitcode = worker.process.exitcode
        if exitcode is not None and exitcode < 0:
            try:
                name = signal.Signals(-exitcode).name
            except ValueError:
                name = str(-exitcode)
            if -exitcode == signal.SIGKILL:
                return CAUSE_CRASHED, "worker killed (SIGKILL — external kill or kernel OOM)"
            if -exitcode == signal.SIGSEGV:
                return CAUSE_CRASHED, "worker segfaulted (SIGSEGV)"
            return CAUSE_CRASHED, f"worker killed by signal {name}"
        if exitcode == 137:
            return CAUSE_CRASHED, "worker exited 137 (SIGKILL-style death)"
        return CAUSE_CRASHED, f"worker died (exit code {exitcode})"
