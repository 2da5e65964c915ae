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
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from .inject import InjectedFault, maybe_inject
from .limits import ScanLimits, apply_rlimits, read_rusage

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

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
    payload: Any = None  # embed: an EmbedPayload; analyze: an AnalysisReport dict
    cause: str | None = None  # FAULT_CAUSES member when not ok
    detail: str | None = None
    rusage: dict | None = None
    elapsed_ms: float = 0.0  # the task's run time, measured in the worker
    pid: int | None = None  # the worker that replied; ``None`` when none did


class EmbedPayload(NamedTuple):
    """One script's per-script prefix, as :func:`_run_embed` returns it."""

    row: "np.ndarray"  # (n_features,) raw cluster row: Sec. III-D before Eq. 6
    path_count: int  # contexts extracted before the per-script cap
    extract_ms: float
    embed_ms: float  # embedding, the path cap and the cluster row
    status: str  # "ok" | "parse_error"
    top_paths: list[dict] | None  # attention provenance, when traced


# ----------------------------------------------------------------- worker side


def build_embed_init(detector) -> dict:
    """Freeze a fitted detector's per-script pipeline for workers."""
    import numpy as np

    config = detector.config
    return {
        "extractor_kwargs": {
            "max_length": config.max_path_length,
            "max_width": config.max_path_width,
            "use_dataflow": config.use_dataflow,
        },
        "embed_dim": detector.embedder.model.embed_dim,
        "parameters": {
            name: np.ascontiguousarray(tensor)
            for name, tensor in detector.embedder.model.parameters().items()
        },
        "max_paths": config.max_paths_per_script,
        "feature_extractor": detector.feature_extractor,
    }


def _build_embed_state(init: dict) -> dict:
    """A worker's private extractor, capped embed and cluster features."""
    from functools import partial

    from repro.core.detector import embed_capped
    from repro.embedding import PathEmbedder
    from repro.paths import PathExtractor

    embedder = PathEmbedder(embed_dim=init["embed_dim"])
    embedder.model.load_parameters(init["parameters"])
    embedder._trained = True
    return {
        "extractor": PathExtractor(**init["extractor_kwargs"]),
        "embed_script": partial(embed_capped, embedder, max_paths=init["max_paths"]),
        "feature_extractor": init["feature_extractor"],
    }


def _run_embed(state: dict, source: str, capture_paths: bool = False) -> EmbedPayload:
    """Extract, embed and aggregate one script: the per-script prefix of detection.

    The prefix ends at the script's raw cluster row
    (:meth:`~repro.core.features.FeatureExtractor.transform_script`):
    Eq. 6 normalizes each row by its own min and max, so the row is all
    the classifier needs, and the kept path vectors and weights are
    dropped here instead of being cached or piped back from a worker.
    ``embed_ms`` covers the embedding, the path cap and the row.

    ``state`` holds an ``extractor``, an ``embed_script`` with the
    signature of :meth:`~repro.core.detector.JSRevealer.embed_script` and
    a fitted ``feature_extractor``.  Pool workers pass their private
    copies (:func:`_build_embed_state`);
    :class:`~repro.pipeline.BatchScanner` scans in-process by passing the
    detector's own extractor, ``embed_script`` and feature extractor.

    With ``capture_paths`` the top attention-weighted path signatures ride
    along as provenance (the Table VII evidence for a traced verdict).
    """
    from repro.jsparser import JSSyntaxError
    from repro.paths import ExtractionError

    status = "ok"
    started = time.perf_counter()
    try:
        contexts = state["extractor"].extract_from_source(source)
    except (JSSyntaxError, ExtractionError, RecursionError):
        contexts = []
        status = "parse_error"
    extract_ms = 1000.0 * (time.perf_counter() - started)

    started = time.perf_counter()
    if capture_paths:
        vectors, weights, kept = state["embed_script"](contexts, return_indices=True)
    else:
        vectors, weights = state["embed_script"](contexts)
    row = state["feature_extractor"].transform_script(vectors, weights)
    embed_ms = 1000.0 * (time.perf_counter() - started)
    top_paths = _top_attention_paths(contexts, kept, weights) if capture_paths else None
    return EmbedPayload(row, len(contexts), extract_ms, embed_ms, status, top_paths)


def _top_attention_paths(contexts, kept, weights, k: int = 5) -> list[dict]:
    """The ``k`` highest-attention kept paths as JSON-ready provenance.

    ``weights[r]`` belongs to path ``kept[r]`` of ``contexts``; only the
    ``k`` reported contexts are built.
    """
    import numpy as np

    if len(kept) == 0 or len(kept) != len(weights):
        return []
    order = np.argsort(np.asarray(weights, dtype=float))[::-1][:k]
    return [
        {"path": contexts[int(kept[r])].signature(), "weight": round(float(weights[int(r)]), 6)}
        for r in order
    ]


def _worker_main(conn, embed_init: dict | None, limits_dict: dict | None) -> None:
    """Worker loop: apply rlimits, then answer tasks until told to stop."""
    limits = ScanLimits.from_dict(limits_dict)
    if limits is not None:
        apply_rlimits(limits)
    embed_state: dict | None = None
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
                if embed_state is None:
                    embed_state = _build_embed_state(embed_init)
                maybe_inject(source, stage="embed")
                payload = _run_embed(embed_state, source, capture_paths)
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

    def __init__(self, ctx, embed_init: dict | None, limits: ScanLimits | None):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, embed_init, limits.to_dict() if limits is not None else None),
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
        embed_init: Frozen pipeline config from :func:`build_embed_init`
            (may be ``None`` for analyze-only pools, e.g. tests).
        limits: Resource bounds applied inside each worker plus the
            parent-enforced wall-clock deadline; ``None`` runs tasks
            unbounded, with deaths still attributed and workers replaced.
        n_workers: Concurrent workers; the pool is replenished to this size
            whenever a worker is lost.
    """

    def __init__(
        self,
        embed_init: dict | None,
        limits: ScanLimits | None = None,
        n_workers: int = 1,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        self.embed_init = embed_init
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
        worker = _Worker(self._ctx, self.embed_init, self.limits)
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
