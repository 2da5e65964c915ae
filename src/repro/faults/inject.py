"""Deterministic fault injection: the chaos-test seam.

Every recovery path in the isolation layer — deadline kill, worker-death
classification, OOM conversion, quarantine, breaker trips — must be
exercisable from tests without depending on actually pathological inputs
(which are slow, platform-sensitive, and flaky by nature).  This module is
the seam: when the ``REPRO_FAULT_INJECT`` environment variable is set
truthy, scripts may carry magic marker comments that make the *worker*
misbehave on purpose, e.g.::

    /* @repro-fault:hang */          sleep far past any deadline
    /* @repro-fault:exit137 */       os._exit(137)  (SIGKILL-style death)
    /* @repro-fault:allocbomb */     allocate until MemoryError
    /* @repro-fault:raise */         raise InjectedFault

A marker may scope itself to a stage with ``@`` (default ``embed``)::

    /* @repro-fault:hang@analysis */ hang only the degraded-analysis task

The seam is **dormant in production**: without the environment flag the
marker scan never runs, and the markers themselves are plain comments to
every other component.  Worker processes inherit the environment, so the
flag set in a test process (or CI job) reaches them under both fork and
spawn start methods.
"""

from __future__ import annotations

import os
import re
import time

#: Environment flag that arms the seam ("" / "0" mean disarmed).
ENV_FLAG = "REPRO_FAULT_INJECT"

#: Markers fired at *daemon boot* (before the listener binds) — the
#: crash-loop chaos seam.  The supervisor injects this per shard via
#: ``shard_env``; the value is scanned like a script, so
#: ``@repro-fault:exit137@boot`` makes that shard die on every spawn.
ENV_BOOT = "REPRO_FAULT_BOOT"

#: Marker grammar: ``@repro-fault:<kind>[@<stage>]``.
_MARKER = re.compile(r"@repro-fault:([a-z0-9_]+)(?:@([a-z]+))?")

#: How long an injected hang sleeps — effectively forever next to any
#: realistic per-script deadline, bounded so an unkilled worker still dies.
HANG_SECONDS = 600.0


class InjectedFault(RuntimeError):
    """Raised by the ``raise`` marker; classified as a ``crashed`` fault."""


def enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def maybe_inject(source: str, stage: str = "embed") -> None:
    """Fire any armed marker in ``source`` scoped to ``stage``.

    No-op unless :func:`enabled`.  Called from pool workers at the top of
    each task, so the parent-side supervisor sees exactly what a real
    pathological script would produce.
    """
    if not enabled():
        return
    for match in _MARKER.finditer(source):
        kind, marker_stage = match.group(1), match.group(2) or "embed"
        if marker_stage != stage:
            continue
        _fire(kind)


def maybe_inject_boot() -> None:
    """Fire any armed ``boot``-stage marker in :data:`ENV_BOOT`.

    Called by ``run_server`` before binding its listener: a shard whose
    environment carries ``@repro-fault:exit137@boot`` dies on every
    spawn, which is exactly the shape of a crash-looping daemon the
    supervisor's restart budget exists for.
    """
    if not enabled():
        return
    maybe_inject(os.environ.get(ENV_BOOT, ""), stage="boot")


def _fire(kind: str) -> None:
    if kind == "hang":
        time.sleep(HANG_SECONDS)
    elif kind == "exit137":
        os._exit(137)
    elif kind == "allocbomb":
        blocks = []
        while True:  # MemoryError under RLIMIT_AS; the worker reports "oom"
            blocks.append(bytearray(16 * 1024 * 1024))
    elif kind == "raise":
        raise InjectedFault("injected failure marker")
    # Unknown kinds are ignored: forward-compatible with new chaos tests.
