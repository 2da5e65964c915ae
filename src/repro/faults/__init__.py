"""Hostile-input fault isolation: limits, quarantine, breaker, chaos seam.

The scanner's inputs are adversarial by premise, so this layer guarantees
that no single script can degrade service for the others:

* :class:`ScanLimits` + :func:`apply_rlimits` — per-script wall-clock
  deadline and kernel memory/CPU caps,
* :class:`IsolatedPool` — supervised single-task workers with precise
  fault attribution (``timeout`` / ``oom`` / ``crashed``) and automatic
  replacement,
* :class:`QuarantineJournal` — append-only record of poison scripts so
  they are never retried,
* :class:`CircuitBreaker` — converts sustained worker deaths into fast
  503 backpressure with half-open recovery,
* :mod:`repro.faults.inject` — the test-only chaos seam
  (``REPRO_FAULT_INJECT`` + ``@repro-fault:`` markers),
* :func:`classify_shard_fault` — the same attribution problem lifted one
  level up, for the cluster router judging whole shard daemons.

See DESIGN.md §9 for the failure-mode state machine.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .inject import ENV_BOOT, ENV_FLAG, InjectedFault, maybe_inject, maybe_inject_boot
from .limits import ScanLimits, apply_rlimits, read_rusage
from .quarantine import QuarantineEntry, QuarantineJournal
from .shardfault import (
    SHARD_DEAD,
    SHARD_FAULTS,
    SHARD_OK,
    SHARD_OVERLOADED,
    SHARD_REQUEST,
    SHARD_SLOW,
    ShardFault,
    classify_shard_fault,
)
from .workers import (
    CAUSE_CRASHED,
    CAUSE_OOM,
    CAUSE_TIMEOUT,
    FAULT_CAUSES,
    IsolatedPool,
    Outcome,
    Task,
)

__all__ = [
    "CAUSE_CRASHED",
    "CAUSE_OOM",
    "CAUSE_TIMEOUT",
    "CLOSED",
    "CircuitBreaker",
    "ENV_BOOT",
    "ENV_FLAG",
    "FAULT_CAUSES",
    "HALF_OPEN",
    "InjectedFault",
    "IsolatedPool",
    "OPEN",
    "Outcome",
    "QuarantineEntry",
    "QuarantineJournal",
    "SHARD_DEAD",
    "SHARD_FAULTS",
    "SHARD_OK",
    "SHARD_OVERLOADED",
    "SHARD_REQUEST",
    "SHARD_SLOW",
    "ScanLimits",
    "ShardFault",
    "Task",
    "classify_shard_fault",
    "apply_rlimits",
    "maybe_inject",
    "maybe_inject_boot",
    "read_rusage",
]
