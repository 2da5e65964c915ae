"""Checkout layout, the fixture model, host facts and process-tree memory.

Everything the benchmark writes goes under ``.bench_build/perfbench`` in
the checkout it runs from.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: The fixture model: the ``repro train`` defaults at the paper's d=300.
TRAIN_ARGS = (
    "--seed", "0",
    "--pretrain-per-class", "20",
    "--train-per-class", "60",
    "--epochs", "12",
    "--k-benign", "11",
    "--k-malicious", "10",
    "--embed-dim", "300",
)
TRAIN_TIMEOUT_S = 600

#: Iterations of the calibration loop (≈0.1 s on a 2-vCPU cloud VM).
CALIB_ITERATIONS = 1_000_000


class BenchError(RuntimeError):
    """The benchmark cannot run here; the message says why."""


def program_env() -> dict[str, str]:
    """Environment for processes that run the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)


def _source_digest() -> str:
    digest = hashlib.sha256(" ".join(TRAIN_ARGS).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fixture_model() -> tuple[Path, str]:
    """The trained fixture model for this checkout, and its fingerprint.

    Training takes about 25 s, so the model is trained on the first run in
    a checkout and reused by later runs; the directory name hashes the
    training flags and every program source file, so any change to the
    program retrains.  Training counts toward no metric.
    """
    model = WORK / f"model-{_source_digest()}"
    if not (model / "model.json").is_file():
        staging = WORK / f"{model.name}.staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        print(f"training fixture model into {model.relative_to(ROOT)} …", file=sys.stderr, flush=True)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", "--out", str(staging), *TRAIN_ARGS],
            env=program_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=TRAIN_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"fixture training failed:\n{done.stderr[-2000:]}")
        if not (model / "model.json").is_file():
            os.replace(staging, model)
        shutil.rmtree(staging, ignore_errors=True)
    fingerprint = json.loads((model / "model.json").read_text())["model_fingerprint"]
    return model, fingerprint


# ----------------------------------------------------------------- host facts


def calib_ms() -> float:
    """Wall time of a fixed pure-Python loop: a host-speed diagnostic only."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i * i
    return 1000.0 * (time.perf_counter() - started)


def cpu_ticks() -> tuple[int, int]:
    """Machine-wide ``(steal, total)`` CPU ticks since boot, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a vCPU of this
    machine was ready: a host-side slowdown no change to the program can cause.
    """
    with open("/proc/stat") as stat:
        ticks = [int(value) for value in stat.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def blas_threads() -> int | None:
    """OpenBLAS thread count numpy would use in this process (None: unknown)."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_facts(fingerprint: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "model_fingerprint": fingerprint,
    }


# ------------------------------------------------------------ memory sampling


def _vm_hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(token) for token in handle.read().split())
        except OSError:
            continue
    return out


def tree_peak_mb(root_pid: int) -> float:
    """Summed VmHWM (each process's own peak) of a process and its live descendants, in MB."""
    total_kb = 0
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        hwm = _vm_hwm_kb(pid)
        if hwm is None:
            continue
        total_kb += hwm
        stack.extend(_children(pid))
    return total_kb * 1024 / 1e6
