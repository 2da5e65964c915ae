"""Reference child processes, the verdict and guard checks, percentiles
and per-run records."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from host import ROOT, WORK, BenchError, program_env

CHILD = Path(__file__).resolve().parent / "child.py"
GUARD = Path(__file__).resolve().parent / "guard.json"
CHILD_TIMEOUT_S = 150


def spawn(model: Path, job_file: Path, out_file: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), str(model), str(job_file), str(out_file)], env=program_env(),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(process: subprocess.Popen, what: str, timeout_s: float = CHILD_TIMEOUT_S) -> None:
    """Wait for a child; kill it and fail the run if it overruns or errs."""
    try:
        _, stderr = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError(f"{what} did not finish within {timeout_s:.0f}s") from None
    if process.returncode != 0:
        raise BenchError(f"{what} exited {process.returncode}:\n{stderr[-3000:]}")


def setup_probe(model: Path) -> dict:
    """Set-up of one fresh interpreter that loads the model and scans nothing."""
    job_file, out_file = job_paths("probe", "setup")
    job_file.write_text(json.dumps({"batches": [], "warm": [], "cache": False, "trace": False}))
    try:
        spawned = time.monotonic()
        finish(spawn(model, job_file, out_file), "set-up probe")
        probe = json.loads(out_file.read_text())
    finally:
        job_file.unlink(missing_ok=True)
        out_file.unlink(missing_ok=True)
    probe["setup_s"] = probe["ready_monotonic"] - spawned
    return probe


def job_paths(workload: str, role: str, index: int = 0) -> tuple[Path, Path]:
    stem = WORK / f"{workload}-{role}{index}-{os.getpid()}"
    return stem.with_suffix(".job.json"), stem.with_suffix(".out.json")


def run_children(workload: str, model: Path, jobs: list[dict]) -> list[dict]:
    """Run reference children concurrently, one per job; return their outputs."""
    running = []
    try:
        for index, job in enumerate(jobs):
            job_file, out_file = job_paths(workload, "scan", index)
            job_file.write_text(json.dumps(job))
            running.append((spawn(model, job_file, out_file), job_file, out_file))
        outputs = []
        for process, _, out_file in running:
            finish(process, "reference scan")
            outputs.append(json.loads(out_file.read_text()))
        return outputs
    finally:
        for process, job_file, out_file in running:
            if process.poll() is None:
                process.kill()
                process.wait()
            job_file.unlink(missing_ok=True)
            out_file.unlink(missing_ok=True)


def chunked(items: list, size: int) -> list[list]:
    size = max(1, size)
    return [items[i : i + size] for i in range(0, len(items), size)]


# -------------------------------------------------------------- verdict check


def reference_table(outputs: list[dict]) -> tuple[dict[str, dict], int]:
    """Reference answer per script name, and how many replays disagreed.

    A script answered more than once by the reference (a cache hit after a
    cold pass) must get the same answer every time.
    """
    table: dict[str, dict] = {}
    conflicts = 0
    for output in outputs:
        for answer in output["answers"]:
            known = table.setdefault(answer["name"], answer)
            if _key(known) != _key(answer):
                conflicts += 1
    return table, conflicts


def _key(answer: dict) -> tuple:
    return (answer["label"], answer["path_count"], answer["probability"], answer["status"])


def check_answer(answer: dict, reference: dict[str, dict]) -> str | None:
    """Why an answer fails the verdict check, or None when it passes."""
    if answer.get("status") != "ok":
        return f"status {answer.get('status')!r}"
    expected = reference.get(answer["name"])
    if expected is None:
        return "no reference answer"
    for field in ("label", "path_count", "probability"):
        if answer.get(field) != expected[field]:
            return f"{field} {answer.get(field)!r} != reference {expected[field]!r}"
    return None


# ---------------------------------------------------------------- guard sets


def guard_table(answers: list[dict]) -> dict[str, list[int]]:
    """``name -> [label, path_count]``: the stored form of a guard set."""
    return {a["name"]: [a["label"], a["path_count"]] for a in sorted(answers, key=lambda a: a["name"])}


def digest(table: dict[str, list[int]]) -> str:
    """SHA-256 over ``(name, label, path_count)`` of a guard set."""
    lines = (f"{name}\t{label}\t{paths}" for name, (label, paths) in sorted(table.items()))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_guard(kind: str, answers: list[dict], fingerprint: str) -> tuple[list[tuple[str, str]], str]:
    """Compare a guard set's answers with ``guard.json``.

    Returns one failure per script whose ``(label, path_count)`` differs
    from the stored truth (or that went unanswered), and a report line.
    """
    stored = json.loads(GUARD.read_text())
    expected = stored[kind]
    got = guard_table([a for a in answers if a.get("status") == "ok"])
    failures = [
        (name, f"[label, path_count] {got.get(name)} != guard.json {want}")
        for name, want in expected.items() if got.get(name) != want
    ]
    line = f"guard set {kind}: {len(expected)} scripts, digest {digest(got)[:16]}"
    if failures:
        line += f" != stored {digest(expected)[:16]} ({len(failures)} scripts differ)"
        if stored["model_fingerprint"] != fingerprint:
            line += f"; stored with model {stored['model_fingerprint'][:16]}, this model {fingerprint[:16]}"
    else:
        line += " matches the stored digest"
    return failures, line


# ------------------------------------------------------------------ numbers


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def fmt_list(values, spec: str = ".3f") -> str:
    return ", ".join(format(value, spec) for value in values)


def save_record(workload: str, seed: int, trace: bool, end_to_end: dict) -> None:
    path = WORK / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(end_to_end))


def load_record(workload: str, seed: int, trace: bool) -> dict | None:
    path = WORK / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    return json.loads(path.read_text()) if path.is_file() else None
