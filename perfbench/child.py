"""The in-process reference scan, run in a fresh interpreter::

    python3 perfbench/child.py MODEL JOB.json OUT.json

It first times its own set-up (``import repro.core, repro.pipeline``, then
``load_detector``), so only the standard library is imported above that
point.  Then it runs the job's batches through
``BatchScanner(n_workers=1).scan``: the verdict reference, and in a traced
run the layer replay, with every layer function wrapped in a span.  A job
with no batches only times the set-up.
"""

from __future__ import annotations

import json
import sys
import time


def _setup(model: str):
    started = time.perf_counter()
    import repro.core  # noqa: F401
    import repro.pipeline  # noqa: F401

    imported = time.perf_counter()
    from repro.core import load_detector

    detector = load_detector(model)
    loaded = time.perf_counter()
    return detector, {
        "import_s": imported - started,
        "load_s": loaded - imported,
        "ready_monotonic": time.monotonic(),
    }


def run_scan(detector, job: dict) -> dict:
    """Scan ``job``'s phases in order: ``warm``, ``batches``, then ``batches_8k``.

    ``warm`` fills the cache (the cold pass of a hot set); ``batches_8k``
    holds the ≈8 KiB guard scripts, one per batch.
    """
    from repro.pipeline import BatchScanner, FeatureCache

    cache = FeatureCache(detector.fingerprint()) if job["cache"] else None
    scanner = BatchScanner(detector, n_workers=1, cache=cache)
    answers: list[dict] = []
    phases = (("warm", job["warm"]), ("replay", job["batches"]), ("8k", job.get("batches_8k", [])))

    def scan(batches: list) -> None:
        for batch in batches:
            report = scanner.scan([source for _, source in batch], names=[name for name, _ in batch])
            answers.extend(
                {"name": r.path, "label": int(r.label), "probability": float(r.probability),
                 "path_count": int(r.path_count), "status": r.status}
                for r in report.results
            )

    if not job["trace"]:
        for _, batches in phases:
            scan(batches)
        return {"answers": answers}

    import layers

    sources = {source: name for _, batches in phases for batch in batches for name, source in batch}
    recorder = layers.Recorder(sources)
    with layers.instrument(recorder, detector.classifier) as missing:
        for phase, batches in phases:
            recorder.phase = phase
            scan(batches)
    return {
        "answers": answers,
        "spans": recorder.spans,
        "missing": missing,
        "wrapper_cost_us": layers.wrapper_cost_us(),
    }


def main(argv: list[str]) -> int:
    model, job_path, out_path = argv
    detector, setup = _setup(model)
    with open(job_path) as handle:
        job = json.load(handle)
    out = run_scan(detector, job)
    out.update(setup)
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
