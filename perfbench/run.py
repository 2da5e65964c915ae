"""End-to-end benchmark of the JSRevealer reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-fresh --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``serve-fresh`` — one ``repro serve`` daemon, 2 closed-loop clients, distinct scripts;
* ``serve-hot``   — the same daemon and clients on a warm 32-script hot set.

Every answer is checked against an in-process ``BatchScanner(n_workers=1)``
reference, and the guard sets against ``perfbench/guard.json``.  The
report goes to stdout; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
run with ``--trace 1``.  Exit status: 0 when every answer checks out, 1
when some do not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from host import ROOT, WORK, BenchError, check_checkout

WORKLOADS = ("serve-fresh", "serve-hot")
MAX_SECONDS = 60
#: Per-layer values the traced run prints but keeps out of its JSON: path
#: counts and guard ratios must not change across commits (guard.json and
#: the verdict check hold them), so no direction of change is better, and
#: no change to the program moves the host diagnostic.
TEXT_ONLY = {
    "paths.extract.paths": "count",
    "8k.paths.extract.paths": "count",
    "pipeline.cache_hit_ratio": "ratio",
    "serve.rejected": "count",
    "host.calib_ms": "ms",
}
#: Per-layer metric counting the JSON's per-layer metrics that are absent
#: from a run (written as 0), so an absence shows in the JSON itself.
ABSENT_METRIC = "trace.absent"
#: Per-layer metrics of the layer table that no workload here measures.
NOT_MEASURED = {
    "pipeline.parallel_efficiency": "needs a multi-worker batch workload; batch-8k is left out "
    "as unsteady on a shared host (see perfbench/README.md)",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be within 1..{MAX_SECONDS}")
    return args


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def _overhead_lines(args: argparse.Namespace, result: dict) -> list[str]:
    """Tracing overhead: the replay's span cost, and traced vs untraced runs."""
    import common

    detail = result["trace_detail"]
    cost_s = detail["spans"] * result["wrapper_cost_us"] / 1e6
    busy_s = detail["scan_busy_s"]
    lines = [
        f"tracing overhead (replay): {detail['spans']} spans x {result['wrapper_cost_us']:.2f} us "
        f"= {1000 * cost_s:.2f} ms of {busy_s:.2f} s traced scan time "
        f"({100 * cost_s / busy_s if busy_s else 0.0:.3f}%)"
    ]
    untraced = common.load_record(args.workload, args.seed, trace=False)
    if untraced is None:
        lines.append(
            f"tracing overhead (end to end): no untraced run of seed {args.seed} in this checkout to compare"
        )
    else:
        deltas = ", ".join(
            f"{name} {100 * (value / untraced[name] - 1):+.1f}%"
            for name, value in result["end_to_end"].items() if untraced.get(name)
        )
        lines.append(
            f"tracing overhead (end to end, traced vs untraced run of seed {args.seed}; host.calib_ms "
            f"{untraced['host.calib_ms']:.1f} then, {result['calib_ms']:.1f} now): {deltas}"
        )
    return lines


def _report(args: argparse.Namespace, spec: dict, result: dict) -> dict:
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} ==")
    for line in result["lines"]:
        print(line)
    print("end-to-end:" + (" (traced run)" if args.trace else ""))
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<18} {result['end_to_end'][metric['name']]:>12.4f} {metric['unit']}")
    chosen = spec["end_to_end"]
    values = result["end_to_end"]
    if args.trace:
        chosen = spec["per_layer"]
        values = dict(result["per_layer"])
        values[ABSENT_METRIC] = sum(
            1 for m in chosen if m["name"] not in values and m["name"] != ABSENT_METRIC)
        print("per-layer:")
        for metric in chosen:
            name = metric["name"]
            if name in values:
                print(f"  {name:<30} {values[name]:>14.4f} {metric['unit']}")
            else:
                reason = result["absent"].get(name, "not measured in this workload")
                print(f"  {name:<30} {'absent':>14} ({reason}; written as 0, counted in {ABSENT_METRIC})")
        for name, reason in NOT_MEASURED.items():
            print(f"  {name:<30} {'absent':>14} ({reason})")
        for target in result["missing"]:
            print(f"  absent layer target: {target} (not found in this program)")
        print("guards and diagnostics (text only):")
        for name, unit in TEXT_ONLY.items():
            if name in values:
                print(f"  {name:<30} {values[name]:>14.4f} {unit}")
            else:
                print(f"  {name:<30} {'absent':>14} ({result['absent'].get(name, 'not measured')})")
        shares = result["trace_detail"]["uncovered_share"]
        if shares:
            print(
                f"uncovered share of BatchScanner.scan spans (no layer span over it): n={len(shares)} "
                f"min {min(shares):.4f} median {statistics.median(shares):.4f} max {max(shares):.4f}"
            )
        for line in _overhead_lines(args, result):
            print(line)
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in chosen}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        spec = _spec()
        check_checkout()
        import serve

        result = serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import common

    common.save_record(args.workload, args.seed, bool(args.trace),
                       {**result["end_to_end"], "host.calib_ms": result["calib_ms"]})
    if args.trace:
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(result["spans"]))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    metrics = _report(args, spec, result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
