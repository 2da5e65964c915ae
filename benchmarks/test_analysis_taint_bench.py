"""Triage-precision floor for the taint-flow engine.

The default analyzer catalog (syntactic rules plus the engine-backed
flow rules) runs over the example corpora.  Recorded: decisive-hit
precision on the benign vendor corpus (any decisive hit there is a false
alarm), decisive recall over the malicious/obfuscated samples, and
analyzer wall-clock.  The floor:

* **precision 1.0** — no benign vendor file is triaged decisively;
* **recall ≥ 3/11** — the decisive suspects include ``eval_wrapped.js``,
  ``obfuscator_io.js`` and ``sample_2.js``;
* ``obfuscator_io.js`` (the string-array dispatch idiom) is decided by
  ``flow-tainted-dispatch``, which only the interprocedural engine sees.

The record lands in ``BENCH_analysis_taint.json``.
"""

import json
import pathlib
import time

import pytest

from repro.analysis import Analyzer
from repro.bench import bench_params

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"

#: Benign arm of the precision gate: real-library excerpts; a decisive
#: triage hit on any of these skips the classifier on a clean file.
BENIGN = sorted((EXAMPLES / "corpus").glob("vendor_*.js"))
#: Suspicious arm: handcrafted malicious samples + the obfuscated set.
SUSPECT = sorted((EXAMPLES / "corpus").glob("sample_*.js")) + sorted(
    (EXAMPLES / "obfuscated").glob("*.js")
)

#: Suspects the engine must keep deciding; their share of SUSPECT is the
#: recall floor.
DECIDED_FLOOR = {"eval_wrapped.js", "obfuscator_io.js", "sample_2.js"}


def triage():
    analyzer = Analyzer()
    files = {}
    started = time.perf_counter()
    for path in BENIGN + SUSPECT:
        report = analyzer.analyze(path.read_text(), name=path.name)
        files[path.name] = {
            "decisive": report.decisive,
            "score": round(report.score, 4),
            "rules": sorted({f.rule_id for f in report.findings if f.decisive}),
        }
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    benign_names = {p.name for p in BENIGN}
    false_alarms = [n for n in benign_names if files[n]["decisive"]]
    decided = [n for n, row in files.items() if row["decisive"] and n not in benign_names]
    summary = {
        "benign_decisive": sorted(false_alarms),
        "precision": 1.0 - len(false_alarms) / max(1, len(benign_names)),
        "suspect_decisive": sorted(decided),
        "recall": len(decided) / max(1, len(SUSPECT)),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    return summary, files


@pytest.mark.table
def test_taint_triage_floor(benchmark):
    summary, files = benchmark.pedantic(triage, rounds=1, iterations=1)

    print(
        f"\nTaint-flow triage — precision={summary['precision']:.3f} "
        f"recall={summary['recall']:.3f} elapsed={summary['elapsed_ms']:.1f}ms "
        f"decisive={summary['suspect_decisive']}"
    )

    record = {
        "bench": "analysis_taint_floor",
        "source": "benchmarks/test_analysis_taint_bench.py::test_taint_triage_floor",
        "params": {
            **bench_params(),
            "n_benign": len(BENIGN),
            "n_suspect": len(SUSPECT),
        },
        "floor": {
            "precision": 1.0,
            "recall": len(DECIDED_FLOOR) / len(SUSPECT),
            "decided": sorted(DECIDED_FLOOR),
        },
        "dataflow": summary,
        "files": files,
    }
    (REPO_ROOT / "BENCH_analysis_taint.json").write_text(json.dumps(record, indent=2) + "\n")

    # Precision: no decisive false alarm on the clean corpus.
    assert summary["benign_decisive"] == []
    assert summary["precision"] == 1.0

    # Recall: every floor suspect stays decided.
    assert DECIDED_FLOOR <= set(summary["suspect_decisive"])
    assert summary["recall"] >= len(DECIDED_FLOOR) / len(SUSPECT)

    # obfuscator.io's string-array dispatch is decided by the engine's
    # dispatch rule, not by a syntactic one.
    assert "flow-tainted-dispatch" in files["obfuscator_io.js"]["rules"]
