"""Deobfuscation pre-pass A/B gate on an obfuscated corpus.

Not a paper table: this bench gates the PR-7 pre-pass.  Every
`repro.obfuscation` technique obfuscates the labeled test corpus, and
each variant corpus is scanned twice — pass off, pass on.  The recorded
metric is the *detection rate*: the fraction of variants whose verdict
matches the true label (so it counts missed malware and false alarms on
obfuscated benign code alike — the paper's Table IV frames robustness
as exactly this FPR/FNR pair).

The gate:

* the pass never hurts — detection rate with the pass >= without, for
  every technique;
* it strictly helps where it has something to undo — the
  encoding-heavy techniques (string arrays, charcode/unescape
  packing) must improve strictly, at least two of them;
* rename-only obfuscation ties *exactly*: normalization of a script it
  cannot improve returns byte-identical source, so verdicts cannot
  move.

Per-technique deltas land in ``BENCH_deobfuscate_ab.json``.
"""

import json
import pathlib

import pytest

from repro.bench import bench_params
from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.obfuscation import ALL_OBFUSCATORS
from repro.pipeline import BatchScanner

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OBFUSCATOR_SEED = 11


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=8, train_per_class=16, test_per_class=12)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


def detection_rate(report, labels):
    return sum(int(r.malicious) == y for r, y in zip(report.results, labels)) / len(labels)


def ab_comparison(detector, split):
    pairs = list(zip(split.test.sources, split.test.labels))
    scanner = BatchScanner(detector)

    techniques = {}
    for name, cls in ALL_OBFUSCATORS.items():
        obfuscator = cls(seed=OBFUSCATOR_SEED)
        variants, labels, failures = [], [], 0
        for source, label in pairs:
            try:
                variants.append(obfuscator.obfuscate(source))
                labels.append(label)
            except Exception:
                failures += 1
        off = scanner.scan(variants)
        on = scanner.scan(variants, deobfuscate=True)
        normalized = sum(1 for r in on.results if r.normalization is not None)
        techniques[name] = {
            "n_variants": len(variants),
            "obfuscate_failures": failures,
            "normalized": normalized,
            "rate_off": detection_rate(off, labels),
            "rate_on": detection_rate(on, labels),
        }
        techniques[name]["delta"] = techniques[name]["rate_on"] - techniques[name]["rate_off"]
    return techniques


@pytest.mark.table
def test_deobfuscate_ab_gate(benchmark, detector, split):
    techniques = benchmark.pedantic(
        ab_comparison, args=(detector, split), rounds=1, iterations=1
    )

    print("\nDeobfuscation pre-pass A/B — detection rate per technique")
    for name, row in sorted(techniques.items()):
        print(f"  {name:24s} off={row['rate_off']:.3f} on={row['rate_on']:.3f} "
              f"delta={row['delta']:+.3f}  (normalized {row['normalized']}/{row['n_variants']})")

    record = {
        "bench": "deobfuscate_ab",
        "source": "benchmarks/test_deobfuscate_bench.py::test_deobfuscate_ab_gate",
        "params": {
            **bench_params(),
            "obfuscator_seed": OBFUSCATOR_SEED,
            "n_test_scripts": len(split.test.sources),
        },
        "techniques": {
            name: {k: (round(v, 4) if isinstance(v, float) else v) for k, v in row.items()}
            for name, row in techniques.items()
        },
    }
    (REPO_ROOT / "BENCH_deobfuscate_ab.json").write_text(json.dumps(record, indent=2) + "\n")

    # Gate 1: the pass never hurts, on any technique.
    for name, row in techniques.items():
        assert row["rate_on"] >= row["rate_off"], (
            f"{name}: pass-on rate {row['rate_on']:.3f} < pass-off {row['rate_off']:.3f}"
        )

    # Gate 2: it strictly helps on at least two techniques.
    strict_wins = [name for name, row in techniques.items() if row["delta"] > 0]
    assert len(strict_wins) >= 2, f"strict wins: {strict_wins}"

    # Gate 3: the encoding-heavy techniques are the winners — string
    # arrays + flattening (javascript-obfuscator) and charcode/unescape
    # packing (jsobfu) are what the normalizer targets.
    assert "javascript-obfuscator" in strict_wins
    assert "jsobfu" in strict_wins

    # Gate 4: rename-only obfuscation (jshaman) cannot move verdicts in
    # either direction — byte-identity for scripts the pass can't improve.
    assert techniques["jshaman"]["delta"] == 0.0
