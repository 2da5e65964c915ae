"""Path-enumeration ladder: the path table and its column featurizer
against their all-pairs and per-path oracles at 1, 8 and 32 KiB.

Not a paper table: the paper's Table VIII puts path extraction at ≈570 of
the ≈582 ms detection costs per 62 KB file, and this ladder shows how
that layer's cost grows with script size.  Each rung is a seeded
concatenation of ``repro.datasets`` generator output.  Per rung the bench
records the leaf count, the leaf pairs the all-pairs oracle tests, the
paths emitted, the data-flow time (``dataflow_ms``: ``build_enhanced_ast``
on the parsed program), enumeration and featurize time for the oracle and
for the production code, and the time of one full ``JSRevealer.scan``.
Enumeration starts from the same enhanced AST on both sides, so parse
and data-flow time are left out of it.  The oracle is the code the production
functions replaced, leaf values included: it resolves declaration names
by scanning every scope, twice per kept path.  Oracle times are one run;
production times are the best of ``REPRO_BENCH_REPS`` runs (at least 3).

The gate: identical path lists and byte-identical feature matrices on
every rung, and enumeration at least 10× faster than the oracle at
32 KiB.  Results land in ``BENCH_path_enum.json``.
"""

import json
import os
import pathlib
import platform
import time

import pytest
from tests.paths import oracle

from repro.bench import bench_params
from repro.core import JSRevealer, JSRevealerConfig
from repro.dataflow import build_enhanced_ast, build_regular_ast
from repro.datasets import experiment_split
from repro.jsparser import parse
from repro.paths import PathExtractor, PathFeaturizer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNGS_KIB = (1, 8, 32)
SEED = 0
MIN_SPEEDUP_32K = 10.0


@pytest.fixture(scope="module")
def detector():
    split = experiment_split(seed=SEED, pretrain_per_class=8, train_per_class=16, test_per_class=1)
    det = JSRevealer(JSRevealerConfig(embed_dim=300, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=SEED))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


def timed(function, *args):
    started = time.perf_counter()
    result = function(*args)
    return result, 1000.0 * (time.perf_counter() - started)


def best_ms(function, *args, reps):
    return min(timed(function, *args)[1] for _ in range(reps))


def measure_rung(kib: int, detector, reps: int) -> dict:
    source = oracle.concatenated_script(kib * 1024, seed=SEED)
    config = detector.config
    extractor = PathExtractor(config.max_path_length, config.max_path_width, config.use_dataflow)
    program = parse(source)
    enhanced = (build_enhanced_ast if config.use_dataflow else build_regular_ast)(program)
    featurizer = PathFeaturizer()

    expected, oracle_enum_ms = timed(
        oracle.extract_all_pairs, enhanced, config.max_path_length, config.max_path_width
    )
    expected_features, oracle_featurize_ms = timed(oracle.featurize_per_path, expected)
    paths = extractor.extract(enhanced)
    features = featurizer.transform(paths)
    identical = list(paths) == expected and features.tobytes() == expected_features.tobytes()

    dataflow_ms = best_ms(build_enhanced_ast, program, reps=reps)
    enum_ms = best_ms(extractor.extract, enhanced, reps=reps)
    featurize_ms = best_ms(featurizer.transform, paths, reps=reps)
    scan_ms = best_ms(detector.scan, source, reps=reps)
    leaves = len(oracle.collect_leaves(enhanced.program))
    return {
        "kib": kib,
        "bytes": len(source.encode("utf-8")),
        "leaves": leaves,
        "pairs_tested_by_oracle": leaves * (leaves - 1) // 2,
        "paths": len(paths),
        "dataflow_ms": round(dataflow_ms, 2),
        "oracle_enum_ms": round(oracle_enum_ms, 2),
        "enum_ms": round(enum_ms, 2),
        "enum_speedup": round(oracle_enum_ms / enum_ms, 2),
        "oracle_featurize_ms": round(oracle_featurize_ms, 2),
        "featurize_ms": round(featurize_ms, 2),
        "featurize_speedup": round(oracle_featurize_ms / featurize_ms, 2),
        "scan_ms": round(scan_ms, 2),
        "identical": identical,
    }


def test_path_enum_ladder(detector):
    reps = max(3, bench_params()["reps"])
    rungs = [measure_rung(kib, detector, reps) for kib in RUNGS_KIB]

    print("\nPath enumeration ladder (ms per script)")
    print(f"{'KiB':>4} {'leaves':>7} {'pairs':>10} {'paths':>7} {'dataflow':>9} {'enum old':>9} "
          f"{'enum new':>9} {'feat old':>9} {'feat new':>9} {'scan':>8}")
    for rung in rungs:
        print(f"{rung['kib']:>4} {rung['leaves']:>7} {rung['pairs_tested_by_oracle']:>10} {rung['paths']:>7} "
              f"{rung['dataflow_ms']:>9.1f} {rung['oracle_enum_ms']:>9.1f} {rung['enum_ms']:>9.1f} "
              f"{rung['oracle_featurize_ms']:>9.1f} {rung['featurize_ms']:>9.1f} {rung['scan_ms']:>8.1f}")

    record = {
        "bench": "path_enum_ladder",
        "seed": SEED,
        "config": {
            "max_length": detector.config.max_path_length,
            "max_width": detector.config.max_path_width,
            "use_dataflow": detector.config.use_dataflow,
            "embed_dim": detector.config.embed_dim,
            "reps": reps,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "rungs": rungs,
    }
    (REPO_ROOT / "BENCH_path_enum.json").write_text(json.dumps(record, indent=2) + "\n")

    for rung in rungs:
        assert rung["identical"], f"{rung['kib']} KiB: output differs from the oracle"
    top = rungs[-1]
    assert top["enum_speedup"] >= MIN_SPEEDUP_32K, top
