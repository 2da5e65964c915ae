"""Table VIII — per-module runtime per file.

The paper times each pipeline stage per file (path extraction dominating,
classification sub-millisecond) and concludes per-file detection cost is
compatible with large-scale scanning.  This bench reproduces the stage
accounting on our detector and checks the ordering shape.
"""

import numpy as np
import pytest

from repro.bench import bench_params, default_jsrevealer_config
from repro.core import JSRevealer
from repro.datasets import experiment_split


@pytest.mark.table
def test_table8_runtime_per_stage(benchmark):
    params = bench_params()
    split = experiment_split(
        seed=0,
        pretrain_per_class=params["pretrain"],
        train_per_class=params["train"],
        test_per_class=params["test"],
        realistic=True,
    )
    detector = JSRevealer(default_jsrevealer_config())
    detector.pretrain(split.pretrain.sources, split.pretrain.labels)
    detector.fit(split.train.sources, split.train.labels)

    # Detection-time timing over the test set: one batch, so the forest
    # runs once and ``classifying`` is a single per-batch sample.
    labels = benchmark.pedantic(detector.predict, args=(split.test.sources,), rounds=1, iterations=1)
    files_classified = len(labels)

    stage_ms = detector.mean_stage_ms()
    print("\nTable VIII — average time per invocation (ms)")
    paper = {
        "path_extraction": "569.8 (enhanced AST 221.3 + traversal 348.5)",
        "pretraining": "22.5 per file",
        "embedding": "11.7",
        "feature_extraction": "420.7 (outlier 396.5 + clustering 24.2)",
        "classifier_training": "0.235",
        "classifying": "0.143",
    }
    for stage in (
        "path_extraction",
        "pretraining",
        "embedding",
        "feature_extraction",
        "classifier_training",
        "feature_transform",
        "classifying",
    ):
        measured = stage_ms.get(stage, float("nan"))
        note = paper.get(stage, "-")
        print(f"{stage:22s} {measured:>10.2f}   paper: {note}")
    print(
        "(embedding ends at each script's raw cluster row; feature_transform is the"
        " per-batch stack plus Eq. 6 only; classifying is per batch)"
    )

    sizes = [len(s.encode()) for s in split.test.sources]
    print(f"\nmean script size: {np.mean(sizes) / 1024:.1f} KiB (paper corpus: 62 KB avg)")

    # Shape checks mirroring the paper's conclusions:
    # classification is orders of magnitude cheaper than path extraction,
    # compared per file: path extraction runs once per file, the forest
    # once per batch.
    classify_per_file_ms = 1000.0 * detector.stage_seconds["classifying"] / files_classified
    extract_per_file_ms = stage_ms["path_extraction"]
    print(
        f"\nper file: classifying {classify_per_file_ms:.3f} ms "
        f"({files_classified} files in one batch), path_extraction {extract_per_file_ms:.2f} ms"
    )
    assert classify_per_file_ms < extract_per_file_ms
    # feature extraction (fit-time) is the heavyweight one-off stage,
    assert stage_ms["feature_extraction"] > stage_ms["classifying"]
    # and per-file detection cost stays in an interactive range.
    per_file_detect = stage_ms["path_extraction"] + stage_ms["embedding"] + classify_per_file_ms
    print(f"per-file detection cost ≈ {per_file_detect:.1f} ms (paper: 582 ms on 62 KB files)")
    assert per_file_detect < 5000.0

    # Batch-engine comparison: the same per-stage accounting for the
    # sequential path and the worker-pool path of the BatchScanner.
    from repro.bench import format_timing_table, scan_timing_comparison

    slice_sources = split.test.sources[: min(10, len(split.test.sources))]
    reports = scan_timing_comparison(detector, slice_sources, n_workers=2)
    print("\n" + format_timing_table(reports, title="Batch engine — per-stage totals (ms)"))
    seq, par = reports["sequential"], reports["parallel"]
    assert np.array_equal(seq.label_array, par.label_array)
