"""Shared experiment harness behind the table/figure benchmarks.

The paper's comparative results (Tables IV–VI, Figures 6–7) all come from
one protocol: train the five detectors on a balanced realistic corpus,
then evaluate on the clean test set and on the test set re-obfuscated by
each of the four tools, repeating and averaging (the paper repeats five
times).  :func:`run_comparison` executes that protocol once per
(seed, sizes) and caches the result in-process so each benchmark file can
report its slice without recomputation.

Scale is environment-tunable so CI smoke runs stay cheap:

* ``REPRO_BENCH_REPS`` — repetitions averaged (default 2)
* ``REPRO_BENCH_TRAIN`` — training scripts per class (default 60)
* ``REPRO_BENCH_TEST`` — test scripts per class (default 40)
* ``REPRO_BENCH_PRETRAIN`` — embedder pre-training scripts per class (20)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import ALL_BASELINES
from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.ml import DetectionReport, detection_report
from repro.obfuscation import ALL_OBFUSCATORS

#: Evaluation settings: the clean test set plus the four obfuscators.
SETTINGS = ("baseline", "javascript-obfuscator", "jfogs", "jsobfu", "jshaman")

#: Detector display order used by every table.
DETECTOR_ORDER = ("cujo", "zozzle", "jast", "jstap", "jsrevealer")


def bench_params() -> dict[str, int]:
    """Benchmark scale knobs from the environment."""
    return {
        "reps": int(os.environ.get("REPRO_BENCH_REPS", "2")),
        "train": int(os.environ.get("REPRO_BENCH_TRAIN", "100")),
        "test": int(os.environ.get("REPRO_BENCH_TEST", "50")),
        "pretrain": int(os.environ.get("REPRO_BENCH_PRETRAIN", "30")),
    }


def default_jsrevealer_config(**overrides) -> JSRevealerConfig:
    """The bench-scale JSRevealer configuration.

    ``embed_dim`` and ``pretrain_epochs`` are reduced from the paper's
    300/100 — the numpy trainer converges on the synthetic corpus well
    before that, and Table VIII's runtime shape is unaffected.
    """
    params = dict(embed_dim=64, pretrain_epochs=12, k_benign=11, k_malicious=10, seed=0)
    params.update(overrides)
    return JSRevealerConfig(**params)


@dataclass
class ComparisonResult:
    """Averaged metric grid: detector → setting → DetectionReport."""

    reports: dict[str, dict[str, DetectionReport]] = field(default_factory=dict)
    repetitions: int = 0

    def metric(self, detector: str, setting: str, name: str) -> float:
        return getattr(self.reports[detector][setting], name)

    def average_over_obfuscators(self, detector: str, name: str) -> float:
        values = [self.metric(detector, s, name) for s in SETTINGS if s != "baseline"]
        return float(np.mean(values))


def _average_reports(reports: list[DetectionReport]) -> DetectionReport:
    return DetectionReport(
        accuracy=float(np.mean([r.accuracy for r in reports])),
        f1=float(np.mean([r.f1 for r in reports])),
        fpr=float(np.mean([r.fpr for r in reports])),
        fnr=float(np.mean([r.fnr for r in reports])),
        precision=float(np.mean([r.precision for r in reports])),
        recall=float(np.mean([r.recall for r in reports])),
    )


def _single_run(seed: int, params: dict[str, int], include_regular_ast: bool) -> dict[str, dict[str, DetectionReport]]:
    split = experiment_split(
        seed=seed,
        pretrain_per_class=params["pretrain"],
        train_per_class=params["train"],
        test_per_class=params["test"],
        realistic=True,
    )
    test_sets = {"baseline": split.test}
    for name, cls in ALL_OBFUSCATORS.items():
        test_sets[name] = split.test.obfuscated(cls(seed=seed + 1000))

    detectors: dict[str, object] = {}
    for name, cls in ALL_BASELINES.items():
        detectors[name] = cls(seed=seed) if "seed" in cls.__init__.__code__.co_varnames else cls()
        detectors[name].fit(split.train.sources, split.train.labels)

    jsrevealer = JSRevealer(default_jsrevealer_config(seed=seed))
    jsrevealer.pretrain(split.pretrain.sources, split.pretrain.labels)
    jsrevealer.fit(split.train.sources, split.train.labels)
    detectors["jsrevealer"] = jsrevealer

    if include_regular_ast:
        regular = JSRevealer(default_jsrevealer_config(seed=seed, use_dataflow=False, k_benign=5, k_malicious=6))
        regular.pretrain(split.pretrain.sources, split.pretrain.labels)
        regular.fit(split.train.sources, split.train.labels)
        detectors["jsrevealer_regular"] = regular

    out: dict[str, dict[str, DetectionReport]] = {}
    for name, detector in detectors.items():
        out[name] = {}
        for setting, corpus in test_sets.items():
            predictions = detector.predict(corpus.sources)
            out[name][setting] = detection_report(corpus.label_array, predictions)
    return out


_CACHE: dict[tuple, ComparisonResult] = {}


def run_comparison(include_regular_ast: bool = True, seed0: int = 0) -> ComparisonResult:
    """Run (or fetch from cache) the five-detector comparison protocol."""
    params = bench_params()
    key = (tuple(sorted(params.items())), include_regular_ast, seed0)
    if key in _CACHE:
        return _CACHE[key]

    per_rep: list[dict[str, dict[str, DetectionReport]]] = []
    for rep in range(params["reps"]):
        per_rep.append(_single_run(seed0 + rep, params, include_regular_ast))

    result = ComparisonResult(repetitions=params["reps"])
    for detector in per_rep[0]:
        result.reports[detector] = {}
        for setting in SETTINGS:
            result.reports[detector][setting] = _average_reports([r[detector][setting] for r in per_rep])
    _CACHE[key] = result
    return result


def scan_timing_comparison(
    detector: JSRevealer,
    sources: list[str],
    n_workers: int = 2,
    cache=None,
) -> dict[str, "object"]:
    """Table VIII-style scan of ``sources`` in sequential and parallel mode.

    Returns ``{"sequential": ScanReport, "parallel": ScanReport}`` so the
    runtime bench can report per-stage milliseconds for both engine modes
    (and cache effects, when a ``FeatureCache`` is supplied).
    """
    from repro.pipeline import BatchScanner

    with (
        BatchScanner(detector, n_workers=1) as sequential,
        BatchScanner(detector, n_workers=n_workers, cache=cache) as parallel,
    ):
        return {"sequential": sequential.scan(sources), "parallel": parallel.scan(sources)}


def format_timing_table(reports: dict[str, "object"], title: str = "") -> str:
    """Render per-stage scan timings (ms) for each engine mode."""
    from repro.pipeline import STAGE_KEYS

    lines = [title] if title else []
    header = f"{'Mode':14s}" + "".join(f"{key[:16]:>18s}" for key in STAGE_KEYS)
    header += f"{'wall_ms':>12s}{'ms/file':>10s}"
    lines.append(header)
    lines.append("-" * len(header))
    for mode, report in reports.items():
        row = f"{mode:14s}"
        for key in STAGE_KEYS:
            row += f"{report.stage_ms.get(key, 0.0):18.1f}"
        row += f"{report.elapsed_ms:12.1f}{report.elapsed_ms / max(report.n_files, 1):10.1f}"
        lines.append(row)
    return "\n".join(lines)


def serve_throughput_comparison(
    detector: JSRevealer,
    sources: list[str],
    concurrency: int = 8,
    repeats: int = 2,
    max_batch: int = 8,
) -> dict[str, "object"]:
    """Micro-batching vs per-request dispatch vs in-process one-shot scans.

    Boots the daemon twice on an ephemeral port — once with
    ``max_batch=1`` (per-request dispatch) and once with ``max_batch``
    (micro-batching) — and drives both with the stdlib load generator at
    ``concurrency`` clients.  The ``oneshot`` entry times the same scripts
    through sequential in-process :meth:`JSRevealer.scan` calls, the cost
    every request pays without a resident daemon (process startup + model
    load excluded, so the comparison favors the baseline).

    Returns ``{"oneshot": LoadReport, "serve_unbatched": LoadReport,
    "serve_batched": LoadReport}``; per-script verdicts ride on each
    report's ``results`` so callers can assert equal correctness.
    """
    import time

    from repro.serve import BackgroundServer, LoadReport, LoadResult, ServeConfig
    from repro.serve.loadgen import run_load

    scripts = [(f"<bench:{i}>", source) for i, source in enumerate(sources)]

    oneshot_results = []
    oneshot_started = time.perf_counter()
    for _ in range(repeats):
        for name, source in scripts:
            started = time.perf_counter()
            result = detector.scan(source)
            oneshot_results.append(
                LoadResult(
                    name=name,
                    status=200,
                    latency_ms=1000.0 * (time.perf_counter() - started),
                    verdict=result.verdict,
                    label=result.label,
                    probability=result.probability,
                )
            )
    out: dict[str, object] = {
        "oneshot": LoadReport(
            requests=len(oneshot_results),
            errors=0,
            elapsed_s=time.perf_counter() - oneshot_started,
            concurrency=1,
            results=oneshot_results,
        )
    }

    for mode, batch in (("serve_unbatched", 1), ("serve_batched", max_batch)):
        config = ServeConfig(
            port=0,
            max_batch=batch,
            queue_limit=max(concurrency * 4, 64),
        )
        with BackgroundServer(detector, config) as server:
            out[mode] = run_load(
                server.host, server.port, scripts, concurrency=concurrency, repeats=repeats
            )
    return out


def cluster_scaling_comparison(
    model_dir: str,
    sources: list[str],
    shard_counts: tuple[int, ...] = (1, 2, 4),
    concurrency: int = 8,
    repeats: int = 2,
) -> dict[str, "object"]:
    """Router throughput as the shard fleet grows: 1 → 2 → 4 shards.

    Boots one :class:`~repro.serve.cluster.BackgroundCluster` per entry in
    ``shard_counts`` — each from the same saved ``model_dir``, each with a
    *fresh* shared cache directory so every fleet size starts cold and
    pays the same compute — and drives the router with the stdlib load
    generator at ``concurrency`` clients.  Shards are separate processes,
    so on a multi-core machine the fleet scales past the GIL; the router
    adds one loopback hop per request.

    Returns ``{"shards_1": LoadReport, "shards_2": ..., ...}``; verdicts
    ride on each report's ``results`` so callers can assert the fleet
    answers exactly what a single shard answers.
    """
    import tempfile

    from repro.serve import BackgroundCluster, ClusterConfig
    from repro.serve.loadgen import run_load

    scripts = [(f"<cluster:{i}>", source) for i, source in enumerate(sources)]
    out: dict[str, object] = {}
    for n_shards in shard_counts:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
            config = ClusterConfig(
                model_dir=model_dir, n_shards=n_shards, port=0, cache_dir=cache_dir
            )
            with BackgroundCluster(config) as cluster:
                out[f"shards_{n_shards}"] = run_load(
                    cluster.host,
                    cluster.port,
                    scripts,
                    concurrency=concurrency,
                    repeats=repeats,
                )
    return out


def format_load_table(reports: dict[str, "object"], title: str = "") -> str:
    """Render throughput and latency percentiles per serving mode."""
    lines = [title] if title else []
    header = (
        f"{'Mode':16s}{'req':>6s}{'err':>5s}{'req/s':>10s}"
        f"{'p50_ms':>10s}{'p95_ms':>10s}{'p99_ms':>10s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for mode, report in reports.items():
        lines.append(
            f"{mode:16s}{report.requests:>6d}{report.errors:>5d}"
            f"{report.throughput_rps:>10.1f}{report.latency_ms(0.50):>10.1f}"
            f"{report.latency_ms(0.95):>10.1f}{report.latency_ms(0.99):>10.1f}"
        )
    return "\n".join(lines)


def format_metric_table(
    result: ComparisonResult,
    metric: str,
    detectors=DETECTOR_ORDER,
    title: str = "",
) -> str:
    """Render one paper-style table (rows = detectors, cols = settings)."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'Detector':14s}" + "".join(f"{s[:12]:>14s}" for s in SETTINGS)
    lines.append(header)
    lines.append("-" * len(header))
    for detector in detectors:
        if detector not in result.reports:
            continue
        row = f"{detector:14s}"
        for setting in SETTINGS:
            row += f"{result.metric(detector, setting, metric):14.1f}"
        lines.append(row)
    return "\n".join(lines)
