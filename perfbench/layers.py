"""Outside-in layer tracing: spans around calls into each layer's functions.

:func:`instrument` replaces the functions the default scan path calls
with wrappers that record a span (name, start, end, parent, and the id
shared by the spans of one script or one batch) and restores them on
exit.  Nothing in the program changes; a function that no longer exists
is reported as absent.  Spans stay in memory until the replay ends.

:func:`layer_metrics` turns spans into the per-layer metrics.  A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time

#: (span name, module, attribute path) of every wrapped function, in the
#: order the default scan path reaches them.  ``parse`` and
#: ``build_enhanced_ast`` are patched where ``PathExtractor`` looks them up.
TARGETS = (
    ("pipeline.scan", "repro.pipeline.scanner", "BatchScanner.scan"),
    ("jsparser", "repro.paths.extraction", "parse"),
    ("dataflow", "repro.paths.extraction", "build_enhanced_ast"),
    ("paths.extract", "repro.paths.extraction", "PathExtractor.extract"),
    ("core.embed_script", "repro.core.detector", "JSRevealer.embed_script"),
    ("paths.featurize", "repro.paths.featurizer", "PathFeaturizer.transform"),
    ("embedding", "repro.embedding.model", "AttentionEmbeddingModel.embed_paths"),
    ("core.features", "repro.core.features", "FeatureExtractor.transform"),
)
#: The forest's methods are wrapped on the loaded classifier's class.
ML_METHODS = ("predict", "predict_proba")


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else len(value)


def _attributes(name: str, args: tuple, result) -> dict:
    """Counts recorded at the layer boundary, so ratios are exact."""
    if name == "paths.extract":
        return {"paths": len(result)}
    if name == "paths.featurize":
        return {"rows": _rows(result)}
    if name == "embedding":
        paths = args[1]
        return {"rows": int(paths.shape[0]), "in_dim": int(paths.shape[1]),
                "d": int(result[0].shape[1]) if result[0].ndim == 2 else 0}
    if name == "core.embed_script":
        return {"kept": _rows(result[0])}
    if name == "pipeline.scan":
        return {"scripts": len(args[1])}
    return {}


class Recorder:
    """In-memory span store for one single-threaded replay."""

    def __init__(self, names_by_source: dict[str, str]):
        self.spans: list[dict] = []
        self.names_by_source = names_by_source
        self.phase = "replay"
        self._stack: list[dict] = []
        self._group = "-"
        self._batches = 0

    def _enter_group(self, name: str, args: tuple) -> None:
        if name == "pipeline.scan":
            self._batches += 1
            self._group = f"batch-{self._batches}"
        elif name == "jsparser":
            self._group = self.names_by_source.get(args[0], "?")
        elif name == "core.features":
            self._group = f"batch-{self._batches}"

    def wrap(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            recorder._enter_group(name, args)
            span = {
                "id": len(recorder.spans),
                "name": name,
                "parent": recorder._stack[-1]["id"] if recorder._stack else None,
                "group": recorder._group,
                "phase": recorder.phase,
                "start": time.perf_counter(),
            }
            recorder.spans.append(span)
            recorder._stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                recorder._stack.pop()
            span.update(_attributes(name, args, result))
            return result

        return traced


def _resolve(module_name: str, path: str) -> tuple[object, str] | None:
    """``(owner, attribute)`` of a dotted target; None once it is gone."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
    except (ImportError, AttributeError):
        return None
    return (owner, attribute) if callable(getattr(owner, attribute, None)) else None


@contextlib.contextmanager
def instrument(recorder: Recorder, classifier):
    """Wrap every layer function for the duration of the block.

    Yields the targets that could not be found, which are reported absent.
    """
    targets = [(name, _resolve(module, path), f"{module}.{path}") for name, module, path in TARGETS]
    for method in ML_METHODS:
        owner = type(classifier)
        found = (owner, method) if callable(getattr(owner, method, None)) else None
        targets.append((f"ml.{method}", found, f"{owner.__name__}.{method}"))
    patched: list[tuple[object, str, bool, object]] = []
    missing: list[str] = []
    try:
        for name, found, label in targets:
            if found is None:
                missing.append(label)
                continue
            owner, attribute = found
            own = vars(owner)
            patched.append((owner, attribute, attribute in own, own.get(attribute)))
            setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))
        yield missing
    finally:
        for owner, attribute, had, original in reversed(patched):
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def wrapper_cost_us(calls: int = 20000) -> float:
    """Measured cost of one span (wrapped minus bare call of a no-op)."""
    recorder = Recorder({})

    def noop(*args):
        return ()

    traced = recorder.wrap("noop", noop)
    started = time.perf_counter()
    for _ in range(calls):
        noop(None)
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced(None)
    wrapped = time.perf_counter() - started
    return max(0.0, 1e6 * (wrapped - bare) / calls)


# -------------------------------------------------------------- layer metrics


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(span: dict, children: list[dict]) -> float:
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children
    )
    total, cursor = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return {span["id"]: _duration(span) - _covered(span, children.get(span["id"], [])) for span in spans}


def _mean_ms(spans: list[dict]) -> float | None:
    return 1000.0 * statistics.fmean(_duration(s) for s in spans) if spans else None


def layer_metrics(processes: list[list[dict]]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of one or more replay processes.

    Span ids and parents are local to a process, so each process's spans
    are analysed on their own and pooled afterwards.  Per-script metrics
    use every span; per-batch ones skip the ``warm`` phase (a cold pass
    that only fills the cache).  Returns ``(metrics, detail)``; a metric
    with no spans behind it is omitted.
    """
    by_name: dict[str, list[dict]] = {}
    scans: list[tuple[dict, float]] = []
    ml_per_batch: list[float] = []
    cap_self: list[float] = []
    for spans in processes:
        own = self_times(spans)
        ml_by_parent: dict[int, float] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
            if span["name"] == "core.embed_script":
                cap_self.append(own[span["id"]])
            if span["name"].startswith("ml.") and span["parent"] is not None:
                ml_by_parent[span["parent"]] = ml_by_parent.get(span["parent"], 0.0) + _duration(span)
        for span in spans:
            if span["name"] == "pipeline.scan" and span["phase"] != "warm":
                scans.append((span, own[span["id"]]))
                ml_per_batch.append(ml_by_parent.get(span["id"], 0.0))

    metrics: dict[str, float] = {}
    for metric, name in (("jsparser.ms", "jsparser"), ("dataflow.ms", "dataflow"),
                         ("paths.extract.ms", "paths.extract"),
                         ("paths.featurize.ms", "paths.featurize"), ("embedding.ms", "embedding")):
        value = _mean_ms(by_name.get(name, []))
        if value is not None:
            metrics[metric] = value
    value = _mean_ms([s for s in by_name.get("core.features", []) if s["phase"] != "warm"])
    if value is not None:
        metrics["core.features.ms"] = value
    extract = by_name.get("paths.extract", [])
    if extract:
        emitted = sum(s["paths"] for s in extract)
        metrics["paths.extract.paths"] = emitted / len(extract)
        if emitted:
            metrics["paths.extract.us_per_path"] = 1e6 * sum(map(_duration, extract)) / emitted
    featurize = by_name.get("paths.featurize", [])
    rows = sum(s["rows"] for s in featurize)
    if rows:
        metrics["paths.featurize.us_per_path"] = 1e6 * sum(map(_duration, featurize)) / rows
    embed = by_name.get("embedding", [])
    if embed:
        flop = sum(2.0 * s["rows"] * s["in_dim"] * s["d"] for s in embed)
        metrics["embedding.gflop_per_s"] = flop / sum(map(_duration, embed)) / 1e9
        metrics["embedding.alloc_mb"] = statistics.fmean(
            s["rows"] * (s["in_dim"] + s["d"]) * 8 for s in embed) / 1e6
        embedded_rows = sum(s["rows"] for s in embed)
        kept = sum(s["kept"] for s in by_name.get("core.embed_script", []))
        if embedded_rows:
            metrics["core.cap.kept_ratio"] = kept / embedded_rows
    if cap_self:
        metrics["core.cap.ms"] = 1000.0 * statistics.fmean(cap_self)
    if scans:
        metrics["ml.ms"] = 1000.0 * statistics.fmean(ml_per_batch)
        metrics["pipeline.self_ms"] = 1000.0 * statistics.fmean(own for _, own in scans)
    uncovered = [own / _duration(span) for span, own in scans if _duration(span) > 0]
    detail = {
        "spans": sum(len(spans) for spans in processes),
        "scan_spans": len(scans),
        "scan_busy_s": sum(_duration(span) for span, _ in scans),
        "uncovered_share": uncovered,
        "kept_rows_by_script": {s["group"]: s["kept"] for s in by_name.get("core.embed_script", [])},
        "embed_dim": embed[0]["d"] if embed else 0,
    }
    return metrics, detail
