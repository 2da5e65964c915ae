"""Observability layer: metrics, tracing, logging, and the fleet plane.

Public surface::

    from repro.obs import MetricsRegistry, Tracer, TraceStore, SpanContext
    from repro.obs import configure_logging, get_logger

    registry = MetricsRegistry()
    requests = registry.counter("repro_http_requests_total", "HTTP requests",
                                labels={"method": "POST", "path": "/v1/scan"})
    requests.inc()
    print(registry.render())  # text/plain; version=0.0.4

    tracer = Tracer(sample_rate=0.1)
    with tracer.start_trace("scan.batch", force=True) as root:
        stage = root.synthesize("path_extraction", elapsed_ms)
        root.synthesize("featurize", featurize_ms, parent_id=stage["span_id"])
    # finished spans: repro.obs.trace.trace_spans(root)

Fleet-plane surface (what the router's federation loop composes)::

    from repro.obs import parse_exposition, FleetMetrics, TimeseriesRing
    from repro.obs import SLOEngine, default_slos, SamplingProfiler

    families = parse_exposition(scraped_text)   # shard /v1/metrics
    fleet.update("shard-0", families)           # -> /v1/metrics?aggregate=
    ring.append("shard-0", families)            # -> windowed rates, p95
    statuses = slo_engine.evaluate(ring)        # -> /v1/status ok|warn|page
"""

from .fleet import AGGREGATE_MODES, FleetMetrics
from .logging import JsonFormatter, TextFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Exemplar,
    ExpositionError,
    Gauge,
    Histogram,
    MetricsRegistry,
    ParsedFamily,
    ParsedSample,
    parse_exposition,
)
from .profile import ProfileReport, SamplingProfiler
from .slo import SLOEngine, SLOSpec, SLOStatus, default_slos
from .timeseries import (
    HistogramWindow,
    TimeseriesRing,
    bucket_quantile,
    merge_cumulative,
    percentile,
)
from .trace import NullSpan, Span, SpanContext, Tracer, TraceStore, span_tree, trace_spans

__all__ = [
    "Counter",
    "Exemplar",
    "ExpositionError",
    "FleetMetrics",
    "Gauge",
    "Histogram",
    "HistogramWindow",
    "JsonFormatter",
    "MetricsRegistry",
    "NullSpan",
    "ParsedFamily",
    "ParsedSample",
    "ProfileReport",
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
    "SamplingProfiler",
    "Span",
    "SpanContext",
    "TextFormatter",
    "TimeseriesRing",
    "TraceStore",
    "Tracer",
    "bucket_quantile",
    "configure_logging",
    "default_slos",
    "get_logger",
    "merge_cumulative",
    "parse_exposition",
    "percentile",
    "span_tree",
    "trace_spans",
    "AGGREGATE_MODES",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]
