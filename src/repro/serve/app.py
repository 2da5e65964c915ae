"""The scan daemon: model loaded once, shared by every connection.

``ScanServer`` glues the pieces together: hand-rolled HTTP/1.1 framing
(:mod:`repro.serve.http`), the micro-batching queue
(:mod:`repro.serve.batching`), the existing
:class:`~repro.pipeline.BatchScanner` + :class:`~repro.pipeline.FeatureCache`
(one of each, shared by all clients), and the
:class:`~repro.obs.MetricsRegistry` observability layer.

Endpoints (mounted under ``/v1``; see API.md for the envelope contract —
the bare legacy paths remain as deprecation aliases)::

    POST /v1/scan        {"source": str, "name"?: str, "threshold"?: float}
                         → 200 envelope, data = ScanResult object
    POST /v1/scan/batch  {"scripts": [{"source": str, "name"?: str} | str, ...],
                          "threshold"?: float}
                         → 200 envelope, data = {"results": [...], ...}
    POST /v1/analyze     {"source": str, "name"?: str}
                         → 200 envelope, data = AnalysisReport (static
                           analysis only; no model, no micro-batch queue)
    POST /v1/admin/reload {"model_dir": str}
                         → 200 envelope; the model is loaded off-thread and
                           swapped in atomically between micro-batches
                           (zero-downtime reload; bumps the epoch)
    GET  /v1/healthz     → 200 envelope: status, fingerprint, epoch, pid
    GET  /v1/version     → 200 envelope: service, version, config
    GET  /v1/metrics     → 200 Prometheus text exposition (unwrapped —
                           the one non-envelope endpoint, by design)
    GET  /v1/debug/traces[/<id>] → 200 envelope: retained span trees

Failure semantics (the backpressure contract):

* malformed body / missing fields → **400** with ``{"error": {...}}``,
* body larger than ``max_body_bytes`` → **413** before the body is read,
* queue at ``queue_limit`` → **429** with a ``Retry-After`` header,
* request older than ``request_timeout_s`` or server draining → **503**,
* circuit breaker open (sustained worker deaths) → **503** +
  ``Retry-After`` until the half-open probe succeeds (DESIGN.md §9),
* SIGTERM/SIGINT → stop accepting, answer everything admitted, exit 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis import Analyzer
from repro.faults import CircuitBreaker, QuarantineJournal, ScanLimits
from repro.obs import (
    MetricsRegistry,
    SamplingProfiler,
    SpanContext,
    TraceStore,
    Tracer,
    get_logger,
)
from repro.pipeline import BatchScanner, FeatureCache

from .api import (
    deprecation_headers,
    is_legacy_alias,
    protocol_error_response,
    split_api_path,
    v1_error_response,
    v1_response,
)
from .batching import Draining, MicroBatcher, QueueFull
from .http import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    error_response,
    json_response,
    read_request,
    render_response,
    trace_list_query,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.detector import JSRevealer


@dataclass
class ServeConfig:
    """Daemon knobs; mirrors the ``repro serve`` CLI flags."""

    host: str = "127.0.0.1"
    port: int = 8077  # 0 = ephemeral (tests/benches read .bound_port)
    n_workers: int = 1  # BatchScanner pool size; 1 = in-process sequential
    max_batch: int = 8
    queue_limit: int = 64
    cache_dir: str | None = None
    cache_entries: int = 4096
    threshold: float = 0.5  # default verdict threshold
    request_timeout_s: float = 30.0
    retry_after_s: int = 1  # advertised on 429
    # Fault isolation (repro.faults): any of the three limits being set
    # routes every scan through the worker pool, under those bounds.
    timeout_s: float | None = None  # per-script wall-clock deadline
    max_rss_mb: int | None = None  # per-worker memory headroom (RLIMIT_AS)
    max_cpu_s: float | None = None  # per-worker CPU cap (RLIMIT_CPU)
    quarantine_dir: str | None = None  # persist quarantine.jsonl here
    breaker_threshold: int = 5  # consecutive worker deaths that open it
    breaker_reset_s: float = 30.0  # open → half-open probe delay
    max_body_bytes: int = MAX_BODY_BYTES  # request body cap (413 above)
    # Tracing (repro.obs.trace): head-sampled per request; an inbound
    # ``traceparent`` with the sampled bit set always records.
    trace_sample_rate: float = 0.1
    trace_capacity: int = 256  # /debug/traces ring size
    trace_slow_ms: float = 250.0  # slow-scan retention threshold
    # Deobfuscation pre-pass default: requests may override per call with
    # a boolean ``"deobfuscate"`` field on /scan and /scan/batch bodies.
    deobfuscate: bool = False
    # Default sampling rate for GET /v1/debug/prof captures.
    profile_hz: float = 99.0

    def validate(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be positive")
        if self.breaker_reset_s <= 0:
            raise ValueError("breaker_reset_s must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be within [0, 1]")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be positive")
        if self.profile_hz <= 0:
            raise ValueError("profile_hz must be positive")
        limits = self.scan_limits()
        if limits is not None:
            limits.validate()

    def scan_limits(self) -> ScanLimits | None:
        """The :class:`ScanLimits` this config implies; ``None`` if unset."""
        if self.timeout_s is None and self.max_rss_mb is None and self.max_cpu_s is None:
            return None
        return ScanLimits(
            timeout_s=self.timeout_s, max_rss_mb=self.max_rss_mb, max_cpu_s=self.max_cpu_s
        )


class ScanServer:
    """One loaded model behind an asyncio HTTP endpoint."""

    def __init__(
        self,
        detector: "JSRevealer",
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config or ServeConfig()
        self.config.validate()
        self.detector = detector
        self.metrics = metrics or MetricsRegistry()
        self.fingerprint = detector.fingerprint()

        self.cache = FeatureCache(
            self.fingerprint,
            max_entries=self.config.cache_entries,
            cache_dir=self.config.cache_dir,
            metrics=self.metrics,
        )
        self.quarantine = (
            QuarantineJournal.in_dir(self.config.quarantine_dir)
            if self.config.quarantine_dir is not None
            else QuarantineJournal()
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
            metrics=self.metrics,
        )
        # Per-request traces land in the bounded ring behind /debug/traces;
        # the scanner gets its own never-sampling tracer — batch traces are
        # recorded only when a traced request is waiting on the batch, then
        # grafted under each such request's root span.
        self.traces = TraceStore(
            capacity=self.config.trace_capacity, slow_ms=self.config.trace_slow_ms
        )
        self.tracer = Tracer(sample_rate=self.config.trace_sample_rate, sink=self.traces.put)
        self.log = get_logger("serve")
        self.scanner = self._build_scanner(detector, self.cache)
        # Static analysis shares the metrics registry, so /metrics exposes
        # per-rule finding counters next to the scan histograms.
        self.analyzer = Analyzer(metrics=self.metrics)
        # The deobfuscation engine is model-independent and always built:
        # requests can opt in per call even when the server default is
        # off, and building it here pre-registers every
        # ``repro_deobfuscate_*`` series on /metrics at zero.
        from repro.deobfuscate import Deobfuscator

        self.deobfuscator = Deobfuscator(limits=self.config.scan_limits(), metrics=self.metrics)
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-scan")
        self.batcher = MicroBatcher(
            self._scan_batch,
            executor=self._executor,
            max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit,
            metrics=self.metrics,
            pass_meta=True,
        )
        self._server: asyncio.AbstractServer | None = None
        self.bound_port: int | None = None
        self.started_at = time.time()
        #: Model epoch: 0 for the boot model, +1 per successful
        #: ``POST /v1/admin/reload``.  The supervisor's rolling reload
        #: watches this (plus the fingerprint) to confirm a shard rolled.
        self.epoch = 0

        self._m_requests: dict[tuple[str, str, int], object] = {}
        self._m_deprecated: dict[str, object] = {}
        self._m_reloads = self.metrics.counter(
            "repro_model_reloads_total", "Successful zero-downtime model reloads"
        )
        self._m_epoch = self.metrics.gauge(
            "repro_model_epoch", "Model epoch (0 = boot model, +1 per reload)"
        )
        self._m_epoch.set(0)
        self._m_latency = self.metrics.histogram(
            "repro_http_request_seconds", "Wall-clock per HTTP request"
        )
        import platform

        from repro import __version__

        self.metrics.gauge(
            "repro_build_info",
            "Constant 1; the labels carry the build/runtime identity",
            labels={"version": __version__, "python": platform.python_version()},
        ).set(1)
        self._m_uptime = self.metrics.gauge(
            "repro_uptime_seconds", "Seconds since the server started"
        )
        self.profiler = SamplingProfiler(hz=self.config.profile_hz)

    # The executor-side entry point; wrapped so tests/benches can stub it.
    def _scan_batch(self, sources: list[str], names: list[str], metas: list[dict] | None = None):
        # One traced request in the micro-batch is enough to record the
        # whole batch's spans (they are grafted into every traced waiter).
        want_trace = any(meta.get("trace") for meta in metas or [])
        # Deobfuscation is per *request* while the scan is per micro-batch,
        # so flagged sources are normalized here — before the scanner, so
        # its cache keys on the normalized text — and the reports are
        # re-attached to the matching results after.  The engine never
        # raises; clean scripts come back verbatim.
        norm_reports: list = [None] * len(sources)
        if metas and any(meta.get("deobfuscate") for meta in metas):
            sources = list(sources)
            for i, meta in enumerate(metas):
                if not meta.get("deobfuscate"):
                    continue
                normalized, norm_report = self.deobfuscator.normalize(
                    sources[i], name=str(names[i])
                )
                sources[i] = normalized
                if norm_report.interesting:
                    norm_reports[i] = norm_report
        try:
            report = self.scanner.scan(
                sources,
                names=names,
                threshold=self.config.threshold,
                trace=True if want_trace else None,
            )
        except Exception:
            self.breaker.record_failure()
            raise
        for i, norm_report in enumerate(norm_reports):
            if norm_report is None or i >= len(report.results):
                continue
            result = report.results[i]
            result.normalization = norm_report.to_dict()
            if result.trace is not None:
                result.trace.setdefault("provenance", {})[
                    "normalization"
                ] = norm_report.to_dict()
        # Each *fresh* fault cost one worker (known-quarantined scripts are
        # answered without dispatching, so they don't count); a clean batch
        # closes the breaker again.  Thread-safe: we are on the single
        # executor thread, the breaker is read from the event loop.
        deaths = sum(
            1
            for result in report.results
            if result.faulted and not (result.fault or {}).get("known")
        )
        if deaths:
            self.breaker.record_failure(deaths)
        else:
            self.breaker.record_success()
        return report

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally answer all admitted work, tear down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            await self.batcher.drain()
        self.scanner.close()
        self._executor.shutdown(wait=True)

    async def run_until_signaled(self, signals=(signal.SIGTERM, signal.SIGINT)) -> None:
        """Serve until SIGTERM/SIGINT, then drain in-flight work and return."""
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        for signum in signals:
            loop.add_signal_handler(signum, stop_event.set)
        try:
            await self.start()
            print(
                f"repro.serve listening on http://{self.config.host}:{self.bound_port} "
                f"(workers={self.config.n_workers}, max_batch={self.config.max_batch}, "
                f"queue_limit={self.config.queue_limit})",
                file=sys.stderr,
                flush=True,
            )
            await stop_event.wait()
            print("repro.serve draining…", file=sys.stderr, flush=True)
        finally:
            for signum in signals:
                loop.remove_signal_handler(signum)
            await self.stop(drain=True)

    # ----------------------------------------------------------- connections

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body_bytes)
                except ProtocolError as error:
                    writer.write(protocol_error_response(error))
                    await writer.drain()
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                started = time.perf_counter()
                response, keep_alive = await self._route(request)
                self._m_latency.observe(
                    time.perf_counter() - started, trace_id=request.trace_id_hint
                )
                writer.write(response)
                await writer.drain()
                if not keep_alive or not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _count_request(self, method: str, path: str, status: int) -> None:
        key = (method, path, status)
        counter = self._m_requests.get(key)
        if counter is None:
            counter = self.metrics.counter(
                "repro_http_requests_total",
                "HTTP requests by method, path, and status",
                labels={"method": method, "path": path, "status": str(status)},
            )
            self._m_requests[key] = counter
        counter.inc()

    def _count_deprecated(self, path: str) -> None:
        counter = self._m_deprecated.get(path)
        if counter is None:
            counter = self.metrics.counter(
                "repro_http_deprecated_requests_total",
                "Requests on unprefixed legacy paths (deprecation aliases of /v1)",
                labels={"path": path},
            )
            self._m_deprecated[path] = counter
        counter.inc()

    # ------------------------------------------------------------- rendering
    #
    # Every handler produces a *payload* (a JSON-able dict) and the routing
    # layer renders it per API surface: the v1 envelope under /v1, the
    # byte-identical v0 body on the legacy aliases.  Error paths flow
    # through the same split — one semantic error, two renderings.

    def _request_trace_id(self, request: Request) -> str | None:
        parent = SpanContext.parse(request.traceparent)
        return parent.trace_id if parent is not None else None

    def _ok(
        self,
        request: Request,
        payload: dict,
        trace_id: str | None = None,
        extra_headers: dict[str, str] | None = None,
        status: int = 200,
    ) -> tuple[int, bytes]:
        if request.api == "v1":
            return status, v1_response(status, payload, trace_id=trace_id, extra_headers=extra_headers)
        return status, json_response(status, payload, extra_headers=extra_headers)

    def _err(
        self,
        request: Request,
        status: int,
        message: str,
        detail: dict | None = None,
        extra_headers: dict[str, str] | None = None,
        trace_id: str | None = None,
        keep_alive: bool = True,
    ) -> tuple[int, bytes]:
        if trace_id is None:
            trace_id = self._request_trace_id(request)
        if request.api == "v1":
            return status, v1_error_response(
                status, message, trace_id=trace_id, detail=detail,
                extra_headers=extra_headers, keep_alive=keep_alive,
            )
        return status, error_response(
            status, message, extra_headers=extra_headers, keep_alive=keep_alive
        )

    # --------------------------------------------------------------- routing

    async def _route(self, request: Request) -> tuple[bytes, bool]:
        """Dispatch one request; returns ``(response_bytes, keep_alive)``."""
        request.api, logical = split_api_path(request.path)
        deprecated = request.api == "legacy" and is_legacy_alias(logical)
        handlers = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/version"): self._handle_version,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/scan"): self._handle_scan,
            ("POST", "/scan/batch"): self._handle_scan_batch,
            ("POST", "/analyze"): self._handle_analyze,
        }
        if request.api == "v1":
            handlers[("POST", "/admin/reload")] = self._handle_admin_reload
            handlers[("GET", "/debug/prof")] = self._handle_prof
        handler = handlers.get((request.method, logical))
        known_path = any(path == logical for _, path in handlers)
        if handler is None and logical.startswith("/debug/traces"):
            known_path = True
            if request.method == "GET":
                handler = (
                    self._handle_traces_list
                    if logical.rstrip("/") == "/debug/traces"
                    else self._handle_trace_get
                )
        try:
            if handler is None:
                status, response = self._err(
                    request,
                    405 if known_path else 404,
                    f"no route for {request.method} {request.path}",
                    extra_headers={"Allow": "GET, POST"} if known_path else None,
                )
            else:
                status, response = await handler(request)
        except ProtocolError as error:
            status, response = self._err(request, error.status, error.message)
        except _Reply as reply:  # early termination raised outside a handler's catch
            status, response = self._render_reply(request, reply)
        except Exception as error:  # a handler bug must not kill the connection loop
            status, response = self._err(
                request, 500, f"internal error: {type(error).__name__}: {error}"
            )
        if deprecated:
            self._count_deprecated(logical)
            response = _inject_headers(response, deprecation_headers(logical))
        self._count_request(request.method, request.path, status)
        return response, status < 500 or status == 503

    def _render_reply(
        self, request: Request, reply: "_Reply", trace_id: str | None = None
    ) -> tuple[int, bytes]:
        return self._err(
            request,
            reply.status,
            reply.message,
            detail=reply.detail,
            extra_headers=reply.headers,
            trace_id=trace_id,
            keep_alive=reply.keep_alive,
        )

    # -------------------------------------------------------------- handlers

    async def _handle_healthz(self, request: Request) -> tuple[int, bytes]:
        payload = {
            "status": "ok",
            "model_fingerprint": self.fingerprint,
            "epoch": self.epoch,
            "pid": os.getpid(),
            "draining": bool(getattr(self.batcher, "_draining", False)),
            "queue_depth": self.batcher.queue_depth,
            "uptime_s": round(time.time() - self.started_at, 3),
            "breaker": self.breaker.snapshot(),
            "quarantined": len(self.quarantine),
            "traces_stored": len(self.traces),
        }
        return self._ok(request, payload)

    async def _handle_version(self, request: Request) -> tuple[int, bytes]:
        from repro import __version__

        payload = {
            "service": "repro.serve",
            "version": __version__,
            "model_fingerprint": self.fingerprint,
            "config": {
                "n_workers": self.config.n_workers,
                "max_batch": self.config.max_batch,
                "queue_limit": self.config.queue_limit,
                "threshold": self.config.threshold,
                "timeout_s": self.config.timeout_s,
                "max_rss_mb": self.config.max_rss_mb,
                "max_cpu_s": self.config.max_cpu_s,
                "breaker_threshold": self.config.breaker_threshold,
                "breaker_reset_s": self.config.breaker_reset_s,
                "max_body_bytes": self.config.max_body_bytes,
                "deobfuscate": self.config.deobfuscate,
            },
        }
        return self._ok(request, payload)

    async def _handle_metrics(self, request: Request) -> tuple[int, bytes]:
        self._m_uptime.set(round(time.time() - self.started_at, 3))
        body = self.metrics.render().encode("utf-8")
        return 200, render_response(200, body, content_type=MetricsRegistry.CONTENT_TYPE)

    async def _handle_traces_list(self, request: Request) -> tuple[int, bytes]:
        filters = trace_list_query(request)
        payload = {
            "traces": self.traces.list(
                max(1, min(filters["n"], self.traces.capacity)),
                slow_ms=filters["slow_ms"],
                status=filters["status"],
            ),
            "stored": self.traces.stored,
            "evicted": self.traces.evicted,
            "sample_rate": self.config.trace_sample_rate,
        }
        return self._ok(request, payload)

    async def _handle_prof(self, request: Request) -> tuple[int, bytes]:
        """Collapsed-stack wall-clock profile of this shard's live threads.

        The capture itself blocks, so it runs on the default executor —
        not the single scan-executor thread, which must stay sampleable.
        """
        try:
            seconds = float(request.query.get("seconds", "1"))
            hz = float(request.query["hz"]) if "hz" in request.query else None
        except ValueError as error:
            raise ProtocolError(400, '"seconds" and "hz" must be numbers') from error
        if seconds <= 0 or (hz is not None and hz <= 0):
            raise ProtocolError(400, '"seconds" and "hz" must be positive')
        thread_prefix = request.query.get("threads")
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, lambda: self.profiler.profile(seconds, hz=hz, thread_prefix=thread_prefix)
        )
        return 200, render_response(
            200, report.collapsed().encode("utf-8"), content_type="text/plain; charset=utf-8"
        )

    async def _handle_trace_get(self, request: Request) -> tuple[int, bytes]:
        trace_id = request.path.rstrip("/").rsplit("/", 1)[-1]
        record = self.traces.get(trace_id)
        if record is None:
            return self._err(request, 404, f"trace {trace_id!r} not found (expired or unsampled)")
        return self._ok(request, record)

    # --------------------------------------------------------------- tracing

    def _start_request_trace(self, request: Request, name: str):
        """Open the per-request root span (inbound ``traceparent`` wins)."""
        parent = SpanContext.parse(request.traceparent)
        root = self.tracer.start_trace(
            name, parent=parent, attributes={"method": request.method, "path": request.path}
        )
        if root.recording:
            # The latency histogram's exemplar for this request points at
            # a trace id that will actually exist in the store.
            request.trace_id_hint = root.context.trace_id
        return root

    @staticmethod
    def _trace_headers(root) -> dict[str, str]:
        context = root.context
        return {"X-Trace-Id": context.trace_id, "traceparent": context.to_traceparent()}

    def _graft_batch(self, root, report, total_wait_ms: float | None) -> None:
        """Stitch one batch's span tree into a traced request's trace.

        The scanner traces each micro-batch as its own trace (one batch
        serves requests from many traces); for every traced waiter the
        batch spans are re-keyed to the request's trace id and the batch
        root is re-parented under a synthesized ``batch.execute`` span.
        The gap between total wait and batch execution is the queue
        (``total_wait_ms=None`` skips the queue span — used when a large
        request spans several micro-batches and the wait was already
        accounted to the first one).
        """
        if not root.recording:
            return
        batch_trace = report.trace or {}
        batch_ms = float(report.elapsed_ms)
        if total_wait_ms is not None:
            root.synthesize("queue.wait", max(total_wait_ms - batch_ms, 0.0))
        anchor = root.synthesize(
            "batch.execute",
            batch_ms,
            attributes={"batch_trace_id": batch_trace.get("trace_id"), "batch_size": report.n_files},
        )
        spans = batch_trace.get("spans") or []
        span_ids = {span.get("span_id") for span in spans}
        for span in spans:
            span = dict(span)
            if span.get("parent_id") not in span_ids:
                span["parent_id"] = anchor["span_id"]
            root.add_span_dict(span)

    def _parse_threshold(self, payload: dict) -> float:
        threshold = payload.get("threshold", self.config.threshold)
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise ProtocolError(400, "threshold must be a number")
        return float(threshold)

    def _parse_deobfuscate(self, payload: dict) -> bool:
        flag = payload.get("deobfuscate", self.config.deobfuscate)
        if not isinstance(flag, bool):
            raise ProtocolError(400, '"deobfuscate" must be a boolean')
        return flag

    def _analyze_normalized(self, source: str, name: str):
        """Normalize then analyze; spans map back via the line map."""
        normalized, norm_report = self.deobfuscator.normalize(source, name=name)
        line_map = norm_report.line_map if norm_report.changed else None
        report = self.analyzer.analyze(
            normalized,
            name,
            line_map=line_map,
            raw_source=source if line_map is not None else None,
        )
        return report, norm_report

    @staticmethod
    def _result_payload(result, threshold: float) -> dict:
        out = result.to_dict()
        # The batch-trace envelope never ships raw: a traced batch may
        # contain *other* requests' scripts, and untraced requests must
        # stay byte-identical.  Traced requests get their own envelope
        # re-keyed to the request trace (see the handlers).
        out.pop("trace", None)
        # Per-request thresholds re-derive the verdict from the probability;
        # the classifier label and probability themselves never change.
        out["malicious"] = bool(result.probability >= threshold)
        out["verdict"] = "malicious" if out["malicious"] else "benign"
        return out

    async def _submit(self, source: str, name: str, meta: dict | None = None) -> asyncio.Future:
        if not self.breaker.allow():
            retry = max(
                self.config.retry_after_s, math.ceil(self.breaker.retry_after_s())
            )
            raise _Reply(
                503,
                "scan workers are failing; circuit breaker is open",
                headers={"Retry-After": str(retry)},
                detail={"state": "breaker_open", "retry_after_s": retry},
            )
        try:
            return self.batcher.submit(source, name, meta=meta)
        except QueueFull as error:
            raise _Reply(
                429,
                str(error),
                headers={"Retry-After": str(self.config.retry_after_s)},
                detail={"state": "queue_full", "queue_limit": self.config.queue_limit},
            ) from error
        except Draining as error:
            raise _Reply(
                503, "server is draining", detail={"state": "draining"}, keep_alive=False
            ) from error

    async def _handle_scan(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        source = payload.get("source")
        if not isinstance(source, str):
            raise ProtocolError(400, 'missing or non-string "source" field')
        name = payload.get("name", "<request>")
        if not isinstance(name, str):
            raise ProtocolError(400, '"name" must be a string')
        threshold = self._parse_threshold(payload)
        deobfuscate = self._parse_deobfuscate(payload)

        root = self._start_request_trace(request, "http.scan")
        with root:
            root.set_attribute("script", name)
            submitted = time.perf_counter()
            try:
                future = await self._submit(
                    source, name, meta={"trace": root.recording, "deobfuscate": deobfuscate}
                )
            except _Reply as reply:
                root.set_status("error", f"rejected {reply.status}")
                return self._render_reply(request, reply, trace_id=root.context.trace_id)
            try:
                result, report = await asyncio.wait_for(future, self.config.request_timeout_s)
            except asyncio.TimeoutError:
                root.set_status("error", "request timeout")
                return self._err(
                    request,
                    503,
                    f"scan did not complete within {self.config.request_timeout_s:g}s",
                    detail={"state": "timeout"},
                    extra_headers={"Retry-After": str(self.config.retry_after_s)},
                    trace_id=root.context.trace_id,
                )
            total_wait_ms = 1000.0 * (time.perf_counter() - submitted)
            self._graft_batch(root, report, total_wait_ms)
            trace_id = root.context.trace_id
            body = self._result_payload(result, threshold)
            body["threshold"] = threshold
            body["model_fingerprint"] = report.model_fingerprint
            body["trace_id"] = trace_id
            if root.recording and result.trace is not None:
                body["trace"] = {
                    "trace_id": trace_id,
                    "provenance": result.trace.get("provenance"),
                }
            self.log.debug(
                "scan served",
                extra={"trace_id": trace_id, "script": name, "verdict": body["verdict"]},
            )
        return self._ok(
            request, body, trace_id=trace_id, extra_headers=self._trace_headers(root)
        )

    async def _handle_analyze(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        source = payload.get("source")
        if not isinstance(source, str):
            raise ProtocolError(400, 'missing or non-string "source" field')
        name = payload.get("name", "<request>")
        if not isinstance(name, str):
            raise ProtocolError(400, '"name" must be a string')
        deobfuscate = self._parse_deobfuscate(payload)
        # Analysis bypasses the micro-batch queue (it needs no model), but
        # an overloaded daemon still sheds load uniformly: when the scan
        # queue is saturated, the cheap endpoint backs off too.
        if self.batcher.queue_depth >= self.config.queue_limit:
            return self._err(
                request,
                429,
                f"queue full ({self.config.queue_limit} requests pending)",
                detail={"state": "queue_full", "queue_limit": self.config.queue_limit},
                extra_headers={"Retry-After": str(self.config.retry_after_s)},
            )
        root = self._start_request_trace(request, "http.analyze")
        with root:
            root.set_attribute("script", name)
            loop = asyncio.get_running_loop()
            norm_report = None
            if deobfuscate:
                # Same ordering contract as the scan pipeline: normalize
                # first, analyze the normalized text, and report both the
                # normalized spans and (via the line map) the raw spans of
                # the script the caller actually submitted.
                report, norm_report = await loop.run_in_executor(
                    None, self._analyze_normalized, source, name
                )
            else:
                report = await loop.run_in_executor(None, self.analyzer.analyze, source, name)
            root.synthesize("analysis", report.elapsed_ms, attributes={"n_findings": report.n_findings})
            body = report.to_dict()
            if norm_report is not None and norm_report.interesting:
                body["normalization"] = norm_report.to_dict()
            body["trace_id"] = root.context.trace_id
        return self._ok(
            request, body, trace_id=root.context.trace_id, extra_headers=self._trace_headers(root)
        )

    async def _handle_scan_batch(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        scripts = payload.get("scripts")
        if not isinstance(scripts, list) or not scripts:
            raise ProtocolError(400, '"scripts" must be a non-empty array')
        threshold = self._parse_threshold(payload)
        deobfuscate = self._parse_deobfuscate(payload)

        sources: list[str] = []
        names: list[str] = []
        for index, entry in enumerate(scripts):
            if isinstance(entry, str):
                source, name = entry, f"<batch:{index}>"
            elif isinstance(entry, dict) and isinstance(entry.get("source"), str):
                source = entry["source"]
                name = entry.get("name", f"<batch:{index}>")
                if not isinstance(name, str):
                    raise ProtocolError(400, f'scripts[{index}].name must be a string')
            else:
                raise ProtocolError(
                    400, f'scripts[{index}] must be a string or an object with a "source" string'
                )
            sources.append(source)
            names.append(name)

        root = self._start_request_trace(request, "http.scan_batch")
        with root:
            root.set_attribute("n_scripts", len(sources))
            submitted = time.perf_counter()
            futures: list[asyncio.Future] = []
            try:
                for source, name in zip(sources, names):
                    futures.append(
                        await self._submit(
                            source,
                            name,
                            meta={"trace": root.recording, "deobfuscate": deobfuscate},
                        )
                    )
            except _Reply as reply:
                for future in futures:  # abandon what we already queued
                    future.cancel()
                root.set_status("error", f"rejected {reply.status}")
                return self._render_reply(request, reply, trace_id=root.context.trace_id)
            try:
                resolved = await asyncio.wait_for(
                    asyncio.gather(*futures), self.config.request_timeout_s
                )
            except asyncio.TimeoutError:
                for future in futures:
                    future.cancel()
                root.set_status("error", "request timeout")
                return self._err(
                    request,
                    503,
                    f"batch did not complete within {self.config.request_timeout_s:g}s",
                    detail={"state": "timeout"},
                    extra_headers={"Retry-After": str(self.config.retry_after_s)},
                    trace_id=root.context.trace_id,
                )
            total_wait_ms = 1000.0 * (time.perf_counter() - submitted)
            # A large request may have been split across several micro-batches;
            # graft each distinct batch trace into this request's trace once.
            grafted: set[str] = set()
            for _, report in resolved:
                batch_id = (report.trace or {}).get("trace_id", "")
                if batch_id and batch_id not in grafted:
                    self._graft_batch(root, report, total_wait_ms if not grafted else None)
                    grafted.add(batch_id)
            results = [self._result_payload(result, threshold) for result, _ in resolved]
            body = {
                "n_files": len(results),
                "n_malicious": sum(1 for r in results if r["malicious"]),
                "threshold": threshold,
                "model_fingerprint": self.fingerprint,
                "trace_id": root.context.trace_id,
                "results": results,
            }
        return self._ok(
            request, body, trace_id=root.context.trace_id, extra_headers=self._trace_headers(root)
        )

    # ------------------------------------------------------ zero-downtime reload

    def _prepare_model(self, model_dir: str):
        """Load a new model + build its scanner/cache (off the scan thread)."""
        from repro.core.persistence import load_detector

        detector = load_detector(model_dir)
        fingerprint = detector.fingerprint()
        cache = FeatureCache(
            fingerprint,
            max_entries=self.config.cache_entries,
            cache_dir=self.config.cache_dir,
            metrics=self.metrics,
        )
        return detector, self._build_scanner(detector, cache), cache

    def _build_scanner(self, detector, cache: FeatureCache) -> BatchScanner:
        """The served model's scanner; its worker pool lives until ``close()``.

        One scanner, one executor thread: scans serialize behind the
        batcher, so the scanner (and its pool, when workers or isolation
        are enabled) is never entered concurrently.
        """
        return BatchScanner(
            detector,
            n_workers=self.config.n_workers,
            cache=cache,
            metrics=self.metrics,
            limits=self.config.scan_limits(),
            quarantine=self.quarantine,
            tracer=Tracer(sample_rate=0.0),
        )

    def _swap_model(self, detector, scanner, cache) -> None:
        """Swap the served model; runs ON the single scan-executor thread.

        Micro-batches execute on that same thread, so the swap can never
        interleave with a scan — requests queued behind it simply hit the
        new model.  This is the whole zero-downtime trick.
        """
        old_scanner = self.scanner
        self.detector = detector
        self.scanner = scanner
        self.cache = cache
        self.fingerprint = detector.fingerprint()
        self.epoch += 1
        self._m_reloads.inc()
        self._m_epoch.set(self.epoch)
        old_scanner.close()

    async def _handle_admin_reload(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        model_dir = payload.get("model_dir")
        if not isinstance(model_dir, str) or not model_dir:
            raise ProtocolError(400, 'missing or non-string "model_dir" field')
        loop = asyncio.get_running_loop()
        try:
            detector, scanner, cache = await loop.run_in_executor(
                None, self._prepare_model, model_dir
            )
        except Exception as error:
            return self._err(
                request,
                400,
                f"model load failed: {type(error).__name__}: {error}",
                detail={"model_dir": model_dir},
            )
        old_fingerprint = self.fingerprint
        await loop.run_in_executor(self._executor, self._swap_model, detector, scanner, cache)
        self.log.info(
            "model reloaded",
            extra={"model_dir": model_dir, "epoch": self.epoch},
        )
        return self._ok(
            request,
            {
                "status": "reloaded",
                "model_dir": model_dir,
                "old_fingerprint": old_fingerprint,
                "model_fingerprint": self.fingerprint,
                "epoch": self.epoch,
            },
        )


class _Reply(Exception):
    """Internal control flow: a semantic early response.

    Carries *what went wrong*, not bytes — the routing layer renders it
    as a legacy ``{"error": {...}}`` body or a v1 error envelope
    depending on which surface the request arrived on.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
        detail: dict | None = None,
        keep_alive: bool = True,
    ):
        super().__init__(status)
        self.status = status
        self.message = message
        self.headers = headers
        self.detail = detail
        self.keep_alive = keep_alive


def _inject_headers(response: bytes, headers: dict[str, str]) -> bytes:
    """Add headers to an already-rendered response (deprecation aliases).

    The legacy body must stay byte-identical, so alias responses are
    rendered exactly as before and the ``Deprecation``/``Link`` headers
    are spliced into the header block afterwards.
    """
    head, sep, body = response.partition(b"\r\n\r\n")
    if not sep:  # pragma: no cover - every rendered response has the blank line
        return response
    extra = "".join(f"\r\n{name}: {value}" for name, value in headers.items())
    return head + extra.encode("latin-1") + sep + body


def run_server(detector: "JSRevealer", config: ServeConfig | None = None) -> int:
    """Blocking entry point used by ``repro serve``; returns the exit code."""
    from repro.faults.inject import maybe_inject_boot

    maybe_inject_boot()  # chaos seam: dormant without REPRO_FAULT_INJECT
    server = ScanServer(detector, config)
    try:
        asyncio.run(server.run_until_signaled())
    except KeyboardInterrupt:  # signal handler not installable (rare)
        return 0
    return 0


class BackgroundServer:
    """A ScanServer on a daemon thread — tests, benches, and notebooks.

    Usage::

        with BackgroundServer(detector, ServeConfig(port=0)) as server:
            http.client.HTTPConnection(server.host, server.port)…
    """

    def __init__(self, detector: "JSRevealer", config: ServeConfig | None = None):
        self.config = config or ServeConfig(port=0)
        self.detector = detector
        self.server: ScanServer | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("background server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("background server failed to start") from self._startup_error
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surface startup failures to __enter__
            self._startup_error = error
            self._ready.set()

    async def _amain(self) -> None:
        self.server = ScanServer(self.detector, self.config)
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self.port = self.server.bound_port
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop(drain=True)
