"""The scan daemon: model loaded once, shared by every connection.

``ScanServer`` is an :class:`~repro.serve.service.HTTPService` (the
connection loop, route table, envelope rendering, request counters,
``/metrics``, ``/debug/traces`` and ``/debug/prof`` it shares with the
cluster router) that declares the scan routes.  It glues the micro-batching
queue (:mod:`repro.serve.batching`), the existing
:class:`~repro.pipeline.BatchScanner` + :class:`~repro.pipeline.FeatureCache`
(one of each, shared by all clients), and the
:class:`~repro.obs.MetricsRegistry` observability layer together.

Per-request scan options (``deobfuscate``, and whether a traced request
waits on the batch) ride each queued item's meta into
:meth:`BatchScanner.scan`, so a flagged request is answered exactly as
``repro scan --deobfuscate`` answers it.  ``/v1/analyze`` runs the same
normalize → analyze → map-back sequence
(:func:`~repro.analysis.normalize_and_analyze`) on the scanner's
:class:`~repro.deobfuscate.Deobfuscator`.

Endpoints (mounted under ``/v1``, the only prefix; see API.md for the
envelope contract)::

    POST /v1/scan        {"source": str, "name"?: str, "threshold"?: float,
                          "deobfuscate"?: bool}
                         → 200 envelope, data = ScanResult object
    POST /v1/scan/batch  {"scripts": [{"source": str, "name"?: str} | str, ...],
                          "threshold"?: float, "deobfuscate"?: bool}
                         → 200 envelope, data = {"results": [...], ...}
    POST /v1/analyze     {"source": str, "name"?: str, "deobfuscate"?: bool}
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
    GET  /v1/debug/prof  → 200 collapsed-stack profile (``threads=`` filters)

Failure semantics (the backpressure contract):

* malformed body / missing fields → **400** error envelope,
* body larger than ``max_body_bytes`` → **413** before the body is read,
* queue at ``queue_limit`` → **429** with a ``Retry-After`` header,
* request older than ``request_timeout_s`` or server draining → **503**,
* circuit breaker open (sustained worker deaths) → **503** +
  ``Retry-After`` until the half-open probe succeeds (DESIGN.md §9),
* SIGTERM/SIGINT → stop accepting, answer everything admitted, exit 0.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis import Analyzer, normalize_and_analyze
from repro.faults import CircuitBreaker, QuarantineJournal, ScanLimits
from repro.obs import MetricsRegistry, SpanContext, get_logger
from repro.pipeline import BatchScanner, FeatureCache

from .api import parse_batch_scripts
from .batching import Draining, MicroBatcher, QueueFull
from .http import MAX_BODY_BYTES, ProtocolError, Request
from .service import (
    RETRY_AFTER_S,
    BackgroundService,
    Handler,
    HTTPService,
    Reply,
    run_until_signaled,
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
    # a boolean ``"deobfuscate"`` field on /v1/scan and /v1/scan/batch bodies.
    deobfuscate: bool = False

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


class ScanServer(HTTPService):
    """One loaded model behind an asyncio HTTP endpoint."""

    def __init__(
        self,
        detector: "JSRevealer",
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        config = config or ServeConfig()
        config.validate()
        super().__init__(
            config, metrics, ("repro_http_request_seconds", "Wall-clock per HTTP request")
        )
        self.detector = detector
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
        self.log = get_logger("serve")
        # Per-request traces land in the service's /debug/traces ring; a
        # batch trace is recorded only when a traced request is waiting on
        # the batch, then grafted under each such request's root span.
        self.scanner = self._build_scanner(detector, self.cache)
        # Static analysis shares the metrics registry, so /metrics exposes
        # per-rule finding counters next to the scan histograms.
        self.analyzer = Analyzer(metrics=self.metrics)
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-scan")
        self.batcher = MicroBatcher(
            self._scan_batch,
            executor=self._executor,
            max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit,
            metrics=self.metrics,
        )
        #: Model epoch: 0 for the boot model, +1 per successful
        #: ``POST /v1/admin/reload``.  The supervisor's rolling reload
        #: watches this (plus the fingerprint) to confirm a shard rolled.
        self.epoch = 0

        self._m_reloads = self.metrics.counter(
            "repro_model_reloads_total", "Successful zero-downtime model reloads"
        )
        self._m_epoch = self.metrics.gauge(
            "repro_model_epoch", "Model epoch (0 = boot model, +1 per reload)"
        )
        self._m_epoch.set(0)

    def routes(self) -> dict[str, dict[str, Handler]]:
        return {
            "/healthz": {"GET": self._handle_healthz},
            "/version": {"GET": self._handle_version},
            "/scan": {"POST": self._handle_scan},
            "/scan/batch": {"POST": self._handle_scan_batch},
            "/analyze": {"POST": self._handle_analyze},
            "/admin/reload": {"POST": self._handle_admin_reload},
        }

    # The executor-side entry point; wrapped so tests/benches can stub it.
    def _scan_batch(self, sources: list[str], names: list[str], metas: list[dict]):
        try:
            report = self.scanner.scan(
                sources,
                names=names,
                threshold=self.config.threshold,
                # One traced request in the micro-batch is enough to record
                # the whole batch's spans (grafted into every traced waiter).
                trace=any(meta.get("trace") for meta in metas),
                deobfuscate=[bool(meta.get("deobfuscate")) for meta in metas],
            )
        except Exception:
            self.breaker.record_failure()
            raise
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
        await super().start()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally answer all admitted work, tear down."""
        await super().stop()
        if drain:
            await self.batcher.drain()
        self.scanner.close()
        self._executor.shutdown(wait=True)

    # -------------------------------------------------------------- handlers

    async def _handle_healthz(self, request: Request) -> tuple[int, bytes]:
        payload = {
            "status": "ok",
            "model_fingerprint": self.fingerprint,
            "epoch": self.epoch,
            "pid": os.getpid(),
            "draining": bool(getattr(self.batcher, "_draining", False)),
            "queue_depth": self.batcher.queue_depth,
            "uptime_s": self.uptime_s(),
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
            retry = max(RETRY_AFTER_S, math.ceil(self.breaker.retry_after_s()))
            raise Reply(
                503,
                "scan workers are failing; circuit breaker is open",
                headers={"Retry-After": str(retry)},
                detail={"state": "breaker_open", "retry_after_s": retry},
            )
        try:
            return self.batcher.submit(source, name, meta=meta)
        except QueueFull as error:
            raise Reply(
                429,
                str(error),
                headers={"Retry-After": str(RETRY_AFTER_S)},
                detail={"state": "queue_full", "queue_limit": self.config.queue_limit},
            ) from error
        except Draining as error:
            raise Reply(
                503, "server is draining", detail={"state": "draining"}, keep_alive=False
            ) from error

    async def _handle_scan(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
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
            except Reply as reply:
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
                    extra_headers={"Retry-After": str(RETRY_AFTER_S)},
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
                extra_headers={"Retry-After": str(RETRY_AFTER_S)},
            )
        root = self._start_request_trace(request, "http.analyze")
        with root:
            root.set_attribute("script", name)
            loop = asyncio.get_running_loop()
            # The scan pipeline's intake: normalize when flagged, analyze,
            # and map findings back to the script the caller submitted.
            _, norm_report, report = await loop.run_in_executor(
                None,
                normalize_and_analyze,
                source,
                name,
                self.scanner.deobfuscator if deobfuscate else None,
                self.analyzer,
            )
            assert report is not None  # an analyzer was given
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
        scripts = parse_batch_scripts(payload)
        threshold = self._parse_threshold(payload)
        deobfuscate = self._parse_deobfuscate(payload)

        root = self._start_request_trace(request, "http.scan_batch")
        with root:
            root.set_attribute("n_scripts", len(scripts))
            submitted = time.perf_counter()
            futures: list[asyncio.Future] = []
            try:
                for source, name in scripts:
                    futures.append(
                        await self._submit(
                            source,
                            name,
                            meta={"trace": root.recording, "deobfuscate": deobfuscate},
                        )
                    )
            except Reply as reply:
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
                    extra_headers={"Retry-After": str(RETRY_AFTER_S)},
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


def run_server(detector: "JSRevealer", config: ServeConfig | None = None) -> int:
    """Blocking entry point used by ``repro serve``; returns the exit code."""
    from repro.faults.inject import maybe_inject_boot

    maybe_inject_boot()  # chaos seam: dormant without REPRO_FAULT_INJECT
    server = ScanServer(detector, config)
    return run_until_signaled(
        server,
        lambda: (
            f"repro.serve listening on http://{server.config.host}:{server.bound_port} "
            f"(workers={server.config.n_workers}, max_batch={server.config.max_batch}, "
            f"queue_limit={server.config.queue_limit})"
        ),
        "repro.serve draining…",
    )


class BackgroundServer(BackgroundService):
    """A ScanServer on a daemon thread — tests, benches, and notebooks.

    Usage::

        with BackgroundServer(detector, ServeConfig(port=0)) as server:
            http.client.HTTPConnection(server.host, server.port)…
    """

    what = "server"

    def __init__(self, detector: "JSRevealer", config: ServeConfig | None = None):
        super().__init__(config or ServeConfig(port=0))
        self.detector = detector
        self.server: ScanServer | None = None

    def _build(self) -> ScanServer:
        self.server = ScanServer(self.detector, self.config)
        return self.server
