"""The cluster front door: one listener, N scan shards behind it.

The router terminates HTTP through the same
:class:`~repro.serve.service.HTTPService` as the shards (connection
loop, route table, envelope rendering, request counters, ``/debug``
endpoints), picks a shard per script by consistent-hashing its SHA-256
content key (:mod:`repro.serve.hashring` — the same key the feature
cache uses, so every copy of a script hits the shard whose memory LRU
already holds it), and forwards the request with the client's
``traceparent`` carried through — one scan's span tree crosses both
processes under one trace id.

Every content key is placed on **R replicas** (the first R distinct
shards in the key's ring preference order): the primary serves by
default — cache affinity — and failure handling, built on
:func:`repro.faults.classify_shard_fault`, fails over deterministically
along the replica set.  Scans are pure functions of the source, so
transport failures and shard-local 503s (drain, open breaker) are
**retried on the next replica** (counted per reason in
``repro_router_failovers_total``), while 429 (cluster is genuinely
loaded) and 4xx (the request is wrong) pass through.  Replicas the
supervisor already knows are down are subset out up front.  A shard
that fails a request is reported to the
:class:`~repro.serve.supervisor.ShardSupervisor`, which health-checks
it immediately and replaces it if it is gone.  Only when a key's
*whole replica set* is gone does the router **brown out** — 503 with
``Retry-After`` — rather than hanging or dropping the connection.

In front of the fan-out sits a **verdict cache**
(:class:`~repro.serve.vcache.VerdictCache`): hot re-scanned content is
answered at the router, keyed on (content SHA-256, model epoch, scan
options), invalidated wholesale when ``/v1/admin/reload`` bumps the
epoch.

Batch scans fan out: scripts are grouped by owning shard, sub-batches
run concurrently, and the merged response preserves the caller's
ordering.  ``POST /v1/admin/reload`` delegates to the supervisor's
rolling reload.  Everything speaks the same v1 envelope as a single
daemon — a ``ScanClient`` cannot tell the difference, which is the
point.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass, field

from repro.faults import classify_shard_fault
from repro.faults.shardfault import SHARD_FAULTS
from repro.obs import (
    AGGREGATE_MODES,
    FleetMetrics,
    MetricsRegistry,
    SLOEngine,
    SLOSpec,
    SLOStatus,
    SpanContext,
    TimeseriesRing,
    default_slos,
    get_logger,
    parse_exposition,
)
from repro.pipeline import content_key

from .api import V1_PREFIX, parse_batch_scripts
from .hashring import HashRing
from .http import MAX_BODY_BYTES, ProtocolError, Request, Response, fetch, render_response
from .service import RETRY_AFTER_S, Handler, HTTPService
from .supervisor import ShardSupervisor
from .vcache import VerdictCache

#: Response headers never copied through from a shard (re-derived by the
#: router's own renderer).
_HOP_HEADERS = {"content-length", "connection", "content-type"}

#: Bound on each shard's answer to a merged trace lookup.
SHARD_TRACE_TIMEOUT_S = 5.0


@dataclass
class RouterConfig:
    """Front-door knobs; mirrors the ``repro cluster`` CLI flags."""

    host: str = "127.0.0.1"
    port: int = 8076  # 0 = ephemeral (tests/benches read .bound_port)
    request_timeout_s: float = 60.0
    max_body_bytes: int = MAX_BODY_BYTES
    trace_sample_rate: float = 0.1
    trace_capacity: int = 256
    trace_slow_ms: float = 250.0
    vnodes: int = 64  # ring points per shard
    #: Replicas per hash-ring slot: the primary plus R-1 deterministic
    #: failover targets.  Clamped to the fleet size at routing time.
    replicas: int = 2
    #: Router verdict-cache capacity (entries); 0 disables the cache.
    verdict_cache_size: int = 1024
    #: Seconds between federation scrapes of each shard's /v1/metrics;
    #: 0 disables the scrape loop (federated views go stale-empty).
    scrape_interval_s: float = 2.0
    #: Per-shard fetch timeout inside one federation scrape.
    scrape_timeout_s: float = 5.0
    #: Scrape snapshots retained per fleet member (the SLO windows and
    #: ``repro top`` read through this ring).
    timeseries_capacity: int = 300
    #: SLO burn-rate windows (seconds): fast reacts, slow suppresses blips.
    slo_fast_window_s: float = 60.0
    slo_slow_window_s: float = 300.0
    #: Declarative objectives evaluated every scrape.
    slos: tuple[SLOSpec, ...] = field(default_factory=default_slos)

    def validate(self) -> None:
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        if self.vnodes < 1:
            raise ValueError("vnodes must be positive")
        if self.replicas < 1:
            raise ValueError("replicas must be positive")
        if self.verdict_cache_size < 0:
            raise ValueError("verdict_cache_size must be >= 0")
        if self.scrape_interval_s < 0:
            raise ValueError("scrape_interval_s must be >= 0 (0 disables scraping)")
        if self.scrape_timeout_s <= 0:
            raise ValueError("scrape_timeout_s must be positive")
        if self.timeseries_capacity < 2:
            raise ValueError("timeseries_capacity must be at least 2")
        if not 0 < self.slo_fast_window_s < self.slo_slow_window_s:
            raise ValueError("need 0 < slo_fast_window_s < slo_slow_window_s")


class ScanRouter(HTTPService):
    """HTTP front door consistent-hashing scans across supervised shards."""

    def __init__(
        self,
        supervisor: ShardSupervisor,
        config: RouterConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        config = config or RouterConfig()
        config.validate()
        super().__init__(
            config, metrics, ("repro_router_request_seconds", "Wall-clock per routed request")
        )
        self.supervisor = supervisor
        self.ring = HashRing(vnodes=self.config.vnodes)
        for i in range(supervisor.n_shards):
            self.ring.add(f"shard-{i}")
        self.log = get_logger("router")
        self._rr = 0  # round-robin cursor for keyless endpoints
        self.verdicts = VerdictCache(
            capacity=self.config.verdict_cache_size, metrics=self.metrics
        )
        self._m_forwarded: dict[str, object] = {}
        for i in range(supervisor.n_shards):
            self._count_forwarded(f"shard-{i}", register_only=True)
        self._m_retries = self.metrics.counter(
            "repro_router_retries_total", "Requests re-sent to another shard after a shard fault"
        )
        self._m_failovers = {
            cause: self.metrics.counter(
                "repro_router_failovers_total",
                "Requests failed over to the next replica, by fault reason",
                labels={"reason": cause},
            )
            for cause in SHARD_FAULTS
        }
        self._m_brownouts = self.metrics.counter(
            "repro_router_brownouts_total", "Requests answered 503 because no shard could take them"
        )
        # -- fleet observability plane ----------------------------------
        self.fleet = FleetMetrics()
        self.timeseries = TimeseriesRing(capacity=self.config.timeseries_capacity)
        self.slo = SLOEngine(
            self.config.slos,
            fast_window_s=self.config.slo_fast_window_s,
            slow_window_s=self.config.slo_slow_window_s,
            metrics=self.metrics,
        )
        self.slo_status: list[SLOStatus] = []
        #: Optional hook the cluster controller installs so /v1/status can
        #: report autoscaler posture without the router importing it.
        self.autoscale_status: object | None = None
        self.last_scrape_at: float | None = None
        self._m_scrape_errors: dict[str, object] = {}
        self._scrape_task: asyncio.Task | None = None

    def routes(self) -> dict[str, dict[str, Handler]]:
        return {
            "/healthz": {"GET": self._handle_healthz},
            "/version": {"GET": self._handle_version},
            "/status": {"GET": self._handle_status},
            "/scan": {"POST": self._handle_scan},
            "/scan/batch": {"POST": self._handle_scan_batch},
            "/analyze": {"POST": self._handle_forward_any},
            "/admin/reload": {"POST": self._handle_admin_reload},
        }

    def _count_scrape_error(self, shard_id: str) -> None:
        counter = self._m_scrape_errors.get(shard_id)
        if counter is None:
            counter = self.metrics.counter(
                "repro_fleet_scrape_errors_total",
                "Failed federation scrapes of a shard's /v1/metrics",
                labels={"shard": shard_id},
            )
            self._m_scrape_errors[shard_id] = counter
        counter.inc()  # type: ignore[attr-defined]

    def _count_forwarded(self, shard_id: str, register_only: bool = False) -> None:
        """Per-shard forward counter, created on first use (the fleet is
        dynamic under autoscaling)."""
        counter = self._m_forwarded.get(shard_id)
        if counter is None:
            counter = self.metrics.counter(
                "repro_router_forwarded_total",
                "Requests forwarded to each shard",
                labels={"shard": shard_id},
            )
            self._m_forwarded[shard_id] = counter
        if not register_only:
            counter.inc()

    def sync_ring(self) -> None:
        """Reconcile the hash ring with the supervisor's current fleet —
        called by the cluster controller after autoscaling events."""
        current = set(self.supervisor.shards)
        for member in list(self.ring.members):
            if member not in current:
                self.ring.remove(member)
        for shard_id in sorted(current):
            if shard_id not in self.ring:
                self.ring.add(shard_id)

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        await super().start()
        if self.config.scrape_interval_s > 0:
            self._scrape_task = asyncio.get_running_loop().create_task(self._scrape_loop())

    async def stop(self) -> None:
        if self._scrape_task is not None:
            self._scrape_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scrape_task
            self._scrape_task = None
        await super().stop()

    # ------------------------------------------------------------ federation

    async def _scrape_loop(self) -> None:
        # Interval-first: the fleet gets one scrape interval to settle
        # after boot before the first federation pass hits every shard.
        while True:
            await asyncio.sleep(self.config.scrape_interval_s)
            try:
                await self.scrape_once()
            except asyncio.CancelledError:
                raise
            except Exception as error:  # a scrape must never kill the loop
                self.log.warning(
                    "fleet scrape pass failed",
                    extra={"error": f"{type(error).__name__}: {error}"},
                )

    async def scrape_once(self) -> None:
        """One federation pass: scrape every shard, refresh SLO states.

        Members that left the fleet (autoscale-down, replacement) are
        forgotten first so the aggregated exposition tracks membership;
        a failed scrape counts in ``repro_fleet_scrape_errors_total`` and
        leaves that member's last good snapshot in place.
        """
        shards = dict(self.supervisor.shards)
        for member in self.fleet.members:
            if member not in shards:
                self.fleet.forget(member)
                self.timeseries.forget(member)

        async def scrape(shard_id: str, spec) -> None:
            try:
                response = await fetch(
                    spec.host, spec.port, "GET", f"{V1_PREFIX}/metrics",
                    timeout_s=self.config.scrape_timeout_s,
                )
                if response.status != 200:
                    raise RuntimeError(f"shard answered {response.status}")
                families = parse_exposition(response.body.decode("utf-8"))
            except asyncio.CancelledError:
                raise
            except Exception as error:
                self._count_scrape_error(shard_id)
                self.log.warning(
                    "fleet scrape failed",
                    extra={"shard": shard_id, "error": f"{type(error).__name__}: {error}"},
                )
                return
            self.fleet.update(shard_id, families)
            self.timeseries.append(shard_id, families)

        await asyncio.gather(*(scrape(shard_id, spec) for shard_id, spec in shards.items()))
        # The router's own registry snapshots into the same ring, so SLOs
        # are judged at the front door — where the client experience is.
        self._m_uptime.set(self.uptime_s())
        self.timeseries.append("router", parse_exposition(self.metrics.render()))
        self.slo_status = self.slo.evaluate(self.timeseries, "router")
        self.last_scrape_at = time.time()

    def _brownout(self, request: Request, message: str) -> tuple[int, bytes]:
        self._m_brownouts.inc()
        return self._err(
            request, 503, message,
            detail={"state": "brownout", "shards": self.supervisor.snapshot()},
            extra_headers={"Retry-After": str(RETRY_AFTER_S)},
        )

    # ------------------------------------------------------------- forwarding

    async def _forward_once(
        self, shard_id: str, request: Request, body: bytes | None = None
    ) -> Response:
        """Forward to one shard: the client's body verbatim unless ``body``
        replaces it (a batch's sub-batch)."""
        spec = self.supervisor.shards[shard_id]
        headers = {}
        if request.traceparent:
            headers["traceparent"] = request.traceparent
        self._count_forwarded(shard_id)
        return await fetch(
            spec.host, spec.port, request.method, request.path,
            body=request.body if body is None else body,
            headers=headers, timeout_s=self.config.request_timeout_s,
        )

    def _passthrough(self, shard_id: str, response: Response) -> tuple[int, bytes]:
        """Re-render one shard response for the client, stamping ``X-Shard``."""
        headers = {
            name: value for name, value in response.headers.items() if name not in _HOP_HEADERS
        }
        headers["X-Shard"] = shard_id
        return response.status, render_response(
            response.status,
            response.body,
            content_type=response.headers.get("content-type", "application/json"),
            extra_headers=headers,
        )

    def _candidates(self, key: str | None) -> list[str]:
        """Who may serve this request, in order.

        Keyed requests get their slot's replica set — primary first, then
        the deterministic failover replicas — with members the supervisor
        already knows are down subset out.  Keyless endpoints round-robin
        over the healthy fleet.
        """
        unhealthy = self.supervisor.unhealthy
        order = (
            self.ring.replicas(key, self.config.replicas)
            if key is not None
            else self._round_robin_order()
        )
        return [shard_id for shard_id in order if shard_id not in unhealthy]

    async def _forward_with_retries(
        self, request: Request, key: str | None, body: bytes | None = None
    ) -> tuple[int, bytes, str | None]:
        """The failover loop every forwarded request goes through.

        Walks the key's replica set (or round-robin for keyless
        endpoints).  Retryable faults advance to the next replica —
        counted in ``repro_router_failovers_total{reason}`` — anything
        else is the answer.  An exhausted candidate list is a brownout:
        every copy of this key's slot is gone.
        """
        candidates = self._candidates(key)
        for attempt, shard_id in enumerate(candidates):
            if attempt > 0:
                self._m_retries.inc()
            error: BaseException | None = None
            response: Response | None = None
            try:
                response = await self._forward_once(shard_id, request, body=body)
            except asyncio.CancelledError:
                raise
            except Exception as caught:
                error = caught
            fault = classify_shard_fault(error, response.status if response else None)
            if fault.suspect:
                self.supervisor.mark_suspect(shard_id)
            if not fault.retryable and response is not None:
                status, rendered = self._passthrough(shard_id, response)
                return status, rendered, shard_id
            self.log.warning(
                "shard fault",
                extra={"shard": shard_id, "cause": fault.cause, "detail": fault.detail},
            )
            if attempt + 1 < len(candidates):
                self._m_failovers[fault.cause].inc()
        status, rendered = self._brownout(request, "no replica available for this request")
        return status, rendered, None

    def _round_robin_order(self) -> list[str]:
        members = self.ring.members
        if not members:
            return []
        self._rr = (self._rr + 1) % len(members)
        return members[self._rr :] + members[: self._rr]

    # --------------------------------------------------------------- handlers

    @staticmethod
    def _scan_options(payload: dict) -> tuple | None:
        """Canonical cache key for everything in a scan request that is
        not the source itself.  ``None`` (unserializable payload) means
        the request bypasses the cache."""
        try:
            options = json.dumps(
                {k: v for k, v in payload.items() if k != "source"}, sort_keys=True
            )
        except (TypeError, ValueError):
            return None
        return (options,)

    async def _handle_scan(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
        source = payload.get("source")
        if not isinstance(source, str):
            raise ProtocolError(400, 'missing or non-string "source" field')
        key = content_key(source)
        options = self._scan_options(payload)
        parent = SpanContext.parse(request.traceparent)
        # A caller that explicitly asked for this request to be traced
        # (sampled traceparent) must take the full router → shard path —
        # a cached answer has no span tree to offer.  The fresh verdict
        # still refreshes the cache on the way out.
        traced = parent is not None and parent.sampled
        if options is not None and not traced:
            cached = self.verdicts.get(key, options)
            if cached is not None:
                data, served_by = cached
                body = dict(data)
                # The stored verdict belongs to an earlier request's trace.
                body["trace_id"] = None
                return self._ok(request, body, extra_headers={
                    "X-Shard": served_by, "X-Router-Cache": "hit",
                })
        root = self.tracer.start_trace(
            "router.scan",
            parent=SpanContext.parse(request.traceparent),
            attributes={"method": request.method, "path": request.path},
        )
        with root:
            if root.recording:
                # Hand the shard *our* context so its span tree lands under
                # this trace id (the shard always records a sampled parent).
                request.headers["traceparent"] = root.context.to_traceparent()
                request.trace_id_hint = root.context.trace_id
            status, rendered, shard_id = await self._forward_with_retries(request, key)
            root.set_attribute("status", status)
            if status >= 500:
                root.set_status("error", f"answered {status}")
            if status == 200 and shard_id is not None and options is not None:
                try:
                    entry = _unwrap(rendered)
                except (ValueError, KeyError):
                    entry = None
                if isinstance(entry, dict):
                    entry = dict(entry)
                    entry.pop("trace", None)  # per-request, never replayed
                    self.verdicts.put(key, options, entry, shard_id)
        return status, rendered

    async def _handle_scan_batch(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
        # Parsed before the fan-out, so a 400 names the caller's index and
        # an unnamed entry is named by it, not by one within a sub-batch.
        scripts = parse_batch_scripts(payload)

        root = self.tracer.start_trace(
            "router.scan_batch",
            parent=SpanContext.parse(request.traceparent),
            attributes={"n_scripts": len(scripts)},
        )
        with root:
            if root.recording:
                request.headers["traceparent"] = root.context.to_traceparent()
                request.trace_id_hint = root.context.trace_id
            # Group by owning replica; each sub-batch is one upstream request.
            groups: dict[str, list[int]] = {}
            for index, (source, _name) in enumerate(scripts):
                owner = self._replica_owner(content_key(source))
                if owner is None:
                    return self._brownout(request, "no replica available for this batch")
                groups.setdefault(owner, []).append(index)
            root.set_attribute("n_shards", len(groups))

            async def run_group(shard_id: str, indices: list[int]) -> tuple[list[int], int, bytes]:
                # Every request option (threshold, deobfuscate, ...) reaches
                # the shard, as it would reach one daemon.
                entries = [{"source": scripts[i][0], "name": scripts[i][1]} for i in indices]
                body = json.dumps({**payload, "scripts": entries}).encode("utf-8")
                # Sub-batches keep affinity via their first key but may fail
                # over along its replica set — correctness over affinity.
                status, rendered, _served_by = await self._forward_with_retries(
                    request, content_key(scripts[indices[0]][0]), body=body
                )
                return indices, status, rendered

            settled = await asyncio.gather(
                *(run_group(shard_id, indices) for shard_id, indices in groups.items())
            )
            # Any sub-batch failure fails the batch with that sub-answer
            # (the client's retry semantics stay identical to one daemon).
            for _indices, status, rendered in settled:
                if status != 200:
                    return status, rendered
            merged: list[dict | None] = [None] * len(scripts)
            fingerprint = None
            threshold = payload.get("threshold")
            for indices, _status, rendered in settled:
                data = _unwrap(rendered)
                fingerprint = data.get("model_fingerprint", fingerprint)
                if threshold is None:
                    threshold = data.get("threshold")
                for position, result in zip(indices, data["results"]):
                    merged[position] = result
            body_out = {
                "n_files": len(merged),
                "n_malicious": sum(1 for r in merged if r and r.get("malicious")),
                "threshold": threshold,
                "model_fingerprint": fingerprint,
                "trace_id": root.context.trace_id,
                "results": merged,
            }
        return self._ok(
            request, body_out, trace_id=root.context.trace_id,
            extra_headers=self._trace_headers(root),
        )

    def _replica_owner(self, key: str) -> str | None:
        """First live member of the key's replica set (batch grouping)."""
        for shard_id in self._candidates(key):
            return shard_id
        return None

    async def _handle_forward_any(self, request: Request) -> tuple[int, bytes]:
        status, rendered, _served_by = await self._forward_with_retries(request, None)
        return status, rendered

    async def _handle_admin_reload(self, request: Request) -> tuple[int, bytes]:
        payload = request.json()
        model_dir = payload.get("model_dir")
        if not isinstance(model_dir, str) or not model_dir:
            raise ProtocolError(400, 'missing or non-string "model_dir" field')
        try:
            rolled = await self.supervisor.rolling_reload(
                model_dir, ring=self.ring, replicas=self.config.replicas
            )
        except Exception as error:
            # Even a failed roll may have reloaded some shards — stale
            # verdicts must not outlive the model that produced them.
            epoch = self.verdicts.bump_epoch()
            return self._err(
                request, 400,
                f"rolling reload failed: {type(error).__name__}: {error}",
                detail={
                    "model_dir": model_dir,
                    "cache_epoch": epoch,
                    "shards": self.supervisor.snapshot(),
                },
            )
        epoch = self.verdicts.bump_epoch()
        return self._ok(request, {
            "status": "reloaded",
            "model_dir": model_dir,
            "cache_epoch": epoch,
            "shards": rolled,
        })

    async def _handle_healthz(self, request: Request) -> tuple[int, bytes]:
        shards = self.supervisor.snapshot()
        healthy = sum(1 for shard in shards if shard["healthy"])
        payload = {
            "status": "ok" if healthy == len(shards) else ("degraded" if healthy else "down"),
            "role": "router",
            "n_shards": len(shards),
            "n_healthy": healthy,
            "replicas": self.config.replicas,
            "uptime_s": self.uptime_s(),
            "verdict_cache": {
                "size": len(self.verdicts),
                "capacity": self.verdicts.capacity,
                "epoch": self.verdicts.epoch,
            },
            "shards": shards,
        }
        return self._ok(request, payload)

    async def _handle_version(self, request: Request) -> tuple[int, bytes]:
        from repro import __version__

        return self._ok(request, {
            "service": "repro.serve.router",
            "version": __version__,
            "n_shards": self.supervisor.n_shards,
            "config": {
                "request_timeout_s": self.config.request_timeout_s,
                "max_body_bytes": self.config.max_body_bytes,
                "vnodes": self.config.vnodes,
                "replicas": self.config.replicas,
                "verdict_cache_size": self.config.verdict_cache_size,
            },
        })

    def _exposition(self, request: Request) -> str:
        mode = request.query.get("aggregate")
        if mode is None:
            return self.metrics.render()
        if mode not in AGGREGATE_MODES:
            raise ProtocolError(
                400, f'"aggregate" must be one of {", ".join(AGGREGATE_MODES)}'
            )
        # The router's own families join the merge fresh — never a
        # scrape-interval stale — under the member name "router".
        extra = {"router": parse_exposition(self.metrics.render())}
        return self.fleet.render(mode, extra=extra)

    def _shard_stats(self, shard_id: str) -> dict:
        """One fleet member's windowed numbers for /v1/status and `repro top`."""
        window = self.config.slo_fast_window_s
        rps = self.timeseries.counter_rate(shard_id, "repro_http_requests_total", window)
        p95 = self.timeseries.quantile(shard_id, "repro_http_request_seconds", 0.95, window)
        hits = self.timeseries.counter_delta(
            shard_id, "repro_cache_lookups_total", window, where={"result": "hit"}
        )
        lookups = self.timeseries.counter_delta(shard_id, "repro_cache_lookups_total", window)
        latest = self.timeseries.latest(shard_id)
        queue_depth = breaker = None
        if latest is not None:
            family = latest.families.get("repro_serve_queue_depth")
            queue_depth = family.value() if family else None
            family = latest.families.get("repro_breaker_state")
            breaker = family.value() if family else None
        return {
            "rps": round(rps, 3) if rps is not None else None,
            "p95_ms": round(p95 * 1000.0, 3) if p95 is not None else None,
            "queue_depth": queue_depth,
            "cache_hit_ratio": round(hits / lookups, 4) if hits is not None and lookups else None,
            "breaker_state": breaker,
            "last_scrape_unix": round(latest.ts, 3) if latest is not None else None,
        }

    async def _handle_status(self, request: Request) -> tuple[int, bytes]:
        """The fleet's one pane of glass: shards + SLOs + control posture."""
        shards = self.supervisor.snapshot()
        healthy = sum(1 for shard in shards if shard["healthy"])
        fleet = []
        for shard in shards:
            entry = dict(shard)
            entry.update(self._shard_stats(shard["shard"]))
            fleet.append(entry)
        window = self.config.slo_fast_window_s
        router_rps = self.timeseries.counter_rate("router", "repro_http_requests_total", window)
        router_p95 = self.timeseries.quantile(
            "router", "repro_router_request_seconds", 0.95, window
        )
        autoscale = None
        if callable(self.autoscale_status):
            autoscale = self.autoscale_status()
        scrape_errors = 0.0
        for counter in self._m_scrape_errors.values():
            scrape_errors += counter.value  # type: ignore[attr-defined]
        payload = {
            "status": "ok" if healthy == len(shards) else ("degraded" if healthy else "down"),
            "role": "router",
            "uptime_s": self.uptime_s(),
            "router": {
                "rps": round(router_rps, 3) if router_rps is not None else None,
                "p95_ms": round(router_p95 * 1000.0, 3) if router_p95 is not None else None,
                "verdict_cache": {
                    "size": len(self.verdicts),
                    "capacity": self.verdicts.capacity,
                    "epoch": self.verdicts.epoch,
                },
            },
            "n_shards": len(shards),
            "n_healthy": healthy,
            "fleet": fleet,
            "slo": [status.to_dict() for status in self.slo_status],
            "autoscale": autoscale,
            "crash_loops": {
                "parked": [shard["shard"] for shard in shards if shard["state"] == "parked"],
                "restarts": sum(shard["restarts"] for shard in shards),
            },
            "scrape": {
                "interval_s": self.config.scrape_interval_s,
                "last_scrape_unix": (
                    round(self.last_scrape_at, 3) if self.last_scrape_at is not None else None
                ),
                "errors_total": scrape_errors,
                "members": self.fleet.members,
            },
        }
        return self._ok(request, payload)

    async def _trace_record(self, trace_id: str) -> dict | None:
        """One merged cross-process trace: router spans + every shard's.

        The router's hop and each shard's hop were recorded under the
        same trace id (propagated ``traceparent``); this lookup is where
        they come back together.
        """
        record = self.traces.get(trace_id)
        merged_spans = list(record["spans"]) if record else []
        shards = sorted(self.supervisor.shards.items())

        async def fetch_record(host: str, port: int) -> dict | None:
            try:
                response = await fetch(
                    host, port, "GET", f"{V1_PREFIX}/debug/traces/{trace_id}",
                    timeout_s=SHARD_TRACE_TIMEOUT_S,
                )
            except Exception:
                return None
            if response.status != 200:
                return None
            try:
                return json.loads(response.body.decode("utf-8")).get("data") or {}
            except ValueError:
                return None

        # Every shard is asked at once, so hung shards cost one timeout, not one each.
        fetched = await asyncio.gather(*(fetch_record(spec.host, spec.port) for _, spec in shards))
        shard_records: dict[str, dict] = {}
        for (shard_id, _spec), shard_record in zip(shards, fetched):
            if shard_record is None:
                continue
            shard_records[shard_id] = shard_record
            for span in shard_record.get("spans", []):
                span = dict(span)
                span.setdefault("attributes", {})
                span["attributes"]["shard"] = shard_id
                merged_spans.append(span)
        if not merged_spans:
            return None
        from repro.obs.trace import span_tree

        return {
            "trace_id": trace_id,
            "n_spans": len(merged_spans),
            "router": {k: v for k, v in (record or {}).items() if k not in ("spans", "tree")},
            "shards": sorted(shard_records),
            "spans": merged_spans,
            "tree": span_tree(merged_spans),
        }


def _unwrap(rendered: bytes) -> dict:
    """The envelope's ``data`` out of a passthrough-rendered response."""
    _head, _sep, body = rendered.partition(b"\r\n\r\n")
    return json.loads(body.decode("utf-8"))["data"]
