"""The HTTP service layer shared by the scan daemon and the cluster router.

:class:`HTTPService` owns everything the two listeners do alike, so a
client written against one talks to the other unchanged:

* the keep-alive connection loop over :mod:`repro.serve.http` framing;
* one route table, built once and mounted under ``/v1``, with one
  404/405 rule: a path no route serves (any path outside ``/v1``
  included) is 404, and a wrong verb on a served path is 405 with an
  ``Allow`` header naming that route's own verbs;
* rendering: every handler returns a payload, and :meth:`~HTTPService._ok`
  / :meth:`~HTTPService._err` render it as the v1 envelope;
* the request counters, whose ``path`` and ``method`` labels come from
  the matched route, so arbitrary paths and verbs cannot mint series;
* the trace store, ``/debug/traces``, ``/debug/prof`` and the base
  ``/metrics`` exposition.

A subclass declares its own routes (:meth:`HTTPService.routes`) and
handlers.  :func:`run_until_signaled` and :class:`BackgroundService` are
the two lifecycles every service, and the cluster controller, runs under.
"""

from __future__ import annotations

import asyncio
import contextlib
import platform
import signal
import sys
import threading
import time
from collections.abc import Awaitable, Callable

from repro.obs import MetricsRegistry, SamplingProfiler, SpanContext, Tracer, TraceStore

from .api import V1_PREFIX, v1_error_response, v1_response
from .http import ProtocolError, Request, read_request, render_response, trace_list_query

Handler = Callable[[Request], Awaitable[tuple[int, bytes]]]

#: ``Retry-After`` seconds advertised on 429s and on retryable 503s.
RETRY_AFTER_S = 1

#: Request-counter label values for a path no route serves and for a
#: method no route uses.
UNMATCHED_PATH = "<unmatched>"
OTHER_METHOD = "<other>"

TRACES_PATH = "/debug/traces"
#: The one prefix route: ``/debug/traces/<id>`` looks one trace up.
TRACE_LOOKUP_PATH = TRACES_PATH + "/<id>"

_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class Reply(Exception):
    """Internal control flow: a semantic early response.

    Carries *what went wrong*, not bytes — the routing layer renders it
    as a v1 error envelope.
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


class HTTPService:
    """One listener: connection loop, route table, rendering, counters.

    ``config`` needs ``host``, ``port``, ``max_body_bytes`` and the
    ``trace_*`` fields; ``latency_metric`` is the ``(name, help)`` of the
    per-request latency histogram, which differs per service.
    """

    def __init__(self, config, metrics: MetricsRegistry | None, latency_metric: tuple[str, str]):
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.traces = TraceStore(capacity=config.trace_capacity, slow_ms=config.trace_slow_ms)
        self.tracer = Tracer(sample_rate=config.trace_sample_rate, sink=self.traces.put)
        self.profiler = SamplingProfiler()
        self.started_at = time.time()
        self.bound_port: int | None = None
        self._server: asyncio.AbstractServer | None = None

        self._m_requests: dict[tuple[str, str, int], object] = {}
        self._m_latency = self.metrics.histogram(*latency_metric)
        from repro import __version__

        self.metrics.gauge(
            "repro_build_info",
            "Constant 1; the labels carry the build/runtime identity",
            labels={"version": __version__, "python": platform.python_version()},
        ).set(1)
        self._m_uptime = self.metrics.gauge(
            "repro_uptime_seconds", "Seconds since the server started"
        )

        self._routes: dict[str, dict[str, Handler]] = {
            "/metrics": {"GET": self._handle_metrics},
            "/debug/prof": {"GET": self._handle_prof},
            TRACES_PATH: {"GET": self._handle_traces_list},
            TRACE_LOOKUP_PATH: {"GET": self._handle_trace_get},
            **self.routes(),
        }
        self._verbs = {method for handlers in self._routes.values() for method in handlers}

    def routes(self) -> dict[str, dict[str, Handler]]:
        """This service's own routes: logical path → method → handler."""
        return {}

    def uptime_s(self) -> float:
        return round(time.time() - self.started_at, 3)

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ----------------------------------------------------------- connections

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body_bytes)
                except ProtocolError as error:
                    writer.write(v1_error_response(error.status, error.message, keep_alive=False))
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

    # ------------------------------------------------------------- rendering
    #
    # Every handler produces a *payload* (a JSON-able dict) and the routing
    # layer renders it as the v1 envelope; error paths render the same way.

    def _ok(
        self,
        request: Request,
        payload: dict,
        trace_id: str | None = None,
        extra_headers: dict[str, str] | None = None,
        status: int = 200,
    ) -> tuple[int, bytes]:
        return status, v1_response(status, payload, trace_id=trace_id, extra_headers=extra_headers)

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
        """An error envelope; ``trace_id`` defaults to the inbound
        ``traceparent``'s."""
        if trace_id is None:
            parent = SpanContext.parse(request.traceparent)
            trace_id = parent.trace_id if parent is not None else None
        return status, v1_error_response(
            status, message, trace_id=trace_id, detail=detail,
            extra_headers=extra_headers, keep_alive=keep_alive,
        )

    def _render_reply(
        self, request: Request, reply: Reply, trace_id: str | None = None
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

    @staticmethod
    def _trace_headers(root) -> dict[str, str]:
        context = root.context
        return {"X-Trace-Id": context.trace_id, "traceparent": context.to_traceparent()}

    # --------------------------------------------------------------- routing

    def _match(self, request_path: str) -> str | None:
        """The route ``request_path`` falls under, if any; every route is
        mounted under ``/v1``."""
        if not request_path.startswith(V1_PREFIX + "/"):
            return None
        logical = request_path[len(V1_PREFIX) :]
        if logical.rstrip("/") == TRACES_PATH:
            return TRACES_PATH
        if logical.startswith(TRACES_PATH + "/"):
            return TRACE_LOOKUP_PATH
        return logical if logical in self._routes else None

    async def _route(self, request: Request) -> tuple[bytes, bool]:
        """Dispatch one request; returns ``(response_bytes, keep_alive)``."""
        path = self._match(request.path)
        handlers = self._routes[path] if path is not None else {}
        handler = handlers.get(request.method)
        try:
            if handler is None:
                status, response = self._err(
                    request,
                    405 if handlers else 404,
                    f"no route for {request.method} {request.path}",
                    extra_headers={"Allow": ", ".join(sorted(handlers))} if handlers else None,
                )
            else:
                status, response = await handler(request)
        except ProtocolError as error:
            status, response = self._err(request, error.status, error.message)
        except Reply as reply:  # early termination raised outside a handler's catch
            status, response = self._render_reply(request, reply)
        except Exception as error:  # a handler bug must not kill the connection loop
            status, response = self._err(
                request, 500, f"internal error: {type(error).__name__}: {error}"
            )
        label = UNMATCHED_PATH if path is None else V1_PREFIX + path
        method = request.method if request.method in self._verbs else OTHER_METHOD
        self._count_request(method, label, status)
        return response, status < 500 or status == 503

    # -------------------------------------------------------------- handlers

    async def _handle_metrics(self, request: Request) -> tuple[int, bytes]:
        self._m_uptime.set(self.uptime_s())
        body = self._exposition(request).encode("utf-8")
        return 200, render_response(200, body, content_type=MetricsRegistry.CONTENT_TYPE)

    def _exposition(self, request: Request) -> str:
        """The ``/metrics`` text; the router adds ``?aggregate=`` views."""
        return self.metrics.render()

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

    async def _handle_trace_get(self, request: Request) -> tuple[int, bytes]:
        trace_id = request.path.rstrip("/").rsplit("/", 1)[-1]
        record = await self._trace_record(trace_id)
        if record is None:
            return self._err(request, 404, f"trace {trace_id!r} not found (expired or unsampled)")
        return self._ok(request, record)

    async def _trace_record(self, trace_id: str) -> dict | None:
        """One retained trace; the router merges its shards' spans in."""
        return self.traces.get(trace_id)

    async def _handle_prof(self, request: Request) -> tuple[int, bytes]:
        """Collapsed-stack wall-clock profile of this process's live threads.

        ``threads=<prefix>`` keeps only threads whose name starts with it.
        The capture itself blocks, so it runs on the default executor —
        never the daemon's scan thread, which must stay sampleable.
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


# ----------------------------------------------------------------- lifecycles


async def _serve_until_signaled(service, ready_line: Callable[[], str], stop_line: str) -> None:
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    for signum in _SIGNALS:
        loop.add_signal_handler(signum, stop_event.set)
    try:
        await service.start()
        print(ready_line(), file=sys.stderr, flush=True)
        await stop_event.wait()
        print(stop_line, file=sys.stderr, flush=True)
    finally:
        for signum in _SIGNALS:
            loop.remove_signal_handler(signum)
        await service.stop()


def run_until_signaled(service, ready_line: Callable[[], str], stop_line: str) -> int:
    """Blocking: start ``service``, serve until SIGTERM/SIGINT, then stop it.

    ``ready_line()`` is printed to stderr once the service listens (it may
    read the bound port), ``stop_line`` when the signal arrives.  Returns
    the exit code, 0.
    """
    with contextlib.suppress(KeyboardInterrupt):  # signal handler not installable (rare)
        asyncio.run(_serve_until_signaled(service, ready_line, stop_line))
    return 0


class BackgroundService:
    """A service's event loop on a daemon thread — tests, benches, notebooks.

    A subclass builds the service in :meth:`_build` (on the loop's
    thread); the service needs ``start()``, ``stop()`` and ``bound_port``.
    """

    #: What the startup errors name.
    what = "service"
    start_timeout_s = 30.0
    join_timeout_s = 30.0

    def __init__(self, config):
        self.config = config
        self.port: int | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    def _build(self):
        raise NotImplementedError

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self):
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=self.start_timeout_s):
            raise RuntimeError(f"background {self.what} failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(f"background {self.what} failed to start") from self._startup_error
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=self.join_timeout_s)
            self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surface startup failures to __enter__
            self._startup_error = error
            self._ready.set()

    async def _amain(self) -> None:
        service = self._build()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await service.start()
        self.port = service.bound_port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await service.stop()
