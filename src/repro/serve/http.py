"""Minimal HTTP/1.1 framing over asyncio streams.

The daemon serves a handful of JSON endpoints to trusted infrastructure
(load balancers, batch submitters, Prometheus scrapers), so it needs
request parsing and response rendering — not a framework.  This module
implements exactly that slice of RFC 9112:

* request line + headers + ``Content-Length`` bodies (no chunked encoding
  — every client we ship sends sized bodies),
* hard limits on header block and body size (oversized input is a
  protocol error, not an allocation),
* keep-alive by default (HTTP/1.1 semantics), ``Connection: close``
  honored in both directions.

Anything malformed raises :class:`ProtocolError`, which carries the HTTP
status the connection handler should answer with before closing.  The
JSON bodies themselves (the v1 envelope) are rendered by
:mod:`repro.serve.api`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

#: Generous bound for the request line + all headers.
MAX_HEADER_BYTES = 32 * 1024

#: Default body cap; scripts arrive inline in JSON bodies, and 16 MiB
#: clears any real-world script (the paper's corpus averages 62 KB) with a
#: wide margin.  Deployments shrink it per-daemon via ``--max-body-bytes``;
#: an oversized body is refused with **413** before a single body byte is
#: read, so a hostile client cannot make the daemon buffer it.
MAX_BODY_BYTES = 16 * 1024 * 1024

REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed or over-limit request; ``status`` is the HTTP answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)  # keys lower-cased
    body: bytes = b""
    #: Decoded query-string parameters (last value wins on duplicates).
    query: dict[str, str] = field(default_factory=dict)
    #: Trace id of this request's *recorded* root span, set by the handler
    #: that opened it.  The connection loop reads it after routing so the
    #: request's latency observation carries an exemplar pointing at a
    #: trace that actually exists in the store.
    trace_id_hint: str | None = None

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    @property
    def traceparent(self) -> str | None:
        """The raw W3C ``traceparent`` header, if the caller sent one."""
        return self.headers.get("traceparent")

    def json(self) -> dict:
        """The body's JSON object; :class:`ProtocolError` 400 for anything else."""
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(400, f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return payload


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int = MAX_BODY_BYTES
) -> Request | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`ProtocolError` for malformed input (including a
    ``Content-Length`` above ``max_body_bytes`` → 413) and
    ``asyncio.IncompleteReadError``/``ConnectionError`` for mid-request
    disconnects (callers treat those as the peer going away).
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between requests
        raise ProtocolError(400, "connection closed mid-headers") from error
    except asyncio.LimitOverrunError as error:
        raise ProtocolError(400, "header block exceeds limit") from error
    if len(header_block) > MAX_HEADER_BYTES:
        raise ProtocolError(400, "header block exceeds limit")

    try:
        head = header_block.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 total
        raise ProtocolError(400, "undecodable header block") from error
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as error:
            raise ProtocolError(400, "malformed Content-Length") from error
        if length < 0:
            raise ProtocolError(400, "negative Content-Length")
        if length > max_body_bytes:
            raise ProtocolError(413, f"body exceeds {max_body_bytes} bytes")
        body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise ProtocolError(400, "chunked transfer encoding is not supported")

    # The routing table is path-only; query parameters are decoded for
    # handlers that take options (e.g. ``/debug/traces?n=5``).
    path, _, query_string = target.partition("?")
    query: dict[str, str] = {}
    if query_string:
        from urllib.parse import parse_qsl

        query = dict(parse_qsl(query_string, keep_blank_values=True))
    return Request(method=method, path=path, headers=headers, body=body, query=query)


@dataclass
class Response:
    """One parsed HTTP response (the client side of the framing)."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)  # keys lower-cased
    body: bytes = b""


async def read_response(reader: asyncio.StreamReader, max_body_bytes: int = MAX_BODY_BYTES) -> Response:
    """Parse one response off the stream (sized bodies only, like requests)."""
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("connection closed mid-response") from error
    except asyncio.LimitOverrunError as error:
        raise ProtocolError(502, "response header block exceeds limit") from error
    lines = header_block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(502, f"malformed status line: {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as error:
        raise ProtocolError(502, f"malformed status code: {lines[0]!r}") from error
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as error:
            raise ProtocolError(502, "malformed Content-Length in response") from error
        if length < 0 or length > max_body_bytes:
            raise ProtocolError(502, f"response body out of bounds ({length} bytes)")
        body = await reader.readexactly(length)
    return Response(status=status, headers=headers, body=body)


def render_request(
    method: str,
    path: str,
    host: str,
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 request (``Connection: close`` framing)."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}", "Connection: close"]
    if body is not None:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")


async def fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
    timeout_s: float = 10.0,
) -> Response:
    """One request/response round trip on a fresh connection.

    The router and the shard supervisor speak HTTP to shards through this
    helper.  Connections are per-request (``Connection: close``) — scan
    cost dominates a loopback connect by orders of magnitude, and a dead
    shard then fails the *connect*, which is the cheapest possible way to
    find out.  Raises ``OSError``/``ConnectionError`` on transport
    failure and :class:`ProtocolError` on an unparseable response; the
    caller classifies (see :func:`repro.faults.classify_shard_fault`).
    """

    async def round_trip() -> Response:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(render_request(method, path, f"{host}:{port}", body=body, headers=headers))
            await writer.drain()
            return await read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(round_trip(), timeout_s)


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one HTTP/1.1 response (with sized body) to bytes."""
    reason = REASON_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def trace_list_query(request: Request) -> dict:
    """Parse the ``/debug/traces`` list filters shared by shard and router.

    ``n`` caps the listing, ``slow_ms`` keeps traces at least that slow,
    ``status`` keeps only ``ok`` or ``error`` roots — the operator's jump
    from an SLO page state to the offending traces.
    """
    try:
        n = int(request.query.get("n", "20"))
    except ValueError as error:
        raise ProtocolError(400, '"n" must be an integer') from error
    slow_ms: float | None = None
    if "slow_ms" in request.query:
        try:
            slow_ms = float(request.query["slow_ms"])
        except ValueError as error:
            raise ProtocolError(400, '"slow_ms" must be a number') from error
    status = request.query.get("status")
    if status is not None and status not in ("ok", "error"):
        raise ProtocolError(400, '"status" must be "ok" or "error"')
    return {"n": n, "slow_ms": slow_ms, "status": status}
