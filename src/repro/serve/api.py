"""Versioned API surface shared by the shard daemon and the cluster router.

Every JSON endpoint is mounted under the ``/v1`` prefix and answers with
one envelope, success and failure alike::

    {"api_version": "v1", "trace_id": "…" | null, "data": {…}}
    {"api_version": "v1", "trace_id": "…" | null,
     "error": {"code": "rate_limited", "message": "…", "detail": {…} | null}}

``error.code`` is a stable machine-readable string (the HTTP status is
transport, the code is contract): clients branch on ``code``, humans read
``message``, and ``detail`` carries structured context (retry hints,
breaker state) when there is any.  The one deliberate exception is
``GET /v1/metrics``: Prometheus exposition is a text format scraped by
Prometheus itself, so it is served unwrapped.

A path outside ``/v1`` is an ordinary 404; the unprefixed v0 paths
(``/scan``, ``/healthz``, …) are gone.  See API.md for the full
reference.
"""

from __future__ import annotations

import json

from .http import REASON_PHRASES, ProtocolError, render_response

#: The one supported versioned prefix.
API_VERSION = "v1"
V1_PREFIX = "/v1"

#: Stable machine-readable error codes by HTTP status — the part of a
#: failure clients are allowed to branch on.
ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    413: "payload_too_large",
    429: "rate_limited",
    500: "internal",
    503: "unavailable",
}


def error_code(status: int) -> str:
    return ERROR_CODES.get(status, "internal" if status >= 500 else "bad_request")


def envelope(data: object = None, error: dict | None = None, trace_id: str | None = None) -> dict:
    """The v1 response envelope; exactly one of ``data``/``error`` is set."""
    out: dict = {"api_version": API_VERSION, "trace_id": trace_id}
    if error is not None:
        out["error"] = error
    else:
        out["data"] = data
    return out


def v1_response(
    status: int,
    data: object,
    trace_id: str | None = None,
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    body = json.dumps(envelope(data=data, trace_id=trace_id)).encode("utf-8")
    return render_response(status, body, extra_headers=extra_headers, keep_alive=keep_alive)


def v1_error_response(
    status: int,
    message: str,
    trace_id: str | None = None,
    detail: dict | None = None,
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    error = {
        "code": error_code(status),
        "message": message,
        "detail": detail,
    }
    body = json.dumps(envelope(error=error, trace_id=trace_id)).encode("utf-8")
    return render_response(status, body, extra_headers=extra_headers, keep_alive=keep_alive)


def parse_batch_scripts(payload: dict) -> list[tuple[str, str]]:
    """A ``/scan/batch`` body's ``scripts`` as ``(source, name)`` pairs.

    Each entry is a source string or ``{"source": str, "name"?: str}``;
    an unnamed one is ``<batch:i>`` by its index in the caller's array,
    and a 400 :class:`ProtocolError` names that index too.  The daemon
    and the router both parse with this, the router before it fans out.
    """
    scripts = payload.get("scripts")
    if not isinstance(scripts, list) or not scripts:
        raise ProtocolError(400, '"scripts" must be a non-empty array')
    pairs = []
    for index, entry in enumerate(scripts):
        if isinstance(entry, str):
            pairs.append((entry, f"<batch:{index}>"))
        elif isinstance(entry, dict) and isinstance(entry.get("source"), str):
            name = entry.get("name", f"<batch:{index}>")
            if not isinstance(name, str):
                raise ProtocolError(400, f"scripts[{index}].name must be a string")
            pairs.append((entry["source"], name))
        else:
            raise ProtocolError(
                400, f'scripts[{index}] must be a string or an object with a "source" string'
            )
    return pairs


def parse_envelope(status: int, body: bytes) -> object:
    """Client-side unwrap: return ``data`` or raise :class:`EnvelopeError`.

    Shared by :class:`repro.client.ScanClient` and the smoke scripts so
    the contract ("every v1 response is an envelope, every non-2xx is an
    error envelope") is asserted in one place.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise EnvelopeError(status, "internal", f"response body is not JSON: {error!r}") from error
    if not isinstance(payload, dict) or payload.get("api_version") != API_VERSION:
        raise EnvelopeError(status, "internal", f"response is not a v1 envelope: {payload!r}")
    if status < 400:
        if "data" not in payload:
            raise EnvelopeError(status, "internal", f"success envelope without data: {payload!r}")
        return payload["data"]
    error = payload.get("error")
    if not isinstance(error, dict) or "code" not in error or "message" not in error:
        raise EnvelopeError(status, "internal", f"error envelope malformed: {payload!r}")
    raise EnvelopeError(
        status,
        str(error["code"]),
        str(error["message"]),
        detail=error.get("detail"),
        trace_id=payload.get("trace_id"),
    )


class EnvelopeError(Exception):
    """A v1 error envelope (or a response that failed to be one)."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: dict | None = None,
        trace_id: str | None = None,
    ):
        super().__init__(f"{status} {REASON_PHRASES.get(status, 'Unknown')}: {code}: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail
        self.trace_id = trace_id
