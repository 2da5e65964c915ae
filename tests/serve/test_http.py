"""Unit tests for the hand-rolled HTTP/1.1 framing."""

import asyncio
import json

import pytest

from repro.serve.api import v1_error_response, v1_response
from repro.serve.http import MAX_BODY_BYTES, ProtocolError, read_request, render_response


def parse(raw: bytes):
    """Run read_request over a fed StreamReader."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestReadRequest:
    def test_get_without_body(self):
        request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.headers["host"] == "x"
        assert request.body == b""

    def test_post_with_sized_body(self):
        body = json.dumps({"source": "var a;"}).encode()
        raw = (
            b"POST /scan HTTP/1.1\r\ncontent-length: %d\r\nContent-Type: application/json\r\n\r\n"
            % len(body)
        ) + body
        request = parse(raw)
        assert request.method == "POST"
        assert request.json() == {"source": "var a;"}

    def test_query_string_stripped(self):
        request = parse(b"GET /metrics?format=prom HTTP/1.1\r\n\r\n")
        assert request.path == "/metrics"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_keep_alive_default_and_close(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive
        assert not parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse(b"NOT-HTTP\r\n\r\n")
        assert excinfo.value.status == 400

    def test_malformed_header_line(self):
        with pytest.raises(ProtocolError):
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_malformed_content_length(self):
        with pytest.raises(ProtocolError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")

    def test_oversized_body_rejected_413(self):
        raw = f"POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 413

    def test_chunked_encoding_rejected(self):
        with pytest.raises(ProtocolError):
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")

    def test_truncated_headers_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse(b"GET / HTTP/1.1\r\nHost: x")  # EOF before blank line

    def test_body_not_json(self):
        request = parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{bad")
        with pytest.raises(ProtocolError) as excinfo:
            request.json()
        assert excinfo.value.status == 400


class TestResponses:
    def test_render_response_framing(self):
        raw = render_response(200, b"hi", content_type="text/plain")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 2" in head
        assert b"Connection: keep-alive" in head
        assert body == b"hi"

    def test_extra_headers_and_close(self):
        raw = render_response(429, b"", extra_headers={"Retry-After": "1"}, keep_alive=False)
        assert b"Retry-After: 1" in raw
        assert b"Connection: close" in raw

    def test_json_response_round_trips(self):
        raw = v1_response(200, {"a": 1})
        body = raw.partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"api_version": "v1", "trace_id": None, "data": {"a": 1}}

    def test_error_response_shape(self):
        raw = v1_error_response(429, "queue full")
        assert raw.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert body["error"] == {"code": "rate_limited", "message": "queue full", "detail": None}
