"""Golden-response tests for the v1 API surface on the scan daemon.

The contract under test (API.md): every response — success and every
4xx/5xx alike, including backpressure states like drain and an open
breaker — is one envelope, ``error.code`` is stable, and the former
unprefixed v0 paths are ordinary 404s.
"""

import http.client
import json
import socket

import pytest

from repro.core import JSRevealer, JSRevealerConfig, save_detector
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, ServeConfig
from repro.serve.api import ERROR_CODES, EnvelopeError, parse_envelope


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


@pytest.fixture()
def server(detector):
    """A fresh daemon per test — several tests mutate server state."""
    config = ServeConfig(port=0, max_batch=4, queue_limit=32)
    with BackgroundServer(detector, config) as background:
        yield background


def http_json(background, method, path, payload=None, raw_body=None):
    """One request on a fresh connection; returns (status, headers, body bytes)."""
    connection = http.client.HTTPConnection(background.host, background.port, timeout=30)
    body = raw_body if raw_body is not None else (
        json.dumps(payload) if payload is not None else None
    )
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    status, header_map = response.status, dict(response.getheaders())
    connection.close()
    return status, header_map, data


def expect_error_envelope(status, body) -> EnvelopeError:
    """Assert ``body`` is a well-formed v1 error envelope for ``status``."""
    with pytest.raises(EnvelopeError) as caught:
        parse_envelope(status, body)
    error = caught.value
    assert error.status == status
    assert error.code == ERROR_CODES[status]
    # The envelope itself must carry the full error object shape.
    payload = json.loads(body)
    assert payload["api_version"] == "v1"
    assert "trace_id" in payload
    assert set(payload["error"]) == {"code", "message", "detail"}
    return error


# ----------------------------------------------------------- success envelope


def test_v1_scan_success_envelope(server, split):
    status, headers, body = http_json(
        server, "POST", "/v1/scan", {"source": split.test.sources[0], "name": "s.js"}
    )
    assert status == 200
    payload = json.loads(body)
    assert payload["api_version"] == "v1"
    assert payload["trace_id"]  # scan responses always carry their trace id
    data = parse_envelope(status, body)
    assert data["verdict"] in ("malicious", "benign")
    assert data["trace_id"] == payload["trace_id"]
    assert "Deprecation" not in headers


#: The removed v0 aliases, each with the verb it used to serve.
FORMER_ALIASES = [
    ("POST", "/scan"),
    ("POST", "/scan/batch"),
    ("POST", "/analyze"),
    ("GET", "/healthz"),
    ("GET", "/version"),
    ("GET", "/metrics"),
    ("GET", "/debug/traces"),
    ("GET", f"/debug/traces/{'ab' * 16}"),
]


def test_former_aliases_answer_404(server, split):
    body = {"source": split.test.sources[0], "scripts": [split.test.sources[0]]}
    for method, path in FORMER_ALIASES:
        status, headers, raw = http_json(
            server, method, path, body if method == "POST" else None
        )
        assert status == 404, (method, path)
        assert expect_error_envelope(404, raw).code == "not_found"
        assert "Deprecation" not in headers and "Link" not in headers, (path, headers)
    _status, _headers, metrics = http_json(server, "GET", "/v1/metrics")
    text = metrics.decode("utf-8")
    assert "repro_http_deprecated_requests_total" not in text
    unmatched = sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_http_requests_total{") and 'path="<unmatched>"' in line
    )
    assert unmatched == len(FORMER_ALIASES)


# ------------------------------------------------------------- golden errors


@pytest.mark.parametrize(
    "payload,raw_body",
    [
        (None, "{not json"),
        ({}, None),
        ({"source": 5}, None),
        ({"source": "x", "threshold": "high"}, None),
    ],
)
def test_golden_400(server, payload, raw_body):
    status, _headers, body = http_json(server, "POST", "/v1/scan", payload, raw_body=raw_body)
    assert status == 400
    expect_error_envelope(400, body)


def test_golden_404(server):
    status, _headers, body = http_json(server, "GET", "/v1/no/such/route")
    assert status == 404
    expect_error_envelope(404, body)
    # Unprefixed paths are plain 404s on the same envelope.
    status, headers, body = http_json(server, "GET", "/no/such/route")
    assert status == 404
    assert "Deprecation" not in headers
    expect_error_envelope(404, body)


def test_golden_405(server):
    # ``Allow`` names the verbs the route itself serves.
    for method, path, allow in [("GET", "/v1/scan", "POST"), ("POST", "/v1/healthz", "GET")]:
        status, headers, body = http_json(server, method, path)
        assert status == 405
        assert headers["Allow"] == allow, (method, path)
        expect_error_envelope(405, body)


def test_golden_413(detector, split):
    config = ServeConfig(port=0, max_body_bytes=1024)
    with BackgroundServer(detector, config) as server:
        big = {"source": "x" * 4096}
        status, _headers, body = http_json(server, "POST", "/v1/scan", big)
        assert status == 413
        expect_error_envelope(413, body)
        # Refused before routing, so any path gets the same envelope.
        status, _headers, body = http_json(server, "POST", "/scan", big)
        assert status == 413
        expect_error_envelope(413, body)


def test_pre_routing_400_is_an_envelope(server):
    # A malformed header block fails before the path is routed.
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(b"POST /scan HTTP/1.1\r\nno-colon-here\r\n\r\n")
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Deprecation" not in head
    assert "malformed header line" in expect_error_envelope(400, body).message


def test_golden_429_queue_full(server, split):
    server.server.batcher.queue_limit = 0  # every admission now refuses
    server.server.config.queue_limit = 0  # …and /analyze sheds load too
    status, headers, body = http_json(server, "POST", "/v1/scan", {"source": "alert(1)"})
    assert status == 429
    error = expect_error_envelope(429, body)
    assert error.detail["state"] == "queue_full"
    assert "Retry-After" in headers
    status, _headers, body = http_json(server, "POST", "/v1/analyze", {"source": "alert(1)"})
    assert status == 429
    assert expect_error_envelope(429, body).detail["state"] == "queue_full"


def test_golden_503_draining(server, split):
    server.server.batcher._draining = True
    status, _headers, body = http_json(server, "POST", "/v1/scan", {"source": "alert(1)"})
    assert status == 503
    error = expect_error_envelope(503, body)
    assert error.detail["state"] == "draining"
    # Health stays answerable while draining (the supervisor relies on it).
    status, _headers, body = http_json(server, "GET", "/v1/healthz")
    assert status == 200
    assert parse_envelope(status, body)["draining"] is True


def test_golden_503_breaker_open(server, split):
    breaker = server.server.breaker
    for _ in range(server.server.config.breaker_threshold):
        breaker.record_failure()
    status, headers, body = http_json(server, "POST", "/v1/scan", {"source": "alert(1)"})
    assert status == 503
    error = expect_error_envelope(503, body)
    assert error.detail["state"] == "breaker_open"
    assert int(headers["Retry-After"]) >= 1


# ---------------------------------------------------------------- admin/reload


def test_admin_reload_is_v1_only(server):
    status, _headers, body = http_json(server, "POST", "/admin/reload", {"model_dir": "/nope"})
    assert status == 404


def test_admin_reload_bad_model_dir(server):
    status, _headers, body = http_json(
        server, "POST", "/v1/admin/reload", {"model_dir": "/no/such/model"}
    )
    assert status == 400
    error = expect_error_envelope(400, body)
    assert error.detail["model_dir"] == "/no/such/model"
    # The serving model is untouched.
    status, _headers, body = http_json(server, "GET", "/v1/healthz")
    assert parse_envelope(status, body)["epoch"] == 0


def test_admin_reload_swaps_model(server, detector, split, tmp_path):
    model_dir = tmp_path / "model"
    save_detector(detector, model_dir)
    status, _headers, body = http_json(
        server, "POST", "/v1/admin/reload", {"model_dir": str(model_dir)}
    )
    assert status == 200
    data = parse_envelope(status, body)
    assert data["status"] == "reloaded"
    assert data["epoch"] == 1
    assert data["model_fingerprint"] == detector.fingerprint()
    status, _headers, body = http_json(server, "GET", "/v1/healthz")
    health = parse_envelope(status, body)
    assert health["epoch"] == 1
    # Scans keep working against the swapped-in model.
    status, _headers, body = http_json(server, "POST", "/v1/scan", {"source": split.test.sources[1]})
    assert status == 200
    assert parse_envelope(status, body)["verdict"] in ("malicious", "benign")
    _status, _headers, metrics = http_json(server, "GET", "/v1/metrics")
    assert b"repro_model_reloads_total 1" in metrics
    assert b"repro_model_epoch 1" in metrics
