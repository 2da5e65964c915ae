"""The daemon and the router answer through one service layer.

API.md promises that a client written against a single daemon talks to
the cluster router unchanged.  Both run on :class:`HTTPService`, so every
answer the layer itself gives — 404, 405 with ``Allow``, v1-only routes,
``ProtocolError`` renderings, ``/debug/prof`` and trace lookups — must
agree between them probe by probe, and the request counters must stay
bounded however many distinct paths and verbs clients send.  Every route
lives under ``/v1``; the former unprefixed v0 paths are plain 404s on
both.
"""

import http.client
import json

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, RouterConfig, ScanRouter, ServeConfig
from repro.serve.service import BackgroundService
from repro.serve.supervisor import free_port

from .test_router_unit import FakeSupervisor

TRACE_ID = "0" * 32

#: (method, path, body, expected status, expected ``Allow``)
PROBES = [
    ("GET", "/v1/no/such/route", None, 404, None),
    ("GET", "/no/such/route", None, 404, None),
    ("GET", "/v1/scan", None, 405, "POST"),
    ("POST", "/v1/healthz", None, 405, "GET"),
    ("PUT", "/v1/debug/traces", None, 405, "GET"),
    ("GET", "/scan", None, 404, None),
    ("POST", "/scan", '{"source": "var a = 1;"}', 404, None),
    ("GET", "/healthz", None, 404, None),
    ("GET", "/metrics", None, 404, None),
    ("GET", f"/debug/traces/{TRACE_ID}", None, 404, None),
    ("POST", "/admin/reload", '{"model_dir": "/nope"}', 404, None),
    ("GET", f"/v1/debug/traces/{TRACE_ID}", None, 404, None),
    ("GET", "/v1/debug/prof?seconds=abc", None, 400, None),
    ("POST", "/v1/scan", "{not json", 400, None),
    ("GET", "/v1/debug/prof?seconds=0.05&threads=no-such-thread", None, 200, None),
]


class BackgroundRouter(BackgroundService):
    """A router over ``ports``; by default dead ports, so nothing may forward."""

    what = "router"

    def __init__(self, config, ports=None):
        super().__init__(config)
        self.ports = ports or [free_port(), free_port()]

    def _build(self) -> ScanRouter:
        return ScanRouter(FakeSupervisor(self.ports), self.config)


@pytest.fixture(scope="module")
def detector():
    split = experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


@pytest.fixture()
def daemon(detector):
    with BackgroundServer(detector, ServeConfig(port=0, max_batch=4, queue_limit=32)) as background:
        yield background


@pytest.fixture()
def router():
    config = RouterConfig(port=0, request_timeout_s=5.0, scrape_interval_s=0)
    with BackgroundRouter(config) as background:
        yield background


def call(background, method, path, body=None):
    """One request on a fresh connection: (status, lower-cased headers, body)."""
    connection = http.client.HTTPConnection(background.host, background.port, timeout=30)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    status, header_map = response.status, {k.lower(): v for k, v in response.getheaders()}
    connection.close()
    return status, header_map, data


def shape(status, headers, body):
    """What the parity contract compares."""
    if headers["content-type"].startswith("application/json"):
        code = json.loads(body)["error"].get("code") if status >= 400 else None
    else:
        code = None
    return status, code, headers.get("allow"), "deprecation" in headers


def test_daemon_and_router_answer_alike(daemon, router):
    for method, path, body, expected, allow in PROBES:
        on_daemon = call(daemon, method, path, body)
        on_router = call(router, method, path, body)
        assert on_daemon[0] == expected, (method, path, on_daemon)
        assert shape(*on_daemon) == shape(*on_router), (method, path, on_daemon, on_router)
        assert shape(*on_router)[2:] == (allow, False), (method, path, on_router)
    for background in (daemon, router):
        status, _headers, body = call(
            background, "GET", "/v1/debug/prof?seconds=0.05&threads=no-such-thread"
        )
        assert status == 200
        lines = body.decode("utf-8").splitlines()
        assert lines and all(line.startswith("#") for line in lines), body


def test_batch_body_errors_name_the_callers_index(daemon, router):
    """Both services parse a batch with one function, the router before
    it fans out: a bad entry is named by its index in the caller's array."""
    scripts = [f"var s{i} = {i};" for i in range(7)] + [{"source": "var t = 7;", "name": 7}]
    body = json.dumps({"scripts": scripts})
    for background in (daemon, router):
        status, _headers, data = call(background, "POST", "/v1/scan/batch", body)
        assert status == 400, (background.what, data)
        assert json.loads(data)["error"]["message"] == "scripts[7].name must be a string"


def test_router_names_unnamed_batch_entries_like_one_daemon(detector, daemon):
    """The router forwards the names it parsed, so an unnamed entry is
    ``<batch:i>`` by its index in the caller's array, not in a sub-batch."""
    body = json.dumps({"scripts": [f"var s{i} = {i};" for i in range(8)]})
    expected = [f"<batch:{i}>" for i in range(8)]
    _status, _headers, alone = call(daemon, "POST", "/v1/scan/batch", body)
    assert [r["path"] for r in json.loads(alone)["data"]["results"]] == expected
    config = ServeConfig(port=0, max_batch=4, queue_limit=32)
    with BackgroundServer(detector, config) as second:
        router_config = RouterConfig(port=0, request_timeout_s=30.0, scrape_interval_s=0)
        with BackgroundRouter(router_config, ports=[daemon.port, second.port]) as router:
            first_batches = len(daemon.server.batcher.batch_sizes)
            status, _headers, routed = call(router, "POST", "/v1/scan/batch", body)
        assert status == 200, routed
        # Both daemons took part, so each saw a sub-batch of its own.
        assert len(daemon.server.batcher.batch_sizes) > first_batches
        assert second.server.batcher.batch_sizes
    assert [r["path"] for r in json.loads(routed)["data"]["results"]] == expected


def series(background, family):
    _status, _headers, body = call(background, "GET", "/v1/metrics")
    return {
        line.rsplit(" ", 1)[0]
        for line in body.decode("utf-8").splitlines()
        if line.startswith(family + "{")
    }


@pytest.mark.parametrize("service", ["daemon", "router"])
def test_request_metric_labels_stay_bounded(service, request):
    background = request.getfixturevalue(service)
    requests_before = series(background, "repro_http_requests_total")
    for i in range(50):
        call(background, "GET", f"/v1/nope/{i}" if i % 2 else f"/nope/{i}")
        call(background, "GET", f"/v1/debug/traces/{i:032x}")
        call(background, "GET", f"/debug/traces/{i:032x}")
    for method in ("BREW", "FROB", "PATCH", "PURGE", "WHATEVER"):
        assert call(background, method, "/v1/healthz")[0] == 405
    requests_new = series(background, "repro_http_requests_total") - requests_before
    assert len(requests_new) <= 6, sorted(requests_new)
    assert not series(background, "repro_http_deprecated_requests_total")
    rendered = "\n".join(sorted(requests_new))
    assert 'path="<unmatched>"' in rendered  # /nope/* and the unprefixed lookups
    assert 'path="/v1/debug/traces/<id>"' in rendered
    assert 'path="/debug/traces/<id>"' not in rendered
    assert 'method="<other>"' in rendered
