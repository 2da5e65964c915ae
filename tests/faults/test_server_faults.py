"""Daemon resilience: hostile scripts degrade requests, never the service.

Real sockets, real worker kills.  One server (module scope) exercises the
degraded-verdict path, quarantine surfacing, 413, and fault metrics; a
fresh per-test server walks the breaker lifecycle end to end.
"""

import http.client
import json
import time

import pytest

from repro.serve import BackgroundServer, ServeConfig

HANG_A = "/* @repro-fault:hang */ var a = 1;"
HANG_B = "/* @repro-fault:hang */ var b = 2;"
CLEAN = "var x = document.location;"


@pytest.fixture(scope="module", autouse=True)
def _arm_inject():
    # Module-scoped so every worker the persistent pool (re)spawns inherits
    # the flag, not just the ones forked during one test.
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_FAULT_INJECT", "1")
    yield
    patcher.undo()


@pytest.fixture(scope="module")
def server(detector, tmp_path_factory):
    config = ServeConfig(
        port=0,
        timeout_s=1.0,
        max_rss_mb=256,
        quarantine_dir=str(tmp_path_factory.mktemp("quarantine")),
        breaker_threshold=50,  # lifecycle is tested on its own server below
        max_body_bytes=4096,
    )
    with BackgroundServer(detector, config) as background:
        yield background


def http_json(background, method, path, payload=None, raw_body=None):
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


class TestDegradedRequests:
    def test_hanging_script_returns_degraded_timeout_verdict(self, server):
        status, _, body = http_json(
            server, "POST", "/v1/scan", {"source": HANG_A, "name": "hang.js"}
        )
        payload = json.loads(body)["data"]
        assert status == 200  # the request survives the worker
        assert payload["status"] == "timeout"
        assert payload["degraded"] is True
        assert payload["fault"]["cause"] == "timeout"
        assert 0.0 <= payload["probability"] <= 1.0

    def test_resubmission_is_served_from_quarantine(self, server):
        started = time.monotonic()
        status, _, body = http_json(
            server, "POST", "/v1/scan", {"source": HANG_A, "name": "hang-again.js"}
        )
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["status"] == "timeout"
        assert payload["fault"]["known"] is True
        # No worker burned a deadline on it the second time.
        assert time.monotonic() - started < 1.0

    def test_clean_scan_still_works_after_faults(self, server, detector, split):
        source = split.test.sources[0]
        expected = detector.scan(source)
        status, _, body = http_json(server, "POST", "/v1/scan", {"source": source})
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["degraded"] is False
        assert payload["probability"] == expected.probability

    def test_healthz_reports_breaker_and_quarantine(self, server):
        status, _, body = http_json(server, "GET", "/v1/healthz")
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["breaker"]["state"] in {"closed", "open", "half_open"}
        assert payload["quarantined"] >= 1

    def test_metrics_count_failures_by_cause(self, server):
        _, _, body = http_json(server, "GET", "/v1/metrics")
        text = body.decode()
        assert 'repro_scan_failures_total{cause="timeout"}' in text
        assert "repro_breaker_state" in text

    def test_oversized_body_is_413(self, server):
        big = json.dumps({"source": "x" * 8192})
        status, _, body = http_json(server, "POST", "/v1/scan", raw_body=big)
        assert status == 413
        assert json.loads(body)["error"]["message"] == "body exceeds 4096 bytes"

    def test_version_echoes_fault_config(self, server):
        _, _, body = http_json(server, "GET", "/v1/version")
        config = json.loads(body)["data"]["config"]
        assert config["timeout_s"] == 1.0
        assert config["max_rss_mb"] == 256
        assert config["max_body_bytes"] == 4096


class TestBreakerLifecycle:
    @pytest.fixture()
    def fragile_server(self, detector):
        config = ServeConfig(
            port=0,
            timeout_s=1.0,
            breaker_threshold=2,
            breaker_reset_s=1.0,
        )
        with BackgroundServer(detector, config) as background:
            yield background

    def breaker_state(self, background):
        _, _, body = http_json(background, "GET", "/v1/healthz")
        return json.loads(body)["data"]["breaker"]["state"]

    def test_sustained_deaths_open_then_probe_closes(self, fragile_server):
        # Two distinct poison scripts = two fresh worker deaths = threshold.
        # (A repeat of the same script is served from quarantine and would
        # not count — the breaker only counts scripts that cost a worker.)
        for source in (HANG_A, HANG_B):
            status, _, body = http_json(fragile_server, "POST", "/v1/scan", {"source": source})
            assert status == 200
            assert json.loads(body)["data"]["status"] == "timeout"

        status, headers, body = http_json(fragile_server, "POST", "/v1/scan", {"source": CLEAN})
        assert status == 503
        assert "Retry-After" in headers
        assert int(headers["Retry-After"]) >= 1
        assert "circuit breaker" in json.loads(body)["error"]["message"]
        assert self.breaker_state(fragile_server) == "open"

        time.sleep(1.1)  # past breaker_reset_s: next request is the probe
        status, _, body = http_json(fragile_server, "POST", "/v1/scan", {"source": CLEAN})
        assert status == 200
        assert json.loads(body)["data"]["status"] == "ok"
        assert self.breaker_state(fragile_server) == "closed"
