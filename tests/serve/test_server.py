"""End-to-end tests for the scan daemon over real sockets.

A tiny detector is trained once per module; servers run on ephemeral
ports via :class:`BackgroundServer` and are driven with stdlib
``http.client`` — byte-for-byte the same path a production client takes.
"""

import http.client
import json
import re
import threading
import time

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, ServeConfig, run_load

PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? (-?[0-9.]+(e-?[0-9]+)?|\+Inf|NaN)"
    # Sampled scans attach an OpenMetrics exemplar to their bucket line.
    r'( # \{trace_id="[0-9a-f]+"\} (-?[0-9.]+(e-?[0-9]+)?))?$'
)


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


@pytest.fixture(scope="module")
def server(detector):
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


class TestEndpoints:
    def test_healthz(self, server, detector):
        status, _, body = http_json(server, "GET", "/v1/healthz")
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model_fingerprint"] == detector.fingerprint()
        assert payload["queue_depth"] >= 0
        assert payload["uptime_s"] >= 0

    def test_version_echoes_config(self, server):
        status, _, body = http_json(server, "GET", "/v1/version")
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["service"] == "repro.serve"
        assert payload["config"]["max_batch"] == 4
        assert payload["config"]["queue_limit"] == 32

    def test_scan_matches_oneshot(self, server, detector, split):
        source = split.test.sources[0]
        expected = detector.scan(source)
        status, _, body = http_json(server, "POST", "/v1/scan", {"source": source, "name": "s0"})
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["path"] == "s0"
        assert payload["label"] == expected.label
        assert payload["probability"] == expected.probability
        assert payload["verdict"] == expected.verdict
        assert payload["model_fingerprint"] == detector.fingerprint()

    def test_per_request_threshold_changes_verdict_not_probability(self, server, detector, split):
        source = split.test.sources[0]
        expected = detector.scan(source)
        status, _, body = http_json(
            server, "POST", "/v1/scan", {"source": source, "threshold": 1.1}
        )
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["probability"] == expected.probability  # unchanged
        assert payload["malicious"] is False  # nothing reaches 1.1
        assert payload["threshold"] == 1.1

    def test_scan_batch_mixed_entries(self, server, detector, split):
        sources = split.test.sources[:3]
        scripts = [sources[0], {"source": sources[1], "name": "named"}, {"source": sources[2]}]
        status, _, body = http_json(server, "POST", "/v1/scan/batch", {"scripts": scripts})
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["n_files"] == 3
        assert [r["path"] for r in payload["results"]] == ["<batch:0>", "named", "<batch:2>"]
        expected = detector.scan_batch(sources)
        for served, oneshot in zip(payload["results"], expected.results):
            assert served["label"] == oneshot.label
            assert served["probability"] == oneshot.probability

    def test_malformed_json_is_400(self, server):
        status, _, body = http_json(server, "POST", "/v1/scan", raw_body="{not json")
        payload = json.loads(body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_missing_source_is_400(self, server):
        status, _, body = http_json(server, "POST", "/v1/scan", {"name": "nope"})
        assert status == 400
        assert "source" in json.loads(body)["error"]["message"]

    def test_bad_threshold_is_400(self, server, split):
        status, _, _ = http_json(
            server, "POST", "/v1/scan", {"source": split.test.sources[0], "threshold": "high"}
        )
        assert status == 400

    def test_empty_batch_is_400(self, server):
        status, _, _ = http_json(server, "POST", "/v1/scan/batch", {"scripts": []})
        assert status == 400

    def test_unknown_path_is_404(self, server):
        status, _, _ = http_json(server, "GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_405_with_allow(self, server):
        status, headers, _ = http_json(server, "GET", "/v1/scan")
        assert status == 405
        assert headers["Allow"] == "POST"


class TestMetricsEndpoint:
    def test_exposition_after_traffic(self, server, split):
        http_json(server, "POST", "/v1/scan", {"source": split.test.sources[0]})
        status, headers, body = http_json(server, "GET", "/v1/metrics")
        text = body.decode("utf-8")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_serve_queue_depth",
            "repro_serve_batches_total",
            "repro_serve_batch_size",
            "repro_scan_stage_seconds",
            "repro_cache_lookups_total",
        ):
            assert family in text, family

    def test_exposition_parses_as_prometheus_text(self, server):
        _, _, body = http_json(server, "GET", "/v1/metrics")
        lines = body.decode("utf-8").splitlines()
        assert lines, "metrics body must not be empty"
        for line in lines:
            if line.startswith("#") or not line:
                continue
            assert PROM_LINE.match(line), line

    def test_request_counter_advances(self, server):
        def count():
            _, _, body = http_json(server, "GET", "/v1/metrics")
            total = 0.0
            for line in body.decode().splitlines():
                if line.startswith("repro_http_requests_total{") and 'path="/v1/healthz"' in line:
                    total += float(line.rsplit(" ", 1)[1])
            return total

        before = count()
        http_json(server, "GET", "/v1/healthz")
        assert count() == before + 1


class TestConcurrency:
    def test_eight_clients_coalesce_and_match_oneshot(self, detector, split):
        sources = split.test.sources[:8]
        expected = {
            f"s{i}": (r.label, r.probability)
            for i, r in enumerate(detector.scan_batch(sources).results)
        }
        config = ServeConfig(port=0, max_batch=4, queue_limit=32)
        with BackgroundServer(detector, config) as background:
            batcher = background.server.batcher
            original = batcher._scan
            first_batch: list[int] = []

            def gated(sources, names, metas):
                # The first batch holds the scanner until every client's
                # request is admitted, so what queues behind it is exact.
                if not first_batch:
                    first_batch.append(len(sources))
                    deadline = time.time() + 10
                    while len(sources) + batcher.queue_depth < 8 and time.time() < deadline:
                        time.sleep(0.005)
                return original(sources, names, metas)

            batcher._scan = gated
            report = run_load(
                background.host,
                background.port,
                [(f"s{i}", source) for i, source in enumerate(sources)],
                concurrency=8,
                repeats=1,
            )
            batch_sizes = list(batcher.batch_sizes)

        assert report.errors == 0
        assert report.requests == 8
        for result in report.results:
            assert (result.label, result.probability) == expected[result.name], result.name
        # The first arrival goes out alone on an idle scanner; the rest
        # queued behind it and leave in max_batch chunks: [1, 4, 3].
        first = first_batch[0]
        queued = 8 - first
        assert batch_sizes == [first] + [4] * (queued // 4) + ([queued % 4] if queued % 4 else [])

    def test_queue_full_returns_429_with_retry_after(self, detector, split):
        config = ServeConfig(port=0, max_batch=1, queue_limit=1)
        with BackgroundServer(detector, config) as background:
            gate = threading.Event()
            original = background.server.batcher._scan

            def gated(sources, names, metas):
                gate.wait(timeout=10)
                return original(sources, names, metas)

            background.server.batcher._scan = gated
            source = split.test.sources[0]
            statuses = {}

            def client(key):
                statuses[key] = http_json(background, "POST", "/v1/scan", {"source": source})

            # First request occupies the executor; second fills the queue.
            first = threading.Thread(target=client, args=("first",))
            first.start()
            deadline = time.time() + 10
            while not background.server.batcher.batch_sizes and time.time() < deadline:
                time.sleep(0.01)  # batch 1 is now blocked inside the gated scan
            assert list(background.server.batcher.batch_sizes) == [1]
            second = threading.Thread(target=client, args=("second",))
            second.start()
            deadline = time.time() + 10
            while background.server.batcher.queue_depth < 1 and time.time() < deadline:
                time.sleep(0.01)
            assert background.server.batcher.queue_depth == 1

            status, headers, body = http_json(background, "POST", "/v1/scan", {"source": source})
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert json.loads(body)["error"]["code"] == "rate_limited"

            gate.set()
            first.join(timeout=30)
            second.join(timeout=30)
            assert statuses["first"][0] == 200
            assert statuses["second"][0] == 200

    def test_graceful_shutdown_answers_in_flight_requests(self, detector, split):
        config = ServeConfig(port=0, max_batch=1, queue_limit=8)
        background = BackgroundServer(detector, config)
        background.__enter__()
        try:
            original = background.server.batcher._scan

            def slow(sources, names, metas):
                time.sleep(0.3)
                return original(sources, names, metas)

            background.server.batcher._scan = slow
            outcome = {}

            def client():
                outcome["reply"] = http_json(
                    background, "POST", "/v1/scan", {"source": split.test.sources[0], "name": "inflight"}
                )

            thread = threading.Thread(target=client)
            thread.start()
            time.sleep(0.15)  # request is now inside the slow scan
        finally:
            background.stop()  # drain=True: must wait for the in-flight reply
        thread.join(timeout=30)
        status, _, body = outcome["reply"]
        assert status == 200
        assert json.loads(body)["data"]["path"] == "inflight"

    def test_request_timeout_is_503(self, detector, split):
        config = ServeConfig(
            port=0, max_batch=1, queue_limit=8, request_timeout_s=0.2
        )
        with BackgroundServer(detector, config) as background:
            gate = threading.Event()
            original = background.server.batcher._scan

            def gated(sources, names, metas):
                gate.wait(timeout=10)
                return original(sources, names, metas)

            background.server.batcher._scan = gated
            try:
                status, headers, _ = http_json(
                    background, "POST", "/v1/scan", {"source": split.test.sources[0]}
                )
                assert status == 503
                assert "Retry-After" in headers
            finally:
                gate.set()
