"""Tests for POST /v1/analyze: static analysis over HTTP, no model involved."""

import json

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, ServeConfig

from .test_server import http_json


@pytest.fixture(scope="module")
def detector():
    split = experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=2)
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


@pytest.fixture(scope="module")
def server(detector):
    config = ServeConfig(port=0, max_batch=4, queue_limit=8)
    with BackgroundServer(detector, config) as background:
        yield background


class TestAnalyzeEndpoint:
    def test_findings_round_trip(self, server):
        status, _, body = http_json(
            server, "POST", "/v1/analyze", {"source": "eval(code); debugger;", "name": "t.js"}
        )
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["name"] == "t.js"
        assert payload["parse_ok"] is True
        rules = {f["rule_id"] for f in payload["findings"]}
        assert {"dynamic-eval", "debugger-statement"} <= rules
        assert 0.0 < payload["score"] < 1.0

    def test_decisive_flag_exposed(self, server):
        status, _, body = http_json(
            server, "POST", "/v1/analyze", {"source": 'eval(unescape("%61"));'}
        )
        payload = json.loads(body)["data"]
        assert status == 200 and payload["decisive"] is True

    def test_syntax_error_is_200_with_parse_error_finding(self, server):
        status, _, body = http_json(server, "POST", "/v1/analyze", {"source": "var (((("})
        payload = json.loads(body)["data"]
        assert status == 200
        assert payload["parse_ok"] is False
        assert payload["findings"][0]["rule_id"] == "parse-error"

    def test_missing_source_is_400(self, server):
        status, _, body = http_json(server, "POST", "/v1/analyze", {"name": "x.js"})
        assert status == 400
        assert "source" in json.loads(body)["error"]["message"]

    def test_non_object_body_is_400(self, server):
        status, _, _ = http_json(server, "POST", "/v1/analyze", payload=["not", "an", "object"])
        assert status == 400

    def test_malformed_json_is_400(self, server):
        status, _, _ = http_json(server, "POST", "/v1/analyze", raw_body="{nope")
        assert status == 400

    def test_non_string_name_is_400(self, server):
        status, _, _ = http_json(server, "POST", "/v1/analyze", {"source": "1;", "name": 7})
        assert status == 400

    def test_get_method_not_allowed(self, server):
        status, headers, _ = http_json(server, "GET", "/v1/analyze")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_backpressure_429_when_queue_full(self, server):
        batcher = server.server.batcher
        limit = server.server.config.queue_limit
        original = batcher.queue_depth
        # Simulate a saturated scan queue without racing real traffic.
        patched = type(batcher)
        saved = patched.queue_depth
        patched.queue_depth = property(lambda self: limit)
        try:
            status, headers, _ = http_json(server, "POST", "/v1/analyze", {"source": "1;"})
        finally:
            patched.queue_depth = saved
        assert status == 429
        assert "Retry-After" in headers
        assert batcher.queue_depth == original

    def test_per_rule_metrics_exposed(self, server):
        http_json(server, "POST", "/v1/analyze", {"source": "with (o) {}"})
        status, _, body = http_json(server, "GET", "/v1/metrics")
        text = body.decode()
        assert status == 200
        assert 'repro_analysis_findings_total{rule="with-statement"}' in text
        assert "repro_analysis_scripts_total" in text
