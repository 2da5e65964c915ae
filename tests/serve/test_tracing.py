"""Daemon-level tracing: propagation, grafting, and the debug endpoints.

The acceptance contract: a request carrying an inbound W3C ``traceparent``
with the sampled bit set is always recorded (regardless of the daemon's
sample rate), answers with that trace id in the body and ``X-Trace-Id``
header, and the stored trace — retrievable via ``GET
/v1/debug/traces/<trace_id>`` — contains a span for every pipeline stage the
request actually executed, grafted under the request's root span.
"""

import http.client
import json

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, ServeConfig, run_load

TRACE_ID = "ab" * 16
PARENT_SPAN = "cd" * 8
TRACEPARENT = f"00-{TRACE_ID}-{PARENT_SPAN}-01"


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
    # Sample rate 0: only requests with an inbound sampled traceparent are
    # traced, which makes every assertion below deterministic.
    config = ServeConfig(port=0, max_batch=4, trace_sample_rate=0.0)
    with BackgroundServer(detector, config) as background:
        yield background


def http_json(background, method, path, payload=None, headers=None):
    connection = http.client.HTTPConnection(background.host, background.port, timeout=30)
    body = json.dumps(payload) if payload is not None else None
    send_headers = dict(headers or {})
    if body is not None:
        send_headers["Content-Type"] = "application/json"
    connection.request(method, path, body=body, headers=send_headers)
    response = connection.getresponse()
    data = response.read()
    status, header_map = response.status, dict(response.getheaders())
    connection.close()
    # A 200's ``data``; an error's whole envelope (its ``error`` object).
    envelope = json.loads(data) if data else None
    return status, header_map, envelope.get("data", envelope) if envelope else None


def flatten(nodes):
    for node in nodes:
        yield node
        yield from flatten(node.get("children", []))


def traceparent(n: int) -> str:
    return f"00-{n:032x}-{PARENT_SPAN}-01"


class TestPropagation:
    def test_inbound_traceparent_echoed_end_to_end(self, server, split):
        status, headers, body = http_json(
            server, "POST", "/v1/scan",
            {"source": split.test.sources[0], "name": "traced"},
            {"traceparent": TRACEPARENT},
        )
        assert status == 200
        assert body["trace_id"] == TRACE_ID
        assert headers["X-Trace-Id"] == TRACE_ID
        assert headers["traceparent"].startswith(f"00-{TRACE_ID}-")
        assert headers["traceparent"].endswith("-01")
        # Traced responses also carry the provenance envelope.
        assert body["trace"]["trace_id"] == TRACE_ID
        assert body["trace"]["provenance"]

    def test_stored_trace_has_every_pipeline_stage(self, server, split):
        tp = traceparent(0xBEEF)
        status, _, _ = http_json(
            server, "POST", "/v1/scan",
            {"source": split.test.sources[1] + "\n// stage probe", "name": "stages"},
            {"traceparent": tp},
        )
        assert status == 200
        status, _, stored = http_json(server, "GET", f"/v1/debug/traces/{0xBEEF:032x}")
        assert status == 200
        names = {span["name"] for span in stored["spans"]}
        for stage in ("http.scan", "queue.wait", "batch.execute", "scan.batch", "script",
                      "path_extraction", "embedding", "feature_transform", "classify"):
            assert stage in names, stage
        # The tree is rooted at the request span; batch spans are grafted
        # beneath it, so nothing floats at top level.
        assert len(stored["tree"]) == 1
        assert stored["tree"][0]["name"] == "http.scan"
        flat = list(flatten(stored["tree"]))
        assert len(flat) == len(stored["spans"])

    def test_untraced_request_still_returns_trace_id_but_stores_nothing(self, server, split):
        status, headers, body = http_json(
            server, "POST", "/v1/scan", {"source": split.test.sources[2], "name": "plain"}
        )
        assert status == 200
        trace_id = body["trace_id"]
        assert len(trace_id) == 32
        assert headers["X-Trace-Id"] == trace_id
        assert headers["traceparent"].endswith("-00")  # unsampled
        assert "trace" not in body  # untraced body is byte-identical
        status, _, _ = http_json(server, "GET", f"/v1/debug/traces/{trace_id}")
        assert status == 404

    def test_unsampled_inbound_traceparent_respected(self, server, split):
        tp = f"00-{0xDEAD:032x}-{PARENT_SPAN}-00"
        status, _, body = http_json(
            server, "POST", "/v1/scan", {"source": split.test.sources[3]}, {"traceparent": tp}
        )
        assert status == 200
        assert body["trace_id"] == f"{0xDEAD:032x}"  # id propagates …
        status, _, _ = http_json(server, "GET", f"/v1/debug/traces/{0xDEAD:032x}")
        assert status == 404  # … but the trace is not recorded

    def test_malformed_traceparent_gets_fresh_trace(self, server, split):
        status, _, body = http_json(
            server, "POST", "/v1/scan", {"source": split.test.sources[4]},
            {"traceparent": "garbage-header"},
        )
        assert status == 200
        assert len(body["trace_id"]) == 32
        assert body["trace_id"] != "garbage-header"

    def test_batch_endpoint_traced(self, server, split):
        tp = traceparent(0xFACE)
        status, _, body = http_json(
            server, "POST", "/v1/scan/batch",
            {"scripts": [s + "\n// batch probe" for s in split.test.sources[:3]]},
            {"traceparent": tp},
        )
        assert status == 200
        assert body["trace_id"] == f"{0xFACE:032x}"
        status, _, stored = http_json(server, "GET", f"/v1/debug/traces/{0xFACE:032x}")
        assert status == 200
        names = {span["name"] for span in stored["spans"]}
        assert {"http.scan_batch", "batch.execute", "scan.batch", "script"} <= names
        scripts = [span for span in stored["spans"] if span["name"] == "script"]
        assert len(scripts) == 3

    def test_analyze_endpoint_traced(self, server):
        tp = traceparent(0xCAFE)
        status, headers, body = http_json(
            server, "POST", "/v1/analyze", {"source": "eval('x');", "name": "a"},
            {"traceparent": tp},
        )
        assert status == 200
        assert body["trace_id"] == f"{0xCAFE:032x}"
        assert headers["X-Trace-Id"] == f"{0xCAFE:032x}"
        status, _, stored = http_json(server, "GET", f"/v1/debug/traces/{0xCAFE:032x}")
        assert status == 200
        assert {span["name"] for span in stored["spans"]} >= {"http.analyze", "analysis"}


class TestDebugEndpoints:
    def test_list_returns_summaries_newest_first(self, server, split):
        tp = traceparent(0xF00D)
        http_json(server, "POST", "/v1/scan", {"source": split.test.sources[5]},
                  {"traceparent": tp})
        status, _, listing = http_json(server, "GET", "/v1/debug/traces?n=5")
        assert status == 200
        assert listing["traces"], listing
        assert listing["traces"][0]["trace_id"] == f"{0xF00D:032x}"
        summary = listing["traces"][0]
        assert {"trace_id", "root", "duration_ms", "status", "n_spans"} <= set(summary)
        assert "spans" not in summary
        assert listing["sample_rate"] == 0.0

    def test_unknown_trace_is_404(self, server):
        status, _, body = http_json(server, "GET", f"/v1/debug/traces/{'0' * 32}")
        assert status == 404
        assert "error" in body

    def test_traces_reject_wrong_method(self, server):
        status, _, _ = http_json(server, "POST", "/v1/debug/traces")
        assert status == 405

    def test_healthz_reports_trace_count(self, server):
        status, _, body = http_json(server, "GET", "/v1/healthz")
        assert status == 200
        assert body["traces_stored"] >= 1


class TestLoadGenerator:
    def test_trace_ratio_injects_and_reports(self, server, split):
        scripts = [(f"lg{i}", source) for i, source in enumerate(split.test.sources[:4])]
        report = run_load(
            server.host, server.port, scripts, concurrency=2, repeats=2, trace_ratio=0.5
        )
        assert report.errors == 0
        assert report.requests == 8
        assert report.traced_requests == 4  # half of each 4-request lane
        assert report.status_counts == {200: 8}
        traced = [r for r in report.results if r.traced]
        assert all(r.trace_id and len(r.trace_id) == 32 for r in traced)
        # Injected traces are recorded server-side and retrievable.
        status, _, stored = http_json(server, "GET", f"/v1/debug/traces/{traced[0].trace_id}")
        assert status == 200 and stored["n_spans"] > 0
        summary = report.summary()
        assert "p50=" in summary and "p99=" in summary
        assert "status 200:8" in summary and "traced 4" in summary

    def test_untraced_results_still_carry_echoed_trace_id(self, server, split):
        report = run_load(
            server.host, server.port, [("echo", split.test.sources[0])], concurrency=1
        )
        assert report.traced_requests == 0
        assert report.results[0].trace_id and len(report.results[0].trace_id) == 32

    def test_invalid_trace_ratio_rejected(self, server):
        with pytest.raises(ValueError):
            run_load(server.host, server.port, [("x", "var a;")], trace_ratio=1.5)


class TestVerdictsUnchanged:
    def test_traced_and_untraced_verdicts_identical(self, server, detector, split):
        source = split.test.sources[6]
        expected = detector.scan(source)
        _, _, plain = http_json(server, "POST", "/v1/scan", {"source": source})
        _, _, traced = http_json(
            server, "POST", "/v1/scan", {"source": source}, {"traceparent": traceparent(0xABCD)}
        )
        for body in (plain, traced):
            assert body["label"] == expected.label
            assert body["probability"] == expected.probability
            assert body["verdict"] == expected.verdict
        # Identical payloads except the trace envelope, ids, timings, and
        # the cache flag (the second scan of the same content hits it).
        drop = ("trace", "trace_id", "stage_ms", "cache_hit")
        assert {k: v for k, v in plain.items() if k not in drop} == \
               {k: v for k, v in traced.items() if k not in drop}
