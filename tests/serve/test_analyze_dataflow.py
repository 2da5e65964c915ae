"""POST /v1/analyze with taint-flow findings: witness round-trip + deobfuscate.

The v1 contract ISSUE 8 adds: every flow finding returned over HTTP
carries its complete ordered source→sink witness, and
``"deobfuscate": true`` makes the endpoint analyze the normalized text
while reporting ``raw_line`` spans into the submitted script.
"""

import json

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, ServeConfig

from .test_server import http_json

FLOW_SAMPLE = "var p = atob(x);\neval(p);\n"

#: Folding exposes the decode source only in the normalized text: raw,
#: the callee is a computed member with a non-literal key, invisible to
#: both the syntactic catalog and the taint catalog's source match.
OBFUSCATED_SAMPLE = 'var p = window["at" + "ob"](x);\neval(p);\n'


@pytest.fixture(scope="module")
def server():
    split = experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=2)
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    with BackgroundServer(det, ServeConfig(port=0)) as background:
        yield background


def analyze(server, payload):
    """``(status, data)`` of a 200, ``(status, envelope)`` of an error."""
    status, _, body = http_json(server, "POST", "/v1/analyze", payload)
    envelope = json.loads(body)
    return status, envelope.get("data", envelope)


class TestWitnessOverHttp:
    def test_flow_finding_carries_ordered_witness(self, server):
        status, payload = analyze(server, {"source": FLOW_SAMPLE, "name": "w.js"})
        assert status == 200 and payload["decisive"] is True
        flow = next(f for f in payload["findings"] if f["rule_id"] == "decode-chain")
        hops = flow["witness"]
        assert [h["op"] for h in hops] == ["source:decode", "assign:p", "sink:eval"]
        lines = [h["line"] for h in hops]
        assert lines == sorted(lines)
        assert all({"line", "col", "op"} <= set(h) for h in hops)

    def test_witness_identical_on_v1_route(self, server):
        from repro.analysis import Analyzer

        local = Analyzer().analyze(FLOW_SAMPLE, name="<request>").to_dict()
        status, served = analyze(server, {"source": FLOW_SAMPLE})
        assert status == 200
        strip = lambda p: {  # noqa: E731
            k: v
            for k, v in p.items()
            if k not in ("trace_id", "elapsed_ms", "dataflow_ms")
        }
        assert strip(served) == strip(local)

    def test_witness_round_trips_through_report_from_dict(self, server):
        from repro.analysis import AnalysisReport

        _, payload = analyze(server, {"source": FLOW_SAMPLE})
        revived = AnalysisReport.from_dict(
            {k: v for k, v in payload.items() if k != "trace_id"}
        )
        flow = next(f for f in revived.findings if f.rule_id == "decode-chain")
        assert flow.witness and flow.witness[-1]["op"] == "sink:eval"
        assert revived.to_dict()["findings"] == payload["findings"]


class TestAnalyzeDeobfuscate:
    def test_deobfuscate_flag_analyzes_normalized_text(self, server):
        _, without = analyze(server, {"source": OBFUSCATED_SAMPLE})
        assert not any(f["rule_id"] == "decode-chain" for f in without["findings"])
        status, payload = analyze(
            server, {"source": OBFUSCATED_SAMPLE, "deobfuscate": True}
        )
        assert status == 200
        flow = next(f for f in payload["findings"] if f["rule_id"] == "decode-chain")
        assert payload["normalization"]["changed"] is True
        # Raw spans map back into the submitted script: the sink hop
        # points at the eval statement on (raw) line 2.
        assert flow["raw_line"] == 2
        assert flow["witness"][0]["raw_line"] == 1
        assert flow["witness"][-1]["raw_line"] == 2

    def test_clean_input_gets_no_normalization_block(self, server):
        status, payload = analyze(
            server, {"source": "var a = 1;\n", "deobfuscate": True}
        )
        assert status == 200
        assert "normalization" not in payload

    def test_non_boolean_deobfuscate_is_400(self, server):
        status, payload = analyze(
            server, {"source": "var a = 1;", "deobfuscate": "yes"}
        )
        assert status == 400
        assert "deobfuscate" in payload["error"]["message"]


class TestSuppressedAtOverHttp:
    def test_suppressed_at_reports_witness_line(self, server):
        source = "var p = atob(x); // repro-ignore: decode-chain\neval(p);\n"
        _, payload = analyze(server, {"source": source})
        assert not any(f["rule_id"] == "decode-chain" for f in payload["findings"])
        assert {"rule_id": "decode-chain", "line": 1} in payload["suppressed_at"]

    def test_raw_directive_applies_under_deobfuscation(self, server):
        # The normalizer drops comments; the directive written in the
        # submitted script must still silence the flow found in the
        # normalized text, keyed on the raw sink line.
        source = 'var p = window["at" + "ob"](x);\neval(p); // repro-ignore: decode-chain\n'
        status, payload = analyze(server, {"source": source, "deobfuscate": True})
        assert status == 200
        assert not any(f["rule_id"] == "decode-chain" for f in payload["findings"])
        assert {"rule_id": "decode-chain", "line": 2} in payload["suppressed_at"]
