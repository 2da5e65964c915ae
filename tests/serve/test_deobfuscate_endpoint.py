"""Serve-layer contract for the deobfuscation pre-pass flag.

``deobfuscate`` is a per-request boolean: flagged obfuscated requests
carry a ``normalization`` report in the verdict (and its provenance
when traced), flagged clean requests are indistinguishable from
unflagged ones, and a hostile decoder degrades the one request without
hurting daemon health.
"""

import http.client
import json
from pathlib import Path

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, ServeConfig

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
OBFUSCATED = (EXAMPLES / "obfuscated" / "obfuscator_io.js").read_text()
CLEAN = (EXAMPLES / "corpus" / "vendor_0.js").read_text()

INFINITE_DECODER = """
function dec(x) {
  var s = "";
  while (true) {
    s = String.fromCharCode(x);
  }
  return s;
}
var s = dec(104);
"""

#: Per-verdict fields that vary between identical requests.
VOLATILE = {"trace_id", "cache_hit", "stage_ms", "trace"}


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


def http_json(background, method, path, payload=None):
    connection = http.client.HTTPConnection(background.host, background.port, timeout=60)
    body = json.dumps(payload) if payload is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    connection.close()
    return response.status, json.loads(data)


def stable(data):
    return {k: v for k, v in data.items() if k not in VOLATILE}


class TestScanFlag:
    def test_flagged_obfuscated_scan_carries_normalization(self, server):
        status, body = http_json(
            server, "POST", "/v1/scan",
            {"source": OBFUSCATED, "name": "obf.js", "deobfuscate": True},
        )
        assert status == 200
        norm = body["data"]["normalization"]
        assert norm["changed"] is True
        assert norm["rewrites"].get("string_array", 0) >= 1

    def test_unflagged_scan_has_no_normalization(self, server):
        status, body = http_json(
            server, "POST", "/v1/scan", {"source": OBFUSCATED, "name": "obf.js"}
        )
        assert status == 200
        assert "normalization" not in body["data"]

    def test_flagged_clean_scan_identical_to_unflagged(self, server):
        _, flagged = http_json(
            server, "POST", "/v1/scan", {"source": CLEAN, "deobfuscate": True}
        )
        _, unflagged = http_json(server, "POST", "/v1/scan", {"source": CLEAN})
        assert stable(flagged["data"]) == stable(unflagged["data"])
        assert "normalization" not in flagged["data"]

    def test_non_bool_flag_rejected(self, server):
        status, body = http_json(
            server, "POST", "/v1/scan", {"source": CLEAN, "deobfuscate": "yes"}
        )
        assert status == 400

    def test_batch_flag_applies_to_all_scripts(self, server):
        status, body = http_json(
            server, "POST", "/v1/scan/batch",
            {"scripts": [{"source": OBFUSCATED, "name": "a.js"}, CLEAN], "deobfuscate": True},
        )
        assert status == 200
        results = body["data"]["results"]
        assert results[0]["normalization"]["changed"] is True
        assert "normalization" not in results[1]


class TestDegradation:
    def test_hostile_decoder_degrades_request_not_daemon(self, server):
        status, body = http_json(
            server, "POST", "/v1/scan",
            {"source": INFINITE_DECODER, "name": "hostile.js", "deobfuscate": True},
        )
        assert status == 200
        norm = body["data"]["normalization"]
        assert any("budget_exceeded" in note for note in norm["notes"])
        assert norm["forced_exec"]["budget_exceeded"] >= 1
        # Daemon is still healthy and serving.
        status, body = http_json(server, "GET", "/v1/healthz")
        assert status == 200
        assert body["data"]["status"] == "ok"


class TestConfig:
    def test_version_echoes_deobfuscate_default(self, server):
        _, body = http_json(server, "GET", "/v1/version")
        assert body["data"]["config"]["deobfuscate"] is False

    def test_config_default_applies_when_flag_omitted(self, detector):
        config = ServeConfig(port=0, max_batch=2, deobfuscate=True)
        with BackgroundServer(detector, config) as background:
            _, body = http_json(
                background, "POST", "/v1/scan", {"source": OBFUSCATED, "name": "obf.js"}
            )
            assert body["data"]["normalization"]["changed"] is True
            _, body = http_json(
                background, "POST", "/v1/scan",
                {"source": OBFUSCATED, "deobfuscate": False},
            )
            assert "normalization" not in body["data"]
