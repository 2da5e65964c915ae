"""Per-request scan options reach the daemon's scanner unchanged.

A flagged ``/v1/scan`` request rides its micro-batch into
:meth:`BatchScanner.scan` with its own ``deobfuscate`` flag, so it must
answer exactly as ``detector.scan_batch(..., deobfuscate=True)`` does:
the same normalization, stage keys, provenance and degraded analysis.
Only wall-clock values, fault resource usage and per-request ids differ.
"""

import http.client
import json
from pathlib import Path

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.faults import ScanLimits
from repro.serve import BackgroundServer, ServeConfig

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
OBFUSCATED_FILES = sorted((EXAMPLES / "obfuscated").glob("*.js"))

#: An embed-fault marker in a string literal (normalization keeps it, so
#: the worker fires it on the normalized text) and a directive that only
#: the submitted text carries: ``"ev" + "al"`` folds away, the comment
#: with it, and ``u`` is written but never read.
FAULTED_WITH_DIRECTIVE = (
    'var marker = "@repro-fault:raise";\n'
    "// repro-ignore: write-only-variable\n"
    'var u = "ev" + "al";\n'
)

#: Keys the daemon adds to a ScanResult's dict.
REQUEST_KEYS = {"threshold", "model_fingerprint", "trace_id"}


@pytest.fixture(scope="module")
def detector():
    split = experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=2)
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


def post_scan(background, payload):
    connection = http.client.HTTPConnection(background.host, background.port, timeout=60)
    connection.request(
        "POST", "/v1/scan", body=json.dumps(payload), headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    body = json.loads(response.read())
    connection.close()
    assert response.status == 200, body
    return body["data"]


def masked(result: dict) -> dict:
    """A result with wall-clock values, resource usage and ids taken out."""
    out = {k: v for k, v in result.items() if k not in REQUEST_KEYS}
    out["stage_ms"] = sorted(out["stage_ms"])
    if "normalization" in out:
        out["normalization"] = {k: v for k, v in out["normalization"].items() if k != "elapsed_ms"}
    if out["analysis"] is not None:
        out["analysis"] = {
            k: v for k, v in out["analysis"].items() if k not in ("elapsed_ms", "dataflow_ms")
        }
    if out["fault"] is not None:
        out["fault"] = {k: v for k, v in out["fault"].items() if k != "rusage"}
    return out


@pytest.mark.parametrize("path", OBFUSCATED_FILES, ids=lambda path: path.name)
def test_flagged_scan_answers_as_scan_batch(detector, path):
    # A fresh daemon per file: an `.expected.js` file normalizes to its
    # pair's text, so one shared feature cache would answer the second.
    source = path.read_text()
    config = ServeConfig(port=0, trace_sample_rate=0.0)
    with BackgroundServer(detector, config) as background:
        served = post_scan(background, {"source": source, "name": path.name, "deobfuscate": True})
    direct = detector.scan_batch([source], names=[path.name], deobfuscate=True)
    assert masked(served) == masked(direct.results[0].to_dict())
    assert ("deobfuscate" in served["stage_ms"]) == ("normalization" in served)


def test_faulted_flagged_scan_maps_degraded_analysis_back(detector, monkeypatch):
    # Armed before the daemon's pool starts, so its workers inherit it.
    monkeypatch.setenv("REPRO_FAULT_INJECT", "1")
    config = ServeConfig(port=0, timeout_s=20.0, trace_sample_rate=0.0)
    with BackgroundServer(detector, config) as background:
        served = post_scan(
            background, {"source": FAULTED_WITH_DIRECTIVE, "name": "probe.js", "deobfuscate": True}
        )
    direct = detector.scan_batch(
        [FAULTED_WITH_DIRECTIVE],
        names=["probe.js"],
        limits=ScanLimits(timeout_s=20.0),
        deobfuscate=True,
    ).results[0].to_dict()
    assert served["degraded"] and served["status"] == "crashed", served
    assert masked(served) == masked(direct)
    # The directive in the submitted text was honoured, and the findings
    # point back into it.
    assert served["analysis"]["suppressed_at"] == [{"rule_id": "write-only-variable", "line": 3}]
    assert all(finding["raw_line"] is not None for finding in served["analysis"]["findings"])
