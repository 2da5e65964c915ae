"""CI smoke check for `repro serve`: healthz, one scan, metrics.

Usage: serve_smoke.py BASE_URL SCRIPT_PATH [--chaos] [--pool-death] [--trace-out PATH]
       [--deobfuscate CLI_JSON]

Speaks the v1 API through :class:`repro.client.ScanClient` — the same
typed client the load generator and cluster smoke use — so the smoke
exercises exactly the surface real callers integrate against.  Waits for
the daemon to come up, POSTs the script, and asserts a well-formed
verdict plus a healthy /v1/healthz and a non-empty /v1/metrics, and that
the former v0 paths (``GET /healthz``, ``POST /scan``) answer a plain
404 envelope with no ``Deprecation`` header.
With ``--trace-out``, additionally POSTs with a fixed W3C ``traceparent``,
asserts the id rides end-to-end and that the stored trace at
``/v1/debug/traces/<id>`` contains every pipeline leaf stage, and writes
the span tree to PATH (uploaded as a workflow artifact).  With
``--chaos`` (daemon booted with ``REPRO_FAULT_INJECT=1`` and
``--timeout-s``), additionally POSTs a hang-marker script and asserts the
degraded-verdict + quarantine contract survives a worker kill.  With
``--pool-death`` (daemon booted with ``REPRO_FAULT_INJECT=1`` and
``--workers 2``, no limits), additionally POSTs a batch whose second
script kills its worker and asserts both scripts still come back ``ok``
and the daemon keeps answering.  With ``--deobfuscate CLI_JSON`` (the
output of ``repro scan --deobfuscate --format json`` on
``examples/obfuscated/obfuscator_io.js``), additionally POSTs that script
with ``deobfuscate: true`` and asserts the daemon's verdict equals the
CLI's on label, probability, path count, normalization report (less its
timing) and stage keys.
Exits non-zero (with the failure printed) on any violation.
"""

import http.client
import json
import pathlib
import sys
import time

# CI invokes this script directly (no PYTHONPATH); the repo layout is fixed.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.client import ScanAPIError, ScanClient  # noqa: E402

TRACE_ID = "c1" * 16
TRACEPARENT = f"00-{TRACE_ID}-{'ab' * 8}-01"


def wait_up(client, timeout_s=60.0):
    deadline = time.time() + timeout_s
    while True:
        try:
            return client.healthz()
        except ScanAPIError:
            if time.time() > deadline:
                raise SystemExit(f"daemon did not come up within {timeout_s:.0f}s")
            time.sleep(0.5)


def former_aliases_gone(client):
    """The unprefixed v0 paths are plain 404 envelopes with no deprecation
    headers, and no deprecation counter is exposed."""
    for method, path, body in (("GET", "/healthz", None), ("POST", "/scan", b'{"source": "1;"}')):
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        connection.close()
        assert response.status == 404, (method, path, response.status, raw)
        assert response.getheader("Deprecation") is None, (method, path)
        envelope = json.loads(raw)
        assert envelope["api_version"] == "v1" and envelope["error"]["code"] == "not_found", envelope
    assert "repro_http_deprecated_requests_total" not in client.metrics_text()
    print("former v0 aliases: plain 404 envelopes, no deprecation headers or counter")


def trace_check(client, source, out_path):
    """A fixed inbound traceparent must ride end-to-end and be recorded."""
    # Vary the source so the scan misses the feature cache — a cache hit
    # would legitimately skip the extraction/embedding spans.
    verdict = client.scan(source + "\n// trace probe", name="traced.js", traceparent=TRACEPARENT)
    assert verdict.trace_id == TRACE_ID, verdict.raw
    assert verdict.raw["trace"]["provenance"]["top_paths"], verdict.raw["trace"]

    stored = client.trace(TRACE_ID)
    names = {span["name"] for span in stored["spans"]}
    for stage in ("http.scan", "queue.wait", "batch.execute", "scan.batch", "script",
                  "path_extraction", "embedding", "feature_transform", "classify"):
        assert stage in names, (stage, sorted(names))
    assert stored["tree"] and stored["tree"][0]["name"] == "http.scan", stored["tree"]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=2)
    print(f"trace: {stored['n_spans']} spans recorded under {TRACE_ID}, written to {out_path}")


def chaos(client):
    """A hanging script must cost its worker, not the daemon."""
    hang = "/* @repro-fault:hang */ var a = 1;"
    verdict = client.scan(hang, name="hang.js").raw
    assert verdict["status"] == "timeout", verdict
    assert verdict["degraded"] is True, verdict
    print("chaos verdict:", verdict["status"], verdict["fault"]["detail"])

    # The poison is quarantined: the rescan is served without a worker.
    verdict = client.scan(hang, name="hang-again.js").raw
    assert verdict["fault"].get("known") is True, verdict

    health = client.healthz()
    assert health["status"] == "ok", health
    assert health["quarantined"] >= 1, health
    assert health["breaker"]["state"] in ("closed", "half_open"), health

    text = client.metrics_text()
    assert 'repro_scan_failures_total{cause="timeout"}' in text, text[:400]
    print("chaos: daemon survived a hung worker; quarantine + breaker healthy")


def pool_death(client, source):
    """A worker that dies mid-batch must cost one in-process re-run, not the daemon."""
    # A fresh source, so both scripts miss the feature cache and go to the pool.
    scripts = [
        {"source": source + "\n// pool-death probe", "name": "sample_0.js"},
        {"source": "/* @repro-fault:exit137 */ var c = 3;", "name": "exit137.js"},
    ]
    body = client.scan_batch(scripts)
    statuses = [result["status"] for result in body["results"]]
    assert statuses == ["ok", "ok"], body

    verdict = client.scan(source + "\n// after pool death", name="after.js")
    assert verdict.verdict in ("benign", "malicious"), verdict.raw
    print("pool-death: batch with a dying worker answered ok; daemon still scanning")


def deobfuscate_check(client, reference_path):
    """A flagged request must answer as ``repro scan --deobfuscate`` does."""
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    obfuscated = (repo_root / "examples" / "obfuscated" / "obfuscator_io.js").read_text()

    verdict = client.scan(obfuscated, name="obfuscator_io.js", deobfuscate=True)
    norm = verdict.normalization
    assert norm is not None, verdict.raw
    assert norm["changed"] is True, norm
    assert norm["rewrites"].get("string_array", 0) >= 1, norm

    with open(reference_path, encoding="utf-8") as handle:
        [reference] = json.load(handle)["results"]
    served = verdict.raw
    for key in ("label", "probability", "path_count"):
        assert served[key] == reference[key], (key, served[key], reference[key])

    def timeless(report):
        return {k: v for k, v in report.items() if k != "elapsed_ms"}

    assert timeless(norm) == timeless(reference["normalization"]), (norm, reference)
    assert set(served["stage_ms"]) == set(reference["stage_ms"]), (served, reference)

    # A traced flagged request carries the report in the verdict provenance.
    traceparent = f"00-{'d2' * 16}-{'cd' * 8}-01"
    traced = client.scan(obfuscated + "\n// deob probe", name="obf-traced.js",
                         traceparent=traceparent, deobfuscate=True)
    provenance = traced.raw["trace"]["provenance"]
    assert provenance["normalization"]["changed"] is True, provenance

    # Without the flag the same request is report-free.
    unflagged = client.scan(obfuscated, name="obfuscator_io.js")
    assert unflagged.normalization is None, unflagged.raw

    text = client.metrics_text()
    assert 'repro_deobfuscate_scripts_total{result="changed"}' in text, text[:400]
    print("deobfuscate: the daemon's flagged verdict equals the CLI's; the report rode the "
          "verdict, provenance, and metrics")


def main(base_url, script_path, extra):
    client = ScanClient(base_url, timeout_s=60.0, retries=2)
    health = wait_up(client)
    assert health["status"] == "ok", health
    print("healthz:", health)

    with open(script_path, encoding="utf-8") as handle:
        source = handle.read()
    verdict = client.scan(source, name=script_path)
    print("verdict:", verdict.raw)
    assert verdict.verdict in ("benign", "malicious"), verdict.raw
    assert 0.0 <= verdict.probability <= 1.0, verdict.raw
    assert verdict.raw["path"] == script_path, verdict.raw
    assert verdict.model_fingerprint == health["model_fingerprint"], verdict.raw

    text = client.metrics_text()
    assert "repro_http_requests_total" in text, text[:400]
    assert "repro_serve_batches_total" in text, text[:400]
    print("metrics: ok ({} lines)".format(len(text.splitlines())))
    former_aliases_gone(client)

    if "--trace-out" in extra:
        trace_check(client, source, extra[extra.index("--trace-out") + 1])
    if "--deobfuscate" in extra:
        deobfuscate_check(client, extra[extra.index("--deobfuscate") + 1])
    if "--chaos" in extra:
        chaos(client)
    if "--pool-death" in extra:
        pool_death(client, source)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
