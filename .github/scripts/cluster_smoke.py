"""CI smoke check for the sharded tier: router + shards + supervisor.

Usage: cluster_smoke.py BASE_URL SCRIPT_PATH [--trace-out PATH] [--failover-out PATH]
                        [--prof-out PATH]

Runs against a ``repro cluster`` (router + 2 shards, R=2 replica
placement) booted by the workflow, through the same
:class:`repro.client.ScanClient` real callers use.  The contract
exercised end to end:

* the router aggregates a healthy fleet in ``/v1/healthz`` and reports
  its replica factor and verdict-cache state,
* a scan through the router returns a well-formed verdict, and the
  former v0 paths (``GET /healthz``, ``POST /scan``) answer a plain 404
  envelope with no ``Deprecation`` header,
* a traced request produces ONE merged trace spanning both processes
  (``router.scan`` + the shard's ``http.scan``, shard-annotated),
  written to ``--trace-out`` as a workflow artifact,
* SIGKILLing a shard mid-run loses no requests **with client retries
  disabled** — the router's replica failover alone absorbs the loss,
  ``repro_router_failovers_total`` ticks, and the supervisor replaces
  the dead shard under the same id on a fresh pid.  The evidence
  (fleet before/after, failover counters) is written to
  ``--failover-out`` as a workflow artifact,
* after the failover settles, the observability plane agrees: ``/v1/status``
  reports every shard healthy with every SLO back to ``ok`` (a non-empty
  SLO block — the states are earned, not vacuous), the federated
  ``/v1/metrics?aggregate=sum`` view answers, and a ``/v1/debug/prof``
  capture writes collapsed stacks to ``--prof-out`` as a workflow
  artifact.

Exits non-zero (with the failure printed) on any violation.
"""

import http.client
import json
import os
import pathlib
import signal
import sys
import time

# CI invokes this script directly (no PYTHONPATH); the repo layout is fixed.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.client import ScanAPIError, ScanClient  # noqa: E402

TRACE_ID = "d2" * 16
TRACEPARENT = f"00-{TRACE_ID}-{'cd' * 8}-01"


def wait_up(client, timeout_s=120.0):
    deadline = time.time() + timeout_s
    while True:
        try:
            health = client.healthz()
            if health.get("n_healthy") == health.get("n_shards"):
                return health
        except ScanAPIError:
            pass
        if time.time() > deadline:
            raise SystemExit(f"cluster did not come up within {timeout_s:.0f}s")
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
    """One traceparent, two processes, one merged span tree."""
    verdict = client.scan(source + "\n// cluster probe", name="traced.js", traceparent=TRACEPARENT)
    assert verdict.trace_id == TRACE_ID, verdict.raw
    merged = client.trace(TRACE_ID)
    names = [span["name"] for span in merged["spans"]]
    assert "router.scan" in names, names  # the router's hop
    assert "http.scan" in names, names  # the shard's hop, same trace id
    shard_spans = [s for s in merged["spans"] if s.get("attributes", {}).get("shard")]
    assert shard_spans, "expected spans annotated with their shard id"
    assert merged["shards"], merged
    assert merged["tree"], merged
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
    print(
        f"trace: {merged['n_spans']} spans across router + {merged['shards']} "
        f"under {TRACE_ID}, written to {out_path}"
    )


def failover_counts(client):
    """``repro_router_failovers_total`` per reason, from router metrics."""
    counts = {}
    for line in client.metrics_text().splitlines():
        if line.startswith("repro_router_failovers_total{"):
            reason = line.split('reason="', 1)[1].split('"', 1)[0]
            counts[reason] = int(line.rsplit(" ", 1)[-1])
    return counts


def kill_and_failover(client, base_url, source, failover_out=None):
    """SIGKILL one shard; replica failover absorbs it; supervisor replaces it."""
    before = {s["shard"]: s for s in client.healthz()["shards"]}
    failovers_before = failover_counts(client)
    victim = before["shard-0"]
    os.kill(victim["pid"], signal.SIGKILL)
    print(f"killed {victim['shard']} (pid {victim['pid']})")

    # Issued straight through the kill window WITHOUT client retries: with
    # R=2 placement every slot the dead primary owned has a live replica,
    # so the router alone keeps every request succeeding.
    no_retry = ScanClient(base_url, timeout_s=60.0, retries=0)
    for i in range(8):
        verdict = no_retry.scan(source + f"\n// failover {i}", name=f"failover-{i}.js")
        assert verdict.verdict in ("benign", "malicious"), verdict.raw
    print("failover: 8/8 scans succeeded across the kill window, client retries off")

    failovers_after = failover_counts(client)
    failed_over = sum(failovers_after.values()) - sum(failovers_before.values())
    assert failed_over >= 1, (
        f"expected >=1 replica failover after the kill, counters {failovers_after}"
    )
    print(f"router failovers during the kill window: {failed_over} ({failovers_after})")

    deadline = time.time() + 120
    while True:
        shards = {s["shard"]: s for s in client.healthz()["shards"]}
        shard = shards[victim["shard"]]
        if shard["healthy"] and shard["restarts"] >= 1 and shard["pid"] != victim["pid"]:
            break
        if time.time() > deadline:
            raise SystemExit(f"{victim['shard']} was not replaced within 120s: {shard}")
        time.sleep(0.5)
    health = client.healthz()
    assert health["status"] == "ok" and health["n_healthy"] == health["n_shards"], health
    print(f"replacement: {shard['shard']} back on pid {shard['pid']} "
          f"(restarts={shard['restarts']}), fleet {health['n_healthy']}/{health['n_shards']}")

    verdict = client.scan(source, name="after-replacement.js")
    assert verdict.verdict in ("benign", "malicious"), verdict.raw

    if failover_out:
        evidence = {
            "victim": {"shard": victim["shard"], "pid": victim["pid"]},
            "kill_window_scans": {"requests": 8, "errors": 0, "client_retries": 0},
            "router_failovers_before": failovers_before,
            "router_failovers_after": failovers_after,
            "fleet_before": sorted(before),
            "fleet_after": {
                s["shard"]: {
                    "pid": s["pid"],
                    "healthy": s["healthy"],
                    "state": s.get("state"),
                    "restarts": s.get("restarts"),
                }
                for s in health["shards"]
            },
        }
        with open(failover_out, "w", encoding="utf-8") as handle:
            json.dump(evidence, handle, indent=2)
        print(f"failover evidence written to {failover_out}")


def obs_check(client, prof_out=None):
    """The fleet pane after the dust settles: status, SLOs, federation, prof."""
    deadline = time.time() + 60
    while True:
        status = client.status()
        if (
            status["n_healthy"] == status["n_shards"]
            and status["slo"]
            and all(slo["state"] == "ok" for slo in status["slo"])
        ):
            break
        if time.time() > deadline:
            raise SystemExit(f"SLOs never settled back to all-ok after failover: {status}")
        time.sleep(0.5)
    assert status["status"] == "ok", status
    assert status["scrape"]["members"], status
    assert len(status["fleet"]) == status["n_shards"], status
    for slo in status["slo"]:
        assert slo["objective"], slo
        assert slo["burn_rate"]["fast"] < 6.0, slo  # nowhere near a warn
    print("status: fleet {}/{} healthy, SLOs {}".format(
        status["n_healthy"], status["n_shards"],
        {slo["name"]: slo["state"] for slo in status["slo"]},
    ))

    merged = client.metrics_text(aggregate="sum")
    assert "repro_http_requests_total" in merged, merged[:400]
    assert "repro_build_info" in merged, merged[:400]
    print(f"federation: aggregated exposition ok ({len(merged.splitlines())} lines)")

    if prof_out:
        profile = client.prof(seconds=2.0)
        assert profile.startswith("# wall-clock profile:"), profile[:120]
        with open(prof_out, "w", encoding="utf-8") as handle:
            handle.write(profile)
        print(f"profile: collapsed stacks written to {prof_out}")


def main(base_url, script_path, extra):
    client = ScanClient(base_url, timeout_s=60.0, retries=3)
    health = wait_up(client)
    assert health["status"] == "ok" and health["role"] == "router", health
    assert health["n_shards"] >= 2, health
    assert health["replicas"] >= 2, health  # the failover check depends on R>=2
    assert "verdict_cache" in health, health
    print("healthz:", health)

    version = client.version()
    assert version["service"] == "repro.serve.router", version

    with open(script_path, encoding="utf-8") as handle:
        source = handle.read()
    verdict = client.scan(source, name=script_path)
    print("verdict:", verdict.raw)
    assert verdict.verdict in ("benign", "malicious"), verdict.raw
    # Every shard booted from the same model dir; the verdict must carry
    # that fleet-wide fingerprint.
    fingerprints = {s["model_fingerprint"] for s in health["shards"]}
    assert fingerprints == {verdict.model_fingerprint}, (fingerprints, verdict.raw)

    text = client.metrics_text()
    assert "repro_router_forwarded_total" in text, text[:400]
    assert "repro_http_requests_total" in text, text[:400]
    print("metrics: ok ({} lines)".format(len(text.splitlines())))
    former_aliases_gone(client)

    if "--trace-out" in extra:
        trace_check(client, source, extra[extra.index("--trace-out") + 1])
    failover_out = None
    if "--failover-out" in extra:
        failover_out = extra[extra.index("--failover-out") + 1]
    kill_and_failover(client, base_url, source, failover_out=failover_out)
    prof_out = None
    if "--prof-out" in extra:
        prof_out = extra[extra.index("--prof-out") + 1]
    obs_check(client, prof_out=prof_out)
    print("cluster smoke: all checks passed")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
