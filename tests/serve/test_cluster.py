"""End-to-end tests for the sharded scan tier: router + supervisor + shards.

One real cluster per module — two shard daemons spawned as subprocesses
from a saved model, one router in front — driven through the public
:class:`~repro.client.ScanClient`.  Covers the acceptance contract:
verdicts through the router match a single daemon, affinity holds, a
SIGKILLed shard is replaced with zero failed (retried) requests, and a
rolling reload bumps every shard's epoch without downtime.
"""

import http.client
import json
import os
import re
import signal
import time

import pytest

from repro.client import ScanAPIError, ScanClient
from repro.core import JSRevealer, JSRevealerConfig, load_detector, save_detector
from repro.datasets import experiment_split
from repro.serve import BackgroundCluster, BackgroundServer, ClusterConfig, RouterConfig, ServeConfig


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


def _train(split, seed):
    det = JSRevealer(
        JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=seed)
    )
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


@pytest.fixture(scope="module")
def model_dirs(split, tmp_path_factory):
    """Two saved models with distinct fingerprints (boot + reload target)."""
    root = tmp_path_factory.mktemp("models")
    save_detector(_train(split, seed=7), root / "a")
    save_detector(_train(split, seed=11), root / "b")
    return str(root / "a"), str(root / "b")


@pytest.fixture(scope="module")
def cluster(model_dirs, tmp_path_factory):
    config = ClusterConfig(
        model_dir=model_dirs[0],
        n_shards=2,
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("shared-cache")),
        router=RouterConfig(max_body_bytes=64 * 1024, request_timeout_s=60.0),
    )
    with BackgroundCluster(config) as background:
        yield background


@pytest.fixture(scope="module")
def client(cluster):
    return ScanClient(cluster.url, timeout_s=60.0, retries=2)


def http_raw(cluster, method, path, payload=None, raw_body=None):
    connection = http.client.HTTPConnection(cluster.host, cluster.port, timeout=60)
    body = raw_body if raw_body is not None else (
        json.dumps(payload) if payload is not None else None
    )
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    status, header_map = response.status, {k.lower(): v for k, v in response.getheaders()}
    connection.close()
    return status, header_map, data


def wait_for(predicate, timeout_s=90.0, poll_s=0.25):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


# ----------------------------------------------------------------- basics


def test_healthz_aggregates_both_shards(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["role"] == "router"
    assert health["n_shards"] == 2 and health["n_healthy"] == 2
    shards = {shard["shard"]: shard for shard in health["shards"]}
    assert set(shards) == {"shard-0", "shard-1"}
    for shard in shards.values():
        assert shard["healthy"] is True
        assert shard["pid"] > 0 and shard["port"] > 0
        assert shard["epoch"] == 0


def test_version_reports_router(client):
    version = client.version()
    assert version["service"] == "repro.serve.router"
    assert version["n_shards"] == 2


def test_scan_affinity_same_source_same_shard(cluster, split):
    source = split.test.sources[0]
    seen = set()
    for _ in range(3):
        status, headers, _body = http_raw(cluster, "POST", "/v1/scan", {"source": source})
        assert status == 200
        seen.add(headers["x-shard"])
    assert len(seen) == 1  # consistent hashing keeps the key on one shard
    assert seen.pop() in ("shard-0", "shard-1")


def test_scans_spread_across_shards(cluster, split):
    shards = set()
    for source in split.test.sources:
        status, headers, _body = http_raw(cluster, "POST", "/v1/scan", {"source": source})
        assert status == 200
        shards.add(headers["x-shard"])
    assert shards == {"shard-0", "shard-1"}


def test_verdicts_match_single_daemon(client, model_dirs, split):
    """The acceptance bar: routed verdicts are identical to one daemon's."""
    detector = load_detector(model_dirs[0])
    with BackgroundServer(detector, ServeConfig(port=0)) as single:
        solo = ScanClient(single.url, retries=0)
        for source in split.test.sources[:8]:
            through_router = client.scan(source).raw
            direct = solo.scan(source).raw
            # trace ids are per-request, cache_hit depends on warmth,
            # stage_ms is wall-clock (and zeroed on cache hits), and the
            # "trace" provenance block rides along only on head-sampled
            # requests — all transport/observability artifacts, not
            # verdict content.
            for volatile in ("trace_id", "cache_hit", "stage_ms", "elapsed_ms", "trace"):
                through_router.pop(volatile, None)
                direct.pop(volatile, None)
            assert through_router == direct


def test_batch_fans_out_and_merges_in_order(client, split):
    scripts = [
        split.test.sources[i] if i % 2 == 0 else {"source": split.test.sources[i], "name": f"s{i}.js"}
        for i in range(6)
    ]
    batch = client.scan_batch(scripts, threshold=0.5)
    assert batch["n_files"] == 6
    assert len(batch["results"]) == 6
    # Order is the caller's: each position matches a one-shot routed scan.
    for i, result in enumerate(batch["results"]):
        single = client.scan(split.test.sources[i])
        assert result["label"] == single.label
        assert result["probability"] == single.probability
    assert batch["model_fingerprint"] == single.model_fingerprint


def test_batch_duplicates_deduplicated_on_shard(client, cluster):
    """In-batch dedup, proven by counter: 4 copies of a fresh script in one
    batch reach the owning shard once and dedup in-batch there."""
    fresh = f"var unique_{os.getpid()} = {time.time_ns()};"
    batch = client.scan_batch([fresh, fresh, fresh, fresh])
    assert batch["n_files"] == 4
    # Identical verdict content; the per-position name and the compute
    # bookkeeping (who paid the stage cost, who rode the dedup) differ.
    volatile = {"path", "stage_ms", "cache_hit"}
    assert len(
        {json.dumps({k: v for k, v in r.items() if k not in volatile}, sort_keys=True)
         for r in batch["results"]}
    ) == 1
    dedup_total = 0
    for shard in client.healthz()["shards"]:
        shard_client = ScanClient(f"http://{cluster.host}:{shard['port']}", retries=0)
        match = re.search(
            r'repro_scan_dedup_total\{scope="batch"\} (\d+)', shard_client.metrics_text()
        )
        if match:
            dedup_total += int(match.group(1))
    assert dedup_total >= 3


# ------------------------------------------------------------ golden errors


def test_router_golden_400(cluster):
    status, _headers, body = http_raw(cluster, "POST", "/v1/scan", raw_body="{not json")
    assert status == 400
    payload = json.loads(body)
    assert payload["api_version"] == "v1"
    assert payload["error"]["code"] == "bad_request"


def test_router_golden_404(cluster):
    status, _headers, body = http_raw(cluster, "GET", "/v1/no/such/route")
    assert status == 404
    assert json.loads(body)["error"]["code"] == "not_found"


def test_router_golden_405(cluster):
    # A wrong verb on a routed path is 405, and Allow names the route's verbs.
    for method, path, allow in [
        ("GET", "/v1/scan", "POST"),
        ("POST", "/v1/healthz", "GET"),
        ("PUT", "/v1/debug/traces", "GET"),
    ]:
        status, headers, body = http_raw(cluster, method, path)
        assert status == 405, (method, path)
        assert headers["allow"] == allow, (method, path)
        assert json.loads(body)["error"]["code"] == "method_not_allowed"


def test_router_golden_413(cluster):
    big = {"source": "x" * (128 * 1024)}
    status, _headers, body = http_raw(cluster, "POST", "/v1/scan", big)
    assert status == 413
    assert json.loads(body)["error"]["code"] == "payload_too_large"


def test_router_former_aliases_answer_404(cluster, split):
    # The unprefixed v0 paths are gone: a plain 404 envelope, nothing forwarded.
    for method, path, payload in [
        ("POST", "/scan", {"source": split.test.sources[1]}),
        ("GET", "/healthz", None),
    ]:
        status, headers, body = http_raw(cluster, method, path, payload)
        assert status == 404, (method, path)
        assert "deprecation" not in headers and "x-shard" not in headers
        envelope = json.loads(body)
        assert envelope["api_version"] == "v1"
        assert envelope["error"]["code"] == "not_found"


def test_shard_errors_pass_through_as_envelopes(client):
    with pytest.raises(ScanAPIError) as caught:
        client.scan_batch([123])  # invalid entry → 400 from the router
    assert caught.value.status == 400
    assert caught.value.code == "bad_request"


# ------------------------------------------------------------ cross-process


def test_cross_process_trace_merges_router_and_shard(client, cluster, split):
    trace_id = os.urandom(16).hex()
    traceparent = f"00-{trace_id}-{os.urandom(8).hex()}-01"  # sampled: always records
    verdict = client.scan(split.test.sources[2], traceparent=traceparent)
    assert verdict.trace_id == trace_id
    merged = client.trace(trace_id)
    assert merged["trace_id"] == trace_id
    names = [span["name"] for span in merged["spans"]]
    assert "router.scan" in names  # the router's hop
    assert "http.scan" in names  # the shard's hop, same trace id
    shard_spans = [s for s in merged["spans"] if s.get("attributes", {}).get("shard")]
    assert shard_spans, "expected spans annotated with their shard id"
    assert merged["shards"]  # at least one shard contributed
    assert merged["tree"]


# ----------------------------------------------------- failure + replacement


def test_sigkill_shard_is_replaced_with_zero_failed_requests(client, cluster, split):
    before = {s["shard"]: s for s in client.healthz()["shards"]}
    victim = before["shard-0"]
    os.kill(victim["pid"], signal.SIGKILL)
    # Requests issued right through the kill window must all succeed —
    # the router retries the dead shard's keys onto the survivor.
    for source in split.test.sources[:6]:
        verdict = client.scan(source)
        assert verdict.verdict in ("malicious", "benign")
    # The supervisor replaces the shard under the same id on a fresh pid.
    def replaced():
        shards = {s["shard"]: s for s in client.healthz()["shards"]}
        shard = shards["shard-0"]
        return shard["healthy"] and shard["restarts"] >= 1 and shard["pid"] != victim["pid"]

    assert wait_for(replaced, timeout_s=90.0), "shard-0 was not replaced in time"
    health = client.healthz()
    assert health["status"] == "ok" and health["n_healthy"] == 2
    # And the replacement serves scans again.
    assert client.scan(split.test.sources[0]).verdict in ("malicious", "benign")


# -------------------------------------------------------------- rolling roll


def test_rolling_reload_bumps_every_shard_epoch(client, model_dirs, split):
    fingerprint_before = client.scan(split.test.sources[0]).model_fingerprint
    answer = client.admin_reload(model_dirs[1])
    assert answer["status"] == "reloaded"
    assert len(answer["shards"]) == 2
    for rolled in answer["shards"]:
        assert rolled["epoch"] >= 1
        assert rolled["model_fingerprint"] != fingerprint_before

    def all_rolled():
        return all(s["epoch"] and s["epoch"] >= 1 for s in client.healthz()["shards"])

    assert wait_for(all_rolled, timeout_s=30.0)
    after = client.scan(split.test.sources[0])
    assert after.model_fingerprint != fingerprint_before
    assert after.verdict in ("malicious", "benign")


def test_rolling_reload_bad_model_dir_is_a_400(client):
    with pytest.raises(ScanAPIError) as caught:
        client.admin_reload("/no/such/model")
    assert caught.value.status == 400
    assert caught.value.code == "bad_request"
    # The fleet keeps serving on its current epoch.
    assert client.healthz()["n_healthy"] == 2


# --------------------------------------------- replication + verdict cache


def test_kill_primary_mid_load_failover_counted_and_zero_failures(client, cluster, split):
    victim = {s["shard"]: s for s in client.healthz()["shards"]}["shard-1"]
    os.kill(victim["pid"], signal.SIGKILL)
    # Every key's replica set spans both shards (R=2 over 2): requests
    # issued straight through the kill window fail over to the survivor
    # with zero client-visible failures.  Fresh sources, so none of them
    # can be answered from the router's verdict cache.
    for i in range(12):
        verdict = client.scan(f"/* failover probe {i} */ document.write({i})")
        assert verdict.verdict in ("malicious", "benign")
    metrics = client.metrics_text()
    failovers = sum(
        int(line.rsplit(" ", 1)[-1])
        for line in metrics.splitlines()
        if line.startswith("repro_router_failovers_total{")
    )
    assert failovers >= 1, "expected at least one recorded replica failover"

    def replaced():
        shard = {s["shard"]: s for s in client.healthz()["shards"]}["shard-1"]
        return shard["healthy"] and shard["pid"] != victim["pid"]

    assert wait_for(replaced, timeout_s=90.0), "shard-1 was not replaced in time"


def test_verdict_cache_hit_and_reload_invalidation(client, cluster, model_dirs, split):
    source = "/* cache-probe */ eval(atob('YWxlcnQoMSk='))"
    status, miss_headers, miss_body = http_raw(cluster, "POST", "/v1/scan", {"source": source})
    assert status == 200
    assert "x-router-cache" not in miss_headers
    served_by = miss_headers["x-shard"]

    status, hit_headers, hit_body = http_raw(cluster, "POST", "/v1/scan", {"source": source})
    assert status == 200
    assert hit_headers["x-router-cache"] == "hit"
    assert hit_headers["x-shard"] == served_by  # affinity attribution replayed
    miss_data = json.loads(miss_body)["data"]
    hit_data = json.loads(hit_body)["data"]
    assert hit_data["verdict"] == miss_data["verdict"]
    assert hit_data["probability"] == miss_data["probability"]
    assert hit_data["trace_id"] is None  # a cached answer has no trace of its own

    health = client.healthz()
    assert health["replicas"] == 2
    assert health["verdict_cache"]["size"] >= 1
    epoch_before = health["verdict_cache"]["epoch"]

    # A rolling reload swaps the model: every cached verdict must die
    # with the epoch, so the next scan is a fresh forward.
    client.admin_reload(model_dirs[1])
    assert client.healthz()["verdict_cache"]["epoch"] == epoch_before + 1
    status, headers, _body = http_raw(cluster, "POST", "/v1/scan", {"source": source})
    assert status == 200
    assert "x-router-cache" not in headers


def test_mixed_epoch_mid_reload_reports_per_shard(client, cluster, model_dirs, split):
    # Roll ONE shard directly (what the fleet looks like mid-reload) and
    # assert the mixed state is faithfully reported per shard: fleet
    # snapshot epochs, per-shard repro_model_epoch gauges, and verdicts
    # attributed to the shard whose model actually produced them.
    fleet = {s["shard"]: s for s in client.healthz()["shards"]}
    rolled_client = ScanClient.for_shard(fleet["shard-0"], timeout_s=60.0)
    stale_client = ScanClient.for_shard(fleet["shard-1"], timeout_s=60.0)
    answer = rolled_client.admin_reload(model_dirs[0])
    rolled_epoch = answer["epoch"]
    stale_epoch = stale_client.healthz()["epoch"]
    assert rolled_epoch > stale_epoch

    # Each shard's own metrics endpoint carries its own epoch gauge.
    assert f"repro_model_epoch {rolled_epoch}" in rolled_client.metrics_text()
    assert f"repro_model_epoch {stale_epoch}" in stale_client.metrics_text()

    # The router's fleet snapshot converges on the mixed truth.
    def snapshot_mixed():
        shards = {s["shard"]: s for s in client.healthz()["shards"]}
        return (
            shards["shard-0"]["epoch"] == rolled_epoch
            and shards["shard-1"]["epoch"] == stale_epoch
        )

    assert wait_for(snapshot_mixed, timeout_s=30.0)
    fingerprints = {
        s["shard"]: s["model_fingerprint"] for s in client.healthz()["shards"]
    }
    assert fingerprints["shard-0"] != fingerprints["shard-1"]

    # Mid-reload scans carry the fingerprint of the shard that answered.
    seen = set()
    for i in range(12):
        payload = {"source": f"/* mixed-epoch probe {i} */ alert({i})"}
        status, headers, body = http_raw(cluster, "POST", "/v1/scan", payload)
        assert status == 200
        shard = headers["x-shard"]
        assert json.loads(body)["data"]["model_fingerprint"] == fingerprints[shard]
        seen.add(shard)
    assert seen == {"shard-0", "shard-1"}  # both epochs actually answered

    # Finish the roll so later tests see a consistent fleet again.
    client.admin_reload(model_dirs[1])

    def converged():
        shards = client.healthz()["shards"]
        prints = {s["model_fingerprint"] for s in shards}
        return len(prints) == 1 and all(s["healthy"] for s in shards)

    assert wait_for(converged, timeout_s=30.0)


def test_scale_up_and_down_through_controller(client, cluster, split):
    # Drive the controller's apply_scale directly (the policy half is
    # fake-clock tested in test_autoscale.py): scaling up must add a
    # healthy shard the ring routes to; scaling down must drain it from
    # the ring *before* the process dies so no request hits a corpse.
    import asyncio

    from repro.serve import SCALE_DOWN, SCALE_UP

    controller = cluster.controller

    def apply(decision):
        return asyncio.run_coroutine_threadsafe(
            controller.apply_scale(decision), cluster._loop
        ).result(120)

    added = apply(SCALE_UP)
    assert added == "shard-2"
    assert wait_for(
        lambda: any(
            s["shard"] == "shard-2" and s["healthy"]
            for s in client.healthz()["shards"]
        )
    )
    health = client.healthz()
    assert health["n_shards"] == 3
    assert {s["shard"] for s in health["shards"]} == {"shard-0", "shard-1", "shard-2"}
    for i, source in enumerate(split.test.sources[:4]):
        assert client.scan(source).verdict in ("malicious", "benign")

    removed = apply(SCALE_DOWN)
    assert removed == "shard-2"
    assert wait_for(
        lambda: {s["shard"] for s in client.healthz()["shards"]} == {"shard-0", "shard-1"}
    )
    assert client.healthz()["n_shards"] == 2
    # The restored two-shard fleet still answers everything.
    for source in split.test.sources[:4]:
        assert client.scan(source).verdict in ("malicious", "benign")


def test_bind_host_threads_through_supervisor_and_client(monkeypatch):
    # --bind must reach the spawned shard's --host argv, the spec the
    # router dials, and the URL ScanClient.for_shard builds — one knob,
    # one host, no loopback assumption baked in anywhere else.
    import repro.serve.supervisor as supervisor_mod

    captured = {}

    class FakeProcess:
        pid = 999

        def poll(self):
            return None

        def terminate(self):
            pass

        def wait(self, timeout=None):
            return 0

    def fake_popen(argv, env=None, stdout=None):
        captured["argv"] = argv
        captured["env"] = env
        return FakeProcess()

    monkeypatch.setattr(supervisor_mod.subprocess, "Popen", fake_popen)
    supervisor = supervisor_mod.ShardSupervisor(
        model_dir="unused", n_shards=1, bind="127.0.0.1"
    )
    spec = supervisor._spawn("shard-0")
    assert spec.host == "127.0.0.1"
    host_flag = captured["argv"].index("--host")
    assert captured["argv"][host_flag + 1] == "127.0.0.1"
    assert captured["env"]["REPRO_SHARD_ID"] == "shard-0"

    from repro.serve.cluster import ClusterConfig as CC
    controller_config = CC(model_dir="unused", n_shards=1, bind="10.0.0.7")
    assert controller_config.bind == "10.0.0.7"

    shard_entry = {"shard": "shard-0", "host": spec.host, "port": spec.port}
    client = ScanClient.for_shard(shard_entry)
    assert client.host == "127.0.0.1"
    assert client.port == spec.port
