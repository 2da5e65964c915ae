"""Deterministic router fault-matrix tests against canned shards.

The real cluster tests (test_cluster.py) exercise live shard daemons;
here each "shard" is a tiny asyncio server answering one canned
response, so every branch of the retry loop — pass-through, retry to
the next preference, brownout — is forced exactly, with no timing.
"""

import asyncio
import json

import pytest

from repro.pipeline import content_key
from repro.serve import HashRing, RouterConfig, ScanRouter
from repro.serve.api import ERROR_CODES, EnvelopeError, parse_envelope
from repro.serve.http import fetch
from repro.serve.supervisor import free_port

SOURCE = "alert('router-unit')"
KEY = content_key(SOURCE)


def preference_order(n_shards=2):
    """The key's shard fall-through order, as the router will compute it."""
    ring = HashRing([f"shard-{i}" for i in range(n_shards)], vnodes=64)
    return list(ring.preference(KEY))


class FakeSpec:
    pid = 0

    def __init__(self, host, port):
        self.host = host
        self.port = port


class FakeSupervisor:
    """Just enough supervisor surface for ScanRouter."""

    def __init__(self, ports):
        self.n_shards = len(ports)
        self.shards = {f"shard-{i}": FakeSpec("127.0.0.1", port) for i, port in enumerate(ports)}
        self.unhealthy = set()
        self.suspected = []

    def mark_suspect(self, shard_id):
        self.suspected.append(shard_id)

    def snapshot(self):
        return [
            {"shard": shard_id, "healthy": shard_id not in self.unhealthy}
            for shard_id in sorted(self.shards)
        ]


async def start_canned(response_bytes):
    """A one-response-per-connection shard stand-in; counts connections
    and keeps each request body."""
    hits = {"count": 0, "bodies": []}

    async def handle(reader, writer):
        hits["count"] += 1
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode("latin-1").split("\r\n"):
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            hits["bodies"].append(await reader.readexactly(length))
            writer.write(response_bytes)
            await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1], hits


async def boot(assignments, config=None):
    """``assignments``: shard_id → canned bytes, or None for a dead port."""
    servers, hits = [], {}
    ports = {}
    for shard_id, canned in assignments.items():
        if canned is None:
            ports[shard_id] = free_port()  # nobody listens: connect refused
        else:
            server, port, counter = await start_canned(canned)
            servers.append(server)
            ports[shard_id] = port
            hits[shard_id] = counter
    supervisor = FakeSupervisor([ports[f"shard-{i}"] for i in range(len(assignments))])
    # Canned shards answer exactly one request each — federation scraping
    # would consume them, so these unit routers run with it disabled.
    router = ScanRouter(
        supervisor,
        config or RouterConfig(port=0, request_timeout_s=5.0, scrape_interval_s=0),
    )
    await router.start()
    return router, supervisor, servers, hits


async def teardown(router, servers):
    await router.stop()
    for server in servers:
        server.close()
        await server.wait_closed()


async def scan_via(router):
    body = json.dumps({"source": SOURCE}).encode("utf-8")
    return await fetch("127.0.0.1", router.bound_port, "POST", "/v1/scan", body=body)


def shard_200():
    from repro.serve.api import v1_response

    return v1_response(200, {"verdict": "benign", "malicious": False, "probability": 0.1})


def shard_error(status, detail=None, headers=None):
    from repro.serve.api import v1_error_response

    return v1_error_response(status, f"canned {status}", detail=detail, extra_headers=headers)


def test_429_passes_through_without_retry():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot({
            first: shard_error(429, detail={"state": "queue_full"}, headers={"Retry-After": "1"}),
            second: shard_200(),
        })
        try:
            response = await scan_via(router)
            assert response.status == 429
            with pytest.raises(EnvelopeError) as caught:
                parse_envelope(response.status, response.body)
            assert caught.value.code == ERROR_CODES[429]
            assert response.headers["x-shard"] == first
            assert response.headers["retry-after"] == "1"
            assert hits[second]["count"] == 0  # backpressure is not shuffled
            assert supervisor.suspected == []
            assert "repro_router_retries_total 0" in router.metrics.render()
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_503_retries_onto_next_shard():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot({
            first: shard_error(503, detail={"state": "draining"}),
            second: shard_200(),
        })
        try:
            response = await scan_via(router)
            assert response.status == 200
            assert parse_envelope(response.status, response.body)["verdict"] == "benign"
            assert response.headers["x-shard"] == second
            assert hits[first]["count"] == 1
            assert first in supervisor.suspected
            assert "repro_router_retries_total 1" in router.metrics.render()
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_transport_fault_retries_onto_next_shard():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot({
            first: None,  # dead port: connect refused
            second: shard_200(),
        })
        try:
            response = await scan_via(router)
            assert response.status == 200
            assert response.headers["x-shard"] == second
            assert first in supervisor.suspected
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_400_passes_through_without_retry():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot({
            first: shard_error(400),
            second: shard_200(),
        })
        try:
            response = await scan_via(router)
            assert response.status == 400
            assert response.headers["x-shard"] == first
            assert hits[second]["count"] == 0
            assert supervisor.suspected == []
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_brownout_when_every_shard_is_unhealthy():
    async def main():
        router, supervisor, servers, _hits = await boot({
            "shard-0": shard_200(),
            "shard-1": shard_200(),
        })
        supervisor.unhealthy = {"shard-0", "shard-1"}
        try:
            response = await scan_via(router)
            assert response.status == 503
            with pytest.raises(EnvelopeError) as caught:
                parse_envelope(response.status, response.body)
            assert caught.value.code == "unavailable"
            assert caught.value.detail["state"] == "brownout"
            assert "retry-after" in response.headers
            assert "repro_router_brownouts_total 1" in router.metrics.render()
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_brownout_after_every_shard_faults():
    async def main():
        router, supervisor, servers, _hits = await boot({"shard-0": None, "shard-1": None})
        try:
            response = await scan_via(router)
            assert response.status == 503
            with pytest.raises(EnvelopeError) as caught:
                parse_envelope(response.status, response.body)
            assert caught.value.detail["state"] == "brownout"
            assert set(supervisor.suspected) == {"shard-0", "shard-1"}
        finally:
            await teardown(router, servers)

    asyncio.run(main())


# ------------------------------------------------------ replica failover


def test_primary_down_replica_serves_and_failover_is_counted():
    async def main():
        primary, replica, _third = preference_order(3)
        router, supervisor, servers, hits = await boot({
            primary: None,  # dead port: connect refused
            replica: shard_200(),
            _third: shard_200(),
        })
        try:
            response = await scan_via(router)
            assert response.status == 200
            assert response.headers["x-shard"] == replica
            assert hits[_third]["count"] == 0  # failover stays inside the replica set
            rendered = router.metrics.render()
            assert 'repro_router_failovers_total{reason="dead"} 1' in rendered
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_all_replicas_down_brownout_despite_healthy_third_shard():
    # With R=2, a key is only ever served by its two replicas: when both
    # are gone the router must brown out rather than guess a cold third
    # shard (which would also hide the outage from the operator).
    async def main():
        primary, replica, third = preference_order(3)
        router, supervisor, servers, hits = await boot({
            primary: None,
            replica: None,
            third: shard_200(),
        })
        try:
            response = await scan_via(router)
            assert response.status == 503
            with pytest.raises(EnvelopeError) as caught:
                parse_envelope(response.status, response.body)
            assert caught.value.detail["state"] == "brownout"
            assert hits[third]["count"] == 0
            assert set(supervisor.suspected) == {primary, replica}
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_exhausted_candidates_do_not_count_as_failovers():
    # The last candidate's fault has nowhere to fail over to: it is a
    # brownout, not a failover — the metric must say so.
    async def main():
        router, supervisor, servers, _hits = await boot({"shard-0": None, "shard-1": None})
        try:
            response = await scan_via(router)
            assert response.status == 503
            rendered = router.metrics.render()
            assert 'repro_router_failovers_total{reason="dead"} 1' in rendered
            assert "repro_router_brownouts_total 1" in rendered
        finally:
            await teardown(router, servers)

    asyncio.run(main())


# ------------------------------------------------------- verdict cache


def test_verdict_cache_hit_replays_shard_and_skips_forward():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot({
            first: shard_200(),
            second: shard_200(),
        })
        try:
            miss = await scan_via(router)
            assert miss.status == 200
            assert "x-router-cache" not in miss.headers
            served_by = miss.headers["x-shard"]
            upstream = hits[served_by]["count"]

            hit = await scan_via(router)
            assert hit.status == 200
            assert hit.headers["x-router-cache"] == "hit"
            assert hit.headers["x-shard"] == served_by  # affinity attribution replayed
            assert hits[served_by]["count"] == upstream  # no second forward
            data = parse_envelope(hit.status, hit.body)
            assert data["verdict"] == "benign"
            assert data["trace_id"] is None  # a cached answer has no trace
            rendered = router.metrics.render()
            assert 'repro_router_cache_total{result="hit"} 1' in rendered
            assert 'repro_router_cache_total{result="miss"} 1' in rendered
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_verdict_cache_epoch_bump_invalidates():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot({
            first: shard_200(),
            second: shard_200(),
        })
        try:
            await scan_via(router)
            assert len(router.verdicts) == 1
            router.verdicts.bump_epoch()  # what /v1/admin/reload does
            assert len(router.verdicts) == 0
            response = await scan_via(router)
            assert response.status == 200
            assert "x-router-cache" not in response.headers  # re-fetched
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_verdict_cache_keyed_on_scan_options():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot({
            first: shard_200(),
            second: shard_200(),
        })
        try:
            body = json.dumps({"source": SOURCE}).encode("utf-8")
            await fetch("127.0.0.1", router.bound_port, "POST", "/v1/scan", body=body)
            strict = json.dumps({"source": SOURCE, "threshold": 0.9}).encode("utf-8")
            response = await fetch(
                "127.0.0.1", router.bound_port, "POST", "/v1/scan", body=strict
            )
            # Different options: same content must not replay the other
            # threshold's verdict.
            assert "x-router-cache" not in response.headers
            assert len(router.verdicts) == 2
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_verdict_cache_disabled_bypasses():
    async def main():
        first, second = preference_order()
        router, supervisor, servers, hits = await boot(
            {first: shard_200(), second: shard_200()},
            config=RouterConfig(port=0, request_timeout_s=5.0, verdict_cache_size=0, scrape_interval_s=0),
        )
        try:
            served = (await scan_via(router)).headers["x-shard"]
            response = await scan_via(router)
            assert "x-router-cache" not in response.headers
            assert hits[served]["count"] == 2  # every request forwarded
            assert 'repro_router_cache_total{result="bypass"}' in router.metrics.render()
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_batch_envelope_carries_the_router_trace_id():
    from repro.serve.api import v1_response

    canned = v1_response(200, {
        "n_files": 1,
        "n_malicious": 0,
        "threshold": 0.5,
        "model_fingerprint": "canned",
        "trace_id": None,
        "results": [{"verdict": "benign", "malicious": False, "probability": 0.1}],
    })

    async def main():
        router, supervisor, servers, _hits = await boot({"shard-0": canned, "shard-1": canned})
        try:
            body = json.dumps({"scripts": [SOURCE]}).encode("utf-8")
            response = await fetch(
                "127.0.0.1", router.bound_port, "POST", "/v1/scan/batch", body=body
            )
            assert response.status == 200
            envelope = json.loads(response.body)
            assert envelope["trace_id"]
            assert envelope["trace_id"] == envelope["data"]["trace_id"]
            assert envelope["trace_id"] == response.headers["x-trace-id"]
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_batch_options_reach_the_shard():
    """A batch's options travel with every shard sub-batch, as they would
    reach one daemon: ``deobfuscate`` too, not only ``threshold``."""
    from repro.serve.api import v1_response

    canned = v1_response(200, {
        "n_files": 1,
        "n_malicious": 0,
        "threshold": 0.7,
        "model_fingerprint": "canned",
        "trace_id": None,
        "results": [{"verdict": "benign", "malicious": False, "probability": 0.1}],
    })

    async def main():
        router, supervisor, servers, hits = await boot({"shard-0": canned, "shard-1": canned})
        try:
            body = json.dumps(
                {"scripts": [SOURCE], "deobfuscate": True, "threshold": 0.7}
            ).encode("utf-8")
            response = await fetch(
                "127.0.0.1", router.bound_port, "POST", "/v1/scan/batch", body=body
            )
            assert response.status == 200
            [forwarded] = [json.loads(b) for h in hits.values() for b in h["bodies"]]
            assert forwarded == {
                "scripts": [{"source": SOURCE, "name": "<batch:0>"}],
                "deobfuscate": True,
                "threshold": 0.7,
            }
        finally:
            await teardown(router, servers)

    asyncio.run(main())


def test_trace_lookup_asks_hung_shards_at_once(monkeypatch):
    """Shards that accept and never answer cost a merged trace lookup one
    per-shard timeout in total, not one each."""
    import time

    from repro.serve import router as router_module

    timeout_s = 0.5
    monkeypatch.setattr(router_module, "SHARD_TRACE_TIMEOUT_S", timeout_s)

    async def main():
        held = []

        async def hang(reader, writer):
            held.append(writer)
            await reader.read()  # until the router gives up and disconnects

        hung = [await asyncio.start_server(hang, host="127.0.0.1", port=0) for _ in range(3)]
        supervisor = FakeSupervisor([server.sockets[0].getsockname()[1] for server in hung])
        router = ScanRouter(
            supervisor, RouterConfig(port=0, request_timeout_s=5.0, scrape_interval_s=0)
        )
        await router.start()
        try:
            started = time.monotonic()
            response = await fetch(
                "127.0.0.1", router.bound_port, "GET", f"/v1/debug/traces/{'ab' * 16}"
            )
            elapsed = time.monotonic() - started
            assert response.status == 404
            assert len(held) == 3
            assert elapsed < 2 * timeout_s, f"{elapsed:.2f}s for 3 hung shards"
        finally:
            for writer in held:
                writer.close()
            await teardown(router, hung)

    asyncio.run(main())


def test_router_healthz_reports_replicas_and_cache():
    async def main():
        router, supervisor, servers, _hits = await boot({
            "shard-0": shard_200(),
            "shard-1": shard_200(),
        })
        try:
            await scan_via(router)
            response = await fetch("127.0.0.1", router.bound_port, "GET", "/v1/healthz")
            data = parse_envelope(response.status, response.body)
            assert data["replicas"] == 2
            assert data["verdict_cache"]["size"] == 1
            assert data["verdict_cache"]["capacity"] == 1024
            assert data["verdict_cache"]["epoch"] == 0
        finally:
            await teardown(router, servers)

    asyncio.run(main())
