"""Replicated shard tier under fire — recorded in BENCH_cluster_replication.json.

Not a paper table: this bench covers the ROADMAP's production-service
direction.  Two claims:

* **replica failover** — with R=2 placement, SIGKILLing a shard in the
  middle of a load run yields **zero failed client requests with client
  retries off**: the router's replica set, not the client's retry loop,
  absorbs the loss (the older BENCH_cluster_scaling kill bench needed
  ``retries=2`` for the same guarantee), and the failovers are visible
  in ``repro_router_failovers_total``.
* **queue-depth autoscaling** — the scaling policy, driven through a
  simulated load wave on a fake clock, grows the fleet under sustained
  pressure, respects cool-down and the hysteresis dead band, and drains
  back to the floor when the wave passes.
"""

import json
import os
import pathlib

import pytest

from repro.bench import bench_params, default_jsrevealer_config
from repro.client import ScanClient
from repro.core import JSRevealer, save_detector
from repro.datasets import experiment_split
from repro.serve import (
    SCALE_DOWN,
    SCALE_UP,
    AutoscaleConfig,
    Autoscaler,
    BackgroundCluster,
    ClusterConfig,
    RouterConfig,
    run_load,
)

from .test_serve_bench import ShardKiller

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def replication_split():
    params = bench_params()
    return experiment_split(
        seed=0,
        pretrain_per_class=params["pretrain"],
        train_per_class=params["train"],
        test_per_class=min(params["test"], 20),
        realistic=True,
    )


@pytest.fixture(scope="module")
def saved_model_dir(replication_split, tmp_path_factory):
    detector = JSRevealer(default_jsrevealer_config())
    detector.pretrain(replication_split.pretrain.sources, replication_split.pretrain.labels)
    detector.fit(replication_split.train.sources, replication_split.train.labels)
    model_dir = tmp_path_factory.mktemp("replication-model") / "model"
    save_detector(detector, model_dir)
    return str(model_dir)


def simulate_autoscale_wave():
    """Drive the autoscaler through a load wave on a fake clock.

    Depth profile: 10s mid-band warm-up (the hysteresis dead band must
    hold the fleet steady), 50s of heavy pressure, then a long idle tail.
    Returns the decision timeline and the fleet-size trajectory.
    """
    clock = {"now": 0.0}
    config = AutoscaleConfig(
        min_shards=1, max_shards=4, up_queue_depth=8.0, down_queue_depth=1.0,
        sustain_s=5.0, cooldown_s=30.0,
    )
    scaler = Autoscaler(config, clock=lambda: clock["now"])

    def depth_at(t):
        if t < 10:
            return 4.0  # inside the dead band: no action allowed
        if t < 60:
            return 20.0  # the wave
        return 0.5  # idle tail

    n = 2
    decisions = []
    trajectory = []
    for tick in range(250):
        clock["now"] = float(tick)
        snapshot = [
            {"shard": f"shard-{i}", "healthy": True, "state": "ready",
             "queue_depth": depth_at(tick)}
            for i in range(n)
        ]
        decision = scaler.observe(snapshot)
        if decision == SCALE_UP:
            n += 1
            decisions.append({"t": tick, "action": "up", "n_shards": n})
        elif decision == SCALE_DOWN:
            n -= 1
            decisions.append({"t": tick, "action": "down", "n_shards": n})
        trajectory.append(n)
    return config, decisions, trajectory


@pytest.mark.table
def test_replica_failover_and_autoscale(benchmark, saved_model_dir, replication_split):
    sources = replication_split.test.sources[:16]
    scripts = [(f"<replica:{i}>", source) for i, source in enumerate(sources)]
    config = ClusterConfig(
        model_dir=saved_model_dir,
        n_shards=2,
        port=0,
        # The verdict cache would absorb the repeat passes and hide the
        # failover path this bench exists to measure.
        router=RouterConfig(verdict_cache_size=0),
    )

    def run():
        with BackgroundCluster(config) as cluster:
            client = ScanClient(cluster.url, retries=0)
            victim = client.healthz()["shards"][0]
            killer = ShardKiller(client, victim["pid"], len(scripts) * 3)
            killer.start()
            # retries=0 is the whole point: the CLIENT never retries —
            # any surviving request survived because the ROUTER failed
            # it over to the slot's replica.
            report = run_load(
                cluster.host, cluster.port, scripts, concurrency=8, repeats=3, retries=0
            )
            killer.load_done.set()
            killer.join()
            metrics = client.metrics_text()
            health = client.healthz()
        return report, metrics, health, victim, killer

    report, metrics, health, victim, killer = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nreplica failover under load: " + report.summary())

    failovers = {
        line.split('reason="', 1)[1].split('"', 1)[0]: int(line.rsplit(" ", 1)[-1])
        for line in metrics.splitlines()
        if line.startswith("repro_router_failovers_total{")
    }
    total_failovers = sum(failovers.values())

    assert report.errors == 0, report.summary()
    assert report.requests == len(scripts) * 3
    killer.assert_killed_under_load(report.requests)
    assert total_failovers >= 1, "the kill must be visible as replica failovers"
    victim_after = {s["shard"]: s for s in health["shards"]}[victim["shard"]]
    assert victim_after["restarts"] >= 1 or victim_after["pid"] != victim["pid"]

    scale_config, decisions, trajectory = simulate_autoscale_wave()
    ups = [d for d in decisions if d["action"] == "up"]
    downs = [d for d in decisions if d["action"] == "down"]
    assert ups, "sustained pressure must grow the fleet"
    assert downs, "a passed wave must shrink the fleet again"
    assert max(trajectory) <= scale_config.max_shards
    assert min(trajectory) >= scale_config.min_shards
    assert trajectory[-1] == scale_config.min_shards  # drained back to the floor
    assert all(n == 2 for n in trajectory[:10]), "dead band must hold the fleet steady"
    # Cool-down: consecutive actions are at least cooldown_s apart.
    times = [d["t"] for d in decisions]
    assert all(b - a >= scale_config.cooldown_s for a, b in zip(times, times[1:]))

    record = {
        "bench": "cluster_replication",
        "source": "benchmarks/test_cluster_replication.py::test_replica_failover_and_autoscale",
        "cores": len(os.sched_getaffinity(0)),
        "params": {
            **bench_params(),
            "n_sources": len(sources),
            "concurrency": 8,
            "repeats": 3,
            "client_retries": 0,
            "replicas": 2,
        },
        "failover": {
            "requests": report.requests,
            "errors": report.errors,
            "throughput_rps": round(report.throughput_rps, 2),
            "latency_p50_ms": round(report.latency_ms(0.50), 2),
            "latency_p95_ms": round(report.latency_ms(0.95), 2),
            "latency_p99_ms": round(report.latency_ms(0.99), 2),
            "router_failovers_total": total_failovers,
            "router_failovers_by_reason": failovers,
            "victim": victim["shard"],
            "answered_at_kill": int(killer.answered_at_kill),
        },
        "autoscale_simulation": {
            "config": {
                "min_shards": scale_config.min_shards,
                "max_shards": scale_config.max_shards,
                "up_queue_depth": scale_config.up_queue_depth,
                "down_queue_depth": scale_config.down_queue_depth,
                "sustain_s": scale_config.sustain_s,
                "cooldown_s": scale_config.cooldown_s,
            },
            "decisions": decisions,
            "peak_shards": max(trajectory),
            "final_shards": trajectory[-1],
        },
    }
    (REPO_ROOT / "BENCH_cluster_replication.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
