"""Serving-mode throughput — micro-batching vs per-request dispatch.

Not a paper table: this bench covers the ROADMAP's production-service
direction.  It boots the `repro.serve` daemon on an ephemeral port in two
configurations — ``max_batch=1`` (every request dispatched alone) and
``max_batch=8`` (micro-batching) — drives both with the stdlib load
generator, and compares against sequential in-process one-shot scans.

The shape assertion: under concurrent load, micro-batching must not lose
to per-request dispatch (it amortizes the executor hop and the shared
transform/classify stages across the batch), and both server modes must
return exactly the verdicts the in-process scanner produces.
"""

import json
import os
import pathlib
import signal
import threading
import time

import pytest

from repro.bench import (
    bench_params,
    cluster_scaling_comparison,
    default_jsrevealer_config,
    format_load_table,
    serve_throughput_comparison,
)
from repro.client import ScanClient
from repro.core import JSRevealer, save_detector
from repro.datasets import experiment_split
from repro.serve import (
    BackgroundCluster,
    BackgroundServer,
    ClusterConfig,
    RouterConfig,
    ServeConfig,
    run_load,
)


def metric_total(exposition: str, name: str, label: str = "") -> float:
    """Sum of every ``name`` sample whose label set contains ``label``."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in exposition.splitlines()
        if line.startswith((name + "{", name + " ")) and label in line
    )


class ShardKiller(threading.Thread):
    """SIGKILL one shard once the router has forwarded a third of the load.

    A fixed sleep can fire after a fast load has already finished; waiting
    on the router's ``repro_router_forwarded_total`` puts the kill inside
    the load however fast the fleet answers.  Right after the kill it reads
    how many scans the router had answered: fewer than the whole load
    proves the kill came before the last response.
    """

    def __init__(self, client: ScanClient, pid: int, n_requests: int):
        super().__init__(daemon=True)
        self.client, self.pid, self.n_requests = client, pid, n_requests
        self.load_done = threading.Event()
        self.answered_at_kill: float | None = None

    def run(self) -> None:
        while not self.load_done.is_set():
            forwarded = metric_total(self.client.metrics_text(), "repro_router_forwarded_total")
            if 3 * forwarded >= self.n_requests:
                os.kill(self.pid, signal.SIGKILL)
                self.answered_at_kill = metric_total(
                    self.client.metrics_text(), "repro_http_requests_total", 'path="/v1/scan"'
                )
                return
            time.sleep(0.005)

    def assert_killed_under_load(self, answered: int) -> None:
        assert self.answered_at_kill is not None, "the load ended before the kill fired"
        assert self.answered_at_kill < answered, (
            f"kill after the last response ({self.answered_at_kill:g} of {answered} answered)"
        )


@pytest.mark.table
def test_serve_throughput(benchmark):
    params = bench_params()
    split = experiment_split(
        seed=0,
        pretrain_per_class=params["pretrain"],
        train_per_class=params["train"],
        test_per_class=min(params["test"], 20),
        realistic=True,
    )
    detector = JSRevealer(default_jsrevealer_config())
    detector.pretrain(split.pretrain.sources, split.pretrain.labels)
    detector.fit(split.train.sources, split.train.labels)

    sources = split.test.sources[:16]
    reports = benchmark.pedantic(
        serve_throughput_comparison,
        args=(detector, sources),
        kwargs={"concurrency": 8, "repeats": 2, "max_batch": 8},
        rounds=1,
        iterations=1,
    )

    print("\n" + format_load_table(reports, title="Serving modes — throughput / latency"))

    oneshot, unbatched, batched = (
        reports["oneshot"], reports["serve_unbatched"], reports["serve_batched"],
    )
    # Equal correctness: every served verdict matches the one-shot scan.
    expected = {r.name: (r.label, r.probability) for r in oneshot.results}
    for mode_report in (unbatched, batched):
        assert mode_report.errors == 0
        for r in mode_report.results:
            assert (r.label, r.probability) == expected[r.name], r.name

    # Shape: micro-batching beats (or at minimum matches) per-request
    # dispatch under concurrent load; the 0.9 factor absorbs timer noise
    # on loaded CI machines without surrendering the ordering claim.
    assert batched.throughput_rps >= 0.9 * unbatched.throughput_rps
    # And a resident daemon at c=8 beats sequential one-shot scanning.
    assert batched.throughput_rps > oneshot.throughput_rps


@pytest.mark.table
def test_tracing_overhead(benchmark):
    """Tracing at the default sample rate is within 5% of untraced throughput.

    Boots two daemons side by side — head sampling off, and at the
    default 10% rate — and alternates measured passes between them after
    a cache-warming pass, so the guard compares steady-state dispatch
    cost in paired rounds rather than first-touch feature extraction or
    whatever the CI machine happened to be doing during one boot.
    Verdicts must match field-for-field between the modes (the stronger
    byte-identity claim for untraced payloads lives in
    tests/pipeline/test_trace_scan.py).
    """
    params = bench_params()
    split = experiment_split(
        seed=0,
        pretrain_per_class=params["pretrain"],
        train_per_class=params["train"],
        test_per_class=min(params["test"], 20),
        realistic=True,
    )
    detector = JSRevealer(default_jsrevealer_config())
    detector.pretrain(split.pretrain.sources, split.pretrain.labels)
    detector.fit(split.train.sources, split.train.labels)

    scripts = [(f"<trace:{i}>", source) for i, source in enumerate(split.test.sources[:16])]
    default_rate = ServeConfig.__dataclass_fields__["trace_sample_rate"].default

    def compare():
        # Both daemons stay up for the whole comparison and the measured
        # passes alternate between them, so background machine drift hits
        # both modes equally instead of whichever booted second.
        off = ServeConfig(port=0, max_batch=8, trace_sample_rate=0.0)
        on = ServeConfig(port=0, max_batch=8, trace_sample_rate=default_rate)
        with BackgroundServer(detector, off) as a, BackgroundServer(detector, on) as b:
            best = {"untraced": None, "traced": None}
            ratios = []
            for background, mode in ((a, "untraced"), (b, "traced")):
                run_load(background.host, background.port, scripts, concurrency=8)  # warm the cache
            for _ in range(5):
                round_rps = {}
                for background, mode in ((a, "untraced"), (b, "traced")):
                    report = run_load(background.host, background.port, scripts,
                                      concurrency=8, repeats=25)
                    assert report.errors == 0, report.summary()
                    round_rps[mode] = report.throughput_rps
                    if best[mode] is None or report.throughput_rps > best[mode].throughput_rps:
                        best[mode] = report
                ratios.append(round_rps["traced"] / round_rps["untraced"])
        return best["untraced"], best["traced"], ratios

    untraced, traced, ratios = benchmark.pedantic(compare, rounds=1, iterations=1)

    print("\n" + format_load_table(
        {"untraced": untraced, "traced@default": traced},
        title="Tracing overhead — default sample rate vs off",
    ))

    expected = {r.name: (r.label, r.probability, r.verdict) for r in untraced.results}
    for result in traced.results:
        assert (result.label, result.probability, result.verdict) == expected[result.name], result.name

    # Paired comparison: each round measures both daemons back to back, so
    # machine drift cancels within a round.  Real tracing overhead would
    # depress *every* round's ratio; noise only depresses some.
    assert max(ratios) >= 0.95, (
        f"tracing overhead exceeds 5% in every paired round: "
        f"ratios={[f'{r:.3f}' for r in ratios]}"
    )


# --------------------------------------------------------------- cluster tier


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cluster_split():
    params = bench_params()
    return experiment_split(
        seed=0,
        pretrain_per_class=params["pretrain"],
        train_per_class=params["train"],
        test_per_class=min(params["test"], 20),
        realistic=True,
    )


@pytest.fixture(scope="module")
def saved_model_dir(cluster_split, tmp_path_factory):
    """A trained detector saved to disk — shards boot from this."""
    detector = JSRevealer(default_jsrevealer_config())
    detector.pretrain(cluster_split.pretrain.sources, cluster_split.pretrain.labels)
    detector.fit(cluster_split.train.sources, cluster_split.train.labels)
    model_dir = tmp_path_factory.mktemp("bench-model") / "model"
    save_detector(detector, model_dir)
    return str(model_dir)


@pytest.mark.table
def test_cluster_scaling(benchmark, saved_model_dir, cluster_split):
    """Fleet throughput at 1/2/4 shards, recorded in BENCH_cluster_scaling.json.

    Shards are separate processes, so past one shard the fleet escapes
    the GIL — on a multi-core machine 2 shards must clear 1.6x and
    4 shards 2.5x of single-shard req/s through the router.  On boxes
    with fewer than four usable cores (this container pins one) the
    ratio asserts are vacuous and only recorded; correctness — zero
    errors and verdict identity across fleet sizes — is asserted
    everywhere.
    """
    sources = cluster_split.test.sources[:16]
    reports = benchmark.pedantic(
        cluster_scaling_comparison,
        args=(saved_model_dir, sources),
        kwargs={"shard_counts": (1, 2, 4), "concurrency": 8, "repeats": 2},
        rounds=1,
        iterations=1,
    )

    print("\n" + format_load_table(reports, title="Cluster scaling — shards vs throughput"))

    baseline = reports["shards_1"]
    assert baseline.errors == 0, baseline.summary()
    expected = {r.name: (r.label, r.probability) for r in baseline.results}
    ratios = {}
    for mode, report in reports.items():
        assert report.errors == 0, report.summary()
        for result in report.results:
            assert (result.label, result.probability) == expected[result.name], result.name
        ratios[mode] = report.throughput_rps / baseline.throughput_rps

    cores = len(os.sched_getaffinity(0))
    record = {
        "bench": "cluster_scaling",
        "source": "benchmarks/test_serve_bench.py::test_cluster_scaling",
        "cores": cores,
        "params": {
            **bench_params(),
            "n_sources": len(sources),
            "concurrency": 8,
            "repeats": 2,
        },
        "throughput_rps": {m: round(r.throughput_rps, 2) for m, r in reports.items()},
        "latency_p50_ms": {m: round(r.latency_ms(0.50), 2) for m, r in reports.items()},
        "latency_p95_ms": {m: round(r.latency_ms(0.95), 2) for m, r in reports.items()},
        "errors": {m: r.errors for m, r in reports.items()},
        "ratios_vs_1_shard": {m: round(r, 3) for m, r in ratios.items()},
        "scaling_asserted": cores >= 4,
    }
    (REPO_ROOT / "BENCH_cluster_scaling.json").write_text(json.dumps(record, indent=2) + "\n")

    if cores >= 4:
        assert ratios["shards_2"] >= 1.6, f"2-shard ratio {ratios['shards_2']:.2f} < 1.6"
        assert ratios["shards_4"] >= 2.5, f"4-shard ratio {ratios['shards_4']:.2f} < 2.5"


@pytest.mark.table
def test_shard_kill_under_load_zero_failed_requests(benchmark, saved_model_dir, cluster_split):
    """SIGKILL a shard mid-load: with client retries on, no request fails.

    The router classifies the dead shard's transport faults as retryable,
    routes the orphaned keys onto the survivor, and browns out with
    Retry-After only if everything is down — so a retrying client sees
    100% success across the kill window while the supervisor boots a
    replacement.
    """
    sources = cluster_split.test.sources[:16]
    scripts = [(f"<kill:{i}>", source) for i, source in enumerate(sources)]
    config = ClusterConfig(
        model_dir=saved_model_dir,
        n_shards=2,
        port=0,
        # Repeat passes would be verdict-cache hits that never reach a
        # shard, dead or alive.
        router=RouterConfig(verdict_cache_size=0),
    )

    def run():
        with BackgroundCluster(config) as cluster:
            client = ScanClient(cluster.url, retries=2)
            victim = client.healthz()["shards"][0]
            killer = ShardKiller(client, victim["pid"], len(scripts) * 3)
            killer.start()
            report = run_load(
                cluster.host, cluster.port, scripts, concurrency=8, repeats=3, retries=2
            )
            killer.load_done.set()
            killer.join()
            health = client.healthz()
        return report, health, victim, killer

    report, health, victim, killer = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nshard kill under load: " + report.summary())

    assert report.errors == 0, report.summary()
    assert report.requests == len(scripts) * 3
    killer.assert_killed_under_load(report.requests)
    # The kill really happened while the fleet was serving: the victim's
    # slot shows a restart (replacement may still be booting — that's
    # fine, the zero-error claim above is the contract under test).
    victim_after = {s["shard"]: s for s in health["shards"]}[victim["shard"]]
    assert victim_after["restarts"] >= 1 or victim_after["pid"] != victim["pid"]
