"""``serve-fresh`` and ``serve-hot``: one ``repro serve`` daemon under a
closed loop of keep-alive clients.

The daemon runs with CLI defaults (1 worker, max-batch 8, max-wait 25 ms,
memory-only cache).  Each of ``N_CLIENTS`` threads owns one keep-alive
connection, sends ``POST /v1/scan`` and waits for the reply before
sending the next script.

* ``serve-fresh`` sends distinct realistic-corpus scripts, so every
  request misses the feature cache and writes to it.
* ``serve-hot`` sends a hot set once to warm the cache, then cycles
  through it, so every measured request is a cache hit.

Before the window, both send the guard set, whose answers are compared
with ``guard.json``.  ``/v1/metrics`` is scraped before and after the
window for the daemon's own layer counters; the traced run also replays
the window's batches in-process for the pipeline's layer times.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import common
import layers
from host import (ROOT, WORK, BenchError, calib_ms, cpu_ticks, fixture_model, host_facts, program_env,
                  tree_peak_mb)
from inputs import fresh_chunk, format_stats, guard_8k_scripts, guard_scripts, input_stats, small_scripts

N_CLIENTS = 2
#: Daemon boots timed per run for ``setup_s``; the last one is measured.
BOOTS = 5
#: Request rate the serve-fresh scripts generated before the window
#: cover.  serve-hot, which skips parse, paths and embedding, answers
#: ≈67 req/s on a 2-vCPU cloud VM, which bounds serve-fresh while the
#: batcher waits 25 ms per batch.  A window that needs more scripts
#: generates them as the clients ask, and says so.
FRESH_RATE_CAP = 70
HOT_SET = 32
#: Requests of a serve-hot window replayed in-process in the traced run.
HOT_REPLAY = 256
#: Per-script layer metrics reported for the ≈8 KiB guard replay.
EIGHT_K_METRICS = (
    "jsparser.ms", "dataflow.ms", "paths.extract.ms", "paths.extract.paths",
    "paths.extract.us_per_path", "paths.featurize.ms", "paths.featurize.us_per_path",
    "embedding.ms", "embedding.gflop_per_s", "embedding.alloc_mb", "core.cap.kept_ratio",
    "core.cap.ms",
)
MIN_REQUESTS = 200
#: The window is cut into slices of SLICE_S; the end-to-end metrics are
#: taken over the KEEP_SHARE of them in which the hypervisor stole the
#: least CPU time from this machine.  On a shared VM, steal comes in
#: bursts of seconds to a minute that slowed single runs by up to a third.
SLICE_S = 1.0
KEEP_SHARE = 2 / 3
BOOT_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 30
_LISTENING = re.compile(r"listening on http://[^\s]+:(\d+)")


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, model):
        self.model = model
        self.log = WORK / f"serve-{id(self)}-{time.monotonic_ns()}.log"
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.boot_s = 0.0

    def __enter__(self) -> "Daemon":
        spawned = time.monotonic()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--model", str(self.model), "--port", "0"],
                env=program_env(), cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            self._wait_ready(spawned)
        except BaseException:
            self.__exit__()
            raise
        self.boot_s = time.monotonic() - spawned
        return self

    def _wait_ready(self, spawned: float) -> None:
        while True:
            if time.monotonic() - spawned > BOOT_TIMEOUT_S:
                raise BenchError(f"daemon not ready within {BOOT_TIMEOUT_S}s")
            if self.process.poll() is not None:
                raise BenchError(f"daemon exited {self.process.returncode}:\n{self.log.read_text()[-2000:]}")
            if not self.port:
                match = _LISTENING.search(self.log.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port:
                try:
                    if get(self.port, "/v1/healthz")[0] == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        return self.process.pid

    def __exit__(self, *exc) -> bool:
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.unlink(missing_ok=True)
        return False


def get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# ---------------------------------------------------------------- client loop


class FreshStream:
    """serve-fresh's distinct scripts, generated chunk by chunk.

    A script already generated, or equal to one in ``exclude`` (the guard
    set, which the daemon has cached), is dropped, so every script the
    stream hands out misses the daemon's cache.
    """

    def __init__(self, seed: int, exclude: list[str]):
        self.seed = seed
        self.scripts: list[tuple[str, str]] = []
        self.chunks = 0
        self._seen = set(exclude)

    def grow(self) -> None:
        for name, source in fresh_chunk(self.seed, self.chunks):
            if source not in self._seen:
                self._seen.add(source)
                self.scripts.append((name, source))
        self.chunks += 1


class Supply:
    """Hands the next script to whichever client is free.

    A ``cycle`` supply repeats its scripts; otherwise ``more()``, when
    given, is called to append scripts to the list once they run out.
    ``milestone=(n, callback)`` calls ``callback`` as the ``n``-th script
    is handed out.
    """

    def __init__(self, scripts: list, cycle: bool = False, more=None):
        self.scripts = scripts
        self.cycle = cycle
        self.more = more
        self.milestone: tuple | None = None
        self.taken = 0
        self.grown_late = 0
        self._lock = threading.Lock()

    def take(self):
        with self._lock:
            while not self.cycle and self.taken >= len(self.scripts):
                if self.more is None:
                    return None
                self.more()
                self.grown_late += 1
            item = self.scripts[self.taken % len(self.scripts)]
            self.taken += 1
            if self.milestone and self.taken == self.milestone[0]:
                self.milestone[1]()
            return item


def _lane(port: int, supply: Supply, deadline: float, records: list) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    headers = {"Content-Type": "application/json"}
    try:
        while time.perf_counter() < deadline:
            item = supply.take()
            if item is None:
                return
            name, source = item
            body = json.dumps({"source": source, "name": name}).encode()
            record = {"name": name, "start": time.perf_counter()}
            try:
                connection.request("POST", "/v1/scan", body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                record["end"] = time.perf_counter()
                record["http_status"] = response.status
                if response.status == 200:
                    data = json.loads(raw).get("data") or {}
                    record["answer"] = {
                        "name": data.get("path"), "label": data.get("label"),
                        "probability": data.get("probability"), "path_count": data.get("path_count"),
                        "status": data.get("status"),
                    }
            except (OSError, http.client.HTTPException, ValueError) as error:
                record["end"] = time.perf_counter()
                record["error"] = repr(error)
                connection.close()  # the next request reconnects
            records.append(record)
    finally:
        connection.close()


def closed_loop(port: int, supply: Supply, seconds: float,
                ticks: list | None = None) -> tuple[list[dict], float]:
    """Run ``N_CLIENTS`` closed-loop clients; return records and start time.

    With ``ticks``, the machine's ``(steal, total)`` CPU ticks are appended
    as the window starts and at the end of each of its slices.
    """
    lanes: list[list[dict]] = [[] for _ in range(N_CLIENTS)]
    started = time.perf_counter()
    threads = [
        threading.Thread(target=_lane, args=(port, supply, started + seconds, lane), daemon=True)
        for lane in lanes
    ]
    for thread in threads:
        thread.start()
    if ticks is not None:
        ticks.append(cpu_ticks())
        for k in range(1, round(seconds / SLICE_S) + 1):
            time.sleep(max(0.0, started + k * SLICE_S - time.perf_counter()))
            ticks.append(cpu_ticks())
    for thread in threads:
        thread.join(timeout=seconds + REQUEST_TIMEOUT_S + 5)
        if thread.is_alive():
            raise BenchError("a client thread did not finish")
    records = sorted((r for lane in lanes for r in lane), key=lambda r: r["start"])
    return records, started


def calm_slices(ticks: list) -> tuple[list[int], list[float]]:
    """The window's ``KEEP_SHARE`` of slices with the least steal, and every slice's steal share.

    Steal is CPU time the hypervisor gave another machine while a vCPU of
    this one was ready to run, so the slices dropped are those in which the
    host, not the program, held the clients and the daemon up.
    """
    shares = [(s1 - s0) / max(1, t1 - t0) for (s0, t0), (s1, t1) in zip(ticks, ticks[1:])]
    keep = max(1, round(KEEP_SHARE * len(shares)))
    return sorted(sorted(range(len(shares)), key=lambda i: (shares[i], i))[:keep]), shares


def record_failure(record: dict) -> str | None:
    if "error" in record:
        return f"transport error {record['error']}"
    if record.get("http_status") != 200:
        return f"HTTP {record.get('http_status')}"
    if record["answer"]["name"] != record["name"]:
        return f"answered for {record['answer']['name']!r}"
    return None


# -------------------------------------------------------------------- scrape


def scrape(port: int) -> dict:
    """``/v1/metrics``, parsed by the program's own exposition parser."""
    from repro.obs.metrics import parse_exposition

    status, body = get(port, "/v1/metrics")
    if status != 200:
        raise BenchError(f"GET /v1/metrics answered {status}")
    return parse_exposition(body.decode("utf-8"))


def total(families: dict, name: str, suffix: str = "", **labels: str) -> float | None:
    """Sum of the ``name+suffix`` samples carrying ``labels`` (None: family absent)."""
    family = families.get(name)
    if family is None:
        return None
    values = [s.value for s in family.samples
              if s.name == name + suffix and all(s.labels.get(k) == v for k, v in labels.items())]
    return sum(values) if values else None


def delta(before: dict, after: dict, name: str, suffix: str = "", **labels: str) -> float | None:
    start, end = total(before, name, suffix, **labels), total(after, name, suffix, **labels)
    return None if end is None else end - (start or 0.0)


# ------------------------------------------------------------------ workload


def _measure(model, supply: Supply, guard: list, hot_set: list, seconds: int) -> dict:
    """Boot the daemons, send the guard set, warm up, and run the window."""
    boots = []
    for _ in range(BOOTS - 1):
        with Daemon(model) as daemon:
            boots.append(daemon.boot_s)
    with Daemon(model) as daemon:
        boots.append(daemon.boot_s)
        guard_records = closed_loop(daemon.port, Supply(list(guard)), REQUEST_TIMEOUT_S)[0]
        # serve-hot: one full pass fills the cache with the hot set.
        warmups = closed_loop(daemon.port, Supply(list(hot_set)), REQUEST_TIMEOUT_S)[0]
        calib = [calib_ms()]
        before = scrape(daemon.port)
        # Peak RSS is read after a fixed amount of work, so a faster daemon
        # (which fills more cache entries in the window) does not read as
        # a bigger one.
        rss_at_milestone: list[float] = []
        supply.milestone = (MIN_REQUESTS, lambda: rss_at_milestone.append(tree_peak_mb(daemon.pid)))
        ticks: list = []
        records, started = closed_loop(daemon.port, supply, seconds, ticks)
        after = scrape(daemon.port)
        rss_at_milestone.append(tree_peak_mb(daemon.pid))  # used when the window fell short
        calib.append(calib_ms())
    return {
        "boots": boots, "guard_records": guard_records, "warmups": warmups, "records": records,
        "started": started, "ticks": ticks,
        "before": before, "after": after, "calib": calib, "peak_rss_mb": rss_at_milestone[0],
    }


def _per_layer(window: dict, outputs: list[dict], probes: list) -> tuple[dict, dict, dict]:
    """Per-layer metrics from the replay's spans, the scrape and the probes."""
    before, after = window["before"], window["after"]
    per_layer, detail = layers.layer_metrics(
        [[span for span in o["spans"] if span["phase"] != "8k"] for o in outputs])
    large_layers, large_detail = layers.layer_metrics(
        [[span for span in o["spans"] if span["phase"] == "8k"] for o in outputs])
    per_layer.update((f"8k.{metric}", large_layers[metric]) for metric in EIGHT_K_METRICS
                     if metric in large_layers)
    detail["spans"] += large_detail["spans"]
    detail["scan_busy_s"] += large_detail["scan_busy_s"]
    absent: dict[str, str] = {}
    hits = delta(before, after, "repro_cache_lookups_total", result="hit")
    misses = delta(before, after, "repro_cache_lookups_total", result="miss")
    if hits is None or misses is None or hits + misses == 0:
        absent["pipeline.cache_hit_ratio"] = "repro_cache_lookups_total absent or unchanged"
    else:
        per_layer["pipeline.cache_hit_ratio"] = hits / (hits + misses)
    entries = total(after, "repro_cache_lookups_total", result="miss")
    kept = list(detail["kept_rows_by_script"].values())
    if entries is not None and kept and detail["embed_dim"]:
        per_layer["pipeline.cache_mb"] = entries * statistics.fmean(kept) * detail["embed_dim"] * 8 / 1e6
    for metric, family, scale in (("serve.queue_wait_ms", "repro_serve_queue_wait_seconds", 1000.0),
                                  ("serve.batch_size", "repro_serve_batch_size_scripts", 1.0),
                                  ("serve.request_ms", "repro_http_request_seconds", 1000.0)):
        count = delta(before, after, family, "_count")
        if count:
            per_layer[metric] = scale * delta(before, after, family, "_sum") / count
        else:
            absent[metric] = f"{family} absent or unchanged"
    good = [r for r in window["records"] if not record_failure(r)]
    if "serve.request_ms" in per_layer and good:
        client_ms = statistics.fmean(1000.0 * (r["end"] - r["start"]) for r in good)
        per_layer["serve.transport_ms"] = client_ms - per_layer["serve.request_ms"]
    rejected = delta(before, after, "repro_serve_rejected_total")
    if rejected is None:
        absent["serve.rejected"] = "repro_serve_rejected_total absent"
    else:
        per_layer["serve.rejected"] = rejected
    per_layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    per_layer["setup.load_s"] = statistics.median(p["load_s"] for p in probes)
    per_layer["serve.boot_s"] = (statistics.median(window["boots"]) - per_layer["setup.import_s"]
                                 - per_layer["setup.load_s"])
    per_layer["host.calib_ms"] = statistics.fmean(window["calib"])
    return per_layer, absent, detail


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    model, fingerprint = fixture_model()
    hot = name == "serve-hot"
    guard = guard_scripts()
    if hot:
        hot_set = small_scripts("hot", seed, HOT_SET)
        supply = Supply(hot_set, cycle=True)
    else:
        hot_set = []
        fresh = FreshStream(seed, exclude=[source for _, source in guard])
        while len(fresh.scripts) < seconds * FRESH_RATE_CAP:
            fresh.grow()
        supply = Supply(fresh.scripts, more=fresh.grow)
    # serve.boot_s subtracts import and load, timed alone in fresh
    # interpreters next to the boots.
    probes = [common.setup_probe(model) for _ in range(3)] if trace else []
    window = _measure(model, supply, guard, hot_set, seconds)
    records, calib = window["records"], window["calib"]
    sources = dict(supply.scripts)  # read after the window, which may grow serve-fresh's list

    sent = [r["name"] for r in records]
    distinct = list(dict.fromkeys(sent))
    # Warm-up answers (serve-hot's cold pass) are checked like the window's.
    checked = window["warmups"] + records
    scanned = list(dict.fromkeys(r["name"] for r in checked))
    batch_count = delta(window["before"], window["after"], "repro_serve_batch_size_scripts", "_count")
    batch_size = round(delta(window["before"], window["after"], "repro_serve_batch_size_scripts", "_sum")
                       / batch_count) if batch_count else 1
    large = guard_8k_scripts()
    large_batches = [[[list(item)] for item in large[k::2]] for k in range(2)]
    if trace:
        replay = sent[:HOT_REPLAY] if hot else sent
        batches = common.chunked([[n, sources[n]] for n in replay], batch_size)
        cold = common.chunked([list(item) for item in hot_set], batch_size)
        # Each replay process runs the whole cold pass, so its own cache
        # answers every replayed hot request.
        jobs = [{"batches": batches[k::2], "warm": cold, "batches_8k": large_batches[k], "cache": True,
                 "trace": True} for k in range(2)]
    else:
        jobs = [{"batches": [[[n, sources[n]] for n in scanned[k::2]]], "warm": [],
                 "batches_8k": large_batches[k], "cache": False, "trace": False} for k in range(2)]
    outputs = common.run_children(name, model, jobs)
    reference, conflicts = common.reference_table(outputs)

    failures = []
    for record in checked:
        why = record_failure(record) or common.check_answer(record["answer"], reference)
        if why:
            failures.append((record["name"], why))
    guard_answers = [r["answer"] for r in window["guard_records"] if not record_failure(r)]
    guard_failures, guard_line = common.check_guard("guard", guard_answers, fingerprint)
    large_failures, large_line = common.check_guard(
        "guard8k", [reference[n] for n, _ in large if n in reference], fingerprint)
    guard_failures += large_failures
    guard_lines = [guard_line + " (daemon answers)", large_line + " (in-process BatchScanner)"]
    # Throughput counts the answers that arrive in the calm slices; latency
    # takes the requests sent and answered in them.
    kept, shares = calm_slices(window["ticks"])
    calm = set(kept)

    def slice_of(moment: float) -> int:
        return int((moment - window["started"]) // SLICE_S)

    answered = [r for r in records if slice_of(r["end"]) in calm and not record_failure(r)]
    timed = [r for r in records if slice_of(r["start"]) in calm and slice_of(r["end"]) in calm]
    # If no request fits inside calm slices (all outlast them), all are timed.
    latencies = [1000.0 * (r["end"] - r["start"]) if not record_failure(r) else float("inf")
                 for r in timed or records]
    median = statistics.median(latencies)
    # p95 is printed but is no end-to-end metric: on a shared VM it follows
    # the hypervisor's steal even in the calm slices (see perfbench/README.md).
    p95 = common.percentile(latencies, 95)
    end_to_end = {
        "throughput": len(answered) / (len(kept) * SLICE_S),
        # A failed request is infinitely late; JSON has no infinity, so the
        # window length (no reply can come later) stands in for it.
        "latency_ms": median if median != float("inf") else 1000.0 * seconds,
        "peak_rss_mb": window["peak_rss_mb"],
        "setup_s": statistics.median(window["boots"]),
    }
    good = [r for r in records if not record_failure(r)]
    (steal_start, ticks_start), (steal_end, ticks_end) = window["ticks"][0], window["ticks"][-1]
    steal_share = (steal_end - steal_start) / max(1, ticks_end - ticks_start)
    facts = host_facts(fingerprint)
    stats = input_stats([sources[n] for n in distinct], [reference[n]["path_count"] for n in distinct])
    lines = [
        f"meta: nproc={facts['nproc']} blas_threads={facts['blas_threads']} python={facts['python']} "
        f"model_fingerprint={fingerprint} host.calib_ms before={calib[0]:.1f} after={calib[1]:.1f} "
        f"host.steal_share={steal_share:.3f} (of CPU time in the window)",
        format_stats(name, stats),
        format_stats("8k guard", input_stats([source for _, source in large],
                                             [reference[n]["path_count"] for n, _ in large])),
        f"set-up: daemon boots {common.fmt_list(window['boots'])} s",
        f"window: {len(records)} requests ({len(records) - len(good)} failed) from {N_CLIENTS} "
        f"closed-loop clients over {seconds} s; {len(distinct)} distinct scripts",
        f"calm slices: {len(kept)} of {len(shares)} {SLICE_S:g}-s slices, steal share "
        f"{statistics.fmean(shares[i] for i in kept):.3f} in them vs "
        f"{max(shares):.3f} in the worst slice; {len(answered)} answers, latency n={len(latencies)} "
        f"p50 {end_to_end['latency_ms']:.1f} ms p95 {p95:.1f} ms",
        f"verdicts: {len(checked)} answers ({len(window['warmups'])} from the warm-up) vs in-process "
        f"BatchScanner(n_workers=1) reference: "
        f"{len(failures)} failed, {conflicts} reference conflicts",
        *guard_lines,
        *(f"  failed {n}: {why}" for n, why in (failures + guard_failures)[:10]),
    ]
    if supply.grown_late:
        lines.append(f"warning: {supply.grown_late} chunks of scripts were generated inside the window "
                     f"(more than {FRESH_RATE_CAP} req/s); the clients waited for them")
    if len(records) < MIN_REQUESTS:
        lines.append(f"warning: only {len(records)} requests (< {MIN_REQUESTS}) in the window; "
                     "peak_rss_mb read at its end")
    result = {
        "attempted": len(checked) + len(guard) + len(large),
        "failed": len(failures) + conflicts + len(guard_failures),
        "end_to_end": end_to_end,
        "calib_ms": statistics.fmean(calib),
        "lines": lines,
    }
    if not trace:
        return result

    per_layer, absent, detail = _per_layer(window, outputs, probes)
    result.update(
        per_layer=per_layer,
        absent=absent,
        trace_detail=detail,
        spans={
            "client": [{"name": "client.scan", "group": r["name"], "start": r["start"], "end": r["end"],
                        "parent": None} for r in records],
            "replay": [o["spans"] for o in outputs],
        },
        wrapper_cost_us=statistics.fmean(o["wrapper_cost_us"] for o in outputs),
        missing=sorted({m for o in outputs for m in o["missing"]}),
    )
    result["lines"] += [
        f"set-up probes: import {common.fmt_list(p['import_s'] for p in probes)} s; "
        f"load {common.fmt_list(p['load_s'] for p in probes)} s",
    ]
    if hot:
        result["lines"].append(
            f"replay: cold pass over the {HOT_SET}-script hot set, then the first "
            f"{len(replay)} window requests in batches of {batch_size} (cache hits)"
        )
    return result
