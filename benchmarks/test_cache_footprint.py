"""Feature-cache footprint at the default capacity, on realistic scripts.

Not a paper table.  A scan daemon or shard keeps one
:class:`~repro.pipeline.FeatureCache` at its default ``max_entries``
(4,096).  This bench fills exactly that many entries with distinct
``repro.datasets.build_realistic_corpus`` scripts through
``BatchScanner(n_workers=1)`` in micro-batches of 8, on a d=300 model
trained with perfbench's fixture flags, and records:

* process RSS before and after the fill, and MB per 1,000 entries, both
  from RSS growth and from the bytes of the arrays the entries hold;
* cold (every script a miss) and hit milliseconds per script;
* the pickled size of one pooled script's embed payload, the reply a
  worker sends back over its pipe;
* a digest of every probability, equal between the cold and hit passes.

The record is keyed by the cache entry's fields, and the bench keeps the
records of other entry layouts the file already holds.  It calls only
APIs that every entry layout shares, so running it on a checkout of each
layout fills in a before/after pair.  Results land in
``BENCH_cache_footprint.json``.
"""

import gc
import hashlib
import json
import pathlib
import pickle
import platform
import time

import numpy as np

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import build_realistic_corpus, experiment_split
from repro.pipeline import BatchScanner, FeatureCache

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = REPO_ROOT / "BENCH_cache_footprint.json"
SEED = 0
BATCH = 8
PAYLOAD_SAMPLE = 64


def rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmRSS line in /proc/self/status")


def distinct_scripts(count: int) -> list[str]:
    half = count // 2 + 64  # slack for duplicate removal
    out: list[str] = []
    seen: set[str] = set()
    for source in build_realistic_corpus(half, half, seed=SEED).sources:
        if source not in seen:
            seen.add(source)
            out.append(source)
    assert len(out) >= count
    return out[:count]


def train_fixture_model() -> JSRevealer:
    """The model ``repro train`` builds from perfbench's fixture flags."""
    split = experiment_split(
        seed=SEED, pretrain_per_class=20, train_per_class=60, test_per_class=2, realistic=True
    )
    detector = JSRevealer(
        JSRevealerConfig(embed_dim=300, pretrain_epochs=12, k_benign=11, k_malicious=10, seed=SEED)
    )
    detector.pretrain(split.pretrain.sources, split.pretrain.labels)
    detector.fit(split.train.sources, split.train.labels)
    return detector


def scan_all(scanner: BatchScanner, batches: list[list[str]]) -> tuple[float, str, int]:
    """Wall seconds, probability digest and cache hits of one pass."""
    digest = hashlib.sha256()
    hits = 0
    started = time.perf_counter()
    for batch in batches:
        report = scanner.scan(batch)
        digest.update(report.probability_matrix.tobytes())
        hits += report.cache_hits
    return time.perf_counter() - started, digest.hexdigest(), hits


def test_cache_footprint_at_default_capacity():
    detector = train_fixture_model()
    cache = FeatureCache(detector.fingerprint())
    n = cache.max_entries
    scripts = distinct_scripts(n + BATCH)
    warmup, scripts = scripts[:BATCH], scripts[BATCH:]
    BatchScanner(detector, n_workers=1).scan(warmup)  # lazy set-up, outside the window
    scanner = BatchScanner(detector, n_workers=1, cache=cache)
    batches = [scripts[i : i + BATCH] for i in range(0, n, BATCH)]

    gc.collect()
    rss_before = rss_mb()
    cold_s, cold_digest, cold_hits = scan_all(scanner, batches)
    gc.collect()
    rss_after = rss_mb()
    hit_s, hit_digest, hits = scan_all(scanner, batches)
    assert cold_hits == 0 and hits == n and len(cache) == n
    assert hit_digest == cold_digest

    entries = list(cache._memory.values())
    entry_bytes = sum(
        value.nbytes for entry in entries for value in vars(entry).values()
        if isinstance(value, np.ndarray)
    )
    fields = "+".join(sorted(vars(entries[0])))
    prefix = detector.parts()  # what a pool worker runs
    payload_bytes = [len(pickle.dumps(prefix.script_row(s))) for s in scripts[:PAYLOAD_SAMPLE]]

    growth = rss_after - rss_before
    record = {
        "model": {
            "embed_dim": detector.config.embed_dim,
            "n_features": detector.feature_extractor.n_features,
            "fingerprint": detector.fingerprint()[:12],
        },
        "scripts": n,
        "batch": BATCH,
        "mean_script_bytes": round(float(np.mean([len(s.encode()) for s in scripts])), 1),
        "rss_before_mb": round(rss_before, 1),
        "rss_after_mb": round(rss_after, 1),
        "rss_growth_mb": round(growth, 1),
        "rss_mb_per_1000_entries": round(1000.0 * growth / n, 3),
        "entry_array_mb_per_1000_entries": round(1000.0 * entry_bytes / 1e6 / n, 4),
        "cold_ms_per_script": round(1000.0 * cold_s / n, 3),
        "hit_ms_per_script": round(1000.0 * hit_s / n, 3),
        "pooled_payload_bytes_mean": round(float(np.mean(payload_bytes)), 1),
        "pooled_payload_bytes_max": max(payload_bytes),
        "probability_sha256": cold_digest,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
    }
    print(f"\ncache entry fields {fields}: " + json.dumps(record, indent=2))

    existing = json.loads(OUT.read_text()) if OUT.exists() else {}
    layouts = existing.get("layouts", {})
    layouts[fields] = record
    OUT.write_text(
        json.dumps({"bench": "cache_footprint", "seed": SEED, "layouts": layouts}, indent=2) + "\n"
    )
