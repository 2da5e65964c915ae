"""Seeded workload inputs, built only from ``repro.datasets`` generators.

Two size classes:

* ``small`` — scripts from :func:`repro.datasets.build_realistic_corpus`
  (the in-the-wild obfuscation mixture the comparison benches use;
  ≈0.5 KiB mean).
* ``8k`` — concatenated benign/malicious generator output of at least
  8 KiB each.  A script is malicious with probability 1/2; a malicious
  one opens with a malicious fragment and bundles further fragments of
  either kind, as a compromised page bundle would.

Each stream (``hot``, ``fresh`` chunk ``k``, ``guard``, ``guard8k``)
draws from its own generator seed, hashed from the stream's name and the
run's seed, so streams never share a random sequence.  Every script gets
a stable name (``<stream>-<seed>-<index>``), so verdicts can be matched
and digested by name.  The same seed always yields the same scripts.

The guard sets do not depend on the run's seed: every run scans them and
compares their verdicts with those stored in ``guard.json``.
"""

from __future__ import annotations

import hashlib
import statistics

EIGHT_K_BYTES = 8192
#: Size of the small guard set every run sends to the daemon first.
GUARD_SIZE = 32
#: ≈8 KiB guard scripts every run scans in-process; the traced run times
#: their layers (the ``8k.*`` metrics).
GUARD_8K_SIZE = 4
#: Scripts per generated chunk of the serve-fresh stream.
FRESH_CHUNK = 128


def stream_seed(stream: str, seed: int) -> int:
    """Generator seed of one named input stream of a run."""
    return int.from_bytes(hashlib.sha256(f"{stream}/{seed}".encode()).digest()[:8], "big")


def small_scripts(stream: str, seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` distinct realistic-corpus scripts, in generated order."""
    from repro.datasets import build_realistic_corpus

    half = (count + 1) // 2 + 2  # a little slack for duplicate removal
    corpus = build_realistic_corpus(half, half, seed=stream_seed(stream, seed))
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    for source in corpus.sources:
        if source in seen:
            continue
        seen.add(source)
        out.append((f"{stream}-{seed}-{len(out):04d}", source))
        if len(out) == count:
            break
    return out


def eight_k_scripts(stream: str, seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` scripts of at least 8 KiB of concatenated generator output."""
    import numpy as np

    from repro.datasets import generate_benign, generate_malicious

    rng = np.random.default_rng(stream_seed(stream, seed))
    out: list[tuple[str, str]] = []
    for index in range(count):
        malicious = rng.random() < 0.5
        parts: list[str] = []
        size = 0
        while size < EIGHT_K_BYTES:
            use_malicious = malicious and (not parts or rng.random() < 0.25)
            fragment = generate_malicious(rng) if use_malicious else generate_benign(rng)
            parts.append(fragment)
            size += len(fragment.encode("utf-8")) + 1
        out.append((f"{stream}-{seed}-{index:04d}", "\n".join(parts)))
    return out


def guard_scripts() -> list[tuple[str, str]]:
    return small_scripts("guard", 0, GUARD_SIZE)


def guard_8k_scripts() -> list[tuple[str, str]]:
    return eight_k_scripts("guard8k", 0, GUARD_8K_SIZE)


def fresh_chunk(seed: int, chunk: int) -> list[tuple[str, str]]:
    """Chunk ``chunk`` of the serve-fresh stream (duplicates across
    chunks are possible; the caller drops them)."""
    return small_scripts(f"fresh{chunk}", seed, FRESH_CHUNK)


def input_stats(sources: list[str], path_counts: list[int]) -> dict:
    """Size and path-count profile of the scripts a run actually measured."""
    kib = [len(source.encode("utf-8")) / 1024.0 for source in sources]
    stats = {
        "scripts": len(sources),
        "kib_mean": statistics.fmean(kib) if kib else 0.0,
        "kib_p50": statistics.median(kib) if kib else 0.0,
        "kib_max": max(kib, default=0.0),
    }
    if path_counts:
        stats.update(
            paths_mean=statistics.fmean(path_counts),
            paths_p50=statistics.median(path_counts),
            paths_max=max(path_counts),
            share_over_300_paths=sum(1 for n in path_counts if n > 300) / len(path_counts),
        )
    return stats


def format_stats(label: str, stats: dict) -> str:
    line = (
        f"inputs {label}: {stats['scripts']} scripts, KiB mean {stats['kib_mean']:.2f} "
        f"p50 {stats['kib_p50']:.2f} max {stats['kib_max']:.2f}"
    )
    if "paths_mean" in stats:
        line += (
            f"; paths/script mean {stats['paths_mean']:.0f} p50 {stats['paths_p50']:.0f} "
            f"max {stats['paths_max']}; share over 300 paths {stats['share_over_300_paths']:.3f}"
        )
    return line
