"""Ablation benches for the design choices DESIGN.md calls out.

Beyond the paper's own enhanced-vs-regular AST ablation (Table IV), these
benches probe: attention-weight features vs binary occurrence, outlier
removal on/off, Bisecting K-Means vs plain K-Means, and path length/width
limit sensitivity.
"""

import numpy as np
import pytest

from repro.bench import bench_params, default_jsrevealer_config
from repro.core import JSRevealer
from repro.datasets import experiment_split
from repro.ml import KMeans, f1_score
from repro.obfuscation import ALL_OBFUSCATORS
from repro.paths import PathExtractor


@pytest.fixture(scope="module")
def ablation_split():
    params = bench_params()
    return experiment_split(
        seed=0,
        pretrain_per_class=params["pretrain"],
        train_per_class=params["train"],
        test_per_class=max(params["test"] // 2, 10),
        realistic=True,
    )


def _avg_obfuscated_f1(detector, split, seed=77):
    f1s = []
    for cls in ALL_OBFUSCATORS.values():
        corpus = split.test.obfuscated(cls(seed=seed))
        predictions = detector.predict(corpus.sources)
        f1s.append(100.0 * f1_score(corpus.label_array, predictions))
    return float(np.mean(f1s))


def _trained(split, detector_class=JSRevealer, **overrides):
    detector = detector_class(default_jsrevealer_config(**overrides))
    detector.pretrain(split.pretrain.sources, split.pretrain.labels)
    detector.fit(split.train.sources, split.train.labels)
    return detector


class _BinaryOccurrence(JSRevealer):
    """Binary cluster occurrence instead of attention weights.

    Every kept path's weight becomes uniform, so feature values count
    cluster membership only.  The override sits on the prefix's embed
    step, so both ``fit`` and the in-process scans that score the arm
    aggregate with it.
    """

    def embed_script(self, contexts, return_indices=False):
        vectors, weights, kept = super().embed_script(contexts, return_indices=True)
        if len(weights):
            weights = np.full_like(weights, 1.0 / len(weights))
        return (vectors, weights, kept) if return_indices else (vectors, weights)


@pytest.mark.table
def test_ablation_weights_vs_binary(ablation_split, benchmark):
    """Sec. III-D argues for attention weights over binary occurrence."""
    weighted = _trained(ablation_split)
    binary = _trained(ablation_split, detector_class=_BinaryOccurrence)

    f1_weighted = _avg_obfuscated_f1(weighted, ablation_split)
    f1_binary = _avg_obfuscated_f1(binary, ablation_split)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    print(f"\nAblation: attention-weight features avgF1={f1_weighted:.1f} "
          f"vs binary occurrence avgF1={f1_binary:.1f}")
    assert f1_weighted >= 50.0  # weighted variant stays usable


@pytest.mark.table
def test_ablation_outlier_removal(ablation_split, benchmark):
    """FastABOD outlier removal before clustering (Sec. III-D)."""
    with_removal = _trained(ablation_split, contamination=0.1)
    without = _trained(ablation_split, contamination=0.001)  # effectively off

    f1_with = _avg_obfuscated_f1(with_removal, ablation_split)
    f1_without = _avg_obfuscated_f1(without, ablation_split)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    print(f"\nAblation: outlier removal on avgF1={f1_with:.1f} vs off avgF1={f1_without:.1f}")
    assert f1_with >= 45.0


@pytest.mark.table
def test_ablation_bisecting_vs_plain_kmeans(ablation_split, benchmark):
    """The paper picks Bisecting K-Means for initialization stability."""
    detector = _trained(ablation_split)
    pooled = []
    for source in ablation_split.train.sources[:40]:
        vectors, _ = detector.embed_script(detector.extract_paths(source))
        if len(vectors):
            pooled.append(vectors)
    X = np.vstack(pooled)
    if len(X) > 2000:
        X = X[np.random.default_rng(0).choice(len(X), 2000, replace=False)]

    from repro.ml import BisectingKMeans

    # Stability: inertia spread across seeds should be smaller for the
    # bisecting variant (its splits are locally re-initialized 2-means).
    plain = [KMeans(n_clusters=7, n_init=1, random_state=s).fit(X).inertia_ for s in range(5)]
    bisect = [BisectingKMeans(n_clusters=7, n_init=1, random_state=s).fit(X).inertia_ for s in range(5)]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    spread_plain = (max(plain) - min(plain)) / max(np.mean(plain), 1e-9)
    spread_bisect = (max(bisect) - min(bisect)) / max(np.mean(bisect), 1e-9)
    print(f"\nAblation: K-Means inertia spread {100 * spread_plain:.2f}% "
          f"vs Bisecting {100 * spread_bisect:.2f}% across 5 seeds")
    assert spread_bisect <= spread_plain + 0.05


@pytest.mark.table
def test_ablation_path_limits(benchmark):
    """Sensitivity of path extraction to the (12, 4) length/width limits."""
    from repro.datasets import build_corpus

    corpus = build_corpus(10, 10, seed=3)
    counts = {}
    for limits in ((6, 2), (12, 4), (20, 8)):
        extractor = PathExtractor(max_length=limits[0], max_width=limits[1])
        counts[limits] = sum(len(extractor.extract_from_source(s)) for s in corpus.sources)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    print("\nAblation: total paths extracted per (max_length, max_width)")
    for limits, count in counts.items():
        print(f"  {limits}: {count}")
    # Monotone growth with looser limits; the paper's (12, 4) sits between.
    assert counts[(6, 2)] < counts[(12, 4)] < counts[(20, 8)]
