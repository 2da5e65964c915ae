"""Fast Angle-Based Outlier Detection (FastABOD).

The detector the paper's MetaOD run selected (Sec. III-D).  ABOD scores a
point by the variance of the angles it forms with pairs of other points:
inliers, surrounded on all sides, see a wide spread of angles; outliers see
all other points within a narrow cone, so their angle variance is small.
FastABOD approximates the full pairwise computation by using only each
point's k nearest neighbors.

The decision score is the *negated* angle-variance so that, as for every
other detector here, higher = more anomalous.
"""

from __future__ import annotations

import numpy as np

from .base import BaseOutlierDetector, knn_indices


class FastABOD(BaseOutlierDetector):
    """Approximate angle-based outlier factor over k-NN neighborhoods.

    Args:
        n_neighbors: Neighborhood size used in the approximation.
        contamination: Expected outlier fraction (thresholding quantile).
    """

    def __init__(self, n_neighbors: int = 10, contamination: float = 0.1):
        super().__init__(contamination)
        if n_neighbors < 2:
            raise ValueError("n_neighbors must be >= 2")
        self.n_neighbors = n_neighbors

    def _score(self, X: np.ndarray) -> np.ndarray:
        n = len(X)
        neighbors = knn_indices(X, self.n_neighbors)
        k = neighbors.shape[1]
        if k < 2:
            return np.zeros(n)

        # Vectorized over all points: diffs[i, j] = X[neighbors[i, j]] - X[i].
        diffs = X[neighbors] - X[:, None, :]  # (n, k, d)
        norms = np.linalg.norm(diffs, axis=2)  # (n, k)
        safe_norms = np.where(norms > 1e-12, norms, 1.0)

        dot = np.einsum("ikd,ild->ikl", diffs, diffs)  # (n, k, k)
        norm_prod = safe_norms[:, :, None] * safe_norms[:, None, :]
        cos = dot / (norm_prod * norm_prod)
        weights = 1.0 / norm_prod

        # Mask the diagonal and any degenerate (zero-norm) pairs, then take
        # the upper triangle of each point's k×k pair matrix.
        valid = (norms[:, :, None] > 1e-12) & (norms[:, None, :] > 1e-12)
        iu = np.triu_indices(k, k=1)
        pair_cos = cos[:, iu[0], iu[1]]  # (n, k*(k-1)/2)
        pair_w = weights[:, iu[0], iu[1]] * valid[:, iu[0], iu[1]]

        total_w = pair_w.sum(axis=1)
        safe_total = np.where(total_w > 0, total_w, 1.0)
        mean = (pair_w * pair_cos).sum(axis=1) / safe_total
        var = (pair_w * (pair_cos - mean[:, None]) ** 2).sum(axis=1) / safe_total
        var = np.where(total_w > 0, var, 0.0)
        return -var
