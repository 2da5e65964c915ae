"""Cluster-based feature extraction (Sec. III-D of the paper).

Pipeline per the paper:

1. Pool all path vectors from benign training scripts and from malicious
   training scripts (with their attention weights).
2. Remove outlier vectors with FastABOD (model chosen by MetaOD).
3. Cluster the benign pool (K=11) and the malicious pool (K=10) with
   Bisecting K-Means, separately.
4. Drop benign/malicious cluster pairs with high overlap; the surviving
   clusters are the features (the paper retained all 21).
5. A script's feature vector: for each of its paths, find the cluster the
   path belongs to and add the path's attention weight to that feature;
   min–max normalize the resulting vectors.

Cluster centers keep a pointer to the *nearest real path* in the training
corpus, which powers the RQ3 interpretability analysis (Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml import BisectingKMeans
from repro.outliers import FastABOD, select_detector


@dataclass
class ClusterFeature:
    """One feature: a cluster of semantically similar paths."""

    center: np.ndarray
    label: str  # "benign" | "malicious"
    radius: float  # RMS distance of members to the center
    size: int
    #: Signature of the member path nearest to the center (interpretability).
    central_path_signature: str = ""


@dataclass
class FeatureExtractor:
    """Fit on pooled path vectors; transform scripts into feature vectors.

    Args:
        k_benign / k_malicious: Cluster counts per class.
        contamination: FastABOD outlier fraction.
        overlap_threshold: Overlap-removal sensitivity (see
            :meth:`_remove_overlapping`).
        use_metaod: Select the outlier detector with the MetaOD-style
            consensus procedure instead of using FastABOD directly.
        seed: Clustering seed.
    """

    k_benign: int = 11
    k_malicious: int = 10
    contamination: float = 0.1
    overlap_threshold: float = 0.25
    use_metaod: bool = False
    seed: int = 0
    #: Per-class cap on pooled path vectors used for outlier removal and
    #: clustering; feature extraction cost stays bounded on large corpora.
    max_pool_size: int = 6000
    #: A path belongs to its nearest cluster only when it lies within
    #: ``assign_radius_factor × cluster radius`` of the center; paths alien
    #: to every learned behavior (e.g. obfuscator-injected dispatch
    #: machinery) contribute no feature weight at all.
    assign_radius_factor: float = 1.0
    #: "hard": the paper's membership rule (nearest cluster within radius).
    #: "soft": each path spreads its attention weight over clusters by a
    #: radius-scaled Gaussian kernel — alien paths contribute near-uniform
    #: (hence non-discriminative) mass, which stabilizes feature vectors
    #: under structure-heavy obfuscation at small corpus scale.
    assignment: str = "soft"

    features_: list[ClusterFeature] = field(default_factory=list, init=False)
    selected_detector_name_: str = field(default="fast_abod", init=False)
    #: Count of clusters dropped by overlap removal (paper: 0).
    removed_overlaps_: int = field(default=0, init=False)

    # ------------------------------------------------------------------ fit

    def fit(
        self,
        benign_vectors: np.ndarray,
        malicious_vectors: np.ndarray,
        benign_signatures: list[str] | None = None,
        malicious_signatures: list[str] | None = None,
    ) -> "FeatureExtractor":
        """Learn the cluster features from pooled per-class path vectors."""
        benign_vectors, benign_signatures = self._subsample(benign_vectors, benign_signatures)
        malicious_vectors, malicious_signatures = self._subsample(malicious_vectors, malicious_signatures)
        benign_kept, benign_sigs = self._remove_outliers(benign_vectors, benign_signatures)
        malicious_kept, malicious_sigs = self._remove_outliers(malicious_vectors, malicious_signatures)

        benign_clusters = self._cluster(benign_kept, benign_sigs, self.k_benign, "benign")
        malicious_clusters = self._cluster(malicious_kept, malicious_sigs, self.k_malicious, "malicious")
        self.features_ = self._remove_overlapping(benign_clusters, malicious_clusters)
        if not self.features_:
            raise RuntimeError("all clusters were removed as overlapping; lower overlap_threshold")
        return self

    def _subsample(self, vectors: np.ndarray, signatures: list[str] | None):
        vectors = np.asarray(vectors, dtype=float)
        if len(vectors) <= self.max_pool_size:
            return vectors, signatures
        rng = np.random.default_rng(self.seed)
        keep = rng.choice(len(vectors), size=self.max_pool_size, replace=False)
        kept_signatures = [signatures[i] for i in keep] if signatures is not None else None
        return vectors[keep], kept_signatures

    def _remove_outliers(self, vectors: np.ndarray, signatures: list[str] | None):
        vectors = np.asarray(vectors, dtype=float)
        if len(vectors) < 10:  # too small for meaningful outlier removal
            return vectors, signatures
        if self.use_metaod:
            result = select_detector(vectors, contamination=self.contamination)
            detector = result.best_detector
            self.selected_detector_name_ = result.best_name
            # The selector already fit on a subsample; refit on everything.
            detector.fit(vectors)
        else:
            detector = FastABOD(n_neighbors=10, contamination=self.contamination).fit(vectors)
            self.selected_detector_name_ = "fast_abod"
        keep = detector.labels_ == 0
        kept_signatures = (
            [s for s, flag in zip(signatures, keep) if flag] if signatures is not None else None
        )
        return vectors[keep], kept_signatures

    def _cluster(
        self, vectors: np.ndarray, signatures: list[str] | None, k: int, label: str
    ) -> list[ClusterFeature]:
        k = min(k, max(len(vectors), 1))
        if len(vectors) == 0:
            return []
        if len(vectors) < k:
            k = len(vectors)
        model = BisectingKMeans(n_clusters=k, random_state=self.seed).fit(vectors)
        clusters: list[ClusterFeature] = []
        for index in range(len(model.cluster_centers_)):
            members = vectors[model.labels_ == index]
            center = model.cluster_centers_[index]
            if len(members) == 0:
                continue
            distances = np.linalg.norm(members - center, axis=1)
            radius = float(np.sqrt(np.mean(distances**2)))
            signature = ""
            if signatures is not None:
                member_indices = np.flatnonzero(model.labels_ == index)
                nearest = member_indices[int(np.argmin(distances))]
                signature = signatures[nearest]
            clusters.append(
                ClusterFeature(center=center, label=label, radius=radius, size=len(members), central_path_signature=signature)
            )
        return clusters

    def _remove_overlapping(
        self, benign: list[ClusterFeature], malicious: list[ClusterFeature]
    ) -> list[ClusterFeature]:
        """Drop cross-class cluster pairs whose centers nearly coincide.

        Two clusters overlap when the distance between their centers is
        below ``overlap_threshold × (radius_a + radius_b)`` — such a pair
        carries no benign/malicious signal and is removed (both sides).
        """
        drop_benign: set[int] = set()
        drop_malicious: set[int] = set()
        for i, b in enumerate(benign):
            for j, m in enumerate(malicious):
                distance = float(np.linalg.norm(b.center - m.center))
                combined = b.radius + m.radius
                if combined > 0 and distance < self.overlap_threshold * combined:
                    drop_benign.add(i)
                    drop_malicious.add(j)
        self.removed_overlaps_ = len(drop_benign) + len(drop_malicious)
        kept = [b for i, b in enumerate(benign) if i not in drop_benign]
        kept += [m for j, m in enumerate(malicious) if j not in drop_malicious]
        return kept

    # ------------------------------------------------------------ transform

    @property
    def n_features(self) -> int:
        return len(self.features_)

    def _centers(self) -> np.ndarray:
        return np.vstack([f.center for f in self.features_])

    def transform_script(self, vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Aggregate one script's (vectors, weights) into a feature vector.

        Each path joins its nearest cluster; the path's attention weight is
        added to that cluster's feature value (Sec. III-D: weights, not
        binary occurrence).
        """
        if not self.features_:
            raise RuntimeError("FeatureExtractor used before fit()")
        out = np.zeros(self.n_features)
        if len(vectors) == 0:
            return out
        centers = self._centers()
        x_sq = np.sum(vectors**2, axis=1)[:, None]
        c_sq = np.sum(centers**2, axis=1)[None, :]
        distances = np.maximum(x_sq + c_sq - 2.0 * vectors @ centers.T, 0.0)
        radii = np.maximum(np.array([f.radius for f in self.features_]), 1e-9)

        if self.assignment == "soft":
            # Gaussian kernel responsibilities, bandwidth = cluster radius
            # scaled by the membership factor.
            bandwidth_sq = (self.assign_radius_factor * radii[None, :]) ** 2
            logits = -distances / (2.0 * bandwidth_sq)
            logits -= logits.max(axis=1, keepdims=True)
            resp = np.exp(logits)
            resp /= resp.sum(axis=1, keepdims=True)
            return weights @ resp

        nearest = np.argmin(distances, axis=1)
        nearest_distance = np.sqrt(distances[np.arange(len(vectors)), nearest])
        belongs = nearest_distance <= self.assign_radius_factor * radii[nearest]
        np.add.at(out, nearest[belongs], weights[belongs])
        return out

    def transform(self, rows: list[np.ndarray]) -> np.ndarray:
        """Feature matrix from raw per-script rows, min–max normalized (Eq. 6).

        Each row is one script's :meth:`transform_script` output.
        Normalization is *per script*: Eq. 6 rescales each feature vector V
        by its own min(V)/max(V), so every script's vector spans [0, 1]
        regardless of how much total attention weight survived cluster
        assignment.  No state is fitted, so a raw row can be computed (and
        cached) long before the batch it is classified in.
        """
        if not rows:
            return np.zeros((0, self.n_features))
        raw = np.vstack(rows)
        lo = raw.min(axis=1, keepdims=True)
        hi = raw.max(axis=1, keepdims=True)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        return (raw - lo) / span
