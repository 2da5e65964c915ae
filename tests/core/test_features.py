"""Unit tests for cluster-based feature extraction."""

import numpy as np
import pytest

from repro.core import FeatureExtractor


def two_class_pools(rng, d=8, per=80):
    """Benign pool around one set of centers, malicious around another."""
    benign_centers = rng.normal(-2.0, 1.0, size=(3, d))
    malicious_centers = rng.normal(+2.0, 1.0, size=(3, d))
    benign = np.vstack([rng.normal(c, 0.3, size=(per, d)) for c in benign_centers])
    malicious = np.vstack([rng.normal(c, 0.3, size=(per, d)) for c in malicious_centers])
    return benign, malicious


class TestFit:
    def test_feature_count(self):
        rng = np.random.default_rng(0)
        benign, malicious = two_class_pools(rng)
        fx = FeatureExtractor(k_benign=3, k_malicious=3, seed=0).fit(benign, malicious)
        assert fx.n_features == 6
        labels = [f.label for f in fx.features_]
        assert labels.count("benign") == 3
        assert labels.count("malicious") == 3

    def test_overlap_removal(self):
        rng = np.random.default_rng(1)
        # Both classes drawn from the SAME tight cluster: full overlap.
        shared = rng.normal(0.0, 0.1, size=(200, 4))
        fx = FeatureExtractor(k_benign=1, k_malicious=1, overlap_threshold=1.0, seed=0)
        with pytest.raises(RuntimeError):
            fx.fit(shared[:100], shared[100:])
        assert fx.removed_overlaps_ == 2

    def test_no_overlap_keeps_everything(self):
        rng = np.random.default_rng(2)
        benign, malicious = two_class_pools(rng)
        fx = FeatureExtractor(k_benign=3, k_malicious=3, overlap_threshold=0.25, seed=0)
        fx.fit(benign, malicious)
        assert fx.removed_overlaps_ == 0

    def test_outliers_do_not_become_centers(self):
        rng = np.random.default_rng(3)
        benign, malicious = two_class_pools(rng)
        # Plant far-away outliers in the benign pool.
        benign = np.vstack([benign, rng.normal(0, 1, size=(5, benign.shape[1])) + 50.0])
        fx = FeatureExtractor(k_benign=3, k_malicious=3, contamination=0.05, seed=0)
        fx.fit(benign, malicious)
        for feature in fx.features_:
            assert np.linalg.norm(feature.center) < 30.0

    def test_signatures_attached(self):
        rng = np.random.default_rng(4)
        benign, malicious = two_class_pools(rng, per=30)
        benign_sigs = [f"b{i}" for i in range(len(benign))]
        malicious_sigs = [f"m{i}" for i in range(len(malicious))]
        fx = FeatureExtractor(k_benign=2, k_malicious=2, seed=0)
        fx.fit(benign, malicious, benign_sigs, malicious_sigs)
        assert all(f.central_path_signature for f in fx.features_)
        benign_feats = [f for f in fx.features_ if f.label == "benign"]
        assert all(f.central_path_signature.startswith("b") for f in benign_feats)

    def test_small_pools_skip_outlier_removal(self):
        rng = np.random.default_rng(5)
        benign = rng.normal(-1, 0.1, size=(5, 3))
        malicious = rng.normal(+1, 0.1, size=(5, 3))
        fx = FeatureExtractor(k_benign=2, k_malicious=2, seed=0).fit(benign, malicious)
        assert fx.n_features == 4

    def test_pool_subsampling(self):
        rng = np.random.default_rng(6)
        benign, malicious = two_class_pools(rng, per=100)
        fx = FeatureExtractor(k_benign=2, k_malicious=2, seed=0, max_pool_size=50)
        fx.fit(benign, malicious)
        assert fx.n_features == 4


class TestTransform:
    def fitted(self, seed=0):
        rng = np.random.default_rng(seed)
        benign, malicious = two_class_pools(rng)
        fx = FeatureExtractor(k_benign=3, k_malicious=3, seed=0).fit(benign, malicious)
        return fx, benign, malicious

    def test_hard_weights_aggregate_into_nearest_cluster(self):
        fx, benign, _ = self.fitted()
        fx.assignment = "hard"
        fx.assign_radius_factor = 100.0  # disable the membership cutoff
        vectors = benign[:4]
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        out = fx.transform_script(vectors, weights)
        assert out.sum() == pytest.approx(1.0)
        benign_mass = sum(v for v, f in zip(out, fx.features_) if f.label == "benign")
        assert benign_mass == pytest.approx(1.0)

    def test_hard_membership_cutoff_drops_alien_paths(self):
        fx, benign, _ = self.fitted()
        fx.assignment = "hard"
        fx.assign_radius_factor = 1.0
        alien = benign[:3] + 100.0  # far outside every cluster radius
        out = fx.transform_script(alien, np.full(3, 1 / 3))
        assert out.sum() == pytest.approx(0.0)

    def test_soft_assignment_spreads_but_conserves_mass(self):
        fx, benign, _ = self.fitted()
        fx.assignment = "soft"
        vectors = benign[:4]
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        out = fx.transform_script(vectors, weights)
        assert out.sum() == pytest.approx(1.0)  # responsibilities sum to 1
        # In-cluster paths still put most mass on benign clusters.
        benign_mass = sum(v for v, f in zip(out, fx.features_) if f.label == "benign")
        assert benign_mass > 0.6

    def test_soft_assignment_conserves_mass_for_alien_paths(self):
        fx, benign, _ = self.fitted()
        fx.assignment = "soft"
        alien = benign[:1] + 1000.0
        out = fx.transform_script(alien, np.ones(1))
        # Soft responsibilities always sum to the path weight: alien paths
        # are assigned (to their least-distant cluster), never dropped.
        assert out.sum() == pytest.approx(1.0)

    def test_equidistant_paths_spread_over_clusters(self):
        fx, benign, malicious = self.fitted()
        fx.assignment = "soft"
        centers = np.vstack([f.center for f in fx.features_])
        midpoint = centers.mean(axis=0, keepdims=True)
        out = fx.transform_script(midpoint, np.ones(1))
        # A point between clusters must not give all mass to one feature
        # unless one cluster is overwhelmingly closest.
        assert out.sum() == pytest.approx(1.0)

    def test_empty_script_is_zero_vector(self):
        fx, _, _ = self.fitted()
        out = fx.transform_script(np.zeros((0, 8)), np.zeros(0))
        assert np.all(out == 0.0)

    def test_transform_normalizes_per_script(self):
        fx, benign, malicious = self.fitted()
        scripts = [
            (benign[:10], np.full(10, 0.1)),
            (malicious[:5], np.full(5, 0.2)),
            (np.vstack([benign[:2], malicious[:2]]), np.full(4, 0.25)),
        ]
        X = fx.transform([fx.transform_script(v, w) for v, w in scripts])
        assert X.shape == (3, fx.n_features)
        assert X.min() >= 0.0 and X.max() <= 1.0
        # Eq. 6 normalizes per script: every non-constant row spans [0, 1].
        for row in X:
            assert row.max() == pytest.approx(1.0)
            assert row.min() == pytest.approx(0.0)

    def test_benign_and_malicious_scripts_separate(self):
        fx, benign, malicious = self.fitted()
        b_feat = fx.transform_script(benign[:20], np.full(20, 0.05))
        m_feat = fx.transform_script(malicious[:20], np.full(20, 0.05))
        benign_idx = [i for i, f in enumerate(fx.features_) if f.label == "benign"]
        assert b_feat[benign_idx].sum() > m_feat[benign_idx].sum()

    def test_unfit_transform_raises(self):
        fx = FeatureExtractor()
        with pytest.raises(RuntimeError):
            fx.transform_script(np.zeros((1, 8)), np.ones(1))
