"""Unit tests for the CART decision tree and the random forest."""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier, accuracy


def _blobs(rng, n=120, separation=4.0):
    """Two separable Gaussian blobs in 2-D."""
    a = rng.normal(0.0, 1.0, size=(n // 2, 2))
    b = rng.normal(separation, 1.0, size=(n // 2, 2))
    X = np.vstack([a, b])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def _xor(rng, n=200):
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestDecisionTree:
    def test_separable_data_perfectly_fit(self):
        rng = np.random.default_rng(0)
        X, y = _blobs(rng)
        tree = DecisionTreeClassifier(rng=np.random.default_rng(1)).fit(X, y)
        assert accuracy(y, tree.predict(X)) == 1.0

    def test_xor_needs_depth_two(self):
        rng = np.random.default_rng(0)
        X, y = _xor(rng)
        shallow = DecisionTreeClassifier(max_depth=1, rng=np.random.default_rng(1)).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=4, rng=np.random.default_rng(1)).fit(X, y)
        assert accuracy(y, deep.predict(X)) > accuracy(y, shallow.predict(X))
        assert accuracy(y, deep.predict(X)) > 0.95

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 5))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=3, rng=np.random.default_rng(1)).fit(X, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(3)
        X, y = _blobs(rng, n=40)
        tree = DecisionTreeClassifier(min_samples_leaf=10, rng=np.random.default_rng(1)).fit(X, y)
        assert tree.node_count() < 15

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.node_count() == 1

    def test_probability_output_sums_to_one(self):
        rng = np.random.default_rng(4)
        X, y = _blobs(rng)
        tree = DecisionTreeClassifier(max_depth=2, rng=np.random.default_rng(1)).fit(X, y)
        proba = tree.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_feature_importances_point_to_informative_feature(self):
        rng = np.random.default_rng(5)
        n = 300
        informative = rng.normal(size=n)
        noise = rng.normal(size=(n, 3))
        X = np.column_stack([noise[:, 0], informative, noise[:, 1], noise[:, 2]])
        y = (informative > 0).astype(int)
        tree = DecisionTreeClassifier(rng=np.random.default_rng(1)).fit(X, y)
        assert int(np.argmax(tree.feature_importances_)) == 1
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_sample_weights_bias_predictions(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1]])
        y = np.array([0, 0, 1, 1])
        # Overweight class-1 rows heavily; a depth-0 stump forced by
        # max_depth must predict the heavier class.
        tree = DecisionTreeClassifier(max_depth=0).fit(X, y, sample_weight=[1, 1, 10, 10])
        assert tree.predict([[0.05]])[0] == 1

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.empty((0, 2)), np.empty(0))

    def test_multiclass(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(c * 5, 0.5, size=(30, 2)) for c in range(3)])
        y = np.repeat([0, 1, 2], 30)
        tree = DecisionTreeClassifier(rng=np.random.default_rng(1)).fit(X, y)
        assert accuracy(y, tree.predict(X)) == 1.0


class TestRandomForest:
    def test_forest_fits_blobs(self):
        rng = np.random.default_rng(0)
        X, y = _blobs(rng)
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        assert accuracy(y, forest.predict(X)) >= 0.98

    def test_forest_beats_stump_on_xor(self):
        rng = np.random.default_rng(1)
        X, y = _xor(rng, n=400)
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(X, y)
        assert accuracy(y, forest.predict(X)) > 0.9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        X, y = _blobs(rng)
        p1 = RandomForestClassifier(n_estimators=5, random_state=42).fit(X, y).predict(X)
        p2 = RandomForestClassifier(n_estimators=5, random_state=42).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_feature_importances_normalized(self):
        rng = np.random.default_rng(3)
        X, y = _blobs(rng)
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_predict_proba_shape_and_sum(self):
        rng = np.random.default_rng(4)
        X, y = _blobs(rng)
        forest = RandomForestClassifier(n_estimators=8, random_state=0).fit(X, y)
        proba = forest.predict_proba(X[:10])
        assert proba.shape == (10, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_generalization_on_holdout(self):
        rng = np.random.default_rng(5)
        X, y = _blobs(rng, n=400)
        X_test, y_test = _blobs(np.random.default_rng(99), n=100)
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert accuracy(y_test, forest.predict(X_test)) >= 0.95

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_unfit_predict_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict([[0.0, 1.0]])


def _aligned_proba_oracle(forest, X):
    """The forest's probabilities as first written: every call aligns each
    tree's columns with the forest's classes in a fresh zero matrix."""
    X = np.asarray(X, dtype=float)
    acc = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        proba = tree.predict_proba(X)
        aligned = np.zeros_like(acc)
        for j, cls in enumerate(tree.classes_):
            col = int(np.searchsorted(forest.classes_, cls))
            aligned[:, col] = proba[:, j]
        acc += aligned
    return acc / len(forest.estimators_)


class TestForestMatchesAlignmentOracle:
    def _assert_oracle_equal(self, forest, X):
        expected = _aligned_proba_oracle(forest, X)
        proba = forest.predict_proba(X)
        assert proba.tobytes() == expected.tobytes()
        assert np.array_equal(forest.predict(X), forest.classes_[np.argmax(expected, axis=1)])
        # The cached columns serve later calls unchanged.
        assert forest.predict_proba(X).tobytes() == expected.tobytes()

    def test_fixture_sized_forest(self):
        # The detector's default forest: 60 trees over one column per cluster
        # feature (K = 11 + 10), trained on 60 scripts per class.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(120, 21))
        y = (X[:, 0] + 0.5 * X[:, 3] + rng.normal(scale=0.8, size=120) > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=60, random_state=0).fit(X, y)
        self._assert_oracle_equal(forest, rng.normal(size=(200, 21)))
        self._assert_oracle_equal(forest, rng.normal(size=(1, 21)))

    @pytest.mark.parametrize("labels", [[0] * 9 + [1], [0] * 8 + [1, 2]])
    def test_bootstrap_trees_missing_classes(self, labels):
        rng = np.random.default_rng(3)
        y = np.array(labels)
        X = rng.normal(size=(len(y), 3)) + y[:, None]
        forest = RandomForestClassifier(n_estimators=40, random_state=1).fit(X, y)
        assert any(len(tree.classes_) == 1 for tree in forest.estimators_)
        assert any(len(tree.classes_) < len(forest.classes_) for tree in forest.estimators_)
        self._assert_oracle_equal(forest, rng.normal(size=(50, 3)) * 2.0)

    def test_refit_recomputes_columns(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 2))
        forest = RandomForestClassifier(n_estimators=20, random_state=0)
        forest.fit(X, np.array([0] * 11 + [1]))
        forest.predict_proba(X)
        forest.fit(X, np.array([0] * 4 + [1] * 4 + [2] * 4))
        self._assert_oracle_equal(forest, X)
