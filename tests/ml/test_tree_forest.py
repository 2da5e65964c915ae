"""Unit tests for the CART decision tree and the random forest."""

import hashlib
import json

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


def _walk_proba(tree, X):
    """One tree's probabilities by a row-by-row node walk over its arrays:
    from the root, go left while ``x[feature_] <= threshold_`` and right
    otherwise, until a node that is its own child; take its ``value_`` row."""
    X = np.asarray(X, dtype=float)
    out = np.empty((len(X), len(tree.classes_)))
    for i, row in enumerate(X):
        node = 0
        while tree.left_[node] != node:
            goes_left = row[tree.feature_[node]] <= tree.threshold_[node]
            node = tree.left_[node] if goes_left else tree.right_[node]
        out[i] = tree.value_[node]
    return out


def _walk_depth(tree, node=0):
    if tree.left_[node] == node:
        return 0
    return 1 + max(_walk_depth(tree, tree.left_[node]), _walk_depth(tree, tree.right_[node]))


def _walk_count(tree, node=0):
    if tree.left_[node] == node:
        return 1
    return 1 + _walk_count(tree, tree.left_[node]) + _walk_count(tree, tree.right_[node])


def _aligned_proba_oracle(forest, X):
    """The forest's probabilities as first written: every call walks each
    tree and aligns its columns with the forest's classes in a fresh zero
    matrix, adding the trees one by one."""
    X = np.asarray(X, dtype=float)
    acc = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        proba = _walk_proba(tree, X)
        aligned = np.zeros_like(acc)
        for j, cls in enumerate(tree.classes_):
            col = int(np.searchsorted(forest.classes_, cls))
            aligned[:, col] = proba[:, j]
        acc += aligned
    return acc / len(forest.estimators_)


def _with_thresholds_and_nan(forest, X):
    """``X`` plus, per tree, a row that sits exactly on its root's split
    threshold (every row visits the root), and rows with NaN."""
    X = np.asarray(X, dtype=float)
    on_threshold = []
    for tree in forest.estimators_:
        if tree.left_[0] != 0:
            row = X[len(on_threshold) % len(X)].copy()
            row[tree.feature_[0]] = tree.threshold_[0]
            on_threshold.append(row)
    with_nan = X[: min(len(X), 6)].copy()
    with_nan[::2, 0] = np.nan
    with_nan[1::2, :] = np.nan
    return np.vstack([X, *on_threshold, with_nan])


class TestForestMatchesAlignmentOracle:
    def _assert_oracle_equal(self, forest, X):
        expected = _aligned_proba_oracle(forest, X)
        proba = forest.predict_proba(X)
        assert proba.tobytes() == expected.tobytes()
        assert np.array_equal(forest.predict(X), forest.classes_[np.argmax(expected, axis=1)])
        # One row at a time gives the batch's bytes.
        for i in range(0, len(X), max(1, len(X) // 7)):
            assert forest.predict_proba(X[i : i + 1]).tobytes() == expected[i : i + 1].tobytes()
        for tree in forest.estimators_:
            assert tree.predict_proba(X).tobytes() == _walk_proba(tree, X).tobytes()
            assert tree.depth() == _walk_depth(tree)
            assert tree.node_count() == _walk_count(tree)

    def test_fixture_sized_forest(self):
        # The detector's default forest: 60 trees over one column per cluster
        # feature (K = 11 + 10), trained on 60 scripts per class.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(120, 21))
        y = (X[:, 0] + 0.5 * X[:, 3] + rng.normal(scale=0.8, size=120) > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=60, random_state=0).fit(X, y)
        self._assert_oracle_equal(forest, _with_thresholds_and_nan(forest, rng.normal(size=(200, 21))))
        self._assert_oracle_equal(forest, rng.normal(size=(1, 21)))

    @pytest.mark.parametrize("labels", [[0] * 9 + [1], [0] * 8 + [1, 2]])
    def test_bootstrap_trees_missing_classes(self, labels):
        rng = np.random.default_rng(3)
        y = np.array(labels)
        X = rng.normal(size=(len(y), 3)) + y[:, None]
        forest = RandomForestClassifier(n_estimators=40, random_state=1).fit(X, y)
        assert any(len(tree.classes_) == 1 for tree in forest.estimators_)
        assert any(len(tree.classes_) < len(forest.classes_) for tree in forest.estimators_)
        self._assert_oracle_equal(forest, _with_thresholds_and_nan(forest, rng.normal(size=(50, 3)) * 2.0))

    def test_refit_recomputes_columns(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 2))
        forest = RandomForestClassifier(n_estimators=20, random_state=0)
        forest.fit(X, np.array([0] * 11 + [1]))
        forest.predict_proba(X)
        forest.fit(X, np.array([0] * 4 + [1] * 4 + [2] * 4))
        self._assert_oracle_equal(forest, X)

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_unbounded_depth_on_noisy_labels(self, n_classes):
        # max_depth=None on labels the features barely explain grows deep,
        # uneven trees, so rows stop at leaves on many different levels.
        rng = np.random.default_rng(n_classes)
        X = np.round(rng.normal(size=(150, 5)), 1)
        y = rng.integers(0, n_classes, size=150)
        forest = RandomForestClassifier(n_estimators=15, max_depth=None, random_state=2).fit(X, y)
        assert max(tree.depth() for tree in forest.estimators_) >= 6
        self._assert_oracle_equal(forest, _with_thresholds_and_nan(forest, np.round(rng.normal(size=(80, 5)), 1)))

    def test_single_leaf_trees(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, np.array([1, 1, 1]))
        assert all(tree.node_count() == 1 and tree.depth() == 0 for tree in forest.estimators_)
        self._assert_oracle_equal(forest, X)

    def test_decision_tree_matches_walk(self):
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(100, 4)), 1)
        y = (X[:, 0] * X[:, 1] > 0).astype(int) + (X[:, 2] > 1)
        tree = DecisionTreeClassifier(rng=np.random.default_rng(0)).fit(X, y)
        forest_like = RandomForestClassifier.from_estimators([tree], tree.classes_, tree.feature_importances_)
        Xq = _with_thresholds_and_nan(forest_like, X)
        assert tree.predict_proba(Xq).tobytes() == _walk_proba(tree, Xq).tobytes()
        assert tree.predict_proba(Xq[:1]).tobytes() == _walk_proba(tree, Xq[:1]).tobytes()
        assert tree.depth() == _walk_depth(tree) and tree.node_count() == _walk_count(tree)


class TestForestBytesAcrossVersions:
    """Digests taken from the per-node implementation this one replaced."""

    def test_serialized_forest_and_probabilities_unchanged(self):
        from repro.core.persistence import _forest_from_dict, _forest_to_dict

        rng = np.random.default_rng(11)
        X = np.round(rng.normal(size=(90, 6)), 1)
        y = np.array([0] * 44 + [1] * 44 + [2] * 2)
        forest = RandomForestClassifier(n_estimators=25, max_features=2, random_state=5).fit(X, y)
        assert any(len(tree.classes_) < 3 for tree in forest.estimators_)
        Xq = np.vstack([X, np.round(rng.normal(size=(30, 6)), 1)])
        Xq[::7, 2] = np.nan

        text = json.dumps(_forest_to_dict(forest))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "be5638679ca5768ccc5942ed5fe58add2144a7601a98971ea7165e907581fb80"
        )
        proba = forest.predict_proba(Xq)
        assert hashlib.sha256(proba.tobytes()).hexdigest() == (
            "48fff3241349d2172964743f355d50b99d845135bf24ad7a60836ba362755f63"
        )
        loaded = _forest_from_dict(json.loads(text))
        assert loaded.predict_proba(Xq).tobytes() == proba.tobytes()
        assert json.dumps(_forest_to_dict(loaded)) == text
        for fitted, restored in zip(forest.estimators_, loaded.estimators_):
            for name in ("feature_", "threshold_", "left_", "right_", "value_"):
                assert getattr(fitted, name).tobytes() == getattr(restored, name).tobytes(), name
