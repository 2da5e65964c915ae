"""CART decision tree (Gini impurity, binary splits on numeric features).

A vectorized numpy implementation: each node split scans candidate
thresholds per feature using cumulative class counts, so training is
O(n_features × n log n) per node rather than Python-loop-per-sample.
Supports ``max_features`` subsampling and bootstrap-weighted fitting so
:class:`repro.ml.forest.RandomForestClassifier` can reuse it directly.

A fitted tree is five pre-order arrays, one entry per node: ``feature_``,
``threshold_``, ``left_``, ``right_`` and ``value_`` (the class-probability
row; zeros at a split).  A row goes left when
``x[feature_] <= threshold_``.  A leaf is its own left and right child,
so a descent that goes on past it stays put: :func:`descend` walks every
row through every tree one level per step with numpy gathers, which is
how the tree and the forest predict.
"""

from __future__ import annotations

import numpy as np

#: A node while the tree grows: ``[feature, threshold, left, right, value]``.
NodeList = list[list]


def append_node(nodes: NodeList, value: np.ndarray, feature: int = -1, threshold: float = 0.0) -> int:
    """Append a node to ``nodes`` as its own children (a leaf until the
    caller links its subtrees); return its index."""
    index = len(nodes)
    nodes.append([feature, threshold, index, index, value])
    return index


def descend(X: np.ndarray, feature, threshold, left, right, roots: np.ndarray, depth: int) -> np.ndarray:
    """The leaf each row of ``X`` reaches from each root: (rows, roots) node indices.

    ``depth`` levels, each one gather of the rows' split values, one
    comparison and one ``np.where``.  NaN compares false, so it goes right.
    """
    node = np.zeros((len(X), 1), dtype=np.intp) + roots
    rows = np.arange(len(X))[:, None]
    for _ in range(depth):
        node = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
    return node


class DecisionTreeClassifier:
    """Binary/multiclass CART classifier.

    Args:
        max_depth: Maximum tree depth (None = unlimited).
        min_samples_split: Minimum samples required to attempt a split.
        min_samples_leaf: Minimum samples each child must keep.
        max_features: Number of features examined per split — int, "sqrt",
            or None (all features).  Random forests pass "sqrt".
        rng: Randomness for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng if rng is not None else np.random.default_rng()
        self.classes_: np.ndarray | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.left_: np.ndarray | None = None
        self.right_: np.ndarray | None = None
        self.value_: np.ndarray | None = None
        self._depth = 0

    # ------------------------------------------------------------------ fit

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("empty training set")
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        weights = (
            np.ones(len(y), dtype=float)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=float)
        )
        self._importance_acc = np.zeros(self.n_features_)
        nodes: NodeList = []
        self._grow(nodes, X, y_encoded, weights, depth=0)
        self.set_nodes(nodes)
        total = self._importance_acc.sum()
        self.feature_importances_ = (
            self._importance_acc / total if total > 0 else np.zeros(self.n_features_)
        )
        return self

    def set_nodes(self, nodes: NodeList) -> None:
        """Take ``nodes`` (pre-order, as :func:`append_node` builds them) as
        the fitted tree."""
        feature, threshold, left, right, value = zip(*nodes)
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold, dtype=float)
        self.left_ = np.array(left, dtype=np.intp)
        self.right_ = np.array(right, dtype=np.intp)
        self.value_ = np.array(value, dtype=float)
        # Pre-order: a parent's level is known before its children's.
        levels = [0] * len(nodes)
        for node, (_, _, lo, hi, _) in enumerate(nodes):
            if lo != node:
                levels[lo] = levels[hi] = levels[node] + 1
        self._depth = max(levels)

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        return min(int(self.max_features), self.n_features_)

    def _leaf(self, nodes: NodeList, y: np.ndarray, weights: np.ndarray) -> int:
        proba = np.zeros(len(self.classes_))
        np.add.at(proba, y, weights)
        total = proba.sum()
        proba = proba / total if total > 0 else np.full(len(self.classes_), 1 / len(self.classes_))
        return append_node(nodes, proba)

    def _grow(self, nodes: NodeList, X: np.ndarray, y: np.ndarray, weights: np.ndarray, depth: int) -> int:
        """Append the subtree over these samples to ``nodes``; return its root."""
        n = len(y)
        if (
            n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or len(np.unique(y)) == 1
        ):
            return self._leaf(nodes, y, weights)

        feature, threshold, gain = self._best_split(X, y, weights)
        if feature < 0:
            return self._leaf(nodes, y, weights)

        mask = X[:, feature] <= threshold
        left_count, right_count = int(mask.sum()), int((~mask).sum())
        if left_count < self.min_samples_leaf or right_count < self.min_samples_leaf:
            return self._leaf(nodes, y, weights)

        self._importance_acc[feature] += gain * weights.sum()
        node = append_node(nodes, np.zeros(len(self.classes_)), feature, threshold)
        nodes[node][2] = self._grow(nodes, X[mask], y[mask], weights[mask], depth + 1)
        nodes[node][3] = self._grow(nodes, X[~mask], y[~mask], weights[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray, weights: np.ndarray) -> tuple[int, float, float]:
        """Return (feature, threshold, gini_gain); feature=-1 if no split."""
        n_classes = len(self.classes_)
        total_weight = weights.sum()
        class_weight = np.zeros(n_classes)
        np.add.at(class_weight, y, weights)
        parent_gini = 1.0 - np.sum((class_weight / total_weight) ** 2)

        best = (-1, 0.0, 0.0)
        features = self.rng.permutation(self.n_features_)[: self._n_candidate_features()]

        for feature in features:
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            sorted_y = y[order]
            sorted_w = weights[order]

            # Cumulative weighted class counts after each position.
            onehot = np.zeros((len(y), n_classes))
            onehot[np.arange(len(y)), sorted_y] = sorted_w
            left_cum = np.cumsum(onehot, axis=0)

            # Candidate split positions: where consecutive values differ.
            boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
            if boundaries.size == 0:
                continue

            left_weight = left_cum[boundaries].sum(axis=1)
            right_weight = total_weight - left_weight
            valid = (left_weight > 0) & (right_weight > 0)
            if not np.any(valid):
                continue

            left_p = left_cum[boundaries] / left_weight[:, None]
            right_counts = class_weight[None, :] - left_cum[boundaries]
            right_p = right_counts / right_weight[:, None]
            gini_left = 1.0 - np.sum(left_p**2, axis=1)
            gini_right = 1.0 - np.sum(right_p**2, axis=1)
            weighted = (left_weight * gini_left + right_weight * gini_right) / total_weight
            gain = parent_gini - weighted
            gain[~valid] = -np.inf

            best_i = int(np.argmax(gain))
            if gain[best_i] > best[2] + 1e-12:
                boundary = boundaries[best_i]
                threshold = 0.5 * (sorted_vals[boundary] + sorted_vals[boundary + 1])
                best = (int(feature), float(threshold), float(gain[best_i]))

        return best

    # -------------------------------------------------------------- predict

    def predict_proba(self, X) -> np.ndarray:
        if self.feature_ is None:
            raise RuntimeError("Classifier used before fit()")
        X = np.asarray(X, dtype=float)
        node = descend(
            X, self.feature_, self.threshold_, self.left_, self.right_,
            np.zeros(1, dtype=np.intp), self._depth,
        )
        return self.value_[node[:, 0]]

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------ inspection

    def depth(self) -> int:
        """Splits on the longest root-to-leaf path (0 for a single leaf)."""
        return self._depth

    def node_count(self) -> int:
        return 0 if self.feature_ is None else len(self.feature_)
