"""Random forest classifier (bagged CART trees, sqrt-feature splits).

JSRevealer, JAST, and JSTAP all use a random forest as their final
classifier; the Gini ``feature_importances_`` this class exposes drive the
paper's RQ3 interpretability analysis (Table VII).
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTreeClassifier


class RandomForestClassifier:
    """Bootstrap-aggregated decision trees with majority-probability voting.

    Args:
        n_estimators: Number of trees.
        max_depth: Per-tree depth cap.
        max_features: Features examined per split; default "sqrt".
        min_samples_leaf: Leaf size floor per tree.
        random_state: Seed for bootstrapping and feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        max_features: int | str | None = "sqrt",
        min_samples_leaf: int = 1,
        random_state: int | None = None,
    ):
        if n_estimators <= 0:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.estimators_: list[DecisionTreeClassifier] = []
        self.classes_: np.ndarray | None = None
        self.feature_importances_: np.ndarray | None = None
        self._columns: list[np.ndarray | None] | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(y)
        self.estimators_ = []
        self._columns = None
        n = len(y)

        importance_sum = np.zeros(X.shape[1])
        for _ in range(self.n_estimators):
            indices = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                max_features=self.max_features,
                min_samples_leaf=self.min_samples_leaf,
                rng=np.random.default_rng(rng.integers(0, 2**63)),
            )
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
            importance_sum += self._aligned_importances(tree, X.shape[1])

        total = importance_sum.sum()
        self.feature_importances_ = importance_sum / total if total > 0 else importance_sum
        return self

    def _aligned_importances(self, tree: DecisionTreeClassifier, n_features: int) -> np.ndarray:
        importances = tree.feature_importances_
        if importances is None:
            return np.zeros(n_features)
        return importances

    def _tree_columns(self) -> list[np.ndarray | None]:
        """Per tree, the forest columns its ``predict_proba`` fills.

        Trees trained on bootstrap samples may have seen a subset of the
        classes; ``None`` marks a tree that saw them all.  Computed once per
        fitted forest (and on first use of a deserialized one).
        """
        if self._columns is None:
            self._columns = [
                None if np.array_equal(tree.classes_, self.classes_)
                else np.searchsorted(self.classes_, tree.classes_)
                for tree in self.estimators_
            ]
        return self._columns

    def predict_proba(self, X) -> np.ndarray:
        if not self.estimators_ or self.classes_ is None:
            raise RuntimeError("Classifier used before fit()")
        X = np.asarray(X, dtype=float)
        acc = np.zeros((len(X), len(self.classes_)))
        # Trees are summed in order, so the result is the same float sum
        # whatever the columns: adding a tree's absent class is adding 0.0.
        for tree, columns in zip(self.estimators_, self._tree_columns()):
            if columns is None:
                acc += tree.predict_proba(X)
            else:
                acc[:, columns] += tree.predict_proba(X)
        return acc / len(self.estimators_)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
