"""Random forest classifier (bagged CART trees, sqrt-feature splits).

JSRevealer, JAST, and JSTAP all use a random forest as their final
classifier; the Gini ``feature_importances_`` this class exposes drive the
paper's RQ3 interpretability analysis (Table VII).

A fitted forest stacks its trees' pre-order node arrays into one set, once
(at the end of :meth:`RandomForestClassifier.fit`, or in
:meth:`RandomForestClassifier.from_estimators` for a loaded model), with
each leaf's probability row laid out over the forest's ``classes_`` (0.0
for a class the tree's bootstrap sample missed).  :meth:`predict_proba`
is then one :func:`~repro.ml.tree.descend` of every row through every
tree, and the leaf rows are added in tree order: the same float additions
as summing the trees one by one.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTreeClassifier, descend


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

    @classmethod
    def from_estimators(
        cls, estimators: list[DecisionTreeClassifier], classes, feature_importances
    ) -> "RandomForestClassifier":
        """A fitted forest of ``estimators`` over ``classes`` (sorted)."""
        forest = cls(n_estimators=len(estimators))
        forest.estimators_ = list(estimators)
        forest.classes_ = np.asarray(classes)
        forest.feature_importances_ = np.asarray(feature_importances)
        forest._stack()
        return forest

    def fit(self, X, y) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(y)
        self.estimators_ = []
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
            importance_sum += tree.feature_importances_

        total = importance_sum.sum()
        self.feature_importances_ = importance_sum / total if total > 0 else importance_sum
        self._stack()
        return self

    def _stack(self) -> None:
        trees = self.estimators_
        sizes = [tree.node_count() for tree in trees]
        self._roots = np.cumsum([0, *sizes[:-1]]).astype(np.intp)
        self._feature = np.concatenate([tree.feature_ for tree in trees])
        self._threshold = np.concatenate([tree.threshold_ for tree in trees])
        self._left = np.concatenate([tree.left_ + root for tree, root in zip(trees, self._roots)])
        self._right = np.concatenate([tree.right_ + root for tree, root in zip(trees, self._roots)])
        self._value = np.zeros((sum(sizes), len(self.classes_)))
        for tree, root, size in zip(trees, self._roots, sizes):
            columns = np.searchsorted(self.classes_, tree.classes_)
            self._value[root : root + size, columns] = tree.value_
        self._depth = max(tree.depth() for tree in trees)

    def predict_proba(self, X) -> np.ndarray:
        if not self.estimators_ or self.classes_ is None:
            raise RuntimeError("Classifier used before fit()")
        X = np.asarray(X, dtype=float)
        leaves = descend(
            X, self._feature, self._threshold, self._left, self._right, self._roots, self._depth
        )
        # (trees, rows, classes); the running sum over axis 0 adds the trees
        # strictly in order, as a loop would (a plain sum may pair them up).
        total = np.cumsum(self._value[leaves.T], axis=0)[-1]
        return total / len(self.estimators_)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
