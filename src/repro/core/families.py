"""Malware family classification — the paper's stated future work.

Section V-A: *"Our future work will add a JavaScript malware family
component."*  This module implements that extension on top of the
JSRevealer feature space: the same cluster-weight feature vectors feed a
multiclass random forest over attack families (dropper, heap spray,
skimmer, cryptojacker, redirector, staged loader), reusing the trained
binary detector's embedder and cluster features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml import RandomForestClassifier

from .detector import JSRevealer


@dataclass
class FamilyReport:
    """Per-family precision/recall over a labeled evaluation set."""

    family: str
    precision: float
    recall: float
    support: int


class FamilyClassifier:
    """Multiclass family classifier over JSRevealer's feature space.

    Args:
        detector: A *fitted* JSRevealer whose embedder and cluster features
            are reused (the binary pipeline is the expensive part; family
            classification rides on top, as the paper sketches).
        n_estimators: Trees in the family forest.
        seed: Forest seed.
    """

    def __init__(self, detector: JSRevealer, n_estimators: int = 80, seed: int = 0):
        if not detector._fitted:
            raise ValueError("FamilyClassifier needs a fitted JSRevealer")
        self.detector = detector
        self.classifier = RandomForestClassifier(n_estimators=n_estimators, random_state=seed)
        self.families_: list[str] = []

    def fit(self, sources: list[str], families: list[str]) -> "FamilyClassifier":
        """Train on malicious scripts labeled with their family name."""
        if len(sources) != len(families):
            raise ValueError("sources and families length mismatch")
        if not sources:
            raise ValueError("empty training set")
        X = self._features(sources)
        self.families_ = sorted(set(families))
        index_of = {f: i for i, f in enumerate(self.families_)}
        y = np.array([index_of[f] for f in families])
        self.classifier.fit(X, y)
        return self

    def predict(self, sources: list[str]) -> list[str]:
        if not self.families_:
            raise RuntimeError("FamilyClassifier used before fit()")
        indices = self.classifier.predict(self._features(sources))
        return [self.families_[int(i)] for i in indices]

    def predict_proba(self, sources: list[str]) -> np.ndarray:
        if not self.families_:
            raise RuntimeError("FamilyClassifier used before fit()")
        return self.classifier.predict_proba(self._features(sources))

    def _features(self, sources: list[str]) -> np.ndarray:
        """Eq. 6-normalized cluster rows, each from the detector's per-script prefix."""
        detector = self.detector
        return detector.feature_extractor.transform([detector.script_row(s).row for s in sources])

    def evaluate(self, sources: list[str], families: list[str]) -> list[FamilyReport]:
        """Per-family precision/recall on a labeled set."""
        predictions = self.predict(sources)
        reports = []
        for family in self.families_:
            tp = sum(1 for p, t in zip(predictions, families) if p == family and t == family)
            fp = sum(1 for p, t in zip(predictions, families) if p == family and t != family)
            fn = sum(1 for p, t in zip(predictions, families) if p != family and t == family)
            support = sum(1 for t in families if t == family)
            reports.append(
                FamilyReport(
                    family=family,
                    precision=tp / (tp + fp) if tp + fp else 0.0,
                    recall=tp / (tp + fn) if tp + fn else 0.0,
                    support=support,
                )
            )
        return reports
