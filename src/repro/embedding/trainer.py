"""Training loop for the path-embedding model (Sec. III-C).

The paper pre-trains the model on 5,000 held-out scripts (2,500 benign,
2,500 malicious) for 100 epochs, using the script labels as supervision,
then freezes it: at detection time only the FC-layer outputs and attention
weights are read.  ``PathEmbedder`` packages that protocol.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.paths import PathContext, PathFeaturizer

from .model import Adam, AttentionEmbeddingModel


@dataclass
class TrainingHistory:
    """Loss/accuracy trajectory of the pre-training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


class PathEmbedder:
    """Pre-trainable wrapper: path contexts in, (vectors, weights) out.

    Args:
        embed_dim: Path-embedding size d (the paper uses 300; smaller
            values keep tests fast with no architecture change).
        epochs: Pre-training epochs (paper: 100).
        lr: Adam learning rate.
        seed: Parameter/shuffle seed.
        max_paths_per_script: Cap on paths consumed per script during
            training, for bounded epoch cost (sampled uniformly).
    """

    def __init__(
        self,
        embed_dim: int = 300,
        epochs: int = 100,
        lr: float = 1e-3,
        seed: int = 0,
        max_paths_per_script: int = 400,
    ):
        self.featurizer = PathFeaturizer()
        self.model = AttentionEmbeddingModel(
            input_dim=self.featurizer.feature_dim, embed_dim=embed_dim, seed=seed
        )
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self.max_paths_per_script = max_paths_per_script
        self.history = TrainingHistory()
        self._trained = False

    # ------------------------------------------------------------- training

    def fit(self, scripts: Sequence[Sequence[PathContext]], labels) -> "PathEmbedder":
        """Pre-train on labeled scripts (label 1 = malicious)."""
        labels = np.asarray(labels, dtype=int)
        if len(scripts) != len(labels):
            raise ValueError("scripts and labels length mismatch")
        features = [self.featurizer.transform(contexts) for contexts in scripts]
        usable = [i for i, f in enumerate(features) if len(f) > 0]
        if not usable:
            raise ValueError("no script produced any path")

        rng = np.random.default_rng(self.seed)
        optimizer = Adam(self.model, lr=self.lr)
        for _ in range(self.epochs):
            order = rng.permutation(usable)
            total_loss = 0.0
            correct = 0
            for index in order:
                paths = features[index]
                if len(paths) > self.max_paths_per_script:
                    rows = rng.choice(len(paths), size=self.max_paths_per_script, replace=False)
                    paths = paths[rows]
                loss, grads = self.model.loss_and_grad(paths, int(labels[index]))
                optimizer.step(grads)
                total_loss += loss
                probs = self.model.predict_proba(paths)
                correct += int(np.argmax(probs) == labels[index])
            self.history.losses.append(total_loss / len(order))
            self.history.accuracies.append(correct / len(order))
        self._trained = True
        return self

    # -------------------------------------------------------------- serving

    def embed(self, contexts: Sequence[PathContext]) -> tuple[np.ndarray, np.ndarray]:
        """(path vectors, attention weights) for one script.

        Scripts with zero paths return empty arrays — callers treat them as
        featureless.
        """
        features = self.featurizer.transform(contexts)
        if len(features) == 0:
            return np.zeros((0, self.model.embed_dim)), np.zeros(0)
        return self.model.embed_paths(features)

    @property
    def is_trained(self) -> bool:
        return self._trained
