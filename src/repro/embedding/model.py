"""The attention-based path-embedding model (Eqs. 1–5 of the paper).

Architecture, exactly as Figure 3 describes:

1. ``p'_i = tanh(W · p_i)`` — a fully connected layer embeds each path's
   initial vector into d dimensions.
2. ``α_i = softmax_i(p'_iᵀ · a)`` — an attention vector scores each path.
3. ``v = Σ α_i p'_i`` — attention-weighted aggregation over the script.
4. ``y' = softmax(U · v)`` — a linear classifier over the script vector.
5. Cross-entropy loss against the script label.

Implemented with hand-derived numpy gradients and Adam; no autograd
framework is available in this environment.  After training, callers use
:meth:`embed_paths` to obtain (path vectors, attention weights) — the
quantities the feature-extraction stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


@dataclass
class _Gradients:
    W: np.ndarray
    a: np.ndarray
    U: np.ndarray
    b: np.ndarray


class AttentionEmbeddingModel:
    """Fully connected layer + attention + softmax classifier.

    Args:
        input_dim: Width of the initial path vectors (|P| in Eq. 1).
        embed_dim: Path-embedding size d (paper: 300).
        n_classes: Output classes (2: benign / malicious).
        seed: Parameter-initialization seed.
    """

    def __init__(self, input_dim: int, embed_dim: int = 300, n_classes: int = 2, seed: int = 0):
        if input_dim <= 0 or embed_dim <= 0:
            raise ValueError("dimensions must be positive")
        rng = np.random.default_rng(seed)
        scale_w = np.sqrt(2.0 / (input_dim + embed_dim))
        self.W = rng.normal(0.0, scale_w, size=(embed_dim, input_dim))
        self.a = rng.normal(0.0, 1.0 / np.sqrt(embed_dim), size=embed_dim)
        self.U = rng.normal(0.0, np.sqrt(2.0 / (embed_dim + n_classes)), size=(n_classes, embed_dim))
        self.b = np.zeros(n_classes)
        self.input_dim = input_dim
        self.embed_dim = embed_dim
        self.n_classes = n_classes

    # -------------------------------------------------------------- forward

    def forward(self, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run Eqs. 1–4 for one script.

        Args:
            paths: (n_paths, input_dim) initial path vectors.

        Returns:
            ``(embedded, weights, script_vector, probs)`` where ``embedded``
            is (n, d), ``weights`` is the attention distribution (n,),
            ``script_vector`` is (d,), and ``probs`` is (n_classes,).
        """
        embedded, weights = self.embed_paths(paths)
        script_vector = weights @ embedded  # (d,)
        probs = _softmax(self.U @ script_vector + self.b)
        return embedded, weights, script_vector, probs

    def loss_and_grad(self, paths: np.ndarray, label: int) -> tuple[float, _Gradients]:
        """Cross-entropy loss and parameter gradients for one script."""
        embedded, weights, script_vector, probs = self.forward(paths)
        loss = -float(np.log(max(probs[label], 1e-12)))

        dz = probs.copy()
        dz[label] -= 1.0  # d loss / d logits
        grad_U = np.outer(dz, script_vector)
        grad_b = dz
        d_v = self.U.T @ dz  # (d,)

        # v = Σ α_i p'_i
        d_weights = embedded @ d_v  # (n,)
        d_embedded = np.outer(weights, d_v)  # (n, d)

        # α = softmax(s): ds_i = α_i (dα_i − Σ_j α_j dα_j)
        inner = float(weights @ d_weights)
        d_scores = weights * (d_weights - inner)  # (n,)

        grad_a = embedded.T @ d_scores  # (d,)
        d_embedded += np.outer(d_scores, self.a)

        d_pre = d_embedded * (1.0 - embedded**2)  # tanh'
        grad_W = d_pre.T @ paths  # (d, input_dim)

        return loss, _Gradients(W=grad_W, a=grad_a, U=grad_U, b=grad_b)

    # -------------------------------------------------------------- use-time

    def embed_paths(self, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eqs. 1–2 only: path vectors + attention weights for one script.

        These are the fully-connected-layer outputs and attention weights
        the paper's feature-extraction stage consumes; :meth:`forward`
        goes on from them to the script vector and class probabilities.
        """
        if paths.ndim != 2 or paths.shape[1] != self.input_dim:
            raise ValueError(f"expected (n, {self.input_dim}) paths, got {paths.shape}")
        if len(paths) == 0:
            raise ValueError("a script must contribute at least one path")
        embedded = np.tanh(paths @ self.W.T)  # (n, d)
        scores = embedded @ self.a  # (n,)
        return embedded, _softmax(scores)

    def predict_proba(self, paths: np.ndarray) -> np.ndarray:
        return self.forward(paths)[3]

    # ------------------------------------------------------------- serialize

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "a": self.a, "U": self.U, "b": self.b}

    def load_parameters(self, params: dict[str, np.ndarray]) -> None:
        self.W = params["W"].copy()
        self.a = params["a"].copy()
        self.U = params["U"].copy()
        self.b = params["b"].copy()


class Adam:
    """Adam optimizer over the model's four parameter tensors."""

    def __init__(self, model: AttentionEmbeddingModel, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in model.parameters().items()}
        self._v = {k: np.zeros_like(v) for k, v in model.parameters().items()}

    def step(self, grads: _Gradients) -> None:
        self.t += 1
        named = {"W": grads.W, "a": grads.a, "U": grads.U, "b": grads.b}
        params = self.model.parameters()
        for key, grad in named.items():
            self._m[key] = self.beta1 * self._m[key] + (1 - self.beta1) * grad
            self._v[key] = self.beta2 * self._v[key] + (1 - self.beta2) * grad**2
            m_hat = self._m[key] / (1 - self.beta1**self.t)
            v_hat = self._v[key] / (1 - self.beta2**self.t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
