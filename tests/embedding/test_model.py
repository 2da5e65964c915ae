"""Unit tests for the attention embedding model (forward + gradients)."""

import numpy as np
import pytest

from repro.embedding import Adam, AttentionEmbeddingModel


def tiny_model(seed=0):
    return AttentionEmbeddingModel(input_dim=6, embed_dim=4, seed=seed)


class TestForward:
    def test_shapes(self):
        model = tiny_model()
        paths = np.random.default_rng(0).normal(size=(5, 6))
        embedded, weights, vector, probs = model.forward(paths)
        assert embedded.shape == (5, 4)
        assert weights.shape == (5,)
        assert vector.shape == (4,)
        assert probs.shape == (2,)

    def test_attention_weights_are_distribution(self):
        model = tiny_model()
        paths = np.random.default_rng(1).normal(size=(7, 6))
        _, weights, _, _ = model.forward(paths)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0)

    def test_probs_are_distribution(self):
        model = tiny_model()
        paths = np.random.default_rng(2).normal(size=(3, 6))
        probs = model.predict_proba(paths)
        assert probs.sum() == pytest.approx(1.0)

    def test_embeddings_bounded_by_tanh(self):
        model = tiny_model()
        paths = np.random.default_rng(3).normal(scale=10.0, size=(4, 6))
        embedded, _, _, _ = model.forward(paths)
        assert np.all(np.abs(embedded) <= 1.0)

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().forward(np.zeros((0, 6)))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().forward(np.zeros((3, 5)))


class TestGradients:
    def test_numerical_gradient_check(self):
        """Analytic gradients match central finite differences."""
        model = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        paths = rng.normal(size=(4, 6))
        label = 1
        _, grads = model.loss_and_grad(paths, label)

        eps = 1e-6
        for name, grad in (("W", grads.W), ("a", grads.a), ("U", grads.U), ("b", grads.b)):
            param = model.parameters()[name]
            flat_indices = [tuple(idx) for idx in np.argwhere(np.ones_like(param))][:10]
            for idx in flat_indices:
                original = param[idx]
                param[idx] = original + eps
                loss_plus, _ = model.loss_and_grad(paths, label)
                param[idx] = original - eps
                loss_minus, _ = model.loss_and_grad(paths, label)
                param[idx] = original
                numeric = (loss_plus - loss_minus) / (2 * eps)
                analytic = grad[idx] if grad.ndim else grad
                assert numeric == pytest.approx(analytic, rel=1e-3, abs=1e-6), f"{name}[{idx}]"

    def test_training_reduces_loss(self):
        model = tiny_model(seed=5)
        rng = np.random.default_rng(6)
        # Two script populations with distinct path statistics.
        scripts = [(rng.normal(+1.0, 0.3, size=(6, 6)), 1) for _ in range(10)]
        scripts += [(rng.normal(-1.0, 0.3, size=(6, 6)), 0) for _ in range(10)]
        optimizer = Adam(model, lr=5e-3)

        def epoch_loss():
            return sum(model.loss_and_grad(p, y)[0] for p, y in scripts)

        before = epoch_loss()
        for _ in range(30):
            for paths, label in scripts:
                _, grads = model.loss_and_grad(paths, label)
                optimizer.step(grads)
        assert epoch_loss() < before * 0.5

    def test_load_and_dump_parameters(self):
        model = tiny_model(seed=7)
        saved = {k: v.copy() for k, v in model.parameters().items()}
        other = tiny_model(seed=99)
        other.load_parameters(saved)
        paths = np.random.default_rng(8).normal(size=(3, 6))
        assert np.allclose(model.predict_proba(paths), other.predict_proba(paths))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            AttentionEmbeddingModel(input_dim=0)


class TestEmbedPaths:
    """``embed_paths`` is the scan-time half of :meth:`forward`: Eqs. 1–2."""

    @staticmethod
    def _paths(size):
        from repro.datasets import build_realistic_corpus
        from repro.paths import PathExtractor, PathFeaturizer

        from ..paths import oracle

        if size == "serve":
            source = build_realistic_corpus(n_benign=1, n_malicious=1, seed=3).sources[0]
        else:
            source = oracle.concatenated_script(8192, seed=0)
        return PathFeaturizer().transform(PathExtractor().extract_from_source(source))

    @pytest.mark.parametrize("size", ["serve", "8k"])
    def test_equals_forward_prefix(self, size):
        paths = self._paths(size)
        model = AttentionEmbeddingModel(input_dim=paths.shape[1], embed_dim=300, seed=0)
        embedded, weights = model.embed_paths(paths)
        expected_embedded, expected_weights, _, _ = model.forward(paths)
        assert embedded.tobytes() == expected_embedded.tobytes()
        assert weights.tobytes() == expected_weights.tobytes()

    def test_skips_script_vector_and_class_probabilities(self, monkeypatch):
        import repro.embedding.model as model_module

        softmax_calls = []
        softmax = model_module._softmax

        def counting(z):
            softmax_calls.append(z.shape)
            return softmax(z)

        monkeypatch.setattr(model_module, "_softmax", counting)
        model = tiny_model()
        paths = np.random.default_rng(4).normal(size=(5, 6))
        model.embed_paths(paths)
        assert softmax_calls == [(5,)]  # the attention softmax only
        model.forward(paths)
        assert softmax_calls == [(5,), (5,), (2,)]
