import numpy as np
import pytest

from fedtune import models
from fedtune.common import ConfigurationError, DataError
from fedtune.models import ModelSpec, TrainHp, WeightVector


def make_blob(seed, n=40, d=4, c=2, sep=6.0):
    rng = np.random.default_rng(seed)
    means = np.zeros((c, d))
    for i in range(c):
        means[i, i % d] = sep
    y = rng.integers(0, c, size=n)
    x = means[y] + rng.standard_normal((n, d))
    return x, y


def default_hp(**kw):
    base = dict(learning_rate=0.1, weight_decay=0.0, local_epochs=1,
                batch_size=8, dropout=0.0)
    base.update(kw)
    return TrainHp(**base)


class TestInitWeights:
    def test_deterministic(self):
        spec = ModelSpec("logistic", 4, 2)
        a = models.init_weights(spec, 7)
        b = models.init_weights(spec, 7)
        assert np.array_equal(a.values, b.values)
        assert a.layout_id == b.layout_id

    def test_seed_changes_weights(self):
        spec = ModelSpec("logistic", 4, 2)
        a = models.init_weights(spec, 7)
        b = models.init_weights(spec, 8)
        assert np.any(a.values != b.values)

    def test_mlp_bounded_and_finite(self):
        spec = ModelSpec("mlp", 4, 3, hidden_dim=8)
        w = models.init_weights(spec, 1)
        assert w.is_finite()
        # every entry within the largest fan-in bound
        assert np.max(np.abs(w.values)) <= 1.0 / np.sqrt(4) + 1e-12
        assert len(w.values) == spec.num_params()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("mlp", 4, 2, hidden_dim=0)
        with pytest.raises(ConfigurationError):
            ModelSpec("logistic", 4, 1)


class TestSgdStep:
    def test_quadratic_probe(self):
        # f(w) = w^2, grad = 2w: w=1.0, lr=0.1, wd=0 -> 0.8
        w = np.array([1.0])
        out = models.sgd_step(w, 2.0 * w, lr=0.1, weight_decay=0.0)
        assert out[0] == pytest.approx(0.8, abs=1e-15)

    def test_weight_decay_shrinks(self):
        w = np.array([3.0, -2.0])
        out = models.sgd_step(w, np.zeros(2), lr=0.1, weight_decay=0.5)
        assert np.linalg.norm(out) < np.linalg.norm(w)


class TestLocalTrain:
    def test_lr_zero_keeps_weights(self):
        x, y = make_blob(0)
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        out, _ = models.local_train(spec, w, default_hp(learning_rate=0.0),
                                    x, y, x, y, rng_seed=3)
        assert np.array_equal(out.values, w.values)

    def test_zero_epochs_is_noop(self):
        x, y = make_blob(0)
        spec = ModelSpec("mlp", 4, 2, hidden_dim=6)
        w = models.init_weights(spec, 1)
        out, _ = models.local_train(spec, w, default_hp(local_epochs=0),
                                    x, y, x, y, rng_seed=3)
        assert np.array_equal(out.values, w.values)
        pre, _ = models.evaluate(spec, w, x, y)
        post, _ = models.evaluate(spec, out, x, y)
        assert post == pytest.approx(pre)

    def test_deterministic(self):
        x, y = make_blob(5)
        spec = ModelSpec("mlp", 4, 2, hidden_dim=6)
        w = models.init_weights(spec, 2)
        hp = default_hp(local_epochs=3, dropout=0.2)
        a = models.local_train(spec, w, hp, x, y, x, y, rng_seed=11)
        b = models.local_train(spec, w, hp, x, y, x, y, rng_seed=11)
        assert np.array_equal(a[0].values, b[0].values)
        assert a[1:] == b[1:]

    def test_empty_shard_rejected(self):
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        empty = np.empty((0, 4))
        with pytest.raises(DataError):
            models.local_train(spec, w, default_hp(), empty, np.empty(0, int),
                               empty, np.empty(0, int), 0)

    def test_weight_decay_contracts_on_degenerate_input(self):
        # constant zero features give zero data gradient for the weight matrix
        spec = ModelSpec("logistic", 4, 2)
        w = WeightVector(np.ones(spec.num_params()), spec.layout_id)
        x = np.zeros((10, 4))
        y = np.array([0, 1] * 5)
        out, _ = models.local_train(
            spec, w, default_hp(learning_rate=0.01, weight_decay=0.1, local_epochs=2),
            x, y, x, y, 0)
        wm = out.values[:8]  # weight matrix entries see only the decay term
        assert np.linalg.norm(wm) < np.linalg.norm(w.values[:8])

    def test_training_reduces_loss(self):
        x, y = make_blob(9, n=80)
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        before, _ = models.evaluate(spec, w, x, y)
        out, _ = models.local_train(spec, w, default_hp(local_epochs=5),
                                    x, y, x, y, 0)
        after, _ = models.evaluate(spec, out, x, y)
        assert after < before


class TestEvaluate:
    def test_loss_nonnegative(self):
        x, y = make_blob(3)
        spec = ModelSpec("mlp", 4, 2, hidden_dim=5)
        w = models.init_weights(spec, 0)
        loss, acc = models.evaluate(spec, w, x, y)
        assert loss >= 0.0
        assert 0.0 <= acc <= 1.0

    def test_uniform_logits_tie_break_lowest_class(self):
        spec = ModelSpec("logistic", 4, 2)
        w = WeightVector(np.zeros(spec.num_params()), spec.layout_id)
        x = np.ones((10, 4))
        y = np.array([0] * 5 + [1] * 5)
        _, acc = models.evaluate(spec, w, x, y)
        assert acc == 0.5  # everything predicted as class 0

    def test_separable_oracle_weights(self):
        x, y = make_blob(4, n=60, sep=10.0)
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        for _ in range(20):
            w, _ = models.local_train(spec, w, default_hp(local_epochs=1),
                                      x, y, x, y, 0)
        _, acc = models.evaluate(spec, w, x, y)
        assert acc == 1.0

    def test_empty_set_rejected(self):
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        with pytest.raises(DataError):
            models.evaluate(spec, w, np.empty((0, 4)), np.empty(0, int))

    def test_pure_function_independent_of_rng(self):
        x, y = make_blob(8)
        spec = ModelSpec("mlp", 4, 2, hidden_dim=6)
        w = models.init_weights(spec, 3)
        np.random.seed(1)
        a = models.evaluate(spec, w, x, y)
        np.random.seed(999)
        b = models.evaluate(spec, w, x, y)
        assert a == b


def numeric_grad(spec, values, x, y, eps=1e-6):
    grad = np.zeros_like(values)
    for i in range(len(values)):
        up = values.copy()
        up[i] += eps
        down = values.copy()
        down[i] -= eps
        lu, _ = models.loss_and_grad(spec, up, x, y)
        ld, _ = models.loss_and_grad(spec, down, x, y)
        grad[i] = (lu - ld) / (2 * eps)
    return grad


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 5)])
def test_gradient_matches_finite_differences(kind, hidden):
    spec = ModelSpec(kind, 3, 3, hidden_dim=hidden)
    rng = np.random.default_rng(42)
    for _ in range(20):
        values = rng.standard_normal(spec.num_params())
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, size=6)
        _, analytic = models.loss_and_grad(spec, values, x, y)
        numeric = numeric_grad(spec, values, x, y)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel <= 1e-4
