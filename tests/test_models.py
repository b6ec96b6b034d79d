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


def reference_train(spec, w, hp, x, y, rng_seed):
    """Per-client SGD loop on unpadded batches, drawing dropout per batch."""
    values = w.values.copy()
    rng = np.random.default_rng(rng_seed)
    keep = 1.0 - hp.dropout
    for _ in range(hp.local_epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), hp.batch_size):
            idx = order[start : start + hp.batch_size]
            mask = None
            if spec.kind == "mlp" and hp.dropout > 0.0:
                mask = (rng.random((len(idx), spec.hidden_dim)) < keep) / keep
            _, grad = models.loss_and_grad(spec, values, x[idx], y[idx], dropout_mask=mask)
            values = models.sgd_step(values, grad, hp.learning_rate, hp.weight_decay)
    return WeightVector(values, w.layout_id)


ENGINE_CASES = [
    (ModelSpec("logistic", 4, 3), default_hp(batch_size=8, local_epochs=2)),
    (ModelSpec("mlp", 4, 3, hidden_dim=5),
     default_hp(batch_size=8, local_epochs=2, dropout=0.3, weight_decay=1e-3)),
]


def engine_shards(c=3):
    # train sizes with batch_size 8: < batch_size (5; 2 pads to a narrower
    # width), a 1-row tail (17 = 2 * 8 + 1), exact batches, and an empty
    # validation split (9, 0)
    shards = []
    for seed, n_train, n_val in ((0, 5, 7), (1, 17, 3), (2, 16, 20), (3, 40, 9), (4, 9, 0),
                                 (5, 2, 4)):
        x, y = make_blob(seed, n=n_train + n_val, c=c)
        shards.append((x[:n_train], y[:n_train], x[n_train:], y[n_train:]))
    return shards


class TestTrainStack:
    @pytest.mark.parametrize("spec,hp", ENGINE_CASES)
    def test_composition_invariance(self, spec, hp):
        # a row's weights and validation loss do not depend on its stack-mates
        shards = engine_shards()
        assert len({models._padded_width(len(s[1]), hp.batch_size) for s in shards}) == 2
        seeds = [11, 12, 13, 14, 15, 16]
        w = models.init_weights(spec, 2)
        together, losses, failures = models.train_stack(spec, w, hp, shards, seeds)
        assert failures == [None] * 6
        perm = [3, 5, 0, 4, 2, 1]
        shuffled, shuffled_losses, _ = models.train_stack(
            spec, w, hp, [shards[i] for i in perm], [seeds[i] for i in perm])
        for i, shard in enumerate(shards):
            alone, alone_loss = models.local_train(spec, w, hp, *shard, seeds[i])
            assert np.array_equal(together[i], alone.values)
            assert losses[i] == alone_loss
            j = perm.index(i)
            assert np.array_equal(shuffled[j], alone.values)
            assert shuffled_losses[j] == alone_loss

    @pytest.mark.parametrize("spec,hp", ENGINE_CASES)
    def test_ragged_shards_match_unpadded_loop(self, spec, hp):
        shards = engine_shards()
        w = models.init_weights(spec, 4)
        trained, losses, _ = models.train_stack(spec, w, hp, shards, [7] * len(shards))
        for row, (tx, ty, vx, vy) in enumerate(shards):
            ref = reference_train(spec, w, hp, tx, ty, 7)
            assert np.allclose(trained[row], ref.values, rtol=1e-12, atol=1e-12)
            # an empty validation split falls back to the training split
            ex, ey = (vx, vy) if len(vy) else (tx, ty)
            ref_loss, _ = models.evaluate(spec, ref, ex, ey)
            assert losses[row] == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)

    def test_short_shards_pad_to_own_width(self, monkeypatch):
        # batches pad to batch_size, cut by 4 while the shard fits: the width
        # depends on the shard alone, and padding at most quadruples it
        assert [models._padded_width(n, 256) for n in (1, 4, 16, 17, 64, 65, 300)] == \
            [1, 4, 16, 64, 64, 256, 256]
        assert models._padded_width(20, 100) == 25
        spec, hp = ENGINE_CASES[0]
        calls = []
        real_loss_and_grad = models.loss_and_grad

        def recording(spec, values, features, labels, dropout_mask=None):
            calls.append(features.shape[:2])
            return real_loss_and_grad(spec, values, features, labels, dropout_mask)

        monkeypatch.setattr(models, "loss_and_grad", recording)
        shards = engine_shards()
        models.train_stack(spec, models.init_weights(spec, 0), hp, shards, [0] * len(shards))
        # the 2-row shard trains at width 2 (one step per epoch), the rest at 8
        assert calls.count((1, 2)) == hp.local_epochs
        assert {width for _, width in calls} == {2, hp.batch_size}

    def test_zero_epochs_scores_initial_weights(self):
        spec, hp = ENGINE_CASES[1]
        shards = engine_shards()
        w = models.init_weights(spec, 4)
        trained, losses, failures = models.train_stack(
            spec, w, default_hp(local_epochs=0), shards, [0] * len(shards))
        assert failures == [None] * len(shards)
        for row, (tx, ty, vx, vy) in enumerate(shards):
            assert np.array_equal(trained[row], w.values)
            ex, ey = (vx, vy) if len(vy) else (tx, ty)
            assert losses[row] == pytest.approx(models.evaluate(spec, w, ex, ey)[0], rel=1e-12)

    def test_failure_reported_per_row(self):
        spec, hp = ENGINE_CASES[0]
        shards = engine_shards()
        bad = list(shards[1])
        bad[0] = np.full_like(bad[0], np.nan)
        shards[1] = tuple(bad)
        _, _, failures = models.train_stack(spec, models.init_weights(spec, 0), hp,
                                            shards, [0] * len(shards))
        assert failures == [None, "non-finite training loss", None, None, None, None]


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
