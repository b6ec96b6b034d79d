import hashlib
import warnings

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
    base = dict(learning_rate=0.1, weight_decay=0.0, epochs=1,
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
        assert np.all(np.isfinite(w.values))
        # every entry within the largest fan-in bound
        assert np.max(np.abs(w.values)) <= 1.0 / np.sqrt(4) + 1e-12
        assert len(w.values) == 4 * 8 + 8 + 8 * 3 + 3  # two matrices, two biases

    @pytest.mark.parametrize("spec,digests", [
        (ModelSpec("logistic", 6, 4),
         ("0f2884b210c7677966e080c094e41e0ea134bd28052461fafe5bd973068cb180",
          "399c0a72d8ee00c8c030f024352c46f5694cb63323fdfd7231bab00daa15ec10")),
        (ModelSpec("mlp", 6, 3, hidden_dim=8),
         ("bf5a7a0291b0557f30c181fd6900376f20a4983ed8cebf331e4b2e6626689fea",
          "786e2d2b05f4073ddab3d490a959022c5fbf571dd75599038b835bbdd7213cf6")),
    ])
    def test_weight_bytes_pinned(self, spec, digests):
        # SHA-256 of the weight bytes at seeds 0 and 7: one uniform draw per
        # layer, input layer first, and zero biases
        assert tuple(hashlib.sha256(models.init_weights(spec, seed).values.tobytes()).hexdigest()
                     for seed in (0, 7)) == digests

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
        out, _ = models.local_train(spec, w, default_hp(epochs=0),
                                    x, y, x, y, rng_seed=3)
        assert np.array_equal(out.values, w.values)
        pre, _ = models.evaluate(spec, w, x, y)
        post, _ = models.evaluate(spec, out, x, y)
        assert post == pytest.approx(pre)

    def test_deterministic(self):
        x, y = make_blob(5)
        spec = ModelSpec("mlp", 4, 2, hidden_dim=6)
        w = models.init_weights(spec, 2)
        hp = default_hp(epochs=3, dropout=0.2)
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
        w = WeightVector(np.ones(len(models.init_weights(spec, 0).values)), spec.layout_id)
        x = np.zeros((10, 4))
        y = np.array([0, 1] * 5)
        out, _ = models.local_train(
            spec, w, default_hp(learning_rate=0.01, weight_decay=0.1, epochs=2),
            x, y, x, y, 0)
        wm = out.values[:8]  # weight matrix entries see only the decay term
        assert np.linalg.norm(wm) < np.linalg.norm(w.values[:8])

    def test_training_reduces_loss(self):
        x, y = make_blob(9, n=80)
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        before, _ = models.evaluate(spec, w, x, y)
        out, _ = models.local_train(spec, w, default_hp(epochs=5),
                                    x, y, x, y, 0)
        after, _ = models.evaluate(spec, out, x, y)
        assert after < before


def reference_train(spec, w, hp, x, y, rng_seed):
    """Per-client SGD loop on unpadded batches, drawing dropout per batch."""
    values = w.values.copy()
    rng = np.random.default_rng(rng_seed)
    keep = 1.0 - hp.dropout
    for _ in range(hp.epochs):
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
    (ModelSpec("logistic", 4, 3), default_hp(batch_size=8, epochs=2)),
    (ModelSpec("mlp", 4, 3, hidden_dim=5),
     default_hp(batch_size=8, epochs=2, dropout=0.3, weight_decay=1e-3)),
]


def stack(spec, w, hp, shards, seeds):
    """train_stack over a pool and plans built cold from shards and seeds."""
    pool = models.pool_shards(spec.input_dim, shards)
    plans = models.plan_batches(spec, pool, seeds, *models.plan_key(spec, hp))
    return models.train_stack(spec, w, hp, pool, plans)


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
        together, losses, failures = stack(spec, w, hp, shards, seeds)
        assert failures == [None] * 6
        perm = [3, 5, 0, 4, 2, 1]
        shuffled, shuffled_losses, _ = stack(
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
        trained, losses, _ = stack(spec, w, hp, shards, [7] * len(shards))
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

        def recording(spec, values, features, labels, dropout_mask=None, with_loss=True):
            calls.append(features.shape[:2])
            return real_loss_and_grad(spec, values, features, labels, dropout_mask, with_loss)

        monkeypatch.setattr(models, "loss_and_grad", recording)
        shards = engine_shards()
        stack(spec, models.init_weights(spec, 0), hp, shards, [0] * len(shards))
        # the 2-row shard trains at width 2 (one step per epoch), the rest at 8
        assert calls.count((1, 2)) == hp.epochs
        assert {width for _, width in calls} == {2, hp.batch_size}

    def test_zero_epochs_scores_initial_weights(self):
        spec, hp = ENGINE_CASES[1]
        shards = engine_shards()
        w = models.init_weights(spec, 4)
        trained, losses, failures = stack(spec, w, default_hp(epochs=0), shards, [0] * 6)
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
        _, _, failures = stack(spec, models.init_weights(spec, 0), hp, shards, [0] * 6)
        assert failures == [None, "non-finite weights after epoch", None, None, None, None]

    def test_loss_that_overflows_mid_epoch_fails_at_the_epochs_end(self, monkeypatch):
        # Shard 3 (40 rows: five 8-row batches per epoch) with huge features:
        # its first step leaves finite but huge weights, and its loss overflows
        # on a later step of epoch 1. The row fails where that epoch ends, in
        # the same pass, and no other row changes.
        spec, hp = ENGINE_CASES[0]
        shards = engine_shards()
        seeds = [0] * 6
        w = models.init_weights(spec, 0)
        good = stack(spec, w, hp, shards, seeds)
        bad = list(shards[3])
        bad[0] = bad[0] * 1e200
        shards[3] = tuple(bad)
        pool = models.pool_shards(spec.input_dim, shards)
        plans = models.plan_batches(spec, pool, seeds, *models.plan_key(spec, hp))
        (plan,) = [p for p in plans if 3 in p.order]
        assert plan.order[0] == 3  # the longest row trains first, in every step
        steps, real = [], models.loss_and_grad

        def spy(spec, values, features, labels, dropout_mask=None, with_loss=True):
            loss, grad = real(spec, values, features, labels, dropout_mask)
            if features.shape[1] == plan.features.shape[1]:  # a step of shard 3's plan
                steps.append((np.isfinite(loss[0]), np.isfinite(values[0]).all()))
            return (loss, grad) if with_loss else grad

        monkeypatch.setattr(models, "loss_and_grad", spy)
        trained, losses, failures = models.train_stack(spec, w, hp, pool, plans)
        ends = plan.epoch_end[plan.start[:-1]].tolist()
        assert len(steps) == len(ends) == 2 * 5
        first = [finite for finite, _ in steps].index(False)
        assert first > 0 and not ends[first] and ends.index(True) > first
        assert steps[first][1]  # the weights were finite at that step
        assert failures == [None, None, None, "non-finite weights after epoch", None, None]
        for i in (0, 1, 2, 4, 5):
            assert trained[i].tobytes() == good[0][i].tobytes()
            assert losses[i] == good[1][i]

    def test_loss_that_overflows_beside_finite_weights_fails_in_its_pass(self):
        # Weights near the largest double put shard 1's label logit more than
        # the largest double below the other logit: its training loss is inf
        # while its gradient, and so its weights, stay finite, and its
        # validation loss is 0. The row still fails in this pass; shard 0,
        # whose zero features read only the biases, trains as beside a
        # finite row.
        spec, hp = ModelSpec("logistic", 1, 2), default_hp(batch_size=4)
        w = WeightVector(np.array([0.95e308, -0.95e308, 0.0, 0.0]), spec.layout_id)
        ones, zeros = np.ones((4, 1)), np.zeros((4, 1))
        with np.errstate(over="ignore"):
            loss, grad = models.loss_and_grad(spec, w.values, ones, np.ones(4, int))
        assert loss == np.inf and np.isfinite(grad).all()
        zero_shard = (zeros, np.array([0, 1, 0, 1]), zeros[:2], np.array([0, 1]))
        trained, losses, failures = stack(
            spec, w, hp, [zero_shard, (ones, np.ones(4, int), ones[:2], np.zeros(2, int))], [0, 0])
        assert failures == [None, "non-finite weights after epoch"]
        good = stack(spec, w, hp, [zero_shard, (zeros, np.ones(4, int), zeros[:2],
                                                np.zeros(2, int))], [0, 0])
        assert good[2] == [None, None]
        assert trained[0].tobytes() == good[0][0].tobytes() and losses[0] == good[1][0]


class TestBatchPlan:
    def test_shared_plans_equal_cold_builds(self):
        spec = ENGINE_CASES[1][0]
        shards = engine_shards()
        bad = list(shards[1])
        bad[0] = np.full_like(bad[0], np.nan)
        shards[1] = tuple(bad)
        seeds = [21, 22, 23, 24, 25, 26]
        w = models.init_weights(spec, 5)
        configs = [default_hp(epochs=2, dropout=0.3), default_hp(epochs=2, dropout=0.1),
                   default_hp(epochs=2, dropout=0.5, learning_rate=1e200, weight_decay=1.0),
                   default_hp(epochs=2, dropout=0.3, learning_rate=0.02, weight_decay=0.1)]
        pool = models.pool_shards(spec.input_dim, shards)
        plans = models.plan_batches(spec, pool, seeds, *models.plan_key(spec, configs[0]))
        for hp in configs:
            shared = models.train_stack(spec, w, hp, pool, plans)
            cold = stack(spec, w, hp, shards, seeds)
            assert shared[0].tobytes() == cold[0].tobytes()
            assert shared[1].tobytes() == cold[1].tobytes()
            assert shared[2] == cold[2]
            assert shared[2][1] == "non-finite weights after epoch"
        # the overflowing config fails every row, the others only the NaN one
        assert None not in models.train_stack(spec, w, configs[2], pool, plans)[2]

    def test_plan_arrays_are_read_only(self):
        spec, hp = ENGINE_CASES[1]
        shards = engine_shards()
        pool = models.pool_shards(spec.input_dim, shards)
        plans = models.plan_batches(spec, pool, [0] * 6, *models.plan_key(spec, hp))
        assert len(plans) == 2
        # each shard trains in exactly one stack row of one plan
        assert sorted(np.concatenate([plan.order for plan in plans])) == list(range(6))
        with pytest.raises(DataError, match="^plan_batches: empty training split$"):
            empty = (np.empty((0, 4)), np.empty(0, int))
            models.plan_batches(spec, models.pool_shards(4, shards + [empty * 2]), [0] * 7,
                                *models.plan_key(spec, hp))
        for plan in list(plans) + [pool]:
            for name, array in vars(plan).items():
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array.reshape(-1)[:1] = 0


def plan_bytes(plans):
    """Every array of every plan, as bytes (None for no dropout draws)."""
    return [[None if a is None else (a.shape, a.tobytes()) for a in vars(plan).values()]
            for plan in plans]


class TestBatchLayout:
    """plan_batches on layouts kept across calls equals a fresh build."""

    @pytest.mark.parametrize("batch_size", [1, 5, 32])
    @pytest.mark.parametrize("spec", [ModelSpec("logistic", 4, 3),
                                      ModelSpec("mlp", 4, 3, hidden_dim=5)])
    def test_plans_on_kept_layouts_equal_fresh_builds(self, spec, batch_size):
        # ragged shards, two of them with a single training row
        shards = engine_shards() + [tuple(a[:1] for a in engine_shards()[3])] * 2
        pool = models.pool_shards(spec.input_dim, shards)
        widths = {models._padded_width(n, batch_size) for n in pool.sizes.tolist()}
        assert len(widths) == (1 if batch_size == 1 else 2 if batch_size == 5 else 3)
        layouts = {}
        for epochs in range(4):
            for dropout in (False, True) if spec.kind == "mlp" else (False,):
                # two seed lists in a row: a draw that wrote into a kept
                # layout would show in the second
                for seeds in ([3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]):
                    kept = models.plan_batches(spec, pool, seeds, epochs, batch_size, dropout,
                                               layouts)
                    fresh = models.plan_batches(spec, pool, seeds, epochs, batch_size, dropout)
                    assert len(kept) == len(widths)
                    assert plan_bytes(kept) == plan_bytes(fresh)
        assert sorted(layouts) == [(e, batch_size) for e in range(4)]

    def test_kept_layout_arrays_are_read_only(self):
        spec, hp = ENGINE_CASES[1]
        pool = models.pool_shards(spec.input_dim, engine_shards())
        layouts = {}
        models.plan_batches(spec, pool, [0] * 6, *models.plan_key(spec, hp), layouts)
        (kept,) = layouts.values()
        assert len(kept) == 2
        for layout in kept:
            arrays = [a for a in vars(layout.plan).values() if a is not None]
            for array in arrays + [layout.slots, layout.batch_of]:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array.reshape(-1)[:1] = 0


class TestUnscoredPass:
    """train_stack without score scores only the rows above its bound."""

    @pytest.mark.parametrize("factor, scored", [(1.0, False), (1e299, True), (1e308, True)])
    def test_rows_above_the_bound_are_scored(self, factor, scored):
        spec = ModelSpec("logistic", 4, 3)
        shards = engine_shards()
        pool = models.pool_shards(spec.input_dim, shards)
        hp = default_hp(epochs=0)  # every row keeps w
        w = models.init_weights(spec, 1)
        w = WeightVector(w.values * factor, w.layout_id)
        with np.errstate(over="ignore"):  # 1e308: the L1 norm overflows
            assert (pool.scale * np.abs(w.values).sum() >= 1e300) == scored
        plans = models.plan_batches(spec, pool, [0] * 6, *models.plan_key(spec, hp))
        every = models.train_stack(spec, w, hp, pool, plans)
        some = models.train_stack(spec, w, hp, pool, plans, score=False)
        assert some[0].tobytes() == every[0].tobytes()
        assert some[2] == every[2]
        if scored:
            assert some[1].tobytes() == every[1].tobytes()
        else:
            assert np.isnan(some[1]).all() and np.isfinite(every[1]).all()
        # 1e299 overflows no logit; 1e308 overflows every row's
        assert every[2] == [None if factor < 1e300 else "non-finite post-training loss"] * 6


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
        w = WeightVector(np.zeros(len(models.init_weights(spec, 0).values)), spec.layout_id)
        x = np.ones((10, 4))
        y = np.array([0] * 5 + [1] * 5)
        _, acc = models.evaluate(spec, w, x, y)
        assert acc == 0.5  # everything predicted as class 0

    def test_separable_oracle_weights(self):
        x, y = make_blob(4, n=60, sep=10.0)
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        for _ in range(20):
            w, _ = models.local_train(spec, w, default_hp(epochs=1),
                                      x, y, x, y, 0)
        _, acc = models.evaluate(spec, w, x, y)
        assert acc == 1.0

    def test_overflow_scores_non_finite_without_warning(self):
        x, y = make_blob(6)
        spec = ModelSpec("logistic", 4, 2)
        values = np.full((1, len(models.init_weights(spec, 0).values)), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            losses, _ = models.evaluate_stack(spec, values, [(x * 1e110, y)])
        assert not np.isfinite(losses[0])

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


class TestInPlaceEvaluate:
    """evaluate_stack scores a lone set in place, with the bytes of the
    pooled, gathered path that scores two or more sets."""

    @pytest.mark.parametrize("n", [1, 31, 32, 200, 1000])
    @pytest.mark.parametrize("spec", [ModelSpec("logistic", 4, 3),
                                      ModelSpec("mlp", 4, 3, hidden_dim=5)])
    def test_equals_the_pooled_path(self, spec, n):
        x, y = make_blob(n, n=n, c=3)
        w = models.init_weights(spec, n)
        pair = np.stack([w.values, w.values])
        losses, accs = models.evaluate_stack(spec, pair, [(x, y)] * 2)
        loss, acc = models.evaluate(spec, w, x, y)
        assert np.float64(loss).tobytes() == losses[0].tobytes()
        assert np.float64(acc).tobytes() == accs[0].tobytes()
        assert [a.tobytes() for a in models.evaluate_stack(spec, w.values[None], [(x, y)], n)] \
            == [losses[:1].tobytes(), accs[:1].tobytes()]
        # float32, Fortran-ordered features and int32 labels, as the pool would cast them
        f = np.asfortranarray(x.astype(np.float32))
        assert models.evaluate(spec, w, f, y.astype(np.int32)) == \
            tuple(float(a[0]) for a in models.evaluate_stack(spec, pair, [(f, y)] * 2))

    def test_empty_set_and_layout_mismatch_rejected(self):
        spec = ModelSpec("logistic", 4, 2)
        w = models.init_weights(spec, 1)
        with pytest.raises(DataError, match="^evaluate: empty evaluation set$"):
            models.evaluate(spec, w, np.empty((0, 4)), np.empty(0, int))
        other = models.init_weights(ModelSpec("logistic", 4, 3), 1)
        x, y = make_blob(0)
        with pytest.raises(ConfigurationError, match="does not match spec logistic:4x0x2"):
            models.evaluate(spec, other, x, y)


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
        values = rng.standard_normal(len(models.init_weights(spec, 0).values))
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, size=6)
        _, analytic = models.loss_and_grad(spec, values, x, y)
        numeric = numeric_grad(spec, values, x, y)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel <= 1e-4


@pytest.mark.parametrize("spec", [ModelSpec("logistic", 3, 4), ModelSpec("mlp", 3, 4, hidden_dim=5)])
def test_gradient_only_call_returns_the_default_calls_gradient_bytes(spec):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((5, len(models.init_weights(spec, 0).values)))
    x = rng.standard_normal((5, 8, 3))
    y = rng.integers(0, 4, size=(5, 8))
    y[1, 5:] = -1  # padding rows
    masks = [None] + ([(rng.random((5, 8, 5)) < 0.7) / 0.7] if spec.kind == "mlp" else [])
    for mask in masks:
        # a stack of five models, then its first model alone
        for i in (slice(None), 0):
            args = values[i], x[i], y[i], None if mask is None else mask[i]
            _, grad = models.loss_and_grad(spec, *args)
            only = models.loss_and_grad(spec, *args, with_loss=False)
            assert only.shape == grad.shape
            assert only.tobytes() == grad.tobytes()


def test_gradient_only_call_gives_a_row_whose_loss_is_not_finite_a_nan_gradient():
    # row 0's label logit lies more than the largest double below the other
    # one: an inf loss beside a finite gradient
    spec = ModelSpec("logistic", 1, 2)
    values = np.array([[0.95e308, -0.95e308, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]])
    x, y = np.ones((2, 3, 1)), np.ones((2, 3), int)
    with np.errstate(over="ignore"):
        loss, grad = models.loss_and_grad(spec, values, x, y)
        only = models.loss_and_grad(spec, values, x, y, with_loss=False)
    assert loss[0] == np.inf and np.isfinite(loss[1]) and np.isfinite(grad).all()
    assert np.isnan(only[0]).all() and only[1].tobytes() == grad[1].tobytes()
