import numpy as np
import pytest

from fedtune import data, flcore, hpo, models, runner, sched
from fedtune.common import AggregationError, NumericDivergenceError, derive_seed
from fedtune.config import config_from_dict
from fedtune.flcore import (
    ClientState,
    ExperimentWorld,
    RoundState,
    cohort_time,
    fedavg_aggregate,
    run_round,
    run_trial,
    to_train_hp,
    train_cohort,
    weighted_objective,
)
from fedtune.hpo import HpConfig
from fedtune.models import ModelSpec, WeightVector

HP_DEFAULTS = {"learning_rate": 0.1, "weight_decay": 1e-5, "epochs": 1,
               "batch_size": 16, "dropout": 0.1}


def wv(vals, layout="logistic:2x0x2"):
    return WeightVector(np.asarray(vals, dtype=float), layout)


def make_world(n_clients=3, num_classes=2, seed=0, sep=8.0, n=360, alpha=1000.0,
               cadence=5, input_dim=4):
    ds = data.gen_synthetic(num_classes, input_dim, n, sep, seed=seed)
    hold = n // 10
    server_val = data.Dataset(ds.features[:hold], ds.labels[:hold])
    rest = data.Dataset(ds.features[hold:], ds.labels[hold:])
    shards = data.partition_dirichlet(rest, n_clients, alpha, seed=seed)
    clients = [
        ClientState(s.client_id, s, sched.LatencyProfile(1.0 + s.client_id, 0.1))
        for s in shards
    ]
    spec = ModelSpec("logistic", input_dim, num_classes)
    return ExperimentWorld(spec, clients, server_val, cadence, dict(HP_DEFAULTS),
                           base_seed=seed)


def hp_config(**kw):
    vals = dict(HP_DEFAULTS)
    vals.update(kw)
    return HpConfig(vals)


class TestFedAvg:
    def test_idempotent_on_identical_updates(self):
        u = wv([1.0, -2.0, 3.0])
        for mode in ("weighted", "uniform"):
            out = fedavg_aggregate([(u, 5), (u, 7), (u, 1)], mode)
            assert np.allclose(out.values, u.values)

    def test_uniform_symmetry(self):
        out = fedavg_aggregate([(wv([0.0, 2.0]), 1), (wv([2.0, 0.0]), 1)], "uniform")
        assert np.allclose(out.values, [1.0, 1.0])

    def test_weighted_hand_oracle(self):
        out = fedavg_aggregate([(wv([4.0]), 1), (wv([0.0]), 3)], "weighted")
        assert out.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(AggregationError):
            fedavg_aggregate([(wv([1.0]), 1), (wv([1.0], layout="mlp:2x2x2"), 1)])

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            fedavg_aggregate([])

    def test_weighted_requires_positive_counts(self):
        with pytest.raises(AggregationError):
            fedavg_aggregate([(wv([1.0]), 0)], "weighted")

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 9))
            vecs = [wv(rng.standard_normal(d), layout="x") for _ in range(k)]
            counts = [int(rng.integers(1, 50)) for _ in range(k)]
            out = fedavg_aggregate(list(zip(vecs, counts)), "weighted")
            # independently coded: explicit loop over coordinates
            total = sum(counts)
            expected = np.zeros(d)
            for i in range(d):
                s = 0.0
                for v, n in zip(vecs, counts):
                    s += n * v.values[i]
                expected[i] = s / total
            assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_stack_sum_matches_sequential_accumulate(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 30))
            d = int(rng.integers(2, 300))  # a model has at least 2 weights
            vecs = [wv(rng.standard_normal(d), layout="x") for _ in range(k)]
            counts = [int(rng.integers(1, 500)) for _ in range(k)]
            total = float(sum(counts))
            weighted = np.zeros(d)
            uniform = np.zeros(d)
            for v, n in zip(vecs, counts):
                weighted += (n / total) * v.values
                uniform += v.values
            uniform /= k
            for mode, expected in (("weighted", weighted), ("uniform", uniform)):
                out = fedavg_aggregate(list(zip(vecs, counts)), mode)
                assert out.values.tobytes() == expected.tobytes()

    def test_modes_coincide_for_equal_counts(self):
        rng = np.random.default_rng(4)
        vecs = [wv(rng.standard_normal(5), layout="x") for _ in range(4)]
        a = fedavg_aggregate([(v, 7) for v in vecs], "weighted")
        b = fedavg_aggregate([(v, 7) for v in vecs], "uniform")
        assert np.max(np.abs(a.values - b.values)) < 1e-12


def expected_cohort_time(cohort, epochs, seed_key):
    members = sorted(cohort, key=lambda c: c.client_id)
    rng = np.random.default_rng(derive_seed(*seed_key))
    jitter = rng.lognormal(0.0, [c.latency.jitter_sigma for c in members])
    return max(c.latency.base_time * epochs * (len(c.shard.train) / 100.0) * j
               for c, j in zip(members, jitter))


class TestCohortTime:
    def test_slowest_member_of_one_jitter_draw(self):
        world = make_world(n_clients=4, alpha=0.5)
        for c, sigma in zip(world.clients, (0.0, 0.3, 0.8, 0.5)):
            c.latency = sched.LatencyProfile(c.latency.base_time, sigma)
        for key in [(0, "time", 0, 1), (0, "time", 2, 7), (9, "probe", 1, 5, "abc")]:
            t = cohort_time(world.clients, 3, key)
            assert t == expected_cohort_time(world.clients, 3, key)
            shuffled = [world.clients[i] for i in (2, 0, 3, 1)]
            assert cohort_time(shuffled, 3, key) == t

    def test_no_jitter_is_the_exact_base_time(self):
        world = make_world(n_clients=3, alpha=0.5)
        for c in world.clients:
            c.latency = sched.LatencyProfile(c.latency.base_time, 0.0)
        t = cohort_time(world.clients, 2, (0, "time", 0, 1))
        assert t == max(c.latency.base_time * 2 * (len(c.shard.train) / 100.0)
                        for c in world.clients)


class TestRunRound:
    def test_zero_epochs_keeps_global_weights(self):
        world = make_world(n_clients=1)
        w0 = models.init_weights(world.model_spec, 0)
        state = RoundState(1, w0, hp_config(epochs=0))
        nxt, _ = run_round(state, world.clients, world)
        assert np.array_equal(nxt.global_weights.values, w0.values)

    def test_identical_clients_aggregate_to_either(self):
        world = make_world(n_clients=1)
        c = world.clients[0]
        twin = ClientState(c.client_id, c.shard, c.latency)
        w0 = models.init_weights(world.model_spec, 0)
        state = RoundState(1, w0, hp_config())
        nxt, _ = run_round(state, [c, twin], world)
        solo, _ = run_round(state, [c], world)
        assert np.allclose(nxt.global_weights.values, solo.global_weights.values)

    def test_local_feedback_per_client(self):
        world = make_world(n_clients=3)
        w = models.init_weights(world.model_spec, 0)
        state = RoundState(1, w, hp_config())
        shuffled = [world.clients[i] for i in (2, 0, 1)]
        _, losses = run_round(state, shuffled, world)
        assert [cid for cid, _ in losses] == [0, 1, 2]
        assert all(np.isfinite(loss) for _, loss in losses)


class TestTrainCohort:
    def test_shuffled_cohort_matches_per_client_loop(self):
        world = make_world(n_clients=4, alpha=0.5)
        cfg = hp_config(epochs=2)
        w0 = models.init_weights(world.model_spec, 0)
        key = (world.base_seed, "train", 3, 4)
        shuffled = [world.clients[i] for i in (2, 0, 3, 1)]
        agg, losses = train_cohort(world, w0, cfg, shuffled, 4, key)
        hp = to_train_hp(cfg, world.hp_defaults)
        updates, expected = [], []
        for c in world.clients:
            w, vl = models.local_train(
                world.model_spec, w0, hp, c.shard.train.features, c.shard.train.labels,
                c.shard.val.features, c.shard.val.labels, derive_seed(*key, c.client_id),
            )
            updates.append((w, len(c.shard.train)))
            expected.append((c.client_id, vl))
        assert np.array_equal(agg.values, fedavg_aggregate(updates).values)
        assert losses == expected

    def test_diverging_probe_names_client_round_and_config(self):
        world = make_world(n_clients=3)
        world.clients[1].shard.train.features[:] = np.nan
        cfg = hp_config()
        sampler = hpo.AdaptiveSampler(hpo.default_search_space(), ["learning_rate"])
        state = RoundState(5, models.init_weights(world.model_spec, 0), cfg)
        with pytest.raises(NumericDivergenceError) as info:
            runner.run_probe_cycle(state, world.clients, world, 0, sampler)
        assert info.value.client_id == 1
        assert info.value.round_index == 5
        assert info.value.config_id == sampler.probes(cfg)[0].config_id

    def test_lowest_diverging_client_is_named(self):
        world = make_world(n_clients=4, alpha=0.5)
        for cid in (3, 1):
            world.clients[cid].shard.train.features[:] = np.nan
        shuffled = [world.clients[i] for i in (3, 2, 1, 0)]
        cfg = hp_config()
        with pytest.raises(NumericDivergenceError,
                           match="^client 1 diverged in round 2: non-finite training loss$"
                           ) as info:
            train_cohort(world, models.init_weights(world.model_spec, 0), cfg,
                         shuffled, 2, (0, "train", 0, 2))
        assert (info.value.client_id, info.value.round_index, info.value.config_id) == \
            (1, 2, cfg.config_id)


class TestRunTrial:
    def test_global_feedback_on_cadence_rounds(self):
        world = make_world(n_clients=3, cadence=5)
        result = run_trial(hp_config(), 22, world)
        assert [point["round"] for point in result.trace] == [5, 10, 15, 20]
        assert result.global_loss == result.trace[-1]["loss"]
        assert result.last_round == 22
        assert [cid for cid, _ in result.local_losses] == [0, 1, 2]

    def test_one_evaluation_per_score(self, monkeypatch):
        # server validation once per cadence round; each client's validation
        # split once per round plus once for the objective; no training split.
        # Every scoring pass goes through models.evaluate_stack, one entry per set.
        world = make_world(n_clients=3, cadence=2)
        calls = []
        real_evaluate_stack = models.evaluate_stack

        def counting_evaluate_stack(spec, values, sets, block=None):
            calls.extend(id(features) for features, _ in sets)
            return real_evaluate_stack(spec, values, sets, block)

        monkeypatch.setattr(models, "evaluate_stack", counting_evaluate_stack)
        run_trial(hp_config(), 6, world)
        assert calls.count(id(world.val_set.features)) == 3
        for c in world.clients:
            assert len(c.shard.val) > 0
            assert calls.count(id(c.shard.val.features)) == 6 + 1
            assert calls.count(id(c.shard.train.features)) == 0
            assert calls.count(id(c.shard.test.features)) == 1
        assert len(calls) == 3 + 3 * (7 + 1)

    def test_scores_match_per_client_evaluate(self):
        world = make_world(n_clients=4, alpha=0.5)
        result = run_trial(hp_config(), 3, world)
        spec, w = world.model_spec, result.final_weights
        val, hits = [], []
        for c in world.clients:
            vl, _ = models.evaluate(spec, w, c.shard.val.features, c.shard.val.labels)
            val.append((vl, len(c.shard.train)))
            _, acc = models.evaluate(spec, w, c.shard.test.features, c.shard.test.labels)
            hits.append((acc, len(c.shard.test)))
        assert len({len(c.shard.val) for c in world.clients}) > 1
        assert abs(result.objective - weighted_objective(val)) <= 1e-12
        assert result.test_accuracy == sum(a * n for a, n in hits) / sum(n for _, n in hits)

    def test_trace_length_one_for_single_round_budget(self):
        world = make_world(cadence=1)
        result = run_trial(hp_config(), 1, world)
        assert len(result.trace) == 1

    def test_deterministic(self):
        world = make_world()
        a = run_trial(hp_config(), 10, world, trial_index=3)
        b = run_trial(hp_config(), 10, world, trial_index=3)
        assert np.array_equal(a.final_weights.values, b.final_weights.values)
        assert a.trace == b.trace
        assert a.objective == b.objective
        assert a.sim_time == b.sim_time

    def test_eval_cadence_below_one_rejected(self):
        with pytest.raises(ValueError, match="^eval cadence must be >= 1$"):
            make_world(cadence=0)

    def test_eq1_objective_oracle(self):
        assert weighted_objective([(1.0, 10), (3.0, 30)]) == pytest.approx(2.5)

    def test_converges_on_separable_data(self):
        world = make_world(n_clients=3, sep=8.0, cadence=5)
        result = run_trial(hp_config(learning_rate=0.1, epochs=1), 30, world)
        assert result.trace[-1]["accuracy"] >= 0.95

    def test_early_stop_patience(self):
        world = make_world(cadence=1)
        result = run_trial(hp_config(learning_rate=1e-5, epochs=0), 30, world,
                           patience=2)
        assert result.trace[-1]["round"] < 30


# One seed, one group, one evaluation: rounds 1 and 2 of trial 0 train the
# whole cohort, and the cadence-1 adaptive variant runs a probe cycle after
# round 1.
DIVERGING = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6,
                "n": 300, "class_sep": 4.0},
    "n_clients": 3,
    "alpha": 1.0,
    "model": {"kind": "logistic"},
    "sampler": "random",
    "budget_configs": 1,
    "rounds_per_trial": 4,
    "eval_cadence": 5,
    "seeds": [1],
}


def diverge_at_call(monkeypatch, n):
    """Make the n-th models.train_stack call report client 0 as diverged."""
    real = models.train_stack
    calls = []

    def train_stack(*args):
        calls.append(1)
        trained, losses, failures = real(*args)
        if len(calls) == n:
            failures[0] = "non-finite training loss"
        return trained, losses, failures

    monkeypatch.setattr(models, "train_stack", train_stack)


def charged_time(report):
    sr = report.per_seed[0]
    (row,) = sr.trials
    (feedback,) = [e for e in sr.events if e.event_kind == "feedback"]
    assert row.failed
    assert feedback.sim_time == row.sim_time
    return row.sim_time


class TestDivergedTrialTime:
    def test_charges_the_rounds_up_to_the_diverging_one(self, monkeypatch):
        cfg = config_from_dict(DIVERGING)
        world = runner.build_world(cfg, 1)
        diverge_at_call(monkeypatch, 2)
        report = runner.run_experiment(cfg)
        epochs = report.per_seed[0].trials[0].hp_values["epochs"]
        expected = sum(cohort_time(world.clients, epochs, (1, "time", 0, j)) for j in (1, 2))
        assert expected > 0
        assert charged_time(report) == expected

    def test_charges_the_probes_run_in_the_diverging_cycle(self, monkeypatch):
        cfg = config_from_dict({**DIVERGING, "sampler": "adaptive", "eval_cadence": 1})
        passes = []
        real = flcore.cohort_time

        def recording_cohort_time(cohort, epochs, seed_key):
            passes.append((seed_key[1], real(cohort, epochs, seed_key)))
            return passes[-1][1]

        monkeypatch.setattr(flcore, "cohort_time", recording_cohort_time)
        # call 1 trains round 1, calls 2 and 3 the cycle's first two probes
        diverge_at_call(monkeypatch, 3)
        charged = charged_time(runner.run_experiment(cfg))
        assert [kind for kind, _ in passes] == ["time", "probe", "probe"]
        assert charged == pytest.approx(sum(t for _, t in passes), rel=1e-12)
