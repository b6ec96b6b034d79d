import copy
import dataclasses
import gc
import weakref

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


def ids(world):
    """The client_id of every client of world, in its order."""
    return [c.client_id for c in world.clients]


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
            t = cohort_time(world.cohort(ids(world)), 3, key)
            assert t == expected_cohort_time(world.clients, 3, key)
            shuffled = [2, 0, 3, 1]
            assert cohort_time(dataclasses.replace(world).cohort(shuffled), 3, key) == t

    def test_no_jitter_is_the_exact_base_time(self):
        world = make_world(n_clients=3, alpha=0.5)
        for c in world.clients:
            c.latency = sched.LatencyProfile(c.latency.base_time, 0.0)
        t = cohort_time(world.cohort(ids(world)), 2, (0, "time", 0, 1))
        assert t == max(c.latency.base_time * 2 * (len(c.shard.train) / 100.0)
                        for c in world.clients)


class TestRunRound:
    def test_zero_epochs_keeps_global_weights(self):
        world = make_world(n_clients=1)
        w0 = models.init_weights(world.model_spec, 0)
        state = RoundState(1, w0, hp_config(epochs=0))
        nxt, _ = run_round(state, world.cohort(ids(world)), world)
        assert np.array_equal(nxt.global_weights.values, w0.values)

    def test_identical_clients_aggregate_to_either(self):
        world = make_world(n_clients=1)
        c = world.clients[0]
        w0 = models.init_weights(world.model_spec, 0)
        state = RoundState(1, w0, hp_config())
        nxt, _ = run_round(state, world.cohort([c.client_id] * 2), world)
        solo, _ = run_round(state, world.cohort([c.client_id]), world)
        assert np.allclose(nxt.global_weights.values, solo.global_weights.values)

    def test_local_feedback_per_client(self):
        world = make_world(n_clients=3)
        w = models.init_weights(world.model_spec, 0)
        state = RoundState(1, w, hp_config())
        _, losses = run_round(state, world.cohort([2, 0, 1]), world)
        assert [cid for cid, _ in losses] == [0, 1, 2]
        assert all(np.isfinite(loss) for _, loss in losses)


class TestTrainCohort:
    def test_shuffled_cohort_matches_per_client_loop(self):
        world = make_world(n_clients=4, alpha=0.5)
        cfg = hp_config(epochs=2)
        w0 = models.init_weights(world.model_spec, 0)
        key = (world.base_seed, "train", 3, 4)
        agg, losses = train_cohort(world, w0, cfg, world.cohort([2, 0, 3, 1]), 4, key)
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

    def test_diverging_probe_loses_its_comparison(self, monkeypatch):
        cfg = config_from_dict({**DIVERGING, "sampler": "adaptive", "eval_cadence": 1})
        cycles = []
        real = runner.run_probe_cycle

        def recording_cycle(state, cohort, world, trial_index, sampler, records):
            probes = sampler.probes(state.current_hp)
            before = len(records)
            out = real(state, cohort, world, trial_index, sampler, records)
            cycles.append((state.current_hp, probes, out, records[before:]))
            return out

        monkeypatch.setattr(runner, "run_probe_cycle", recording_cycle)
        # A first run finds the first cycle's probes. In the second, the
        # probe of the learning-rate neighbour diverges, in whichever lane
        # trains it: the probes of a cycle may train in a helper, which
        # counts no call here.
        runner.run_experiment(cfg)
        diverge_probe(monkeypatch, 2, cycles[0][1][1].config_id)
        cycles.clear()
        sr = runner.run_experiment(cfg).per_seed[0]
        current, probes, (new, _, _), records = cycles[0]
        diverged = probes[1]
        assert [r.config_id for r in records] == \
            [p.config_id for p in probes if p is not diverged]
        name = hpo.probe_target_of(current, diverged)
        assert new.values[name] == current.values[name] != diverged.values[name]
        # cycles run before rounds 2, 3 and 4, none after the last round
        assert len(cycles) == 3 and not sr.trials[0].failed

    def test_lowest_diverging_client_is_named(self):
        world = make_world(n_clients=4, alpha=0.5)
        for cid in (3, 1):
            world.clients[cid].shard.train.features[:] = np.nan
        cfg = hp_config()
        with pytest.raises(NumericDivergenceError,
                           match="^client 1 diverged in round 2: non-finite weights after epoch$"
                           ) as info:
            train_cohort(world, models.init_weights(world.model_spec, 0), cfg,
                         world.cohort([3, 2, 1, 0]), 2, (0, "train", 0, 2))
        assert (info.value.client_id, info.value.round_index, info.value.config_id) == \
            (1, 2, cfg.config_id)

    def test_loss_overflowing_mid_epoch_ends_the_trial_in_that_round(self, monkeypatch):
        # Client 1's huge features overflow its loss on a step of round 1's
        # one epoch that is not its last; the round fails at the epoch's end,
        # and the trial is charged that round alone.
        world = make_world(n_clients=3)
        world.clients[1].shard.train.features[:] *= 1e200
        steps, real = [], models.loss_and_grad

        def spy(spec, values, features, labels, dropout_mask=None, with_loss=True):
            loss, grad = real(spec, values, features, labels, dropout_mask)
            steps.append(np.isfinite(loss).tolist())  # one entry per stack row
            return (loss, grad) if with_loss else grad

        monkeypatch.setattr(models, "loss_and_grad", spy)
        cfg = hp_config()
        result = run_trial(cfg, 3, world)
        t = next(t for t, finite in enumerate(steps) if not all(finite))
        assert len(steps[t + 1]) > steps[t].index(False)  # that row trains on after step t
        err = result.failure
        assert str(err) == "client 1 diverged in round 1: non-finite weights after epoch"
        assert (err.client_id, err.round_index, err.config_id) == (1, 1, cfg.config_id)
        assert result.sim_time == cohort_time(world.cohort(ids(world)), 1, (0, "time", 0, 1))


class TestRoundTime:
    """round_time draws each round time once per cohort and keeps it there."""

    @staticmethod
    def recording_cohort_time(monkeypatch):
        calls, real = [], flcore.cohort_time

        def spy(cohort, epochs, seed_key):
            calls.append((cohort.ids, epochs, seed_key))
            return real(cohort, epochs, seed_key)

        monkeypatch.setattr(flcore, "cohort_time", spy)
        return calls

    def test_run_trial_on_kept_times_draws_none(self, monkeypatch):
        world, cfg = make_world(cadence=2), hp_config(epochs=2)
        cohort = world.cohort(ids(world))
        kept = [flcore.round_time(world, cohort, cfg, 4, j) for j in range(1, 6)]
        assert cohort.times == {(2, 4, j): t for j, t in zip(range(1, 6), kept)}
        calls = self.recording_cohort_time(monkeypatch)
        result = run_trial(cfg, 5, world, cohort, trial_index=4)
        assert calls == []
        fresh = run_trial(cfg, 5, make_world(cadence=2), trial_index=4)
        assert len(calls) == 5
        assert result.sim_time == fresh.sim_time == sum(kept)
        assert result.trace == fresh.trace

    def test_each_time_is_drawn_once_per_cohort(self, monkeypatch):
        world, cfg = make_world(), hp_config()
        cohort, other = world.cohort(ids(world)), world.cohort([0, 2])
        calls = self.recording_cohort_time(monkeypatch)
        # another cohort and another epoch count draw their own times, once each
        for _ in range(2):
            assert flcore.round_time(world, cohort, cfg, 0, 1) == \
                cohort_time(cohort, 1, (0, "time", 0, 1))
            assert flcore.round_time(world, other, cfg, 0, 1) == \
                cohort_time(other, 1, (0, "time", 0, 1))
            flcore.round_time(world, cohort, hp_config(epochs=3), 0, 1)
        assert [c[:2] for c in calls] == [((0, 1, 2), 1), ((0, 2), 1), ((0, 1, 2), 3)]
        assert list(other.times) == [(1, 0, 1)] and list(cohort.times) == [(1, 0, 1), (3, 0, 1)]


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
        # split once for the last round, whose local losses the result
        # keeps, plus once for the objective; no training split.
        self.check_scores(monkeypatch, patience=0, client_scores=1 + 1)

    def test_patience_scores_every_cadence_rounds_local_losses(self, monkeypatch):
        # any cadence round can stop the trial and be its last: rounds 2, 4, 6
        self.check_scores(monkeypatch, patience=5, client_scores=3 + 1)

    @staticmethod
    def check_scores(monkeypatch, patience, client_scores):
        # Every scoring pass goes through models._score, which reads gathered
        # row blocks; a scored set is named by the rows it reads.
        world = make_world(n_clients=3, cadence=2)
        names = {world.val_set.features.tobytes(): "server"}
        for c in world.clients:
            for split in ("train", "val", "test"):
                names[getattr(c.shard, split).features.tobytes()] = split, c.client_id
        calls = []
        real_score = models._score

        def counting_score(spec, values, x, y, sizes, accuracy):
            for rows, n in zip(x.reshape(len(sizes), -1, x.shape[-1]), sizes):
                calls.append(names[rows[:n].tobytes()])
            return real_score(spec, values, x, y, sizes, accuracy)

        monkeypatch.setattr(models, "_score", counting_score)
        assert not run_trial(hp_config(), 6, world, patience=patience).stopped
        assert calls.count("server") == 3
        for c in world.clients:
            assert len(c.shard.val) > 0
            assert calls.count(("val", c.client_id)) == client_scores
            assert calls.count(("train", c.client_id)) == 0
            assert calls.count(("test", c.client_id)) == 1
        assert len(calls) == 3 + 3 * (client_scores + 1)

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

    def test_cycle_runs_before_the_round_it_steers(self):
        # cadence rounds 2, 4 and 6: cycles before rounds 3 and 5, none after 6
        world = make_world(n_clients=3, cadence=2)
        steered = []

        def on_cadence(state):
            steered.append((state.round_index, state.current_hp))
            return hp_config(learning_rate=0.05), 1.5, None

        result = run_trial(hp_config(), 6, world, on_cadence=on_cadence)
        assert steered == [(3, hp_config()), (5, hp_config(learning_rate=0.05))]
        assert result.config == hp_config(learning_rate=0.05)
        # both cycles charge their extra time; epochs, and so round times, are unchanged
        plain = run_trial(hp_config(), 6, world)
        assert result.sim_time == pytest.approx(plain.sim_time + 2 * 1.5, rel=1e-12)

    def test_no_cycle_after_an_early_stop(self):
        # a zero learning rate never improves the global loss: stop at round 2
        world = make_world(n_clients=3, cadence=1)
        steered = []

        def on_cadence(state):
            steered.append(state.round_index)
            return state.current_hp, 0.0, None

        result = run_trial(hp_config(learning_rate=0.0), 6, world, on_cadence=on_cadence,
                           patience=1)
        assert result.stopped and result.last_round == 2 and steered == [2]

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

    def test_overflowing_trial_fails_without_float_warnings(self):
        # the suite turns RuntimeWarning into an error
        world = make_world(n_clients=3)
        hp = hp_config(learning_rate=1e6, weight_decay=1.0, epochs=10)
        result = run_trial(hp, 4, world)
        assert isinstance(result.failure, NumericDivergenceError)
        assert result.failure.config_id == hp.config_id and result.config == hp
        assert (result.objective, result.test_accuracy, result.trace) == (np.inf, 0.0, [])
        assert result.final_weights is None and result.sim_time > 0


def assert_same_trial(a, b):
    """a and b hold the same weights, scores, trace, losses and state, bit for bit."""
    assert a.final_weights.values.tobytes() == b.final_weights.values.tobytes()
    assert repr(a.trace) == repr(b.trace)
    for name in ("config", "objective", "test_accuracy", "sim_time", "last_round",
                 "local_losses", "global_loss", "best_gl", "stall", "stopped", "failure"):
        assert repr(getattr(a, name)) == repr(getattr(b, name)), name


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestResume:
    def test_continued_trial_equals_fresh_trial(self):
        # the rung boundary (round 5) falls between cadence rounds 4 and 6
        world = make_world(n_clients=3, cadence=2, alpha=0.5)
        first = run_trial(hp_config(), 5, world, trial_index=4)
        continued = run_trial(hp_config(), 11, world, trial_index=4, resume=first)
        assert continued.last_round == 11 and continued.sim_time > first.sim_time
        assert_same_trial(continued, run_trial(hp_config(), 11, world, trial_index=4))

    def test_continued_trial_runs_its_pending_cycle(self):
        # round 4 is a cadence round, so the cycle before round 5 is pending
        world = make_world(n_clients=3, cadence=2, alpha=0.5)
        steered = []

        def on_cadence(state):
            steered.append(state.round_index)
            lr = 0.05 if state.round_index == 5 else 0.2
            return hp_config(learning_rate=lr), 2.0, None

        first = run_trial(hp_config(), 4, world, trial_index=4, on_cadence=on_cadence)
        continued = run_trial(hp_config(), 6, world, trial_index=4, on_cadence=on_cadence,
                              resume=first)
        assert steered == [3, 5] and continued.config == hp_config(learning_rate=0.05)
        fresh = run_trial(hp_config(), 6, world, trial_index=4, on_cadence=on_cadence)
        assert steered == [3, 5, 3, 5]
        assert_same_trial(continued, fresh)

    def test_continuing_leaves_resume_unchanged(self):
        # the runner reads resume.sim_time after the call, and a committed outcome holds it
        world = make_world(n_clients=3, cadence=2, alpha=0.5)

        def on_cadence(state):
            return hp_config(learning_rate=0.05), 2.0, None

        first = run_trial(hp_config(), 4, world, trial_index=4, on_cadence=on_cadence,
                          patience=3)
        before = copy.deepcopy(first)
        continued = run_trial(hp_config(), 8, world, trial_index=4, on_cadence=on_cadence,
                              patience=3, resume=first)
        assert continued.last_round == 8 and len(continued.trace) == 4
        assert continued.best_gl < first.best_gl and continued.sim_time > first.sim_time
        assert_same_trial(first, before)

    def test_trial_stopped_early_trains_no_further_round(self, monkeypatch):
        # a zero learning rate never improves the global loss: stop at round 2
        world = make_world(n_clients=3, cadence=1)
        hp = hp_config(learning_rate=0.0)
        first = run_trial(hp, 4, world, trial_index=2, patience=1)
        assert first.stopped and first.last_round == 2 and first.sim_time > 0
        rounds = count_calls(monkeypatch, flcore, "run_round")
        continued = run_trial(hp, 8, world, trial_index=2, patience=1, resume=first)
        assert rounds == []
        assert continued.sim_time == first.sim_time
        assert_same_trial(continued, run_trial(hp, 8, world, trial_index=2, patience=1))

    def test_diverged_trial_fails_again_without_training(self, monkeypatch):
        world = make_world(n_clients=3)
        world.clients[1].shard.train.features[:] = np.nan
        fresh = run_trial(hp_config(), 8, world, trial_index=1)
        first = run_trial(hp_config(), 4, world, trial_index=1)
        err = first.failure
        assert (err.client_id, err.round_index, err.config_id) == (1, 1, hp_config().config_id)
        assert first.sim_time > 0
        passes = count_calls(monkeypatch, models, "train_stack")
        continued = run_trial(hp_config(), 8, world, trial_index=1, resume=first)
        assert passes == []
        assert continued is first
        assert continued.sim_time == fresh.sim_time


# One seed, one group, one evaluation: rounds 1 and 2 of trial 0 train the
# whole cohort, and the cadence-1 adaptive variant runs a probe cycle before
# round 2.
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
            failures[0] = "non-finite weights after epoch"
        return trained, losses, failures

    monkeypatch.setattr(models, "train_stack", train_stack)


def diverge_probe(monkeypatch, round_index, config_id):
    """Make the passes of config_id in round round_index diverge at client 0."""
    real = flcore.train_cohort

    def train_cohort(world, global_w, config, cohort, j, *args):
        if (j, config.config_id) == (round_index, config_id):
            raise NumericDivergenceError(
                f"client 0 diverged in round {j}: non-finite weights after epoch",
                client_id=0, round_index=j, config_id=config_id)
        return real(world, global_w, config, cohort, j, *args)

    monkeypatch.setattr(flcore, "train_cohort", train_cohort)


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
        epochs = report.per_seed[0].trials[0].hp["epochs"]
        cohort = world.cohort(ids(world))
        expected = sum(cohort_time(cohort, epochs, (1, "time", 0, j)) for j in (1, 2))
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
        # call 1 trains round 1 (this process's share of it, with a helper);
        # call 3 is one of the first cycle's probes
        diverge_at_call(monkeypatch, 3)
        sr = runner.run_experiment(cfg).per_seed[0]
        (row,) = sr.trials
        (feedback,) = [e for e in sr.events if e.event_kind == "feedback"]
        assert not row.failed and feedback.sim_time == row.sim_time
        # rounds 2 to 4 are each preceded by a cycle of four probes, the
        # diverging one included, and each reuses its chosen probe's pass
        assert [kind for kind, _ in passes] == ["time"] + ["probe"] * 4 * 3
        assert row.sim_time == pytest.approx(sum(t for _, t in passes), rel=1e-12)

    def test_continued_halving_trial_charges_nothing(self, monkeypatch):
        # Every pass diverges, so both rung-0 trials (2 rounds) fail at round 1
        # and one is promoted; its continuation fails again without training.
        lr = {"name": "learning_rate", "scale": "log10", "low": 1e-4, "high": 1e-1, "step": 10.0}
        cfg = config_from_dict({**DIVERGING, "sampler": "halving", "budget_configs": 2,
                                "search_space": [lr], "tuned": ["learning_rate"]})
        passes = []
        real = models.train_stack

        def train_stack(*args):
            passes.append(1)
            trained, losses, failures = real(*args)
            return trained, losses, ["non-finite weights after epoch"] + failures[1:]

        monkeypatch.setattr(models, "train_stack", train_stack)
        sr = runner.run_experiment(cfg).per_seed[0]
        assert len(passes) == 2
        feedback = [e for e in sr.events if e.event_kind == "feedback"]
        assert [e.staleness > 0 for e in feedback] == [True, True, False]
        assert sr.makespan == feedback[1].sim_time
        promoted = next(t for t in sr.trials if t.sim_time == 0.0)
        assert promoted.failed and all(t.failed for t in sr.trials)


def scaled_resume(seed, factor, cadence=1):
    """A world and an epochs-0 config, with a one-round trial of that config
    whose weights are scaled by factor: every later round keeps them."""
    world = make_world(n_clients=3, cadence=cadence, seed=seed)
    hp = hp_config(epochs=0)
    first = run_trial(hp, 1, world)
    w = first.final_weights
    return world, hp, dataclasses.replace(
        first, final_weights=WeightVector(w.values * factor, w.layout_id))


class TestNonFiniteScores:
    """A trial whose weights stay finite but score a non-finite server loss
    or objective fails as a divergence; the run goes on."""

    def test_non_finite_server_loss_fails_the_trial(self):
        world, hp, huge = scaled_resume(19, 5.948892077934136e307)
        assert np.isnan(models.evaluate(world.model_spec, huge.final_weights,
                                        world.val_set.features, world.val_set.labels)[0])
        result = run_trial(hp, 2, world, resume=huge)
        err = result.failure
        assert str(err) == f"config {hp.config_id} diverged in round 2: " \
                           "non-finite server validation loss"
        assert (err.client_id, err.round_index, err.config_id) == (None, 2, hp.config_id)
        assert (result.config, result.objective, result.trace) == (hp, np.inf, [])
        assert result.final_weights is None
        cfg = {"sampler": "random", "early_stop_patience": 0}
        group = sched.ClientGroup(0, ids(world))
        outcome = runner._run_one_eval(cfg, world, group, hp, 0, 19, (0, 2, None), huge)
        assert outcome.row.failed and outcome.row.objective == np.inf
        assert outcome.row.entry()["objective"] == "inf" and outcome.records == []

    def test_probe_with_a_non_finite_server_loss_scores_inf_and_writes_no_record(self):
        world, hp, huge = scaled_resume(19, 5.948892077934136e307)
        space = hpo.default_search_space()
        walk = hpo.AdaptiveSampler(space, ["learning_rate"], 0.0, 0, 1, 2)
        state = RoundState(2, huge.final_weights, hp)
        cohort = world.cohort(ids(world))
        probes = walk.probes(hp)
        assert len(probes) > 1
        records = []
        new, _, reused = runner.run_probe_cycle(state, cohort, world, 0, walk, records)
        assert (new, records, reused) == (hp, [], None)
        cfg = {"sampler": "adaptive", "early_stop_patience": 0}
        group = sched.ClientGroup(0, ids(world))
        walk = hpo.AdaptiveSampler(space, ["learning_rate"], 0.0, 0, 1, 2)
        outcome = runner._run_one_eval(cfg, world, group, hp, 0, 19, (0, 2, walk), huge)
        assert outcome.row.failed and outcome.row.objective == np.inf
        assert outcome.result.failure.round_index == 2 and outcome.records == []

    def test_infinite_server_loss_fails_the_row_it_used_to_pass(self):
        world, hp, huge = scaled_resume(0, 5.49e306)
        cfg = {"sampler": "random", "early_stop_patience": 0}
        group = sched.ClientGroup(0, ids(world))
        outcome = runner._run_one_eval(cfg, world, group, hp, 0, 0, (0, 2, None), huge)
        assert outcome.row.failed and outcome.row.objective == np.inf
        assert "round 2: non-finite server validation loss" in str(outcome.result.failure)

    def test_infinite_objective_off_cadence_fails_the_trial(self):
        # round 2 of cadence 5 scores no server loss, only the objective
        world, hp, huge = scaled_resume(0, 5.49e306, cadence=5)
        result = run_trial(hp, 2, world, resume=huge)
        assert str(result.failure) == f"config {hp.config_id} diverged in round 2: " \
                                      "non-finite objective"
        assert (result.objective, result.trace, result.last_round) == (np.inf, [], 0)


def mlp_world(**kw):
    world = make_world(**kw)
    spec = ModelSpec("mlp", world.model_spec.input_dim, world.model_spec.num_classes, 8)
    return dataclasses.replace(world, model_spec=spec)


def pass_or_failure(world, w, cfg, members, round_index, key):
    """train_cohort's (aggregate bytes, losses) over the client ids members,
    or its divergence's fields."""
    try:
        agg, losses = train_cohort(world, w, cfg, world.cohort(members), round_index, key)
    except NumericDivergenceError as err:
        return str(err), err.client_id, err.round_index, err.config_id
    return agg.values.tobytes(), losses


def cold_plans(monkeypatch):
    """Make every pass build its batch plans afresh, in a memo of its own."""
    real = flcore.PlanMemo.get
    monkeypatch.setattr(flcore.PlanMemo, "get",
                        lambda self, *args: real(flcore.PlanMemo(), *args))


# An adaptive run whose learning-rate grid reaches rates that overflow, so
# some probes diverge while their siblings and the rounds go on.
PLANNED = {**DIVERGING, "model": {"kind": "mlp", "hidden_dim": 8}, "sampler": "adaptive",
           "budget_configs": 2, "eval_cadence": 1,
           "hp_defaults": {"learning_rate": 0.1, "weight_decay": 1e-3, "epochs": 3,
                           "batch_size": 8, "dropout": 0.2},
           "search_space": [
               {"name": "learning_rate", "scale": "log10", "low": 1e-1, "high": 1e7,
                "step": 10.0},
               {"name": "weight_decay", "scale": "log10", "low": 1e-4, "high": 1e-1,
                "step": 10.0}],
           "tuned": ["learning_rate", "weight_decay"]}


def run_outputs(cfg):
    sr = runner.run_experiment(cfg).per_seed[0]
    return [(t.config_id, t.objective, t.accuracy, t.sim_time, t.failed, t.trace)
            for t in sr.trials], sr.feedback_history


def report_key(cfg):
    """Everything cfg's one-seed report holds; repr keeps floats exact."""
    sr = runner.run_experiment(config_from_dict(cfg)).per_seed[0]
    return (repr(sr.best), repr(sr.trials), repr(sr.events), repr(sr.makespan),
            sr.best_weights and sr.best_weights.values.tobytes(), repr(sr.feedback_history))


def score_every_pass(monkeypatch):
    """Make every models.train_stack call score every row's loss."""
    real = models.train_stack
    monkeypatch.setattr(models, "train_stack", lambda *args: real(*args[:5], True))


# Cadence rounds 2, 4 and 6 of six: odd rounds are never a trial's last, and
# with patience a trial can stop at round 4.
SCORING = {**DIVERGING, "budget_configs": 3, "rounds_per_trial": 6, "eval_cadence": 2}
# Learning rates that overflow in training, as the CI's overflow run has them.
OVERFLOWING = {**DIVERGING, "hp_defaults": {"weight_decay": 1, "epochs": 10},
               "tuned": ["learning_rate"], "search_space": [
                   {"name": "learning_rate", "scale": "log10", "low": 1e6, "high": 1e7,
                    "step": 10.0}]}
SKIPPING = {f"{sampler}-patience{patience}": {**SCORING, "sampler": sampler,
                                              "early_stop_patience": patience}
            for sampler in ("random", "halving", "adaptive") for patience in (0, 1)}
SKIPPING.update({"planned": PLANNED, "overflowing-random": OVERFLOWING,
                 "overflowing-adaptive": {**OVERFLOWING, "sampler": "adaptive"}})


class TestScoredRounds:
    """Only the passes whose local losses are read score them all, and the
    report equals that of a run that scores every pass."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name", SKIPPING)
    def test_report_equals_a_run_that_scores_every_pass(self, name, cpus, monkeypatch):
        monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
        real, scores = models.train_stack, []

        def recording(*args):
            scores.append(args[5])
            return real(*args)

        monkeypatch.setattr(models, "train_stack", recording)
        skipping = report_key(SKIPPING[name])
        assert False in scores  # this process skipped some scoring
        score_every_pass(monkeypatch)
        assert report_key(SKIPPING[name]) == skipping

    def test_row_above_the_bound_fails_in_its_own_round(self, monkeypatch):
        world = make_world(n_clients=3)
        hp = hp_config(epochs=0)  # every round keeps the weights it starts from
        first = run_trial(hp, 1, world)
        w = first.final_weights
        huge = dataclasses.replace(first, final_weights=WeightVector(w.values * 1e308,
                                                                     w.layout_id))
        # round 2 of 4 keeps no local losses, but its rows exceed the bound
        result = run_trial(hp, 4, world, resume=huge)
        err = result.failure
        assert str(err) == "client 0 diverged in round 2: non-finite post-training loss"
        assert (err.client_id, err.round_index) == (0, 2)
        score_every_pass(monkeypatch)
        again = run_trial(hp, 4, world, resume=huge)
        assert (str(again.failure), again.failure.round_index, again.sim_time) == \
            (str(err), 2, result.sim_time)


class TestBatchPlanMemo:
    def test_passes_under_one_key_equal_cold_builds(self, monkeypatch):
        world = mlp_world(n_clients=4, alpha=0.5)
        w0 = models.init_weights(world.model_spec, 0)
        key = (world.base_seed, "train", 0, 2)
        configs = [hp_config(epochs=2), hp_config(epochs=2, learning_rate=0.5),
                   hp_config(epochs=2, weight_decay=0.1, dropout=0.4),
                   hp_config(epochs=2, learning_rate=1e40, weight_decay=1.0),
                   hp_config(epochs=2, dropout=0.0), hp_config(epochs=2, dropout=0.3)]
        builds = count_calls(monkeypatch, models, "plan_batches")
        warm = [pass_or_failure(world, w0, cfg, ids(world), 2, key) for cfg in configs]
        # one plan with dropout draws and one without
        assert len(builds) == 2
        for cfg, got in zip(configs, warm):
            cold = dataclasses.replace(world)  # a fresh memo
            assert got == pass_or_failure(cold, w0, cfg, ids(world), 2, key)
        assert isinstance(warm[3][0], str) and "diverged in round 2" in warm[3][0]
        assert sum(isinstance(g[0], bytes) for g in warm) == 5

    def test_diverging_probes_leave_siblings_and_rounds_exact(self, monkeypatch):
        cfg = config_from_dict(PLANNED)
        failed = []
        real = models.train_stack

        def train_stack(*args):
            out = real(*args)
            failed.append(any(f is not None for f in out[2]))
            return out

        monkeypatch.setattr(models, "train_stack", train_stack)
        warm = run_outputs(cfg)
        assert any(failed) and not all(failed)
        cold_plans(monkeypatch)
        assert run_outputs(cfg) == warm

    def test_nan_client_fails_alone_under_a_shared_key(self):
        world = mlp_world(n_clients=4, alpha=0.5)
        world.clients[2].shard.train.features[0, 0] = np.nan
        w0 = models.init_weights(world.model_spec, 0)
        key = (world.base_seed, "train", 1, 3)
        healthy = [0, 1, 3]
        for cfg in (hp_config(), hp_config(learning_rate=0.3, dropout=0.4)):
            for cohort in (ids(world), healthy):
                got = pass_or_failure(world, w0, cfg, cohort, 3, key)
                assert got == pass_or_failure(dataclasses.replace(world), w0, cfg, cohort,
                                              3, key)
                assert isinstance(got[0], bytes) == (cohort is healthy)

    @pytest.mark.parametrize("sampler,shared", [("adaptive", True), ("random", False),
                                                ("halving", False)])
    def test_one_plan_build_per_training_key(self, monkeypatch, sampler, shared):
        lr = {"name": "learning_rate", "scale": "log10", "low": 1e-3, "high": 1e-1,
              "step": 10.0}
        cfg = config_from_dict({**PLANNED, "sampler": sampler, "budget_configs": 4,
                                "search_space": [lr, PLANNED["search_space"][1]]})
        builds = count_calls(monkeypatch, models, "plan_batches")
        passes = count_calls(monkeypatch, models, "train_stack")
        rows = runner.run_experiment(cfg).per_seed[0].trials
        if shared:
            # every round a trial ran (eval_cadence 1: one trace entry per
            # round) is one training key, shared by its probes and itself
            assert not any(r.failed for r in rows)
            assert len(builds) == sum(len(r.trace) for r in rows) < len(passes)
        else:
            assert len(builds) == len(passes)

    def test_a_new_key_drops_the_previous_keys_plans(self):
        world = mlp_world(n_clients=3)
        w0 = models.init_weights(world.model_spec, 0)
        cohort = world.cohort(ids(world))
        train_cohort(world, w0, hp_config(), cohort, 1, (0, "train", 0, 1))
        train_cohort(world, w0, hp_config(dropout=0.0), cohort, 1, (0, "train", 0, 1))
        old = [weakref.ref(p) for plans in world.plans.plans.values() for p in plans]
        assert len(world.plans.plans) == 2 and old
        train_cohort(world, w0, hp_config(), cohort, 2, (0, "train", 0, 2))
        gc.collect()
        assert world.plans.seed_key == (0, "train", 0, 2)
        assert len(world.plans.plans) == 1
        assert all(ref() is None for ref in old)
        # a plan keeps the raw dropout uniforms, not a keep-rate multiplier
        (plans,) = world.plans.plans.values()
        for plan in plans:
            real = plan.labels >= 0
            assert np.all(plan.uniforms[~real] == 1.0)
            u = plan.uniforms[real]
            assert np.all((u >= 0.0) & (u < 1.0)) and len(np.unique(u)) == u.size


def ragged_world():
    """Five MLP clients whose training splits pad to widths 1, 4 and 16 under
    batch_size 16; clients 2 and 4 have no validation split, and client 3's
    spans two VAL_BLOCK blocks."""
    sizes = [(17, 5), (2, 3), (1, 0), (40, 40), (9, 0)]
    ds = data.gen_synthetic(3, 4, sum(t + v for t, v in sizes) + 30, 3.0, seed=4)
    clients, o = [], 30
    for cid, (n_train, n_val) in enumerate(sizes):
        train = data.Dataset(ds.features[o : o + n_train], ds.labels[o : o + n_train])
        val = data.Dataset(ds.features[o + n_train : o + n_train + n_val],
                           ds.labels[o + n_train : o + n_train + n_val])
        o += n_train + n_val
        none = np.arange(0)
        shard = data.DataShard(cid, train, val, data.Dataset(ds.features[:0], ds.labels[:0]),
                               none, none, none)
        clients.append(ClientState(cid, shard, sched.LatencyProfile(1.0, 0.1)))
    return ExperimentWorld(ModelSpec("mlp", 4, 3, 8), clients,
                           data.Dataset(ds.features[:30], ds.labels[:30]), 1,
                           dict(HP_DEFAULTS, batch_size=16), base_seed=0)


def cold_batches(spec, train, seed, epochs, batch_size, dropout):
    """One shard's batches drawn and padded from its raw arrays, one epoch
    after another: [(features, labels, uniforms or None, ends an epoch)]."""
    (x, y), rng = train, np.random.default_rng(seed)
    width = models._padded_width(len(y), batch_size)
    out = []
    for _ in range(epochs):
        perm = rng.permutation(len(y))
        u = rng.random((len(y), spec.hidden_dim)) if dropout else None
        for s in range(0, len(y), width):
            rows, pad = perm[s : s + width], width - len(perm[s : s + width])
            out.append((np.concatenate([x[rows], np.zeros((pad, x.shape[1]))]),
                        np.concatenate([y[rows], np.full(pad, -1)]),
                        None if u is None else
                        np.concatenate([u[s : s + width], np.ones((pad, spec.hidden_dim))]),
                        s + width >= len(y)))
    return out


class TestCohort:
    def test_cached_cohort_equals_cold_builds_on_raw_shards(self):
        world = ragged_world()
        spec, cohort = world.model_spec, world.cohort(ids(world)[::-1])
        assert cohort.ids == (0, 1, 2, 3, 4)
        w = models.init_weights(spec, 3)
        hps = [to_train_hp(hp_config(epochs=2, batch_size=16, dropout=d, learning_rate=lr),
                           world.hp_defaults) for d, lr in ((0.3, 0.1), (0.0, 0.1), (0.3, 0.5))]
        for k, hp in enumerate(hps):
            key = (0, "train", 0, k)  # a fresh key: plans built on the cached pool
            trained, losses, failures = flcore.train_share(world, w, hp, cohort.ids, key)
            assert failures == [None] * 5
            plans = world.plans.get(spec, hp, cohort, key)
            assert [p.features.shape[1] for p in plans] == [1, 4, 16]
            cold = [cold_batches(spec, (c.shard.train.features, c.shard.train.labels),
                                 derive_seed(*key, c.client_id), *models.plan_key(spec, hp))
                    for c in world.clients]
            seen = [0] * 5
            for plan in plans:
                for t, (a, b) in enumerate(zip(plan.start[:-1], plan.start[1:])):
                    for r, i in enumerate(plan.order[: b - a]):
                        f, y, u, end = cold[i][t]
                        assert plan.features[a + r].tobytes() == f.tobytes()
                        assert plan.labels[a + r].tobytes() == y.tobytes()
                        assert (plan.uniforms is None) == (u is None)
                        assert u is None or plan.uniforms[a + r].tobytes() == u.tobytes()
                        assert plan.epoch_end[a + r] == end
                        seen[i] += 1
            assert seen == [len(batches) for batches in cold]
            sets = [(c.shard.val.features, c.shard.val.labels) if len(c.shard.val) else
                    (c.shard.train.features, c.shard.train.labels) for c in world.clients]
            cold_losses, _ = models.evaluate_stack(spec, trained, sets, models.VAL_BLOCK)
            assert losses.tobytes() == cold_losses.tobytes()
        assert world.cohort(ids(world)) is cohort
        assert len(world.cohorts) == 1

    def test_one_cohort_per_id_set_in_any_form_or_order(self):
        world = make_world(n_clients=4)
        cohort = world.cohort([0, 1, 2, 3])
        for given in ((0, 1, 2, 3), (i for i in range(4)), [2, 0, 3, 1], (3, 2, 1, 0)):
            assert world.cohort(given) is cohort
        assert cohort.ids == (0, 1, 2, 3)
        assert [c.client_id for c in cohort.members] == [0, 1, 2, 3]
        pair = world.cohort([3, 1])
        assert pair is world.cohort((1, 3)) and pair is not cohort
        assert [c.client_id for c in pair.members] == [1, 3]
        assert len(world.cohorts) == 2

    def test_each_world_holds_its_own_cohorts(self):
        # two worlds of one shape, alive together: same member ids, own records
        a, b = make_world(seed=0), make_world(seed=1)
        ca, cb = a.cohort(ids(a)), b.cohort(ids(b))
        assert ca.ids == cb.ids and ca is not cb
        assert ca.pool.features.tobytes() != cb.pool.features.tobytes()
        assert [c.shard for c in cb.members] == [c.shard for c in b.clients]
