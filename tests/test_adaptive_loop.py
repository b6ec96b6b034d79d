"""Step-wise adaptive search: probe cycles on easy data, a round that
reuses its chosen probe's pass, rows that name the config that trained
them, and evaluations that see only the feedback committed before they
were issued."""

import math
import os

import pytest

from fedtune import data, flcore, lanes, models, runner, sched
from fedtune.common import NumericDivergenceError, derive_seed
from fedtune.config import config_from_dict
from fedtune.flcore import ClientState, ExperimentWorld, RoundState, run_round, train_cohort
from fedtune.hpo import AdaptiveSampler, HpConfig, default_search_space, suggest_random
from fedtune.models import ModelSpec

HP_DEFAULTS = {"learning_rate": 1e-5, "weight_decay": 1e-5, "epochs": 1,
               "batch_size": 16, "dropout": 0.1}


def ids(world):
    """The client_id of every client of world, in its order."""
    return [c.client_id for c in world.clients]


def separable_world(seed=0):
    ds = data.gen_synthetic(2, 4, 360, 8.0, seed=seed)
    server_val = data.Dataset(ds.features[:40], ds.labels[:40])
    rest = data.Dataset(ds.features[40:], ds.labels[40:])
    shards = data.partition_dirichlet(rest, 3, 1000.0, seed=seed)
    clients = [ClientState(s.client_id, s, sched.LatencyProfile(1.0)) for s in shards]
    spec = ModelSpec("logistic", 4, 2)
    return ExperimentWorld(spec, clients, server_val, 1, dict(HP_DEFAULTS), base_seed=seed)


def test_adaptive_probes_escape_tiny_learning_rate():
    world = separable_world()
    space = default_search_space()
    sampler = AdaptiveSampler(space, ["learning_rate"], epsilon=0.0, seed=0, num_evals=1,
                              rounds_per_trial=1)
    state = RoundState(1, models.init_weights(world.model_spec, 0), HpConfig(dict(HP_DEFAULTS)))
    cohort = world.cohort(ids(world))
    accepted = 0
    for _ in range(12):
        new_cfg, _, _ = runner.run_probe_cycle(state, cohort, world, 0, sampler, [])
        if new_cfg != state.current_hp:
            accepted += 1
            state.current_hp = new_cfg
        if state.current_hp.values["learning_rate"] >= 1e-3:
            break
        state, _ = run_round(state, cohort, world)
    assert state.current_hp.values["learning_rate"] >= 1e-3
    assert accepted <= 6


def test_reused_round_equals_a_fresh_pass_of_the_chosen_config():
    world = separable_world()
    sampler = AdaptiveSampler(default_search_space(), ["learning_rate"], epsilon=0.0, seed=0,
                              num_evals=1, rounds_per_trial=3)
    cohort = world.cohort(ids(world))
    state, _ = run_round(RoundState(1, models.init_weights(world.model_spec, 0),
                                    HpConfig(dict(HP_DEFAULTS))), cohort, world)
    chosen, _, reused = runner.run_probe_cycle(state, cohort, world, 0, sampler, [])
    assert chosen != state.current_hp and reused is not None
    fresh = train_cohort(world, state.global_weights, chosen, cohort, 2,
                         (world.base_seed, "train", 0, 2))
    assert reused[0].layout_id == fresh[0].layout_id
    assert reused[0].values.tobytes() == fresh[0].values.tobytes()
    assert repr(reused[1]) == repr(fresh[1])


def test_probe_aggregates_scored_in_one_call_equal_one_evaluate_each(monkeypatch):
    # Each lane of a probe cycle scores a probe's finished aggregate on the
    # server validation set with its own models.evaluate call; each score
    # must equal that call on a fresh pass of the probe bit for bit, with a
    # diverged probe between two finished ones, inline and with a helper.
    cfg = config_from_dict({**SMALL_ADAPTIVE, "dataset": {**SMALL_ADAPTIVE["dataset"],
                                                          "n": 2000}})
    world = runner.build_world(cfg, 1)
    space, tuned = cfg.search_space(), ["learning_rate", "weight_decay", "epochs"]
    state = RoundState(3, models.init_weights(world.model_spec, 0), suggest_random(space, 0))
    probes = AdaptiveSampler(space, tuned, 0.0, 0, 1, 6).probes(state.current_hp)
    assert len(probes) == 4 and len(world.val_set) == 200
    real_train, cohort = flcore.train_cohort, world.cohort(ids(world))
    alone = {}
    for p in probes[:1] + probes[2:]:
        agg, _ = real_train(world, state.global_weights, p, cohort, 3,
                            flcore.train_key(world, 0, 3))
        alone[p.config_id], _ = models.evaluate(world.model_spec, agg,
                                                world.val_set.features, world.val_set.labels)

    def train_cohort(world, global_w, config, *args):
        if config.config_id == probes[1].config_id:
            raise NumericDivergenceError("diverged")
        return real_train(world, global_w, config, *args)

    monkeypatch.setattr(flcore, "train_cohort", train_cohort)
    for cpus in (1, 2):
        records = []
        with lanes.helpers(runner._world_server(world), cpus) as started:
            world.helper = started[0] if started else None
            runner.run_probe_cycle(state, cohort, world, 0,
                                   AdaptiveSampler(space, tuned, 0.0, 0, 1, 6), records)
            world.helper = None
        assert [r.config_id for r in records] == list(alone)
        assert [r.server_loss.hex() for r in records] == [x.hex() for x in alone.values()]


# One seed, one sync group: 6 MLP clients, 3 evaluations of 6 rounds, a
# probe cycle before rounds 3 and 5, and early stopping after one cadence
# round without improvement.
SMALL_ADAPTIVE = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6, "n": 400,
                "class_sep": 3.0},
    "n_clients": 6, "alpha": 0.5, "model": {"kind": "mlp", "hidden_dim": 8},
    "sampler": "adaptive", "budget_configs": 3, "rounds_per_trial": 6, "eval_cadence": 2,
    "early_stop_patience": 1, "seeds": [1],
}


def test_reused_round_is_charged_no_cohort_time(monkeypatch):
    passes, steered = [], []  # (kind, round, seconds); (round, reused?) per cycle
    real_time, real_cycle = flcore.cohort_time, runner.run_probe_cycle

    def recording_time(cohort, epochs, seed_key):
        passes.append((seed_key[1], seed_key[3], real_time(cohort, epochs, seed_key)))
        return passes[-1][2]

    def recording_cycle(state, *args):
        out = real_cycle(state, *args)
        steered.append((state.round_index, out[2] is not None))
        return out

    monkeypatch.setattr(flcore, "cohort_time", recording_time)
    monkeypatch.setattr(runner, "run_probe_cycle", recording_cycle)
    (row,) = runner.run_experiment(config_from_dict(
        {**SMALL_ADAPTIVE, "budget_configs": 1, "early_stop_patience": 0})).per_seed[0].trials
    assert steered == [(3, True), (5, True)]
    assert [j for kind, j, _ in passes if kind == "time"] == [1, 2, 4, 6]
    assert row.sim_time == pytest.approx(sum(t for _, _, t in passes), rel=1e-12)


# A 6-round trial ends on a run_round; a 5-round one on round 5, which the
# probe cycle before it steers, and here reuses the chosen probe's pass.
@pytest.mark.parametrize("rounds, final_run_round", [(6, True), (5, False)])
def test_row_names_the_config_that_trained_its_final_weights(rounds, final_run_round,
                                                             monkeypatch):
    trained, round_outputs, outcomes = [], [], []  # trained: (aggregate, config_id)
    real_train, real_round = flcore.train_cohort, flcore.run_round
    real_eval = runner._run_one_eval

    def recording_train(world, global_w, config, *args):
        out = real_train(world, global_w, config, *args)
        trained.append((out[0], config.config_id))
        return out

    def recording_round(*args, **kwargs):
        out = real_round(*args, **kwargs)
        round_outputs.append(out[0].global_weights)
        return out

    def recording_eval(*args):
        outcomes.append(real_eval(*args))
        return outcomes[-1]

    monkeypatch.setattr(flcore, "train_cohort", recording_train)
    monkeypatch.setattr(flcore, "run_round", recording_round)
    monkeypatch.setattr(runner, "_run_one_eval", recording_eval)
    # The spies see only this process's passes, and a helper may train a
    # cycle's probes, so the run is inline; the next test checks that the
    # laned run gives the same report.
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    runner.run_experiment(config_from_dict({**SMALL_ADAPTIVE, "rounds_per_trial": rounds}))
    assert len(outcomes) == 3
    for o in outcomes:
        w = o.result.final_weights
        (trainer,) = [cid for agg, cid in trained if agg is w]
        (record,) = [r for r in o.records if r.kind == "global"]
        assert o.row.config_id == record.config_id == trainer
        assert any(w is r for r in round_outputs) == final_run_round


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable CPUs")
@pytest.mark.parametrize("rounds", [6, 5])
def test_laned_run_equals_the_inline_run_the_spies_saw(rounds, monkeypatch):
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
        sr = runner.run_experiment(config_from_dict(
            {**SMALL_ADAPTIVE, "rounds_per_trial": rounds})).per_seed[0]
        reports.append((repr(sr.best), repr(sr.trials), repr(sr.events), repr(sr.makespan),
                        sr.best_weights.values.tobytes(), repr(sr.feedback_history)))
    assert reports[1] == reports[0]


SEARCH_SPACE = [
    {"name": "learning_rate", "scale": "log10", "low": 1e-5, "high": 1e-1, "step": 10.0},
    {"name": "weight_decay", "scale": "log_e", "low": 1e-5, "high": 1e-1, "step": math.e},
    {"name": "dropout", "scale": "linear", "low": 0.1, "high": 0.5, "step": 0.2},
]
# 100 clients in async groups; epochs stay at their default, so no config
# trains for 0 epochs or takes 0 simulated time.
ASYNC_ADAPTIVE = {
    "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 10000,
                "class_sep": 3.0},
    "n_clients": 100,
    "alpha": 0.3,
    "model": {"kind": "logistic"},
    "grouping": {"mode": "async"},
    "sampler": "adaptive",
    "budget_configs": 10,
    "rounds_per_trial": 10,
    "search_space": SEARCH_SPACE,
    "tuned": ["learning_rate", "weight_decay", "dropout"],
    "seeds": [1],
}


def issue_and_finish(trials):
    """Simulated (issue, finish) time of every evaluation: a group issues
    its next evaluation when its previous one finishes."""
    times, free = {}, {}
    for row in sorted(trials, key=lambda r: r.trial_index):
        start = free.get(row.group_id, 0.0)
        free[row.group_id] = start + row.sim_time
        times[row.trial_index] = (start, start + row.sim_time)
    return times


def test_evaluation_shapes_no_evaluation_issued_before_it_finishes(monkeypatch):
    cfg = config_from_dict(ASYNC_ADAPTIVE)
    real_cycle = runner.run_probe_cycle

    def trials_with_moves_changed_in(perturbed):
        def cycle(state, cohort, world, trial_index, sampler, *rest):
            if trial_index == perturbed:
                for name in sampler.tuned:
                    sampler.directions[name] = -1
                sampler.rng.random()
            return real_cycle(state, cohort, world, trial_index, sampler, *rest)

        monkeypatch.setattr(runner, "run_probe_cycle", cycle)
        return runner.run_experiment(cfg).per_seed[0].trials

    base = trials_with_moves_changed_in(None)
    times = issue_and_finish(base)
    for a in (0, 3, 6):
        trials = trials_with_moves_changed_in(a)
        changed = {e for e, row in enumerate(trials) if repr(row) != repr(base[e])}
        assert a in changed  # the perturbation moved evaluation a
        issued_before = {e for e, (issue, _) in times.items() if e != a and issue < times[a][1]}
        assert issued_before and not issued_before & changed


# 20 clients in 8 async groups and 4 evaluations of 5 rounds, with the
# default search space: the evaluation cadence (5) leaves no probe cycle,
# and the default epochs grid starts at 0.
TIME_ZERO_ASYNC = {
    "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 1200,
                "class_sep": 3.0},
    "n_clients": 20, "model": {"kind": "logistic"}, "grouping": {"mode": "async"},
    "sampler": "adaptive", "budget_configs": 4, "rounds_per_trial": 5, "seeds": [1],
}


def test_async_groups_at_least_budget_issue_every_evaluation_at_time_zero():
    # With as many async groups as evaluations, every evaluation is issued
    # at time 0. An issue starts from its random fallback config exactly
    # when no feedback precedes it: here evaluation 1 takes 0 s, so
    # evaluations 2 and 3 see its feedback.
    cfg = config_from_dict(TIME_ZERO_ASYNC)
    assert len(runner.make_groups(cfg, runner.build_world(cfg, 1), 1)) == 8
    events = runner.run_experiment(cfg).per_seed[0].events
    issues = [i for i, ev in enumerate(events) if ev.event_kind == "issue"]
    assert [events[i].sim_time for i in issues] == [0.0] * 4
    space, sampler_seed = cfg.search_space(), derive_seed(1, "sampler")
    fallback = [suggest_random(space, derive_seed(sampler_seed, "start", e)).config_id
                for e in range(4)]
    preceded = [any(ev.event_kind == "feedback" for ev in events[:i]) for i in issues]
    assert preceded == [False, False, True, True]
    for e, i in enumerate(issues):
        assert (events[i].config_id == fallback[e]) == (not preceded[e])


def test_zero_epoch_adaptive_evaluation_takes_no_simulated_time():
    # A known defect, kept visible: a config with epochs 0 trains nothing,
    # and with rounds_per_trial <= eval_cadence no probe cycle runs, so its
    # evaluation is charged 0 simulated seconds.
    trials = runner.run_experiment(config_from_dict(TIME_ZERO_ASYNC)).per_seed[0].trials
    assert [(t.hp["epochs"], t.sim_time) for t in trials[1:]] == [(0, 0.0)] * 3
    assert trials[0].hp["epochs"] > 0 and trials[0].sim_time > 0
