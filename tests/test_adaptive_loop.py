"""Step-wise adaptive search: probe cycles on easy data, and evaluations
that see only the feedback committed before they were issued."""

import math

from fedtune import data, models, runner, sched
from fedtune.common import derive_seed
from fedtune.config import config_from_dict
from fedtune.flcore import ClientState, ExperimentWorld, RoundState, run_round
from fedtune.hpo import AdaptiveSampler, HpConfig, default_search_space, suggest_random
from fedtune.models import ModelSpec

HP_DEFAULTS = {"learning_rate": 1e-5, "weight_decay": 1e-5, "epochs": 1,
               "batch_size": 16, "dropout": 0.1}


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
    accepted = 0
    for _ in range(12):
        new_cfg, _, _ = runner.run_probe_cycle(state, world.clients, world, 0, sampler)
        if new_cfg != state.current_hp:
            accepted += 1
            state.current_hp = new_cfg
        if state.current_hp.values["learning_rate"] >= 1e-3:
            break
        state, _ = run_round(state, world.clients, world)
    assert state.current_hp.values["learning_rate"] >= 1e-3
    assert accepted <= 6


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


def test_async_groups_at_least_budget_issue_every_evaluation_at_time_zero():
    # With as many async groups as evaluations, every evaluation is issued
    # before any finishes, so each starts from its random fallback config.
    cfg = config_from_dict({
        "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 1200,
                    "class_sep": 3.0},
        "n_clients": 20, "model": {"kind": "logistic"}, "grouping": {"mode": "async"},
        "sampler": "adaptive", "budget_configs": 4, "rounds_per_trial": 5, "seeds": [1],
    })
    assert len(runner.make_groups(cfg, runner.build_world(cfg, 1), 1)) == 8
    events = runner.run_experiment(cfg).per_seed[0].events
    issues = [ev for ev in events if ev.event_kind == "issue"]
    assert [ev.sim_time for ev in issues] == [0.0] * 4
    space, sampler_seed = cfg.search_space(), derive_seed(1, "sampler")
    assert [ev.config_id for ev in issues] == [
        suggest_random(space, derive_seed(sampler_seed, "start", e)).config_id
        for e in range(4)]
