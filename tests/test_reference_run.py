"""Whole runs against tests/reference_run.py, a plain reference written from
README's semantics, at 1 and 2 usable CPUs.

Config ids, group ids, the best trial, event order and failed flags must
be equal; every float (objectives, accuracies, simulated times, traces,
events, makespans, best weights) must agree to RTOL. The reference scores
each split in one block and trains without padding, so its sums run in
another order than the stacked engine's.
"""

import math
import os

import numpy as np
import pytest

from fedtune import runner
from fedtune.config import config_from_dict
from fedtune.data import Dataset

import reference_run

RTOL = 1e-9

WORLD = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6, "n": 360,
                "class_sep": 3.0},
    "n_clients": 6,
    "alpha": 0.5,
    "model": {"kind": "mlp", "hidden_dim": 6},
    "hp_defaults": {"dropout": 0.2},
    "seeds": [3],
}
CASES = {
    "random-sync": {**WORLD, "sampler": "random", "budget_configs": 3, "rounds_per_trial": 3,
                    "eval_cadence": 1},
    # several groups, run ahead in lanes on two CPUs
    "random-async": {**WORLD, "sampler": "random", "grouping": {"mode": "async"},
                     "budget_configs": 5, "rounds_per_trial": 3, "eval_cadence": 3},
    # probe cycles before rounds 3 and 5 of each trial
    "adaptive": {**WORLD, "sampler": "adaptive", "budget_configs": 2, "rounds_per_trial": 5,
                 "eval_cadence": 2},
    # rungs (3, 2) and (2, 4): the second resumes two trials after round 2
    "halving": {**WORLD, "sampler": "halving", "budget_configs": 3, "rounds_per_trial": 4,
                "eval_cadence": 1},
    # learning rates of 1 and 10 stall the server loss: a trial stops early
    "early-stop": {**WORLD, "sampler": "adaptive", "budget_configs": 3, "rounds_per_trial": 6,
                   "eval_cadence": 1, "early_stop_patience": 1, "tuned": ["learning_rate"],
                   "search_space": [{"name": "learning_rate", "scale": "log10", "low": 1.0,
                                     "high": 10.0, "step": 10}]},
    # learning rates up to 1e7 under weight decay 1: a config diverges
    "diverging": {**WORLD, "sampler": "random", "budget_configs": 6, "rounds_per_trial": 3,
                  "eval_cadence": 1, "hp_defaults": {"weight_decay": 1, "epochs": 10},
                  "tuned": ["learning_rate"],
                  "search_space": [{"name": "learning_rate", "scale": "log10", "low": 0.1,
                                    "high": 1.0e7, "step": 10}]},
}


def needs_cpus(n):
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1
    return pytest.mark.skipif(usable < n or not hasattr(os, "fork"),
                              reason=f"needs {n} usable CPUs and os.fork")


_REFERENCE = {}


def reference(case):
    if case not in _REFERENCE:
        _REFERENCE[case] = reference_run.reference_seed(config_from_dict(CASES[case]), 3)
    return _REFERENCE[case]


def close(a, b) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def assert_same_run(sr, ref):
    rows = ref["rows"]
    assert [(t.config_id, t.group_id, t.failed) for t in sr.trials] == \
        [(r.config_id, r.group_id, r.failed) for r in rows]
    assert sr.best.trial_index == ref["best"]
    assert [(e.event_kind, e.group_id, e.config_id, e.round) for e in sr.events] == \
        [(e.event_kind, e.group_id, e.config_id, e.round) for e in ref["events"]]
    for t, r in zip(sr.trials, rows):
        for name in ("objective", "accuracy", "sim_time"):
            assert close(getattr(t, name), getattr(r, name)), (t.config_id, name)
        assert [p["round"] for p in t.trace] == [p["round"] for p in r.trace]
        for p, q in zip(t.trace, r.trace):
            assert all(close(p[k], q[k]) for k in ("loss", "accuracy", "sim_time")), (p, q)
    for e, f in zip(sr.events, ref["events"]):
        assert close(e.sim_time, f.sim_time) and close(e.staleness, f.staleness)
    assert close(sr.makespan, ref["makespan"])
    if ref["best_weights"] is None:
        assert sr.best_weights is None
    else:
        got, want = sr.best_weights.values, ref["best_weights"]
        assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_cpus(2))])
@pytest.mark.parametrize("case", CASES)
def test_run_equals_reference(case, cpus, monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    (sr,) = runner.run_experiment(config_from_dict(CASES[case])).per_seed
    assert_same_run(sr, reference(case))


def test_cases_cover_what_they_name():
    rows = {case: reference(case)["rows"] for case in CASES}
    assert len({r.group_id for r in rows["random-async"]}) > 1
    assert any(r.failed for r in rows["diverging"])
    assert not all(r.failed for r in rows["diverging"])
    # an early stop ends a trial's trace before its last round
    assert any(r.trace[-1]["round"] < 6 for r in rows["early-stop"] if not r.failed)
    assert not any(math.isinf(r.objective) for r in rows["adaptive"])
    # the second rung's rows carry their first rung's trace points
    assert sorted(len(r.trace) for r in rows["halving"]) == [2, 4, 4]


# benchmark's 100-client world of tiny ragged shards; seed 5002 draws its
# partition ten times
WIDE = {"dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 10000,
                    "class_sep": 3.0},
        "n_clients": 100, "alpha": 0.3, "model": {"kind": "logistic"},
        "grouping": {"mode": "async"}}
WORLDS = {**{case: (CASES[case], 3) for case in CASES},
          **{f"wide-{seed}": (WIDE, seed) for seed in (5001, 5002, 5007)}}


def as_bytes(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


class TestWorld:
    """runner.build_world against reference_run.reference_world, array for
    array and byte for byte, so a signed zero or a dtype counts."""

    @staticmethod
    def worlds(name):
        raw, seed = WORLDS[name]
        cfg = config_from_dict(raw)
        return cfg, seed, runner.build_world(cfg, seed), reference_run.reference_world(cfg, seed)

    @pytest.mark.parametrize("name", WORLDS)
    def test_world_equals_reference(self, name):
        _, _, world, ref = self.worlds(name)
        assert world.model_spec == ref.model_spec
        assert isinstance(world.val_set, Dataset)
        for part in ("features", "labels"):
            assert as_bytes(getattr(world.val_set, part)) == as_bytes(getattr(ref.val_set, part))
        assert [c.client_id for c in world.clients] == [c.client_id for c in ref.clients]
        for c, r in zip(world.clients, ref.clients):
            for split in ("train", "val", "test"):
                for part in ("features", "labels"):
                    got = getattr(getattr(c.shard, split), part)
                    want = getattr(getattr(r.shard, split), part)
                    assert as_bytes(got) == as_bytes(want), (c.client_id, split, part)
                got, want = getattr(c.shard, f"{split}_idx"), getattr(r.shard, f"{split}_idx")
                assert as_bytes(got) == as_bytes(want), (c.client_id, split)
            assert as_bytes(c.latency.base_time) == as_bytes(r.latency.base_time)
            assert as_bytes(c.latency.jitter_sigma) == as_bytes(r.latency.jitter_sigma)

    @pytest.mark.parametrize("name", ["random-async", "wide-5001", "wide-5002"])
    def test_groups_equal_reference(self, name):
        cfg, seed, world, ref = self.worlds(name)
        groups = runner.make_groups(cfg, world, seed)
        assert [(g.group_id, g.members) for g in groups] == \
            [(g.group_id, g.members) for g in reference_run.calibration_groups(cfg, ref, seed)]
        assert len(groups) > 1

    def test_worlds_cover_redraws(self):
        draws = [self.worlds(name)[3].draws for name in WORLDS if name.startswith("wide")]
        assert max(draws) >= 6 and min(draws) == 1
