import math
from types import SimpleNamespace

import numpy as np
import pytest

from fedtune import hpo
from fedtune.common import ConfigurationError, FeedbackError
from fedtune.config import config_from_dict
from fedtune.hpo import (
    AdaptiveSampler,
    FeedbackStore,
    HalvingSampler,
    HpConfig,
    HpDim,
    combine_feedback,
    default_search_space,
    halving_rungs,
    probe_set,
    suggest_random,
)
from fedtune.sched import ClientGroup, dispatch

SPACE = default_search_space()


def config_at(**values):
    base = {"learning_rate": 1e-3, "weight_decay": 1e-5, "epochs": 2,
            "batch_size": 32, "dropout": 0.1}
    base.update(values)
    return HpConfig(base)


def feedback(config_id, combined):
    """A global feedback record whose combined feedback is `combined`."""
    return hpo.FeedbackRecord(config_id, 0, "global", combined, combined)


def finished(trial_key, objective, records=()):
    """The parts of a runner.EvalOutcome that HalvingSampler.commit reads."""
    return SimpleNamespace(trial_key=trial_key, row=SimpleNamespace(objective=objective),
                           records=list(records))


def adaptive(tuned, epsilon=0.0, seed=0):
    return AdaptiveSampler(SPACE, tuned, epsilon=epsilon, seed=seed, num_evals=1,
                           rounds_per_trial=1)


class SpyStore(FeedbackStore):
    """A FeedbackStore that notes, at each record, what seen() returns then."""

    def __init__(self, seen):
        super().__init__()
        self.seen, self.states = seen, []

    def record(self, rec):
        self.states.append(self.seen())
        super().record(rec)


class TestGrid:
    def test_learning_rate_five_points(self):
        assert list(SPACE["learning_rate"].points) == [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]

    def test_batch_size_powers_of_two(self):
        assert list(SPACE["batch_size"].points) == [16, 32, 64, 128, 256]

    def test_epochs_eleven_points(self):
        assert list(SPACE["epochs"].points) == list(range(11))

    def test_dropout_three_points(self):
        assert list(SPACE["dropout"].points) == [0.1, 0.3, 0.5]

    def test_weight_decay_factor_e(self):
        g = list(SPACE["weight_decay"].points)
        assert g[0] == 1e-5
        assert g[-1] <= 1e-1
        for a, b in zip(g, g[1:]):
            assert b / a == pytest.approx(math.e)

    def test_grid_within_bounds(self):
        for dim in SPACE.dims:
            g = list(dim.points)
            assert g[0] == dim.low
            assert all(dim.low <= v <= dim.high * (1 + 1e-9) for v in g)

    def test_default_space_equals_its_custom_entries(self):
        entries = [
            {"name": "learning_rate", "scale": "log10", "low": 1e-5, "high": 1e-1, "step": 10},
            {"name": "weight_decay", "scale": "log_e", "low": 1e-5, "high": 1e-1,
             "step": math.e},
            {"name": "epochs", "scale": "linear", "low": 0, "high": 10, "step": 1},
            {"name": "batch_size", "scale": "pow2", "low": 16, "high": 256, "step": 2},
            {"name": "dropout", "scale": "linear", "low": 0.1, "high": 0.5, "step": 0.2},
        ]
        custom = config_from_dict({"search_space": entries}).search_space()

        def typed_points(space):
            return [(d.name, [(type(p), p) for p in d.points]) for d in space.dims]

        assert typed_points(custom) == typed_points(SPACE)

    @pytest.mark.parametrize("bounds", [(0.1, math.inf, 0.2), (-math.inf, 0.5, 0.2),
                                        (0.1, 0.5, math.inf), (math.nan, 0.5, 0.2)])
    def test_non_finite_bound_rejected(self, bounds):
        with pytest.raises(ConfigurationError,
                           match="^dropout: low, high and step must be finite$"):
            HpDim("dropout", "linear", *bounds)

    def test_grid_holds_at_most_ten_thousand_points(self):
        assert len(HpDim("weight_decay", "linear", 0.0, 0.9999, 1e-4).points) == 10_000
        with pytest.raises(ConfigurationError,
                           match="^weight_decay: grid has more than 10000 points$"):
            HpDim("weight_decay", "linear", 0.0, 1.9999, 1e-4)  # 20,000 points
        with pytest.raises(ConfigurationError, match="grid has more than 10000 points"):
            HpDim("weight_decay", "log10", 1.0, 1e300, 1.01)

    def test_multiplicative_grid_stops_at_overflow(self):
        assert HpDim("learning_rate", "log10", 1.0, 1e300, 1e200).points == (1.0, 1e200)

    def test_integer_grid_keeps_each_whole_number_once(self):
        assert list(HpDim("epochs", "linear", 0, 1, 0.25).points) == [0, 1]
        assert list(HpDim("batch_size", "pow2", 1, 4, 1.1).points) == [1, 2, 3, 4]


class TestSuggestRandom:
    def test_membership_and_determinism(self):
        a = suggest_random(SPACE, 42)
        b = suggest_random(SPACE, 42)
        assert a == b
        for dim in SPACE.dims:
            assert a.values[dim.name] in dim.points

    def test_uniform_over_lr_grid(self):
        rng = np.random.default_rng(0)
        counts = {}
        n = 10000
        for _ in range(n):
            v = suggest_random(SPACE, rng).values["learning_rate"]
            counts[v] = counts.get(v, 0) + 1
        # binomial(n=10000, p=0.2): +-0.03 is over 7 standard deviations
        for v in SPACE["learning_rate"].points:
            assert 0.17 <= counts.get(v, 0) / n <= 0.23


class TestProbeSet:
    def test_cardinality(self):
        cur = config_at()
        for tuned, expected in [((), 1), (("learning_rate",), 2),
                                (("learning_rate", "weight_decay"), 3),
                                (("learning_rate", "weight_decay", "epochs"), 4)]:
            assert len(probe_set(SPACE, cur, tuned)) == expected

    def test_neighbor_differs_in_one_hp_by_one_step(self):
        cur = config_at()
        probes = probe_set(SPACE, cur, ["learning_rate", "epochs"])
        assert probes[0] == cur
        for p, name in zip(probes[1:], ["learning_rate", "epochs"]):
            diff = [n for n in cur.values if p.values[n] != cur.values[n]]
            assert diff == [name]
            dim = SPACE[name]
            assert abs(hpo.grid_index(dim, p.values[name])
                       - hpo.grid_index(dim, cur.values[name])) == 1

    def test_boundary_forces_feasible_direction(self):
        cur = config_at(learning_rate=1e-5)
        probes = probe_set(SPACE, cur, ["learning_rate"], directions={"learning_rate": -1})
        assert probes[1].values["learning_rate"] == 1e-4

    def test_lower_boundary_default_direction(self):
        cur = config_at(learning_rate=1e-5)
        probes = probe_set(SPACE, cur, ["learning_rate"])
        assert probes[1].values["learning_rate"] == 1e-4

    def test_integer_grid_neighbor_is_next_whole_number(self):
        space = hpo.SearchSpace((HpDim("epochs", "linear", 0, 1, 0.25),))
        cur = HpConfig({"epochs": 0})
        assert probe_set(space, cur, ["epochs"]) == [cur, HpConfig({"epochs": 1})]

    def test_single_point_grid_skipped(self):
        space = hpo.SearchSpace((HpDim("lr", "linear", 0.0, 0.5, 1.0),))
        cur = HpConfig({"lr": 0.0})
        assert probe_set(space, cur, ["lr"]) == [cur]


class TestCombineFeedback:
    def test_hand_values(self):
        assert combine_feedback([0.3, 0.7], 0.5, 2) == pytest.approx(0.5)
        assert combine_feedback([0.4], 0.2, 1) == pytest.approx(0.3)

    def test_fixed_point(self):
        assert combine_feedback([0.42, 0.42, 0.42], 0.42, 3) == pytest.approx(0.42)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            lf = rng.uniform(0, 5, size=n).tolist()
            gf = float(rng.uniform(0, 5))
            c = combine_feedback(lf, gf, n)
            assert min(lf + [gf]) - 1e-12 <= c <= max(lf + [gf]) + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(FeedbackError):
            combine_feedback([math.nan], 0.1, 1)
        with pytest.raises(FeedbackError):
            combine_feedback([0.1, 0.2], 0.3, 3)


class TestFeedbackStore:
    def test_two_point_mean(self):
        store = FeedbackStore()
        store.record(feedback("c1", 0.4))
        store.record(feedback("c1", 0.6))
        assert store.mean("c1") == pytest.approx(0.5)
        assert store.count("c1") == 2

    def test_single_record_identity(self):
        store = FeedbackStore()
        store.record(feedback("c1", 0.37))
        assert store.mean("c1") == 0.37

    def test_running_mean_matches_brute_force(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 10, size=1000)
        store = FeedbackStore()
        for v in vals:
            store.record(feedback("x", float(v)))
        assert abs(store.mean("x") - float(np.sum(vals) / 1000)) < 1e-12


class TestAdaptiveStep:
    @pytest.mark.parametrize("at,tuned,losses,moved", [
        # no neighbor is strictly better: the config and the directions stay
        ({}, ["learning_rate", "epochs"], [0.5, 0.9, 0.9], {}),
        ({}, ["learning_rate", "epochs"], [0.5, 0.5, 0.5], {}),
        # each tuned HP moves on its own probe's feedback alone
        ({}, ["learning_rate", "weight_decay"], [0.5, 0.2, 0.9], {"learning_rate": 1}),
        ({}, ["learning_rate", "epochs"], [0.5, 0.1, 0.05],
         {"learning_rate": 1, "epochs": 1}),
        # at the top of its grid the probe, and so the move, goes down
        ({"learning_rate": 1e-1}, ["learning_rate", "epochs"], [0.5, 0.2, 0.9],
         {"learning_rate": -1}),
    ], ids=["no-improvement", "tie", "per-coordinate", "both-move", "downward"])
    def test_per_coordinate_rule_and_direction_memory(self, at, tuned, losses, moved):
        cur = config_at(**at)
        sampler = adaptive(tuned)
        probes = sampler.probes(cur)
        new = sampler.step(cur, list(zip(probes, losses)))
        expected = dict(cur.values)
        for p, name in zip(probes[1:], tuned):
            if name in moved:
                expected[name] = p.values[name]
        assert new == HpConfig(expected)
        assert sampler.directions == moved
        assert sampler._seen == {new.config_id: new}

    def test_deterministic_without_epsilon(self):
        cur = config_at()
        tuned = ["learning_rate", "epochs"]
        results = list(zip(probe_set(SPACE, cur, tuned), [0.5, 0.1, 0.05]))
        a = adaptive(tuned, seed=0).step(cur, results)
        b = adaptive(tuned, seed=1).step(cur, results)
        assert a == b

    def test_output_on_grid_and_directions_follow_every_move(self):
        rng = np.random.default_rng(0)
        tuned = ["learning_rate", "weight_decay", "epochs"]
        sampler = adaptive(tuned, epsilon=0.3, seed=3)
        for _ in range(50):
            cur = suggest_random(SPACE, rng)
            results = [(p, float(rng.uniform(0, 2))) for p in sampler.probes(cur)]
            before = dict(sampler.directions)
            out = sampler.step(cur, results)
            for dim in SPACE.dims:
                assert out.values[dim.name] in dim.points
            for name in tuned:  # the epsilon draws included
                dim = SPACE[name]
                delta = (hpo.grid_index(dim, out.values[name])
                         - hpo.grid_index(dim, cur.values[name]))
                want = before.get(name) if delta == 0 else (1 if delta > 0 else -1)
                assert sampler.directions.get(name) == want

    def test_exploration_draw_turns_its_direction(self):
        cur = config_at(learning_rate=1e-5)
        sampler = adaptive(["learning_rate"], epsilon=1.0, seed=7)
        rng = np.random.default_rng(7)
        rng.random(), rng.integers(1)
        drawn = SPACE["learning_rate"].points[int(rng.integers(5))]
        probes = sampler.probes(cur)
        new = sampler.step(cur, [(probes[0], 0.5), (probes[1], 0.9)])
        assert new == cur.replace("learning_rate", drawn)
        assert sampler.directions == ({} if drawn == 1e-5 else {"learning_rate": 1})

    def test_latest_only_contract(self):
        # feedback in the store must not change the step
        cur = config_at()
        sampler = adaptive(["learning_rate"])
        results = list(zip(sampler.probes(cur), [0.5, 0.2]))
        out1 = sampler.step(cur, results)
        for v in (0.01, 5.0, 2.2):
            sampler.store.record(feedback(cur.config_id, v))
        out2 = sampler.step(cur, results)
        assert out1 == out2


class TestAdaptiveSampler:
    def test_direction_memory_follows_accepted_move(self):
        sampler = AdaptiveSampler(SPACE, ["learning_rate"], epsilon=0.0, seed=0, num_evals=2,
                                  rounds_per_trial=1)
        cur = config_at(learning_rate=1e-3)
        probes = sampler.probes(cur)
        assert probes[1].values["learning_rate"] == 1e-2  # default upward
        new = sampler.step(cur, [(probes[0], 0.5), (probes[1], 0.2)])
        assert new.values["learning_rate"] == 1e-2
        assert sampler.directions["learning_rate"] == 1
        next_probes = sampler.probes(new)
        assert next_probes[1].values["learning_rate"] == 1e-1

    def test_start_config_prefers_incumbent(self):
        sampler = AdaptiveSampler(SPACE, ["learning_rate"], epsilon=0.0, seed=0, num_evals=2,
                                  rounds_per_trial=1)
        first = sampler.start_config(0)
        sampler.store.record(feedback(first.config_id, 1.0))
        better = config_at(learning_rate=1e-2)
        sampler._seen[better.config_id] = better
        sampler.store.record(feedback(better.config_id, 0.1))
        assert sampler.start_config(1) == better

    def test_walk_changes_sampler_only_at_commit(self):
        sampler = AdaptiveSampler(SPACE, ["learning_rate", "weight_decay"], epsilon=0.0, seed=0,
                                  num_evals=1, rounds_per_trial=1)
        sampler.directions["weight_decay"] = -1
        cur = config_at(learning_rate=1e-3, weight_decay=SPACE["weight_decay"].points[3])
        walk = sampler.walk(0, cur)
        probes = walk.probes(cur)
        assert probes[2].values["weight_decay"] < cur.values["weight_decay"]
        new = walk.step(cur, [(probes[0], 0.5), (probes[1], 0.2), (probes[2], 0.9)])
        assert new.values["learning_rate"] == 1e-2
        assert walk.directions["learning_rate"] == 1
        assert sampler.directions == {"weight_decay": -1}
        assert sampler._seen == {}
        # an evaluation committed meanwhile turns weight_decay; the walk did not
        sampler.directions["weight_decay"] = 1
        sampler.commit(SimpleNamespace(walk=walk, records=[]))
        assert sampler.directions == {"weight_decay": 1, "learning_rate": 1}
        assert list(sampler._seen) == [cur.config_id, new.config_id]

    def test_walk_exploration_keyed_by_eval_index(self):
        sampler = AdaptiveSampler(SPACE, ["learning_rate"], epsilon=1.0, seed=5, num_evals=1,
                                  rounds_per_trial=1)
        cur = config_at()
        draws = [sampler.walk(e, cur).rng.random() for e in (0, 1, 0)]
        assert draws[0] == draws[2] != draws[1]
        sampler.rng.random()  # the parent's stream does not feed walks
        assert sampler.walk(0, cur).rng.random() == draws[0]


class TestHalvingSampler:
    def test_rung_plan(self):
        assert halving_rungs(8, 50) == [(8, 6), (4, 12), (2, 24), (1, 48)]
        assert halving_rungs(5, 20) == [(5, 5), (3, 10), (2, 20)]
        assert halving_rungs(5, 14) == [(5, 3), (3, 6), (2, 12), (1, 14)]
        assert halving_rungs(1, 7) == [(1, 7)]

    def test_promotes_best_half_by_objective_then_config_id(self):
        sampler = HalvingSampler(SPACE, 0, 5, 14)
        c = sampler.configs
        assert len({x.config_id for x in c}) == 5
        tie = min(c[0], c[2], key=lambda x: x.config_id)  # c0 and c2 tie on rung 0
        objective = {
            3: {c[0]: 0.3, c[1]: 0.1, c[2]: 0.3, c[3]: 0.2, c[4]: math.inf},
            6: {c[1]: 0.05, c[3]: 0.01, tie: 0.02},
            12: {c[3]: 0.5, tie: 0.4},
            14: {tie: 0.0},
        }
        issued = []

        def run_eval(group, cfg, e):
            key, rounds, _ = sampler.plan(e, cfg)
            issued.append((cfg, rounds))
            # the sampler learns the objective only at the deferred commit
            return 1.0, lambda: sampler.commit(finished(key, objective[rounds][cfg]))

        dispatch([ClientGroup(0, [0])], sampler.num_evals,
                 lambda g, e: sampler.start_config(e), run_eval)
        assert issued == ([(x, 3) for x in c] + [(c[1], 6), (c[3], 6), (tie, 6)]
                          + [(c[3], 12), (tie, 12)] + [(tie, 14)])

    def test_initial_configs_distinct_while_grid_lasts(self):
        # the search space of the halving-cli benchmark workload: 5 * 10 * 3 points
        cfg = config_from_dict({"search_space": [
            {"name": "learning_rate", "scale": "log10", "low": 1e-5, "high": 1e-1,
             "step": 10.0},
            {"name": "weight_decay", "scale": "log_e", "low": 1e-5, "high": 1e-1,
             "step": math.e},
            {"name": "dropout", "scale": "linear", "low": 0.1, "high": 0.5, "step": 0.2},
        ], "tuned": ["learning_rate", "weight_decay", "dropout"]})
        space = cfg.search_space()
        for seed in range(1, 400):
            configs = HalvingSampler(space, seed, 8, 50).configs
            assert len({c.config_id for c in configs}) == 8, seed
        # a 2-point grid holds 2 distinct configs, then positions may repeat
        small = hpo.SearchSpace((HpDim("learning_rate", "log10", 0.01, 0.1, 10.0),))
        for seed in range(1, 20):
            configs = HalvingSampler(small, seed, 5, 8).configs
            assert configs[0] != configs[1]
            assert set(configs) == set(configs[:2])

    def test_promotion_before_rung_feedback_arrives_raises(self):
        sampler = HalvingSampler(SPACE, 0, 4, 8)

        def run_eval(group, cfg, e):
            duration = 1.0 if group.group_id == 0 else 100.0
            key = sampler.plan(e, cfg)[0]
            return duration, lambda: sampler.commit(finished(key, 0.0))

        with pytest.raises(FeedbackError, match="rung 0"):
            dispatch([ClientGroup(0, [0]), ClientGroup(1, [1])], sampler.num_evals,
                     lambda g, e: sampler.start_config(e), run_eval)


class TestCommitRecordsFeedback:
    """Every sampler's commit records the outcome's records into its own
    store, in order, before any bookkeeping of its own."""

    RECORDS = [feedback("a", 0.4), feedback("b", 0.3), feedback("a", 0.2)]

    def check(self, sampler, outcome, before):
        history = list(sampler.store.history)
        sampler.commit(outcome)
        assert sampler.store.history == history + self.RECORDS
        assert sampler.store.states == [before] * len(self.RECORDS)
        assert sampler.store.mean("a") == pytest.approx(0.3)

    def test_random(self):
        sampler = hpo.RandomSampler(SPACE, 0, 1, 1)
        sampler.store = SpyStore(lambda: None)  # random search keeps nothing else
        self.check(sampler, SimpleNamespace(records=self.RECORDS), None)

    def test_halving_records_before_it_scores(self):
        sampler = HalvingSampler(SPACE, 0, 2, 4)
        sampler.store = SpyStore(lambda: list(sampler._scored))
        self.check(sampler, finished(0, 0.25, self.RECORDS), [])
        assert sampler._scored == [(0.25, sampler.configs[0].config_id, 0)]

    def test_adaptive_records_before_it_merges_the_walk(self):
        sampler = adaptive(["learning_rate"])
        cur = config_at()
        walk = sampler.walk(0, cur)
        probes = walk.probes(cur)
        new = walk.step(cur, [(probes[0], 0.5), (probes[1], 0.2)])
        sampler.store = SpyStore(lambda: (dict(sampler.directions), list(sampler._seen)))
        self.check(sampler, SimpleNamespace(walk=walk, records=self.RECORDS), ({}, []))
        assert sampler.directions == {"learning_rate": 1}
        assert list(sampler._seen) == [cur.config_id, new.config_id]

    def test_failed_record_stops_the_commit(self):
        sampler = HalvingSampler(SPACE, 0, 2, 4)
        with pytest.raises(FeedbackError, match="non-finite"):
            sampler.commit(finished(0, 0.25, [feedback("a", math.nan)]))
        assert sampler._scored == [] and sampler.store.history == []


def test_config_id_order_independent():
    a = hpo.make_config_id({"learning_rate": 0.1, "epochs": 3})
    b = hpo.make_config_id({"epochs": 3, "learning_rate": 0.1})
    assert a == b
    c = hpo.make_config_id({"epochs": 4, "learning_rate": 0.1})
    assert a != c
