from dataclasses import asdict

import numpy as np
import pytest

from fedtune import runner, sched
from fedtune.common import derive_seed
from fedtune.config import config_from_dict
from fedtune.hpo import HpConfig
from fedtune.sched import (
    ClientGroup,
    LatencyProfile,
    completion_time,
    dispatch,
    first_issues,
    form_groups,
)


class TestCompletionTime:
    def test_identity_scaling(self):
        p = LatencyProfile(1.0, 0.0)
        assert completion_time([p, p], 1, [100, 100], 0).tolist() == \
            pytest.approx([1.0, 1.0])

    def test_linear_in_epochs(self):
        p = LatencyProfile(1.0, 0.0)
        one = completion_time([p], 1, [100], 0)
        two = completion_time([p], 2, [100], 0)
        assert two[0] == pytest.approx(2.0 * one[0])

    def test_deterministic_with_jitter(self):
        ps = [LatencyProfile(1.5, 0.4), LatencyProfile(0.7, 0.2)]
        a = completion_time(ps, 2, [150, 40], 7)
        assert a.tolist() == completion_time(ps, 2, [150, 40], 7).tolist()

    def test_lognormal_median_near_jitter_free(self):
        base = completion_time([LatencyProfile(1.0, 0.0)], 1, [100], 0)[0]
        samples = completion_time([LatencyProfile(1.0, 0.5)] * 10000, 1, [100] * 10000, 0)
        assert abs(np.median(samples) - base) / base < 0.02


def calibration_reference(client, epochs, seed):
    """One client's calibration time, drawn from its own generator."""
    t = client.latency.base_time * epochs * (max(1, len(client.shard.train)) / 100.0)
    if client.latency.jitter_sigma > 0:
        rng = np.random.default_rng(derive_seed(seed, "calibration", client.client_id))
        t *= rng.lognormal(0.0, client.latency.jitter_sigma)
    return t


class TestCalibration:
    def test_completions_equal_per_client_generator_reference(self, monkeypatch):
        seen = []
        form = sched.form_groups
        monkeypatch.setattr(sched, "form_groups",
                            lambda comps, window: seen.append(comps) or form(comps, window))
        for seed, sigma, epochs in [(1, 0.25, 1), (7, 0.0, 2), (3, 0.9, 3)]:
            cfg = config_from_dict({
                "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 4,
                            "n": 1200, "class_sep": 2.0},
                "n_clients": 12, "alpha": 0.5, "grouping": {"mode": "async"},
                "latency": {"jitter_sigma": sigma}, "hp_defaults": {"epochs": epochs},
            })
            world = runner.build_world(cfg, seed)
            runner.make_groups(cfg, world, seed)
            assert seen.pop() == [(c.client_id, calibration_reference(c, epochs, seed))
                                  for c in world.clients]


class TestFormGroups:
    def test_hand_trace(self):
        groups = form_groups([(1, 1.0), (2, 1.05), (3, 9.0)], window=0.5)
        assert [g.members for g in groups] == [[1, 2], [3]]

    def test_all_equal_times_one_group(self):
        groups = form_groups([(i, 2.0) for i in range(5)], window=0.1)
        assert len(groups) == 1
        assert groups[0].members == list(range(5))

    def test_window_covering_spread_one_group(self):
        comps = [(0, 1.0), (1, 4.0), (2, 7.0)]
        groups = form_groups(comps, window=6.0)
        assert len(groups) == 1

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(2)
        comps = [(i, float(t)) for i, t in enumerate(rng.uniform(0, 10, 30))]
        groups = form_groups(comps, window=1.0)
        seen = [m for g in groups for m in g.members]
        assert sorted(seen) == list(range(30))
        assert len(seen) == len(set(seen))

    def test_members_sorted_by_client_id(self):
        groups = form_groups([(9, 1.0), (2, 1.1), (5, 1.05)], window=1.0)
        assert groups[0].members == [2, 5, 9]


def scripted_dispatch(durations_by_group, num_evals, configs):
    """Dispatch with fixed per-group durations and a scripted config list."""
    groups = [ClientGroup(g, [g]) for g in durations_by_group]
    issued = []
    feedback_log = []

    def issue(group, e):
        cfg = configs[e]
        issued.append((group.group_id, e, cfg.config_id))
        return cfg

    def run_eval(group, cfg, e):
        def commit():
            feedback_log.append(cfg.config_id)
        return durations_by_group[group.group_id], commit

    result = dispatch(groups, num_evals, issue, run_eval)
    return result, issued, feedback_log


class TestDispatch:
    def test_single_group_is_synchronous(self):
        cfgs = [HpConfig({"learning_rate": v}) for v in (1e-3, 1e-2, 1e-1)]
        result, issued, _ = scripted_dispatch({0: 2.0}, 3, cfgs)
        assert result.makespan == pytest.approx(6.0)
        assert [g for g, _, _ in issued] == [0, 0, 0]

    def test_fast_group_advances_before_slow_reports(self):
        # same config issued twice; slow group's feedback lands after the
        # fast group has already received its next config
        h1 = HpConfig({"learning_rate": 1e-3})
        h2 = HpConfig({"learning_rate": 1e-2})
        cfgs = [h1, h1, h2]
        result, issued, feedback_log = scripted_dispatch({0: 1.0, 1: 10.0}, 3, cfgs)
        # groups 0 and 1 both got h1; group 0's next issue precedes group 1's feedback
        issues = [e for e in result.events if e.event_kind == "issue"]
        feedbacks = [e for e in result.events if e.event_kind == "feedback"]
        g0_second_issue = [e for e in issues if e.group_id == 0][1]
        g1_feedback = [e for e in feedbacks if e.group_id == 1][0]
        assert g0_second_issue.sim_time < g1_feedback.sim_time
        assert feedback_log.count(h1.config_id) == 2

    def test_nonblocking_issuance(self):
        # group 0's issue times must not change when group 1 slows down
        cfgs = [HpConfig({"learning_rate": float(i)}) for i in range(6)]
        res_a, _, _ = scripted_dispatch({0: 1.0, 1: 5.0}, 6, cfgs)
        res_b, _, _ = scripted_dispatch({0: 1.0, 1: 500.0}, 6, cfgs)
        issues_a = [e.sim_time for e in res_a.events
                    if e.event_kind == "issue" and e.group_id == 0]
        issues_b = [e.sim_time for e in res_b.events
                    if e.event_kind == "issue" and e.group_id == 0]
        # group 0 keeps the same cadence; it only absorbs more evaluations
        assert issues_b[:len(issues_a)] == issues_a[:len(issues_b)] or \
            issues_a == issues_b[:len(issues_a)]

    def test_deterministic_schedule(self):
        cfgs = [HpConfig({"learning_rate": float(i)}) for i in range(5)]
        res_a, issued_a, _ = scripted_dispatch({0: 1.0, 1: 1.7, 2: 2.3}, 5, cfgs)
        res_b, issued_b, _ = scripted_dispatch({0: 1.0, 1: 1.7, 2: 2.3}, 5, cfgs)
        assert issued_a == issued_b
        assert [asdict(e) for e in res_a.events] == [asdict(e) for e in res_b.events]

    def test_grouped_makespan_never_exceeds_synchronous(self):
        # same per-evaluation costs; the synchronous barrier pays the max
        rng = np.random.default_rng(0)
        for trial in range(10):
            n_groups = int(rng.integers(2, 5))
            durations = {g: float(rng.uniform(1, 5)) for g in range(n_groups)}
            sync_cost = max(durations.values())
            e = int(rng.integers(3, 12))
            cfgs = [HpConfig({"learning_rate": float(i)}) for i in range(e)]
            res, _, _ = scripted_dispatch(durations, e, cfgs)
            assert res.makespan <= e * sync_cost + 1e-9

    def test_zero_duration_eval_lists_issue_before_feedback(self):
        # a trial with epochs=0 reports zero simulated duration
        durations = [1.0, 0.0, 1.0]
        cfgs = [HpConfig({"learning_rate": float(i)}) for i in range(3)]
        result = dispatch([ClientGroup(0, [0])], 3, lambda g, e: cfgs[e],
                          lambda g, cfg, e: (durations[e], lambda: None))
        order = [(ev.event_kind, ev.config_id) for ev in result.events]
        for cfg in cfgs:
            assert order.index(("issue", cfg.config_id)) < \
                order.index(("feedback", cfg.config_id))


def dispatched_issues(groups, num_evals, duration):
    """dispatch's (eval index, group id) issues, each evaluation taking duration(e)."""
    issued = []

    def run_eval(group, cfg, e):
        issued.append((e, group.group_id))
        return duration(e), lambda: None

    dispatch(groups, num_evals, lambda g, e: HpConfig({"learning_rate": float(e)}), run_eval)
    return issued


class TestFirstIssues:
    def test_equal_dispatch_issues_when_every_evaluation_takes_time(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n_groups = int(rng.integers(1, 6))
            ids = [int(i) for i in rng.permutation(10)[:n_groups]]  # unsorted, with gaps
            groups = [ClientGroup(g, [g]) for g in ids]
            num_evals = int(rng.integers(1, 12))
            costs = rng.uniform(0.1, 5.0, num_evals)
            issued = dispatched_issues(groups, num_evals, lambda e: float(costs[e]))
            ahead = [(e, g.group_id) for e, g in first_issues(groups, num_evals)]
            assert issued[:len(ahead)] == ahead
            assert len(ahead) == (num_evals if n_groups == 1 else min(n_groups, num_evals))

    def test_a_zero_duration_evaluation_moves_later_issues(self):
        groups = [ClientGroup(0, [0]), ClientGroup(1, [1])]
        issued = dispatched_issues(groups, 2, lambda e: 0.0 if e == 0 else 1.0)
        assert issued == [(0, 0), (1, 0)]
        assert [(e, g.group_id) for e, g in first_issues(groups, 2)] == [(0, 0), (1, 1)]
