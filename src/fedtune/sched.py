"""Simulated-time straggler model and dynamic client grouping.

Time is discrete-event simulated, not wall-clock: every client has a
latency profile and the scheduler groups clients whose per-round
completion times are close, so slow clients never block fast groups.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .common import ConfigurationError


@dataclass(frozen=True)
class LatencyProfile:
    """Simulated seconds per local epoch per 100 samples, with log-normal jitter."""

    base_time: float
    jitter_sigma: float = 0.0

    def __post_init__(self):
        if self.base_time <= 0:
            raise ConfigurationError("latency.base_time: must be > 0")
        if self.jitter_sigma < 0:
            raise ConfigurationError("latency.jitter_sigma: must be >= 0")


@dataclass
class ClientGroup:
    group_id: int
    members: list[int]  # client ids, sorted


def completion_time(profiles, epochs: int, sizes, rng_seed: int) -> np.ndarray:
    """Simulated duration of one training pass for each of its members.

    Member i takes base_time * epochs * (max(1, n_i)/100) times one
    lognormal(0, jitter_sigma) jitter, drawn in member order from one
    generator seeded with rng_seed.
    """
    base = np.array([p.base_time for p in profiles]) * epochs
    jitter = np.random.default_rng(rng_seed).lognormal(
        0.0, [p.jitter_sigma for p in profiles])
    return base * (np.maximum(1, sizes) / 100.0) * jitter


def form_groups(completions, window: float) -> list[ClientGroup]:
    """Greedy sweep over completion times sorted ascending.

    A new group starts whenever the next completion exceeds the first
    time in the current group by more than `window`. Members are sorted
    by client id within each group for determinism.
    """
    if not completions:
        raise ConfigurationError("form_groups: no completions")
    if window <= 0:
        raise ConfigurationError("form_groups: window must be > 0")
    ordered = sorted(completions, key=lambda ct: (ct[1], ct[0]))
    groups = []
    members = [ordered[0][0]]
    anchor = ordered[0][1]
    for cid, t in ordered[1:]:
        if t > anchor + window:
            groups.append(ClientGroup(len(groups), sorted(members)))
            members, anchor = [cid], t
        else:
            members.append(cid)
    groups.append(ClientGroup(len(groups), sorted(members)))
    return groups


@dataclass
class ScheduleEvent:
    sim_time: float
    event_kind: str  # "issue" or "feedback"
    group_id: int
    config_id: str
    round: int
    staleness: float = 0.0


@dataclass
class DispatchResult:
    events: list[ScheduleEvent]
    makespan: float


def first_issues(groups: list[ClientGroup], num_evals: int) -> list[tuple[int, ClientGroup]]:
    """The (eval index, group) issues of dispatch known before any evaluation
    runs: every evaluation with one group, else the first min(groups,
    num_evals), issued at t=0 one per group in group-id order. They equal
    dispatch's issues unless an evaluation takes zero simulated time, which
    frees its group at t=0 again.
    """
    if len(groups) == 1:
        return [(e, groups[0]) for e in range(num_evals)]
    return list(enumerate(sorted(groups, key=lambda g: g.group_id)[:num_evals]))


def dispatch(groups: list[ClientGroup], num_evals: int, issue, run_eval) -> DispatchResult:
    """Run `num_evals` HP evaluations asynchronously across groups.

    Whichever group becomes free earliest (ties broken by group id) is
    issued its next config immediately via `issue(group, eval_index)`;
    `run_eval(group, config, eval_index)` performs the evaluation and
    returns (simulated duration, commit callable). Every evaluation's
    commit, which records its feedback, is called once, when simulated
    time reaches the evaluation's finish, so a config issued at time t
    can never observe feedback arriving after t. Issuance for one group
    never waits on any other group.
    """
    free: list[tuple[float, int]] = [(0.0, g.group_id) for g in groups]
    heapq.heapify(free)
    by_id = {g.group_id: g for g in groups}
    done_evals = {g.group_id: 0 for g in groups}
    pending: list[tuple[float, int, object]] = []  # (finish, seq, commit)
    events: list[ScheduleEvent] = []
    makespan = 0.0
    for e in range(num_evals):
        t, gid = heapq.heappop(free)
        while pending and pending[0][0] <= t:
            heapq.heappop(pending)[2]()
        group = by_id[gid]
        config = issue(group, e)
        events.append(ScheduleEvent(t, "issue", gid, config.config_id, done_evals[gid]))
        duration, commit = run_eval(group, config, e)
        finish = t + duration
        done_evals[gid] += 1
        heapq.heappush(pending, (finish, e, commit))
        events.append(
            ScheduleEvent(finish, "feedback", gid, config.config_id,
                          done_evals[gid], staleness=duration)
        )
        makespan = max(makespan, finish)
        heapq.heappush(free, (finish, gid))
    while pending:
        heapq.heappop(pending)[2]()
    # An issue of round k and the feedback that ends it carry rounds k and
    # k + 1, so a zero-duration evaluation still lists its issue first.
    events.sort(key=lambda ev: (ev.sim_time, ev.group_id, ev.round, ev.event_kind))
    return DispatchResult(events, makespan)
