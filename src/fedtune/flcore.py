"""The federated loop: broadcast, local training, FedAvg, global evaluation.

One communication round broadcasts the global weights to a client
cohort, trains every client locally under the current hyperparameter
config, aggregates the updates (sample-count weighted by default) and,
on evaluation-cadence rounds, scores the new global model on the
server-side validation set.
"""

import functools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import lanes, models, sched
from .common import AggregationError, NumericDivergenceError, derive_seed, derive_seeds
from .data import DataShard, Dataset
from .hpo import HpConfig
from .models import ModelSpec, TrainHp, WeightVector


@dataclass
class ClientState:
    client_id: int
    shard: DataShard
    latency: sched.LatencyProfile


@dataclass
class RoundState:
    round_index: int
    global_weights: WeightVector
    current_hp: HpConfig


@dataclass(eq=False)
class Cohort:
    """What every pass over one fixed cohort reuses; ExperimentWorld.cohort
    builds it, and pool is built on first use, in the process that trains.

    base_time, scale and sigma are the members' sched.completion_time
    arrays, which cohort_time reads. shares, once a helper has split a pass,
    holds the ids of the helper's share and of this process's share and the
    order that merges their rows into members' order. layouts keeps the
    pool's models.BatchLayouts (models.plan_batches), and times its round
    times (round_time).
    """

    members: list[ClientState]  # in client_id order
    ids: tuple
    base_time: np.ndarray
    scale: np.ndarray
    sigma: np.ndarray
    shares: tuple | None = None
    layouts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)

    @functools.cached_property
    def pool(self) -> models.ShardPool:
        """The members' training and validation rows (models.pool_shards)."""
        return models.pool_shards(
            self.members[0].shard.train.features.shape[1],
            [(c.shard.train.features, c.shard.train.labels,
              c.shard.val.features, c.shard.val.labels) for c in self.members])


@dataclass
class PlanMemo:
    """The models.BatchPlans of one training key, for the passes that repeat it.

    The probes of a cycle and the round they steer all train under that
    round's key, so they share their plans. Plans are keyed by value:
    (cohort ids, *models.plan_key(spec, hp)) under seed_key. A pass under
    another key drops every plan held, so the memo holds one key's plans
    at most.
    """

    seed_key: tuple | None = None
    plans: dict = field(default_factory=dict)

    def get(self, spec: ModelSpec, hp: TrainHp, cohort: Cohort, seed_key: tuple):
        """The plans of cohort under seed_key and hp."""
        if seed_key != self.seed_key:
            self.seed_key, self.plans = seed_key, {}
        shape = models.plan_key(spec, hp)
        key = (cohort.ids, *shape)
        if key not in self.plans:
            self.plans[key] = models.plan_batches(
                spec, cohort.pool, derive_seeds(seed_key, cohort.ids), *shape, cohort.layouts)
        return self.plans[key]


@dataclass
class ExperimentWorld:
    """Everything a trial needs: model, clients, server validation set, seeds.

    The global model is scored on val_set every eval_cadence rounds. A
    world's shards and latencies must not change once it has trained.
    """

    model_spec: ModelSpec
    clients: list[ClientState]
    val_set: Dataset
    eval_cadence: int
    hp_defaults: dict
    base_seed: int
    agg_mode: str = "weighted"
    cohorts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    plans: PlanMemo = field(default_factory=PlanMemo, init=False, repr=False, compare=False)
    hps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # A lanes.Helper that cohort passes and probe cycles send work to, or None.
    helper: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.eval_cadence < 1:
            raise ValueError("eval cadence must be >= 1")

    def train_hp(self, config: HpConfig) -> TrainHp:
        """to_train_hp of config under hp_defaults, built once per config."""
        return self.hps.get(config.config_id) or self.hps.setdefault(
            config.config_id, to_train_hp(config, self.hp_defaults))

    def cohort(self, ids) -> Cohort:
        """The Cohort of the clients ids (client_ids, in any order), one per id tuple."""
        ids = tuple(sorted(ids))
        if ids not in self.cohorts:
            by_id = {c.client_id: c for c in self.clients}
            members = [by_id[i] for i in ids]
            self.cohorts[ids] = Cohort(
                members, ids, np.array([c.latency.base_time for c in members]),
                np.maximum(1, [len(c.shard.train) for c in members]) / 100.0,
                np.array([c.latency.jitter_sigma for c in members]))
        return self.cohorts[ids]


@dataclass
class TrialResult:
    config: HpConfig  # the config that trained the final weights (adaptive steps move it)
    objective: float  # sample-count-weighted final validation loss
    test_accuracy: float
    trace: list = field(default_factory=list)  # rows: round, loss, accuracy, sim_time
    sim_time: float = 0.0
    final_weights: WeightVector | None = None
    last_round: int = 0  # the last round run
    local_losses: list = field(default_factory=list)  # its (client_id, val loss) pairs
    global_loss: float | None = None  # the latest cadence round's server loss
    best_gl: float = np.inf  # early stopping: the best server loss so far
    stall: int = 0  # cadence rounds since best_gl last improved
    stopped: bool = False  # stopped early
    failure: NumericDivergenceError | None = None  # the divergence that ended the trial


def fedavg_aggregate(updates, mode: str = "weighted") -> WeightVector:
    """FedAvg over (WeightVector, n_samples) pairs.

    weighted: sum (n_c / sum n) * w_c; uniform: plain mean.
    """
    if not updates:
        raise AggregationError("fedavg_aggregate: no updates")
    if mode not in ("weighted", "uniform"):
        raise AggregationError(f"fedavg_aggregate: unknown mode {mode!r}")
    layout = updates[0][0].layout_id
    for w, n in updates:
        if w.layout_id != layout:
            raise AggregationError(
                f"layout mismatch: {w.layout_id} vs {layout}"
            )
        if mode == "weighted" and n < 1:
            raise AggregationError("weighted mode requires n_samples >= 1")
    stack = np.array([w.values for w, _ in updates])
    if mode == "weighted":
        counts = np.array([n for _, n in updates], dtype=float)
        stack *= (counts / counts.sum())[:, None]
        # For P >= 2 numpy adds the rows in order to the zero start, so this
        # equals a running sum bit for bit.
        acc = stack.sum(axis=0, initial=0.0)
    else:
        acc = stack.mean(axis=0)
    if not np.all(np.isfinite(acc)):
        raise AggregationError("aggregate produced non-finite entries")
    return WeightVector(acc, layout)


def to_train_hp(config: HpConfig, defaults: dict) -> TrainHp:
    """Build a TrainHp from a sampled config, filling untuned fields from defaults."""
    v = {**defaults, **config.values}
    return TrainHp(**{f.name: f.type(v[f.name]) for f in fields(TrainHp)})


def weighted_objective(losses_and_counts) -> float:
    """Sample-count-weighted mean of per-client losses: sum (n_c/n) * loss_c."""
    total = float(sum(n for _, n in losses_and_counts))
    return sum(loss * n for loss, n in losses_and_counts) / total


def train_share(world: ExperimentWorld, global_w: WeightVector, hp: TrainHp, ids: tuple,
                seed_key: tuple, score: bool = True):
    """models.train_stack of world.cohort(ids) from global_w, on the batch
    plans world.plans holds for seed_key, scoring every loss with score.
    Returns (weights, val losses, failures), one row each per member."""
    cohort = world.cohort(ids)
    return models.train_stack(world.model_spec, global_w, hp, cohort.pool,
                              world.plans.get(world.model_spec, hp, cohort, seed_key), score)


def _train_split(world: ExperimentWorld, global_w: WeightVector, hp: TrainHp, ids: tuple,
                 seed_key: tuple, score: bool):
    """train_share of ids, one share trained by world.helper while this
    process trains the other; rows come back in members' order."""
    cohort = world.cohort(ids)
    if cohort.shares is None:
        rows = {c.client_id: len(c.shard.train) for c in cohort.members}
        theirs, mine = (tuple(sorted(s)) for s in lanes.split(rows, rows.get, 2))
        cohort.shares = theirs, mine, np.argsort(mine + theirs)
    theirs, mine, order = cohort.shares
    world.helper.send(train_share, global_w, hp, theirs, seed_key, score)
    own = train_share(world, global_w, hp, mine, seed_key, score)
    other = world.helper.receive()
    failures = own[2] + other[2]
    return (np.concatenate([own[0], other[0]])[order],
            np.concatenate([own[1], other[1]])[order], [failures[i] for i in order])


def train_cohort(world: ExperimentWorld, global_w: WeightVector, config: HpConfig,
                 cohort: Cohort, round_index: int, seed_key: tuple, score: bool = True):
    """Train every cohort member from global_w under config, then FedAvg.

    The members train in models.train_stack passes (train_share); client c
    draws its batches from derive_seed(*seed_key, c.client_id). The batch
    plans come from world.plans, so passes under one seed_key build them
    once. With world.helper set and not busy, a cohort of two or more is
    split in two shares that train in two lanes (README "Lanes"); the
    merged rows, the aggregate and every error are those of one pass. If
    any client diverges, NumericDivergenceError names the lowest such
    client_id, round_index and config. Without score, only the losses that
    could be non-finite are scored (models.train_stack's bound), so every
    divergence error stays, and the others are nan.
    Returns (aggregate weights, [(client_id, validation loss)] in
    client_id order).
    """
    hp = world.train_hp(config)
    members = cohort.members
    free = world.helper and not world.helper.busy
    train = _train_split if free and len(members) > 1 else train_share
    trained, val_losses, failures = train(world, global_w, hp, cohort.ids, seed_key, score)
    for c, failure in zip(members, failures):
        if failure is not None:
            raise NumericDivergenceError(
                f"client {c.client_id} diverged in round {round_index}: {failure}",
                client_id=c.client_id,
                round_index=round_index,
                config_id=config.config_id,
            )
    updates = [(WeightVector(v, global_w.layout_id), len(c.shard.train))
               for v, c in zip(trained, members)]
    return (fedavg_aggregate(updates, world.agg_mode),
            [(c.client_id, float(vl)) for c, vl in zip(members, val_losses)])


def round_time(world: ExperimentWorld, cohort: Cohort, config: HpConfig, trial: int, j: int):
    """The cohort_time run_trial charges round j of trial under config,
    drawn once per cohort and kept in cohort.times by (epochs, trial, j)."""
    epochs = world.train_hp(config).epochs
    key = (epochs, trial, j)
    if key not in cohort.times:
        cohort.times[key] = cohort_time(cohort, epochs, (world.base_seed, "time", trial, j))
    return cohort.times[key]


def train_key(world: ExperimentWorld, trial: int, j: int) -> tuple:
    """The seed_key of round j of trial (train_cohort): it fixes the round's
    batch orders and dropout draws, and every probe before the round uses it."""
    return world.base_seed, "train", trial, j


def cohort_time(cohort: Cohort, epochs: int, seed_key: tuple) -> float:
    """Simulated duration of one cohort training pass: the slowest member.

    sched.completion_time times the pass over the members in client_id
    order, on the cohort's arrays, with the generator seeded
    derive_seed(*seed_key), so a member's jitter depends on the pass key
    and on its position in the cohort.
    """
    return float(sched.completion_time(cohort.base_time, cohort.scale, cohort.sigma, epochs,
                                       derive_seed(*seed_key)).max())


def run_round(state: RoundState, cohort: Cohort, world: ExperimentWorld,
              trial_index: int = 0, score: bool = True):
    """Execute one communication round over the given cohort.

    Returns (next RoundState, [(client_id, local validation loss)] in
    client_id order), scored as train_cohort scores them. Scoring the new
    global model is left to run_trial.
    """
    if not cohort.members:
        raise AggregationError("run_round: empty cohort")
    j = state.round_index
    new_global, val_losses = train_cohort(
        world, state.global_weights, state.current_hp, cohort, j,
        train_key(world, trial_index, j), score,
    )
    return RoundState(j + 1, new_global, state.current_hp), val_losses


def _score(spec: ModelSpec, w: WeightVector, sets: list[Dataset]):
    """(losses, accuracies) of w on each set, in one models.evaluate_stack call."""
    values = np.broadcast_to(w.values, (len(sets), len(w.values)))
    return models.evaluate_stack(spec, values, [(s.features, s.labels) for s in sets])


def _non_finite(what: str, hp: HpConfig, round_index: int) -> NumericDivergenceError:
    return NumericDivergenceError(
        f"config {hp.config_id} diverged in round {round_index}: non-finite {what}",
        round_index=round_index, config_id=hp.config_id)


def run_trial(
    hp: HpConfig,
    budget_rounds: int,
    world: ExperimentWorld,
    cohort: Cohort | None = None,
    trial_index: int = 0,
    on_cadence=None,
    patience: int = 0,
    resume: TrialResult | None = None,
) -> TrialResult:
    """Train trial trial_index on cohort (default: every client) up to round
    budget_rounds under hp and score it.

    A fresh trial starts from initial weights keyed by trial_index. Given
    resume, an earlier result of the same trial, it advances a copy of
    that state (weights, round, config, trace, losses, patience, sim_time)
    and equals a fresh trial run to budget_rounds bit for bit: one that had
    stopped early trains no further round, and a failed one is returned as
    it is. resume itself is never changed. sim_time counts from round 1,
    so a call ran its sim_time minus resume's; each round is charged round_time.

    Every evaluation-cadence round scores the new global model on the
    server validation set once; that loss goes to the trace and, if it is
    the latest, to the result's global_loss. A call keeps only its last
    round's local losses, so they are scored (run_round's score) only in
    round budget_rounds and, with patience > 0, in every cadence round.

    on_cadence, when given, implements step-wise adaptive hyperparameter
    updates mid-trial. It is called as on_cadence(state) at the top of
    every round j whose previous round was an evaluation-cadence round,
    with state holding round j, the weights after round j-1 and the config
    that trained them. It returns (config for round j, extra simulated
    time, reused): reused, unless None, is the (aggregate, local losses)
    that config's pass produced from those weights under round j's
    training key, and stands in for round j, which then trains nothing and
    is charged no cohort time. No call follows the last round or an early
    stop; a resumed trial makes the call its previous round left pending.
    patience > 0 stops early after that many cadence evaluations without
    improvement of the global validation loss. A diverging round ends the
    trial, and so does a server loss or an objective that is not finite:
    failure holds its NumericDivergenceError, naming the round, config the
    diverging config, objective inf, and sim_time every pass run, the
    diverging one included; there is no trace or weights. Otherwise config
    is the config that trained the final weights.

    The final weights are scored on the cohort's validation splits in one
    models.evaluate_stack call and on its test splits in another.
    """
    if budget_rounds < 1:
        raise ValueError("budget_rounds must be >= 1")
    cohort = cohort or world.cohort(c.client_id for c in world.clients)
    spec = world.model_spec
    if resume is None:
        resume = TrialResult(hp, np.inf, 0.0, final_weights=models.init_weights(
            spec, derive_seed(world.base_seed, "init", trial_index)))
    if resume.failure is not None:
        return resume
    r = replace(resume, objective=np.inf, test_accuracy=0.0, trace=list(resume.trace))
    state = RoundState(r.last_round + 1, r.final_weights, r.config)

    def diverged(err):
        return TrialResult(state.current_hp, np.inf, 0.0, sim_time=r.sim_time, failure=err)

    while not r.stopped and state.round_index <= budget_rounds:
        j = state.round_index
        reused = None
        if on_cadence is not None and j > 1 and (j - 1) % world.eval_cadence == 0:
            state.current_hp, extra, reused = on_cadence(state)
            r.sim_time += extra
        if reused is None:
            r.sim_time += round_time(world, cohort, state.current_hp, trial_index, j)
            try:
                state, r.local_losses = run_round(
                    state, cohort, world, trial_index, j == budget_rounds
                    or patience > 0 and j % world.eval_cadence == 0)
            except NumericDivergenceError as err:
                return diverged(err)
        else:
            new_global, r.local_losses = reused
            state = RoundState(j + 1, new_global, state.current_hp)
        if j % world.eval_cadence == 0:
            gl, gacc = models.evaluate(spec, state.global_weights,
                                       world.val_set.features, world.val_set.labels)
            if not np.isfinite(gl):
                return diverged(_non_finite("server validation loss", state.current_hp, j))
            r.global_loss = gl
            r.trace.append({"round": j, "loss": gl, "accuracy": gacc, "sim_time": r.sim_time})
            if patience > 0:
                if gl < r.best_gl - 1e-12:
                    r.best_gl, r.stall = gl, 0
                else:
                    r.stall += 1
                    r.stopped = r.stall >= patience
    r.config, r.final_weights, r.last_round = (state.current_hp, state.global_weights,
                                               state.round_index - 1)
    val_members = [c for c in cohort.members if len(c.shard.val)]
    test_members = [c for c in cohort.members if len(c.shard.test)]
    if val_members:
        losses, _ = _score(spec, r.final_weights, [c.shard.val for c in val_members])
        r.objective = weighted_objective(
            [(vl, len(c.shard.train)) for vl, c in zip(losses.tolist(), val_members)])
        if not np.isfinite(r.objective):
            return diverged(_non_finite("objective", r.config, r.last_round))
    if test_members:
        _, accs = _score(spec, r.final_weights, [c.shard.test for c in test_members])
        r.test_accuracy = weighted_objective(
            [(a, len(c.shard.test)) for a, c in zip(accs.tolist(), test_members)])
    return r
