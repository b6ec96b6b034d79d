"""The federated loop: broadcast, local training, FedAvg, global evaluation.

One communication round broadcasts the global weights to a client
cohort, trains every client locally under the current hyperparameter
config, aggregates the updates (sample-count weighted by default) and,
on evaluation-cadence rounds, scores the new global model on the
server-side validation set.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import models, sched
from .common import AggregationError, NumericDivergenceError, derive_seed, seeded
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
    arrays (pass_arrays), which cohort_time reads. layouts keeps the pool's
    models.BatchLayouts (models.plan_batches), and times its round times
    (round_time).
    """

    members: list[ClientState]  # in client_id order
    ids: tuple
    base_time: np.ndarray
    scale: np.ndarray
    sigma: np.ndarray
    layouts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)

    @functools.cached_property
    def pool(self) -> models.ShardPool:
        """The members' training and validation rows (member_pool)."""
        return member_pool(self.members)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """The members' training row counts, as floats: their FedAvg weights."""
        return np.array([len(c.shard.train) for c in self.members], dtype=float)


def member_pool(members: list[ClientState]) -> models.ShardPool:
    """models.pool_shards of the members' splits, a client listed twice pooled once."""
    distinct = {c.client_id: c for c in members}
    at = dict(zip(distinct, range(len(distinct))))
    return models.pool_shards(members[0].shard.train.features.shape[1], [
        (c.shard.train.features, c.shard.train.labels, c.shard.val.features, c.shard.val.labels)
        for c in distinct.values()], [at[c.client_id] for c in members])


def pass_arrays(members: list[ClientState]) -> tuple:
    """The members' sched.completion_time arrays: base_time, scale, sigma."""
    return (np.array([c.latency.base_time for c in members]),
            np.maximum(1, [len(c.shard.train) for c in members]) / 100.0,
            np.array([c.latency.jitter_sigma for c in members]))


# A stack of a wave (run_trials): its cohorts' members in turn, each client's
# rows pooled once (member_pool), keyed in world.plans by its cohorts' ids.
Stack = namedtuple("Stack", "ids pool layouts")


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

    def get(self, spec: ModelSpec, hp: TrainHp, cohort: Cohort, seed_key: tuple, keys: list):
        """The plans of cohort under seed_key and hp, member i drawing from
        the stream of keys[i]."""
        if seed_key != self.seed_key:
            self.seed_key, self.plans = seed_key, {}
        shape = models.plan_key(spec, hp)
        key = (cohort.ids, *shape)
        if key not in self.plans:
            self.plans[key] = models.plan_batches(spec, cohort.pool, keys, *shape,
                                                  cohort.layouts)
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
    # The lanes.Helpers its seed started, which run-ahead and probe cycles split work with.
    helpers: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.eval_cadence < 1:
            raise ValueError("eval cadence must be >= 1")

    def train_hp(self, config: HpConfig) -> TrainHp:
        """to_train_hp of config under hp_defaults, built once per config."""
        return self.hps.get(config.config_id) or self.hps.setdefault(
            config.config_id, to_train_hp(config, self.hp_defaults))

    @functools.cached_property
    def by_id(self) -> dict:
        """Each client's ClientState by its client_id."""
        return {c.client_id: c for c in self.clients}

    def cohort(self, ids) -> Cohort:
        """The Cohort of the clients ids (client_ids, in any order), one per id tuple."""
        ids = tuple(sorted(ids))
        if ids not in self.cohorts:
            members = [self.by_id[i] for i in ids]
            self.cohorts[ids] = Cohort(members, ids, *pass_arrays(members))
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
    layout = updates[0][0].layout_id
    for w, n in updates:
        if w.layout_id != layout:
            raise AggregationError(
                f"layout mismatch: {w.layout_id} vs {layout}"
            )
        if mode == "weighted" and n < 1:
            raise AggregationError("weighted mode requires n_samples >= 1")
    return WeightVector(_fedavg(np.array([w.values for w, _ in updates]),
                                np.array([n for _, n in updates], dtype=float), mode), layout)


def _fedavg(stack: np.ndarray, counts: np.ndarray, mode: str) -> np.ndarray:
    """FedAvg of the (k, P) stack's rows, row i of counts[i] samples;
    stack, which the caller owns, is scaled in place."""
    if mode == "weighted":
        stack *= (counts / counts.sum())[:, None]
        # For P >= 2 numpy adds the rows in order to the zero start, so this
        # equals a running sum bit for bit.
        acc = stack.sum(axis=0, initial=0.0)
    elif mode == "uniform":
        acc = stack.mean(axis=0)
    else:
        raise AggregationError(f"fedavg_aggregate: unknown mode {mode!r}")
    if not np.all(np.isfinite(acc)):
        raise AggregationError("aggregate produced non-finite entries")
    return acc


def to_train_hp(config: HpConfig, defaults: dict) -> TrainHp:
    """Build a TrainHp from a sampled config, filling untuned fields from defaults."""
    v = {**defaults, **config.values}
    return TrainHp(**{f.name: f.type(v[f.name]) for f in fields(TrainHp)})


def weighted_objective(losses_and_counts) -> float:
    """Sample-count-weighted mean of per-client losses: sum (n_c/n) * loss_c."""
    total = float(sum(n for _, n in losses_and_counts))
    return sum(loss * n for loss, n in losses_and_counts) / total


def train_cohorts(world: ExperimentWorld, passes, score: bool = True,
                  stack: Stack | None = None) -> list:
    """Train the passes, each (global_w, config, cohort, round_index,
    seed_key), in one models.train_stack call under their one
    models.plan_key (several passes: on stack), then FedAvg each.

    Member c of a pass trains from global_w under config on the batches
    drawn from the stream (*seed_key, c.client_id); plans come from
    world.plans, built once per seed_key.
    Without score, only losses that could be non-finite are scored
    (models.train_stack's bound), the others nan. Returns per pass
    (aggregate, [(client_id, validation loss)] in client_id order) or a
    NumericDivergenceError naming its lowest diverged client.
    """
    spec, cohorts = world.model_spec, [p[2] for p in passes]
    hps = [world.train_hp(p[1]) for p in passes]
    keys = [(*p[4], i) for p in passes for i in p[2].ids]
    if stack is None:
        stack, seed_key, w, hp = cohorts[0], passes[0][4], passes[0][0], hps[0]
    else:  # a wave: each row from its pass's weights, under its config
        seed_key = tuple(p[4] for p in passes)
        rows = [len(c.members) for c in cohorts]
        w = WeightVector(np.repeat([p[0].values for p in passes], rows, axis=0), spec.layout_id)
        hp = np.repeat([(h.learning_rate, h.weight_decay, 1 - h.dropout) for h in hps], rows, 0)
    plans = world.plans.get(spec, hps[0], stack, seed_key, keys)
    trained, val_losses, failures = models.train_stack(spec, w, hp, stack.pool, plans, score)
    out, o = [], 0
    for global_w, config, cohort, round_index, _ in passes:
        rows, o = slice(o, o + len(cohort.members)), o + len(cohort.members)
        if any(failures[rows]):
            c, failure = next((c, f) for c, f in zip(cohort.members, failures[rows]) if f)
            out.append(NumericDivergenceError(
                f"client {c.client_id} diverged in round {round_index}: {failure}",
                client_id=c.client_id, round_index=round_index, config_id=config.config_id))
            continue
        aggregate = _fedavg(trained[rows], cohort.counts, world.agg_mode)
        out.append((WeightVector(aggregate, global_w.layout_id),
                    list(zip(cohort.ids, val_losses[rows].tolist()))))
    return out


def train_cohort(world: ExperimentWorld, global_w: WeightVector, config: HpConfig,
                 cohort: Cohort, round_index: int, seed_key: tuple, score: bool = True):
    """train_cohorts of the one pass of these arguments, raising its divergence."""
    out, = train_cohorts(world, [(global_w, config, cohort, round_index, seed_key)], score)
    if isinstance(out, NumericDivergenceError):
        raise out
    return out


def round_time(world: ExperimentWorld, cohort: Cohort, config: HpConfig, trial: int, j: int):
    """The cohort_time run_trial charges round j of trial under config,
    under the key (base_seed, "time", trial, j), drawn once per cohort and
    kept in cohort.times by (epochs, trial, j)."""
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
    order, on the cohort's arrays, with the draws of seed_key's stream
    (common.seeded). So a member's jitter depends on the pass key and on
    its position in the cohort.
    """
    return float(sched.completion_time(cohort.base_time, cohort.scale, cohort.sigma, epochs,
                                       seeded(*seed_key)).max())


def run_round(states, cohorts, world: ExperimentWorld, trials, score: bool = True,
              stack: Stack | None = None) -> list:
    """One communication round of each trial trials[i] from states[i] over
    cohorts[i], in one train_cohorts pass under one models.plan_key (several
    trials: on stack): per trial its (next RoundState, [(client_id, local
    validation loss)] in client_id order), or its NumericDivergenceError.
    Scoring the new global models is left to run_trials.
    """
    if not all(c.members for c in cohorts):
        raise AggregationError("run_round: empty cohort")
    passes = train_cohorts(world, [
        (s.global_weights, s.current_hp, c, s.round_index, train_key(world, t, s.round_index))
        for s, c, t in zip(states, cohorts, trials)], score, stack)
    return [out if isinstance(out, NumericDivergenceError) else
            (RoundState(s.round_index + 1, out[0], s.current_hp), out[1])
            for s, out in zip(states, passes)]


def _score(spec: ModelSpec, w: WeightVector, sets: list[Dataset]):
    """(losses, accuracies) of w on each set, in one models.evaluate_stack call."""
    values = np.broadcast_to(w.values, (len(sets), len(w.values)))
    return models.evaluate_stack(spec, values, [(s.features, s.labels) for s in sets])


def _non_finite(what: str, hp: HpConfig, round_index: int) -> NumericDivergenceError:
    return NumericDivergenceError(
        f"config {hp.config_id} diverged in round {round_index}: non-finite {what}",
        round_index=round_index, config_id=hp.config_id)


# A trial of run_trials, as run_trial takes it (index is its trial_index).
Trial = namedtuple("Trial", "hp cohort index on_cadence resume", defaults=(0, None, None))


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
    budget_rounds under hp and score it: the one-trial call of run_trials.

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
    cohort = cohort or world.cohort(c.client_id for c in world.clients)
    return run_trials([Trial(hp, cohort, trial_index, on_cadence, resume)], budget_rounds, world,
                      patience)[0]


def run_trials(trials: list[Trial], budget_rounds: int, world: ExperimentWorld,
               patience: int = 0) -> list[TrialResult]:
    """run_trial of each trial up to round budget_rounds, bit for bit, in
    lockstep: each round charges every live trial its round time, trains
    them in one run_round pass per models.plan_key and stack of at most as
    many members as the world has clients (train_stack rows are independent),
    then scores and ends each alone."""
    if budget_rounds < 1:
        raise ValueError("budget_rounds must be >= 1")
    spec, cadence, clients = world.model_spec, world.eval_cadence, len(world.clients)
    results = [t.resume or TrialResult(t.hp, np.inf, 0.0, final_weights=models.init_weights(
        spec, derive_seed(world.base_seed, "init", t.index))) for t in trials]
    results = [r if r.failure is not None else replace(
        r, objective=np.inf, test_accuracy=0.0, trace=list(r.trace)) for r in results]
    states = {i: RoundState(r.last_round + 1, r.final_weights, r.config)  # of the unfailed
              for i, r in enumerate(results) if r.failure is None}

    def live():
        return [i for i, s in states.items()
                if s.round_index <= budget_rounds and not results[i].stopped]

    def diverged(i, err):
        results[i] = TrialResult(states.pop(i).current_hp, np.inf, 0.0,
                                 sim_time=results[i].sim_time, failure=err)

    stacks = {}  # this round's Stacks by their cohorts' ids, kept while they train together
    while training := live():
        groups = {}  # plan key -> the stacks of trials that train this round under it
        for i in training:
            t, r, state = trials[i], results[i], states[i]
            j, reused = state.round_index, None
            if t.on_cadence is not None and j > 1 and (j - 1) % cadence == 0:
                state.current_hp, extra, reused = t.on_cadence(state)
                r.sim_time += extra
            if reused is None:
                r.sim_time += round_time(world, t.cohort, state.current_hp, t.index, j)
                # a stack trains no more members than a pass over every client
                parts = groups.setdefault(models.plan_key(spec, world.train_hp(state.current_hp)),
                                          [[]])
                if sum(len(trials[k].cohort.members) for k in parts[-1] + [i]) > clients:
                    parts.append([])
                parts[-1].append(i)
            else:
                states[i] = RoundState(j + 1, reused[0], state.current_hp)
                r.local_losses = reused[1]
        kept, stacks = stacks, {}
        for group in sum(groups.values(), []):
            ids = len(group) > 1 and tuple(trials[i].cohort.ids for i in group)
            if ids and ids not in kept:
                kept[ids] = Stack(ids, member_pool(
                    [c for i in group for c in trials[i].cohort.members]), {})
            stacks[ids] = kept.get(ids)
            outs = run_round([states[i] for i in group], [trials[i].cohort for i in group], world,
                             [trials[i].index for i in group], any(
                                 j == budget_rounds or patience > 0 and j % cadence == 0
                                 for j in (states[i].round_index for i in group)), stacks[ids])
            for i, out in zip(group, outs):
                if isinstance(out, NumericDivergenceError):
                    diverged(i, out)
                else:
                    states[i], results[i].local_losses = out
        for i in training:
            if i not in states or (states[i].round_index - 1) % cadence:
                continue
            r, state, j = results[i], states[i], states[i].round_index - 1
            gl, gacc = models.evaluate(spec, state.global_weights,
                                       world.val_set.features, world.val_set.labels)
            if not np.isfinite(gl):
                diverged(i, _non_finite("server validation loss", state.current_hp, j))
                continue
            r.global_loss = gl
            r.trace.append({"round": j, "loss": gl, "accuracy": gacc, "sim_time": r.sim_time})
            if patience > 0:
                if gl < r.best_gl - 1e-12:
                    r.best_gl, r.stall = gl, 0
                else:
                    r.stall += 1
                    r.stopped = r.stall >= patience
    for i, state in list(states.items()):
        r, members = results[i], trials[i].cohort.members
        r.config, r.final_weights, r.last_round = (state.current_hp, state.global_weights,
                                                   state.round_index - 1)
        val_members = [c for c in members if len(c.shard.val)]
        test_members = [c for c in members if len(c.shard.test)]
        if val_members:
            losses, _ = _score(spec, r.final_weights, [c.shard.val for c in val_members])
            r.objective = weighted_objective(
                [(vl, len(c.shard.train)) for vl, c in zip(losses.tolist(), val_members)])
            if not np.isfinite(r.objective):
                diverged(i, _non_finite("objective", r.config, r.last_round))
                continue
        if test_members:
            _, accs = _score(spec, r.final_weights, [c.shard.test for c in test_members])
            r.test_accuracy = weighted_objective(
                [(a, len(c.shard.test)) for a, c in zip(accs.tolist(), test_members)])
    return results
