"""The federated loop: broadcast, local training, FedAvg, global evaluation.

One communication round broadcasts the global weights to a client
cohort, trains every client locally under the current hyperparameter
config, aggregates the updates (sample-count weighted by default) and,
on evaluation-cadence rounds, scores the new global model on the
server-side validation set.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import models, sched
from .common import AggregationError, NumericDivergenceError, derive_seed
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


@dataclass
class ExperimentWorld:
    """Everything a trial needs: model, clients, server validation set, seeds.

    The global model is scored on val_set every eval_cadence rounds.
    """

    model_spec: ModelSpec
    clients: list[ClientState]
    val_set: Dataset
    eval_cadence: int
    hp_defaults: dict
    base_seed: int
    agg_mode: str = "weighted"

    def __post_init__(self):
        if self.eval_cadence < 1:
            raise ValueError("eval cadence must be >= 1")


@dataclass
class TrialResult:
    config: HpConfig  # final config (may differ from initial under adaptive stepping)
    objective: float  # sample-count-weighted final validation loss
    test_accuracy: float
    trace: list = field(default_factory=list)  # rows: round, loss, accuracy, sim_time
    sim_time: float = 0.0
    final_weights: WeightVector | None = None
    last_round: int = 0  # the last round run
    local_losses: list = field(default_factory=list)  # its (client_id, val loss) pairs
    global_loss: float | None = None  # the latest cadence round's server loss


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


def train_cohort(world: ExperimentWorld, global_w: WeightVector, config: HpConfig,
                 cohort: list[ClientState], round_index: int, seed_key: tuple):
    """Train every cohort member from global_w under config, then FedAvg.

    All members train together in one models.train_stack pass; client c
    draws its batches from derive_seed(*seed_key, c.client_id). If any
    client diverges, NumericDivergenceError names the lowest such
    client_id, round_index and config.
    Returns (aggregate weights, [(client_id, validation loss)] in
    client_id order).
    """
    hp = to_train_hp(config, world.hp_defaults)
    members = sorted(cohort, key=lambda c: c.client_id)
    trained, val_losses, failures = models.train_stack(
        world.model_spec, global_w, hp,
        [(c.shard.train.features, c.shard.train.labels,
          c.shard.val.features, c.shard.val.labels) for c in members],
        [derive_seed(*seed_key, c.client_id) for c in members],
    )
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


def cohort_time(cohort: list[ClientState], epochs: int, seed_key: tuple) -> float:
    """Simulated duration of one cohort training pass: the slowest member.

    sched.completion_time times the pass over the cohort in client_id
    order with the generator seeded derive_seed(*seed_key), so a member's
    jitter depends on the pass key and on its position in the cohort.
    """
    members = sorted(cohort, key=lambda c: c.client_id)
    return float(sched.completion_time(
        [c.latency for c in members], epochs, [len(c.shard.train) for c in members],
        derive_seed(*seed_key)).max())


def run_round(state: RoundState, clients: list[ClientState], world: ExperimentWorld,
              trial_index: int = 0):
    """Execute one communication round over the given cohort.

    Returns (next RoundState, [(client_id, local validation loss)] in
    client_id order). Scoring the new global model is left to run_trial.
    """
    if not clients:
        raise AggregationError("run_round: empty cohort")
    j = state.round_index
    new_global, val_losses = train_cohort(
        world, state.global_weights, state.current_hp, clients, j,
        (world.base_seed, "train", trial_index, j),
    )
    return RoundState(j + 1, new_global, state.current_hp), val_losses


def _score(spec: ModelSpec, w: WeightVector, sets: list[Dataset]):
    """(losses, accuracies) of w on each set, in one models.evaluate_stack call."""
    values = np.broadcast_to(w.values, (len(sets), len(w.values)))
    return models.evaluate_stack(spec, values, [(s.features, s.labels) for s in sets])


def run_trial(
    hp: HpConfig,
    budget_rounds: int,
    world: ExperimentWorld,
    clients: list[ClientState] | None = None,
    trial_index: int = 0,
    on_cadence=None,
    patience: int = 0,
) -> TrialResult:
    """Train a fresh model for budget_rounds under hp and score it.

    Every evaluation-cadence round scores the new global model on the
    server validation set once; that loss goes to the trace and, if it is
    the latest, to the result's global_loss.

    on_cadence, when given, is called after every evaluation-cadence
    round as on_cadence(state) and returns (next HpConfig, extra simulated
    time) to implement step-wise adaptive hyperparameter updates
    mid-trial. patience > 0 stops early after that many cadence
    evaluations without improvement of the global validation loss. A
    NumericDivergenceError leaves with its sim_time raised by the
    simulated time of the rounds run, the diverging round's cohort pass
    included.

    The final weights are scored on the cohort's validation splits in one
    models.evaluate_stack call and on its test splits in another.
    """
    if budget_rounds < 1:
        raise ValueError("budget_rounds must be >= 1")
    cohort = sorted(clients or world.clients, key=lambda c: c.client_id)
    spec = world.model_spec
    w0 = models.init_weights(spec, derive_seed(world.base_seed, "init", trial_index))
    state = RoundState(1, w0, hp)
    sim_time = 0.0
    trace = []
    local_losses, global_loss = [], None
    best_gl = np.inf
    stall = 0
    try:
        for j in range(1, budget_rounds + 1):
            epochs = to_train_hp(state.current_hp, world.hp_defaults).epochs
            sim_time += cohort_time(cohort, epochs, (world.base_seed, "time", trial_index, j))
            next_state, local_losses = run_round(state, cohort, world, trial_index)
            if j % world.eval_cadence == 0:
                gl, gacc = models.evaluate(spec, next_state.global_weights,
                                           world.val_set.features, world.val_set.labels)
                global_loss = gl
                trace.append({"round": j, "loss": gl, "accuracy": gacc, "sim_time": sim_time})
                if on_cadence is not None:
                    next_state.current_hp, extra = on_cadence(next_state)
                    sim_time += extra
                if patience > 0:
                    if gl < best_gl - 1e-12:
                        best_gl, stall = gl, 0
                    else:
                        stall += 1
                        if stall >= patience:
                            state = next_state
                            break
            state = next_state
    except NumericDivergenceError as err:
        err.sim_time += sim_time  # the rounds run, the diverging one included
        raise
    final_w = state.global_weights
    val_members = [c for c in cohort if len(c.shard.val)]
    test_members = [c for c in cohort if len(c.shard.test)]
    objective, test_acc = np.inf, 0.0
    if val_members:
        losses, _ = _score(spec, final_w, [c.shard.val for c in val_members])
        objective = weighted_objective(
            [(vl, len(c.shard.train)) for vl, c in zip(losses.tolist(), val_members)])
    if test_members:
        _, accs = _score(spec, final_w, [c.shard.test for c in test_members])
        test_acc = weighted_objective(
            [(a, len(c.shard.test)) for a, c in zip(accs.tolist(), test_members)])
    return TrialResult(
        config=state.current_hp,
        objective=float(objective),
        test_accuracy=float(test_acc),
        trace=trace,
        sim_time=sim_time,
        final_weights=final_w,
        last_round=state.round_index - 1,
        local_losses=local_losses,
        global_loss=global_loss,
    )
