"""Experiment runner: build the world, dispatch HP evaluations, emit metrics."""

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data, flcore, hpo, models, sched
from .common import ConfigurationError, FedTuneError, NumericDivergenceError, derive_seed
from .config import ExperimentConfig
from .flcore import ExperimentWorld, to_train_hp
from .hpo import FeedbackRecord, FeedbackStore, combine_feedback

HP_COLUMNS = tuple(hpo.HP_TYPES)


@dataclass
class TrialRow:
    seed: int
    sampler: str
    trial_index: int
    group_id: int
    config_id: str
    hp_values: dict
    objective: float
    accuracy: float
    sim_time: float
    trace: list = field(default_factory=list)
    failed: bool = False


@dataclass
class SeedReport:
    seed: int
    best: dict
    trials: list[TrialRow]
    events: list
    makespan: float
    best_weights: models.WeightVector | None = None
    feedback_history: list = field(default_factory=list)


@dataclass
class ExperimentReport:
    config: dict
    per_seed: list[SeedReport]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seeds": [
                {
                    "seed": sr.seed,
                    "best": sr.best,
                    "makespan": sr.makespan,
                    "trials": [
                        {
                            "seed": t.seed,
                            "sampler": t.sampler,
                            "trial": t.trial_index,
                            "group_id": t.group_id,
                            "config_id": t.config_id,
                            "hp": t.hp_values,
                            "objective": _jsonable(t.objective),
                            "accuracy": t.accuracy,
                            "sim_time": t.sim_time,
                            "failed": t.failed,
                        }
                        for t in sr.trials
                    ],
                }
                for sr in self.per_seed
            ],
        }


def _jsonable(x: float):
    return "inf" if math.isinf(x) else x


def build_world(cfg: ExperimentConfig, seed: int) -> ExperimentWorld:
    """Generate data, carve the server validation set, partition, attach latencies."""
    ds_cfg = cfg["dataset"]
    if ds_cfg["type"] == "synthetic":
        ds = data.gen_synthetic(
            int(ds_cfg["num_classes"]), int(ds_cfg["input_dim"]), int(ds_cfg["n"]),
            float(ds_cfg["class_sep"]), derive_seed(seed, "data"),
        )
        num_classes = int(ds_cfg["num_classes"])
    else:
        ds = data.load_csv(ds_cfg["path"])
        num_classes = int(ds.labels.max()) + 1

    # server-side validation set, disjoint from every client shard
    frac = float(cfg["server_val_fraction"])
    rng = np.random.default_rng(derive_seed(seed, "server-val"))
    order = rng.permutation(len(ds))
    n_server = int(round(frac * len(ds)))
    if n_server == 0:
        raise ConfigurationError(
            f"server_val_fraction: {frac} of {len(ds)} rows leaves no server validation set")
    server_idx, client_idx = order[:n_server], order[n_server:]
    server_val = data.Dataset(ds.features[server_idx], ds.labels[server_idx])
    client_ds = data.Dataset(ds.features[client_idx], ds.labels[client_idx])

    shards = data.partition_dirichlet(
        client_ds, int(cfg["n_clients"]), float(cfg["alpha"]),
        tuple(float(f) for f in cfg["split"]), seed=derive_seed(seed, "partition"),
    )

    lat = cfg["latency"]
    clients = []
    for shard in shards:
        lat_rng = np.random.default_rng(derive_seed(seed, "latency", shard.client_id))
        base = lat_rng.uniform(float(lat["base_min"]), float(lat["base_max"]))
        clients.append(flcore.ClientState(
            client_id=shard.client_id,
            shard=shard,
            latency=sched.LatencyProfile(base, float(lat["jitter_sigma"])),
        ))

    model_cfg = cfg["model"]
    spec = models.ModelSpec(
        kind=model_cfg["kind"],
        input_dim=ds.features.shape[1],
        num_classes=num_classes,
        hidden_dim=int(model_cfg.get("hidden_dim", 0)) if model_cfg["kind"] == "mlp" else 0,
    )
    return ExperimentWorld(
        model_spec=spec,
        clients=clients,
        val_set=server_val,
        eval_cadence=int(cfg["eval_cadence"]),
        hp_defaults=dict(cfg["hp_defaults"]),
        base_seed=seed,
        agg_mode=cfg["aggregation"],
    )


def make_groups(cfg: ExperimentConfig, world: ExperimentWorld, seed: int) -> list[sched.ClientGroup]:
    """One all-clients group in sync mode; calibration-round grouping in async."""
    if cfg["grouping"]["mode"] == "sync":
        return [sched.ClientGroup(0, sorted(c.client_id for c in world.clients))]
    epochs = max(1, int(world.hp_defaults["epochs"]))
    completions = [  # each client timed as a one-member pass
        (c.client_id, float(sched.completion_time(
            [c.latency], epochs, [len(c.shard.train)],
            derive_seed(seed, "calibration", c.client_id))[0]))
        for c in world.clients
    ]
    window = cfg["grouping"]["window"]
    if window == "auto":
        window = 0.25 * float(np.median([t for _, t in completions]))
    return sched.form_groups(completions, float(window))


def run_probe_cycle(state, cohort, world, trial_index, sampler, records):
    """Step-wise feedback before round state.round_index: evaluate the probe
    set and choose the round's config.

    Each probe config trains the whole cohort from the current global
    weights with flcore.train_cohort, every probe under the round's own
    training key (base_seed, "train", trial_index, round): common random
    numbers, so the probes see the same batch orders and dropout draws,
    and the chosen probe's pass is exactly the round's. Each probe is timed
    under its own key, (base_seed, "probe", trial_index, round, config_id).
    The probe aggregate is scored on the server validation set and
    combined with the cohort's local validation losses. A probe that
    diverges scores +inf, so the step never adopts it, and writes no
    record; the cycle goes on. Appends one FeedbackRecord per finished
    probe to records, each with its combined feedback as val_loss.
    Returns (new config, extra simulated time, reused): the extra time is
    the sum of every probe's cohort time, a diverging one's included, and
    reused is the new config's (aggregate, local losses) when it is a probe
    that finished, else None.
    """
    current, j = state.current_hp, state.round_index
    val_set = world.val_set
    n = len(cohort)
    results, passes = [], {}
    extra_time = 0.0
    for p in sampler.probes(current):
        extra_time += flcore.cohort_time(
            cohort, to_train_hp(p, world.hp_defaults).epochs,
            (world.base_seed, "probe", trial_index, j, p.config_id),
        )
        try:
            wp, val_losses = flcore.train_cohort(
                world, state.global_weights, p, cohort, j,
                (world.base_seed, "train", trial_index, j),
            )
        except NumericDivergenceError:
            results.append((p, math.inf))
            continue
        passes[p.config_id] = wp, val_losses
        gf, _ = models.evaluate(world.model_spec, wp, val_set.features, val_set.labels)
        combined = combine_feedback([vl for _, vl in val_losses], gf, n)
        results.append((p, combined))
        records.append(FeedbackRecord(
            config_id=p.config_id,
            round=j,
            kind="probe",
            server_loss=gf,
            val_loss=combined,
            group_size=n,
            probe_target=hpo.probe_target_of(current, p),
        ))
    new = sampler.step(current, results)
    return new, extra_time, passes.get(new.config_id)


@dataclass
class EvalOutcome:
    """What one HP evaluation produced; commit applies it at its finish."""

    trial_key: int  # the trial this evaluation ran, or continued
    row: TrialRow
    result: flcore.TrialResult
    records: list[FeedbackRecord]  # in record order
    walk: hpo.AdaptiveSampler | None = None  # the adaptive sampler's moves


def _run_one_eval(cfg, world, group, config, eval_index, seed, plan, resume) -> EvalOutcome:
    """Run one HP evaluation on a group's cohort as its sampler planned it,
    plan = (trial_key, rounds, walk): trial trial_key up to round `rounds`,
    continued from resume (the key's latest committed result) unless None.

    A walk, unless None, is a copy of the adaptive sampler that holds only
    feedback committed before this evaluation was issued; its probe cycles
    move the config every eval_cadence rounds.
    Nothing outside the evaluation changes until its outcome is committed.
    The row's sim_time covers only the rounds this evaluation ran.
    """
    trial_key, rounds, walk = plan
    members = set(group.members)
    cohort = [c for c in world.clients if c.client_id in members]
    records: list[FeedbackRecord] = []

    def on_cadence(state):
        return run_probe_cycle(state, cohort, world, trial_key, walk, records)

    result = flcore.run_trial(
        config, rounds, world, cohort,
        trial_index=trial_key,
        on_cadence=on_cadence if walk is not None else None,
        patience=int(cfg["early_stop_patience"]),
        resume=resume,
    )
    final = result.config
    if math.isfinite(result.objective):
        gl = combined = result.objective
        if result.global_loss is not None:
            gl = result.global_loss
            losses = [vl for _, vl in result.local_losses]
            combined = combine_feedback(losses, gl, len(losses))
        records.append(FeedbackRecord(
            config_id=final.config_id,
            round=result.last_round,
            kind="global",
            server_loss=gl,
            val_loss=combined,
            group_size=len(cohort),
        ))
    row = TrialRow(
        seed=seed,
        sampler=cfg["sampler"],
        trial_index=eval_index,
        group_id=group.group_id,
        config_id=final.config_id,
        hp_values=asdict(to_train_hp(final, world.hp_defaults)),
        objective=result.objective,
        accuracy=result.test_accuracy,
        sim_time=result.sim_time - (resume.sim_time if resume else 0.0),
        trace=result.trace,
        failed=result.failure is not None,
    )
    return EvalOutcome(trial_key, row, result, records, walk)


def _run_ahead(cfg, world, sampler, groups, seed, cpus) -> dict:
    """The evaluations whose group is known before any runs,
    sched.first_issues, run before dispatch starts in up to cpus lanes
    (lanes.run_jobs), balanced by cohort training rows times epochs. Only
    for a feedback_free sampler, more than one CPU and a platform with
    os.fork. Returns eval index -> (group id, config id, EvalOutcome or the
    exception it raised).
    """
    if cpus < 2 or not sampler.feedback_free or not hasattr(os, "fork"):
        return {}
    from . import lanes  # loaded only by runs that fork lanes

    issues = {e: (group, sampler.start_config(e, FeedbackStore()))
              for e, group in sched.first_issues(groups, sampler.num_evals)}

    def cost(e):
        group, config = issues[e]
        members = set(group.members)
        rows = sum(len(c.shard.train) for c in world.clients if c.client_id in members)
        return rows * max(1, to_train_hp(config, world.hp_defaults).epochs)

    def run(e):
        group, config = issues[e]
        return _run_one_eval(cfg, world, group, config, e, seed, sampler.plan(e, config), None)

    done = lanes.run_jobs(issues, cost, run, cpus)
    return {e: (issues[e][0].group_id, issues[e][1].config_id, r) for e, r in done.items()}


def _run_seed(cfg: ExperimentConfig, seed: int, cpus: int = 1) -> SeedReport:
    """One seed's report; with cpus > 1, sampler permitting, _run_ahead runs
    the first evaluations in forked lanes."""
    world = build_world(cfg, seed)
    space = cfg.search_space()
    store = FeedbackStore()
    n, rounds = int(cfg["budget_configs"]), int(cfg["rounds_per_trial"])
    sampler = {  # the one place that names a sampler
        "random": lambda: hpo.RandomSampler(space, derive_seed(seed, "sampler"), n, rounds),
        "adaptive": lambda: hpo.AdaptiveSampler(space, list(cfg["tuned"]), float(cfg["epsilon"]),
                                                derive_seed(seed, "sampler"), n, rounds),
        "halving": lambda: hpo.HalvingSampler(space, seed, n, rounds),
    }[cfg["sampler"]]()
    groups = make_groups(cfg, world, seed)
    committed: dict[int, EvalOutcome] = {}  # trial key -> its latest committed evaluation

    def commit(outcome: EvalOutcome):
        """Apply an evaluation's effects; runs at its simulated finish."""
        for rec in outcome.records:
            store.record(rec)
        sampler.commit(outcome)
        committed[outcome.trial_key] = outcome

    ahead = _run_ahead(cfg, world, sampler, groups, seed, cpus)

    def run_eval(group, config, eval_index):
        plan = sampler.plan(eval_index, config)  # (trial key, round budget, walk)
        resume = committed[plan[0]].result if plan[0] in committed else None
        *issued, outcome = ahead.pop(eval_index, (None, None, None))
        # A zero-duration evaluation frees its group at t=0 and moves later issues.
        if issued != [group.group_id, config.config_id]:
            outcome = _run_one_eval(cfg, world, group, config, eval_index, seed, plan, resume)
        elif isinstance(outcome, Exception):
            raise outcome
        return outcome.row.sim_time, lambda: commit(outcome)

    result = sched.dispatch(groups, sampler.num_evals,
                            lambda group, e: sampler.start_config(e, store), run_eval)
    # One row per trial key, in key order, numbered 0..n-1.
    outcomes = [committed[k] for k in sorted(committed)]
    for i, o in enumerate(outcomes):
        o.row.trial_index = i

    ok = [o for o in outcomes if not o.row.failed] or outcomes[:1]
    best = max(ok, key=lambda o: (o.row.accuracy, -o.row.objective, -o.row.trial_index))
    best_row = best.row
    return SeedReport(
        seed=seed,
        best={
            "config_id": best_row.config_id,
            "hp": best_row.hp_values,
            "objective": _jsonable(best_row.objective),
            "accuracy": best_row.accuracy,
            "trial": best_row.trial_index,
        },
        trials=[o.row for o in outcomes],
        events=result.events,
        makespan=result.makespan,
        best_weights=best.result.final_weights,
        feedback_history=list(store.history),
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_seeds_in_pool(cfg: ExperimentConfig, seeds: list, workers: int) -> list[SeedReport]:
    # Imported here so that one-seed runs do not pay for the modules.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            # One seed per worker at a time, in seed order; none after a failure.
            futures = []
            for seed in seeds:
                running = [f for f in futures if not f.done()]
                if len(running) >= workers:
                    wait(running, return_when=FIRST_COMPLETED)
                if any(f.done() and f.exception() for f in futures):
                    break
                futures.append(pool.submit(_run_seed, cfg, seed))
            return [f.result() for f in futures]
    except BrokenProcessPool as err:
        raise FedTuneError(f"a seed's worker process died: {err}") from err


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every seed of cfg and collect one SeedReport per seed.

    Seeds are independent: each builds its own world, sampler, feedback
    store and RNG streams. With more than one seed and more than one usable
    CPU, on a platform with os.fork, they run in min(seeds, usable CPUs)
    forked worker processes; otherwise inline. Inline, a one-seed run whose
    sampler reads no feedback (random search) may fork too: with more than
    one usable CPU, it runs the evaluations whose group is known before any
    runs in up to that many lanes, itself and forked children. Any other
    inline run starts no process. Each worker holds its own world, so peak
    memory grows with the number of workers. per_seed follows cfg["seeds"]
    order either way, and each report equals that seed's one-seed run on
    one CPU. A failing seed raises its own error, the first in seed order.
    Seeds start in seed order, at most one per worker at a time, and none
    starts once a seed has failed; a worker process or lane that dies
    raises FedTuneError.
    """
    seeds, cpus = cfg["seeds"], _usable_cpus()
    workers = min(len(seeds), cpus)
    if workers > 1 and hasattr(os, "fork"):
        per_seed = _run_seeds_in_pool(cfg, seeds, workers)
    else:
        per_seed = [_run_seed(cfg, seed, cpus) for seed in seeds]
    return ExperimentReport(config=cfg.to_dict(), per_seed=per_seed)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def prepare_output_dir(output_dir):
    """Create output_dir if needed; raise OSError unless it is writable."""
    os.makedirs(output_dir, exist_ok=True)
    if not os.access(output_dir, os.W_OK):
        raise OSError(f"output directory {output_dir} is not writable")


def emit_metrics(report: ExperimentReport, output_dir) -> dict:
    """Write trials.csv, curves.csv, report.json, events.jsonl, best_weights.json."""
    prepare_output_dir(output_dir)
    paths = {name: os.path.join(output_dir, name) for name in (
        "trials.csv", "curves.csv", "report.json", "events.jsonl", "best_weights.json",
    )}

    with open(paths["trials.csv"], "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "sampler", "trial", "config_id", *HP_COLUMNS,
                         "objective", "accuracy"])
        for sr in report.per_seed:
            for t in sr.trials:
                writer.writerow([
                    t.seed, t.sampler, t.trial_index, t.config_id,
                    *[_fmt(t.hp_values[h]) for h in HP_COLUMNS],
                    _fmt(t.objective), _fmt(t.accuracy),
                ])

    with open(paths["curves.csv"], "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "sampler", "round", "accuracy", "loss"])
        for sr in report.per_seed:
            best_trial = next(t for t in sr.trials if t.trial_index == sr.best["trial"])
            for point in best_trial.trace:
                writer.writerow([
                    sr.seed, best_trial.sampler, point["round"],
                    _fmt(point["accuracy"]), _fmt(point["loss"]),
                ])

    with open(paths["report.json"], "w", newline="\n") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")

    with open(paths["events.jsonl"], "w", newline="\n") as fh:
        for sr in report.per_seed:
            for ev in sr.events:
                fh.write(json.dumps({**asdict(ev), "seed": sr.seed}, sort_keys=True) + "\n")

    checkpoints = {}
    for sr in report.per_seed:
        if sr.best_weights is not None:
            checkpoints[str(sr.seed)] = {
                "layout_id": sr.best_weights.layout_id,
                "config_id": sr.best["config_id"],
                "values": sr.best_weights.values.tolist(),
            }
    with open(paths["best_weights.json"], "w", newline="\n") as fh:
        json.dump(checkpoints, fh, sort_keys=True)
        fh.write("\n")
    return paths
