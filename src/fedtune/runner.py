"""Experiment runner: build the world, dispatch HP evaluations, emit metrics."""

import csv
import ctypes
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import data, flcore, hpo, lanes, models, sched
from .common import ConfigurationError, NumericDivergenceError, derive_seed, seeded
from .config import ExperimentConfig
from .flcore import ExperimentWorld
from .hpo import FeedbackRecord, combine_feedback


@dataclass
class TrialRow:
    """One HP evaluation, and the one schema of every output file (entry)."""

    seed: int
    sampler: str
    trial_index: int
    group_id: int
    config_id: str
    hp: dict
    objective: float
    accuracy: float
    sim_time: float
    trace: list = field(default_factory=list)
    failed: bool = False

    def entry(self) -> dict:
        """This row's report.json trial: every field but trace, trial_index as
        "trial" and an infinite objective as "inf". Its BEST_KEYS are
        report.json's best, and its TRIALS_COLUMNS, hp flattened, its
        trials.csv row."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("trial_index", "trace")}
        inf = math.isinf(self.objective)
        return {**out, "trial": self.trial_index, "objective": "inf" if inf else self.objective}


BEST_KEYS = ("config_id", "hp", "objective", "accuracy", "trial")
TRIALS_COLUMNS = ("seed", "sampler", "trial", "config_id", *hpo.HP_TYPES, "objective",
                  "accuracy")


@dataclass
class SeedReport:
    seed: int
    best: TrialRow  # one of trials, as _run_seed chose it
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
                    "best": {k: v for k, v in sr.best.entry().items() if k in BEST_KEYS},
                    "makespan": sr.makespan,
                    "trials": [t.entry() for t in sr.trials],
                }
                for sr in self.per_seed
            ],
        }


def build_world(cfg: ExperimentConfig, seed: int) -> ExperimentWorld:
    """Generate data, carve the server validation set, partition, attach latencies."""
    ds_cfg = cfg["dataset"]
    if ds_cfg["type"] == "synthetic":
        ds = data.gen_synthetic(ds_cfg["num_classes"], ds_cfg["input_dim"], ds_cfg["n"],
                                ds_cfg["class_sep"], derive_seed(seed, "data"))
        num_classes = ds_cfg["num_classes"]
    else:
        ds = data.load_csv(ds_cfg["path"])
        if not ds.features.shape[1]:
            raise ConfigurationError(f"dataset.path: {ds_cfg['path']} has no feature column")
        num_classes = int(ds.labels.max()) + 1
        if num_classes < 2:
            raise ConfigurationError(f"dataset.path: {ds_cfg['path']} has no label above 0, "
                                     "so fewer than 2 classes")

    # server-side validation set, disjoint from every client shard
    frac = cfg["server_val_fraction"]
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
        client_ds, cfg["n_clients"], cfg["alpha"], tuple(cfg["split"]),
        seed=derive_seed(seed, "partition"),
    )

    lat = cfg["latency"]
    clients = []
    for shard in shards:
        base = seeded(seed, "latency", shard.client_id).uniform(lat["base_min"], lat["base_max"])
        clients.append(flcore.ClientState(
            client_id=shard.client_id,
            shard=shard,
            latency=sched.LatencyProfile(base, lat["jitter_sigma"]),
        ))

    model_cfg = cfg["model"]
    spec = models.ModelSpec(
        kind=model_cfg["kind"],
        input_dim=ds.features.shape[1],
        num_classes=num_classes,
        hidden_dim=model_cfg["hidden_dim"] if model_cfg["kind"] == "mlp" else 0,
    )
    return ExperimentWorld(
        model_spec=spec,
        clients=clients,
        val_set=server_val,
        eval_cadence=cfg["eval_cadence"],
        hp_defaults=dict(cfg["hp_defaults"]),
        base_seed=seed,
        agg_mode=cfg["aggregation"],
    )


def make_groups(cfg: ExperimentConfig, world: ExperimentWorld, seed: int) -> list[sched.ClientGroup]:
    """One all-clients group in sync mode; calibration-round grouping in async."""
    if cfg["grouping"]["mode"] == "sync":
        return [sched.ClientGroup(0, sorted(c.client_id for c in world.clients))]
    epochs = max(1, int(world.hp_defaults["epochs"]))
    # each client timed as a one-member pass (flcore.cohort_time, whose max
    # of one time is that time), without building or keeping its cohort
    completions = [
        (c.client_id, float(sched.completion_time(*flcore.pass_arrays([c]), epochs,
                                                  seeded(seed, "calibration", c.client_id))[0]))
        for c in world.clients
    ]
    window = cfg["grouping"]["window"]
    if window == "auto":
        window = 0.25 * float(np.median([t for _, t in completions]))
    return sched.form_groups(completions, float(window))


def _train_probes(world, global_w, ids, round_index, seed_key, probes):
    """lanes.run_each over probes (index -> config), a probe cycle's share
    (run_probe_cycle): the pass of the clients ids from global_w under each
    config (flcore.train_cohort under seed_key), its aggregate then scored
    on the server validation set by models.evaluate in the same lane. A
    result is (aggregate, local losses, server loss), or None for a
    divergence or a server loss that is not finite."""
    cohort = world.cohort(ids)

    def train(i):
        try:
            out = flcore.train_cohort(world, global_w, probes[i], cohort, round_index, seed_key)
        except NumericDivergenceError:
            return None
        gl = models.evaluate(world.model_spec, out[0], world.val_set.features,
                             world.val_set.labels)[0]
        return (*out, gl) if math.isfinite(gl) else None

    return lanes.run_each(train, probes)


def run_probe_cycle(state, cohort, world, trial_index, sampler, records):
    """Step-wise feedback before round state.round_index: evaluate the probe
    set and choose the round's config.

    Each probe config trains the whole cohort (a flcore.Cohort) from the
    current global weights, every probe under the round's own training key
    (flcore.train_key): common random numbers, so the probes see the same
    batch orders and dropout draws, and the chosen probe's pass is exactly
    the round's. Each probe is timed under its own key,
    (base_seed, "probe", trial_index, round, config_id). _train_probes
    trains and scores them, split by epochs across this process and
    world.helpers (lanes.run_jobs, README "Lanes"), and the first error in
    probe order is raised. Each score is
    combined with that probe's local validation losses. A probe that
    diverges, or whose server loss is not finite, scores +inf, so the step
    never adopts it, and writes no record; the cycle goes on. Appends one
    FeedbackRecord per finished probe to records, each with its combined
    feedback as val_loss.
    Returns (new config, extra simulated time, reused): the extra time is
    the sum of every probe's cohort time, a diverging one's included, and
    reused is the new config's (aggregate, local losses) when it is a probe
    that finished, else None.
    """
    current, j = state.current_hp, state.round_index
    n = len(cohort.members)
    probes = sampler.probes(current)
    extra_time = sum((flcore.cohort_time(cohort, world.train_hp(p).epochs,
                                         (world.base_seed, "probe", trial_index, j, p.config_id))
                      for p in probes), 0.0)
    passes = lanes.run_jobs(world.helpers, world, dict(enumerate(probes)),
                            lambda i: max(1, world.train_hp(probes[i]).epochs), _train_probes,
                            state.global_weights, cohort.ids, j,
                            flcore.train_key(world, trial_index, j))
    results = []
    for i, p in enumerate(probes):
        if isinstance(passes[i], Exception):  # a lane ran nothing past its first error
            raise passes[i]
        if passes[i] is None:
            results.append((p, math.inf))
            continue
        gf = passes[i][2]
        combined = combine_feedback([vl for _, vl in passes[i][1]], gf, n)
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
    chosen = {p.config_id: passes[i] for i, p in enumerate(probes)}.get(new.config_id)
    return new, extra_time, chosen and chosen[:2]


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
    cohort = world.cohort(group.members)
    records: list[FeedbackRecord] = []

    def on_cadence(state):
        return run_probe_cycle(state, cohort, world, trial_key, walk, records)

    result = flcore.run_trial(config, rounds, world, cohort, trial_index=trial_key,
                              on_cadence=on_cadence if walk is not None else None,
                              patience=cfg["early_stop_patience"], resume=resume)
    return _eval_outcome(cfg, world, group, eval_index, seed, plan, resume, result, records)


def _eval_outcome(cfg, world, group, eval_index, seed, plan, resume, result, records):
    """The EvalOutcome of evaluation eval_index on group, planned as plan and
    run from resume, of its trial's result and its probe cycles' records."""
    final = result.config
    if math.isfinite(result.objective):
        gl = combined = result.objective
        if result.global_loss is not None:
            gl = result.global_loss
            losses = [vl for _, vl in result.local_losses]
            combined = combine_feedback(losses, gl, len(losses))
        records.append(FeedbackRecord(config_id=final.config_id, round=result.last_round,
                                      kind="global", server_loss=gl, val_loss=combined,
                                      group_size=len(group.members)))
    row = TrialRow(seed=seed, sampler=cfg["sampler"], trial_index=eval_index,
                   group_id=group.group_id, config_id=final.config_id,
                   hp=asdict(world.train_hp(final)), objective=result.objective,
                   accuracy=result.test_accuracy,
                   sim_time=result.sim_time - (resume.sim_time if resume else 0.0),
                   trace=result.trace, failed=result.failure is not None)
    return EvalOutcome(plan[0], row, result, records, plan[2])


def _plan_ahead(world, sampler, groups) -> dict:
    """Eval index -> (group, config, plan) for every evaluation of a
    feedback_free sampler, on the group a dry sched.dispatch of its rounds'
    times issues it to (README "Lanes"); the lanes fork after it and read
    the round times it drew (flcore.round_time)."""
    # A feedback_free sampler's configs and plans do not depend on the schedule.
    configs = [sampler.start_config(e) for e in range(sampler.num_evals)]
    plans = [sampler.plan(e, config) for e, config in enumerate(configs)]
    issues = {}

    def issue(group, e):
        issues[e] = group, configs[e], plans[e]
        return configs[e]

    def predict(group, config, e):
        (key, n, _), cohort = plans[e], world.cohort(group.members)
        return sum(flcore.round_time(world, cohort, config, key, j)
                   for j in range(1, n + 1)), lambda: None

    sched.dispatch(groups, sampler.num_evals, issue, predict)
    return issues


def _run_wave(world, cfg, seed, share) -> list:
    """A run-ahead lane's share {eval index: (group, config, plan)}
    (_plan_ahead) trained as one wave (flcore.run_trials): [(eval index,
    EvalOutcome)], or [] if the wave raised, so dispatch runs those inline,
    where the one-CPU run raises the error."""
    keys = sorted(share)
    try:  # a random search's evaluations share one round budget
        results = flcore.run_trials(
            [flcore.Trial(share[e][1], world.cohort(share[e][0].members), share[e][2][0])
             for e in keys], share[keys[0]][2][1], world, cfg["early_stop_patience"])
        return [(e, _eval_outcome(cfg, world, share[e][0], e, seed, share[e][2], None, r, []))
                for e, r in zip(keys, results)]
    except Exception:  # raised again where the inline run reaches it
        return []


def _run_seed(cfg: ExperimentConfig, seed: int, cpus: int = 1) -> SeedReport:
    """One seed's report, in up to cpus lanes over the helpers it starts
    once (world.helpers): a feedback_free sampler runs every evaluation
    before dispatch, forking after its dry dispatch (_plan_ahead) and
    splitting them by cohort training rows times epochs into waves
    (_run_wave), and adaptive search splits its probe cycles with one
    helper (README "Lanes")."""
    world = build_world(cfg, seed)
    space = cfg.search_space()
    n, rounds = cfg["budget_configs"], cfg["rounds_per_trial"]
    sampler = {  # the one place that names a sampler
        "random": lambda: hpo.RandomSampler(space, derive_seed(seed, "sampler"), n, rounds),
        "adaptive": lambda: hpo.AdaptiveSampler(space, list(cfg["tuned"]), cfg["epsilon"],
                                                derive_seed(seed, "sampler"), n, rounds),
        "halving": lambda: hpo.HalvingSampler(space, seed, n, rounds),
    }[cfg["sampler"]]()
    groups = make_groups(cfg, world, seed)
    committed: dict[int, EvalOutcome] = {}  # trial key -> its latest committed evaluation

    def commit(outcome: EvalOutcome):
        """Tell the sampler an evaluation's outcome; runs at its simulated finish."""
        sampler.commit(outcome)
        committed[outcome.trial_key] = outcome

    issues = _plan_ahead(world, sampler, groups) if cpus > 1 and sampler.feedback_free else {}

    def cost(e):
        group, config, _ = issues[e]
        rows = sum(len(c.shard.train) for c in world.cohort(group.members).members)
        return rows * max(1, world.train_hp(config).epochs)

    def run_eval(group, config, eval_index):
        plan = sampler.plan(eval_index, config)  # (trial key, round budget, walk)
        resume = committed[plan[0]].result if plan[0] in committed else None
        outcome = ahead.pop(eval_index, None)
        # Not run ahead: its lane's wave raised, or a trial that diverged or
        # stopped early freed its group sooner than predicted.
        if outcome is None or issues[eval_index][:2] != (group, config):
            outcome = _run_one_eval(cfg, world, group, config, eval_index, seed, plan, resume)
        return outcome.row.sim_time, lambda: commit(outcome)

    probing = isinstance(sampler, hpo.AdaptiveSampler)  # a cycle splits in two
    with lanes.helpers(world, min(cpus, len(issues) or (2 if probing else 1))) as world.helpers:
        ahead = lanes.run_jobs(world.helpers, world, issues, cost, _run_wave, cfg,
                               seed) if issues and world.helpers else {}
        result = sched.dispatch(groups, sampler.num_evals,
                                lambda group, e: sampler.start_config(e), run_eval)
    # One row per trial key, in key order, numbered 0..n-1.
    outcomes = [committed[k] for k in sorted(committed)]
    for i, o in enumerate(outcomes):
        o.row.trial_index = i

    ok = [o for o in outcomes if not o.row.failed] or outcomes[:1]
    best = max(ok, key=lambda o: (o.row.accuracy, -o.row.objective, -o.row.trial_index))
    return SeedReport(
        seed=seed,
        best=best.row,
        trials=[o.row for o in outcomes],
        events=result.events,
        makespan=result.makespan,
        best_weights=best.result.final_weights,
        feedback_history=sampler.store.history,
    )


def _run_seeds(cfg, seeds) -> list:
    """A seed lane's share: lanes.run_each over seeds, each run on one CPU."""
    return lanes.run_each(lambda s: _run_seed(cfg, s), seeds)


def _usable_cpus() -> int:
    """The CPUs of this process's affinity, or 1 where lanes cannot pin."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1


# glibc's mallopt parameters (malloc.h) and the values a run fixes them at.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 16 << 20, 4 << 20


def _keep_freed_memory():
    """Fix glibc's mmap and trim thresholds for the rest of this process.

    By default glibc maps each block over a threshold that starts at 128 KiB
    on its own and hands free heap top back to the OS, so the plan and
    scoring arrays a cohort pass freed were faulted in again by the next.
    Blocks under 4 MiB now come from the heap, which keeps up to 16 MiB of
    free top (README "Memory"). Without mallopt (macOS, Windows) this does
    nothing; musl's mallopt ignores both.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every seed of cfg and collect one SeedReport per seed, in
    cfg["seeds"] order; each equals that seed's one-seed run on one CPU.

    The seeds run in lanes (lanes.run_jobs over helpers bound to cfg, a
    lane's share by _run_seeds), and a seed no lane ran runs inline here,
    with lanes of its own (README "Lanes"). Every lane inherits the
    allocator thresholds fixed first, and this process keeps them after
    the call. A failing seed raises its own error, the first in seed
    order; a lane that dies raises FedTuneError.
    """
    _keep_freed_memory()
    seeds, cpus = cfg["seeds"], _usable_cpus()
    with lanes.helpers(cfg, min(cpus, len(seeds))) as started:
        done = lanes.run_jobs(started, cfg, dict.fromkeys(seeds), lambda s: 1,
                              _run_seeds) if started else {}
    per_seed = []
    for seed in seeds:
        if isinstance(done.get(seed), Exception):
            raise done[seed]
        per_seed.append(done[seed] if seed in done else _run_seed(cfg, seed, cpus))
    return ExperimentReport(config=cfg.to_dict(), per_seed=per_seed)


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

    doc = report.to_dict()
    with open(paths["trials.csv"], "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIALS_COLUMNS)
        for seed_doc in doc["seeds"]:
            for trial in seed_doc["trials"]:
                cells = {**trial, **trial["hp"]}
                writer.writerow([cells[c] for c in TRIALS_COLUMNS])

    with open(paths["curves.csv"], "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "sampler", "round", "accuracy", "loss"])
        for sr in report.per_seed:
            for point in sr.best.trace:
                writer.writerow([sr.seed, sr.best.sampler, point["round"],
                                 point["accuracy"], point["loss"]])

    with open(paths["report.json"], "w", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
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
                "config_id": sr.best.config_id,
                "values": sr.best_weights.values.tolist(),
            }
    with open(paths["best_weights.json"], "w", newline="\n") as fh:
        json.dump(checkpoints, fh, sort_keys=True)
        fh.write("\n")
    return paths
