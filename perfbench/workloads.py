"""The benchmark's workloads and one timed, checked experiment call of each.

Every workload is a cut-down of the criterion-8 world (or the wider
100-client world) and runs through the public API: `runner.run_experiment`,
or `cli.main` for the CLI workload. Import this module only after the
checkout's `src` directory is on sys.path.
"""

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass

import yaml

from fedtune import cli, config, runner

OUTPUT_FILES = ("trials.csv", "curves.csv", "report.json", "events.jsonl", "best_weights.json")

# The default grids for learning rate, weight decay and dropout. Epochs and
# batch size are left out of the search and stay at their hp_defaults (1 and
# 32) because they set how much training a configuration costs: with them in
# the space, the same adaptive workload took 4.4 s to 15.4 s depending on the
# seed, and a seeded run could not be compared with another. Dropout is tuned
# so the adaptive sampler still probes 4 configs per cadence round.
SEARCH_SPACE = [
    {"name": "learning_rate", "scale": "log10", "low": 1e-5, "high": 1e-1, "step": 10.0},
    {"name": "weight_decay", "scale": "log_e", "low": 1e-5, "high": 1e-1,
     "step": math.e},
    {"name": "dropout", "scale": "linear", "low": 0.1, "high": 0.5, "step": 0.2},
]
TUNED = ["learning_rate", "weight_decay", "dropout"]

CRITERION8_WORLD = {
    "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 2000,
                "class_sep": 3.0},
    "n_clients": 20,
    "alpha": 0.5,
    "model": {"kind": "mlp", "hidden_dim": 16},
    "rounds_per_trial": 50,
    "eval_cadence": 5,
}
WIDE_WORLD = {
    "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 10000,
                "class_sep": 3.0},
    "n_clients": 100,
    "alpha": 0.3,
    "model": {"kind": "logistic"},
    "grouping": {"mode": "async"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # everything but `seeds`
    seeds_per_call: int
    call_s: float  # nominal wall time of one call; sets how many calls fit a run
    via_cli: bool = False

    @property
    def budget(self) -> int:
        return int(self.config["budget_configs"])


WORKLOADS = {
    w.name: w
    for w in (
        # The only workload where probe cycles and the hpo layer work.
        Workload(
            name="adaptive-sync",
            config={**CRITERION8_WORLD, "sampler": "adaptive", "budget_configs": 2,
                    "search_space": SEARCH_SPACE, "tuned": TUNED},
            seeds_per_call=1,
            call_s=2.1,
        ),
        # No probes; 100 tiny ragged shards make local_train's per-call overhead
        # show; the only multi-group async dispatch; the largest build_world.
        Workload(
            name="random-async-wide",
            config={**WIDE_WORLD, "sampler": "random", "budget_configs": 24,
                    "search_space": SEARCH_SPACE, "tuned": TUNED},
            seeds_per_call=1,
            call_s=2.0,
        ),
        # The only path through cli, load_config and emit_metrics; halving
        # bypasses dispatch; the only workload with two seeds per call.
        Workload(
            name="halving-cli",
            config={**CRITERION8_WORLD, "sampler": "halving", "budget_configs": 8,
                    "search_space": SEARCH_SPACE, "tuned": TUNED},
            seeds_per_call=2,
            call_s=4.2,
            via_cli=True,
        ),
    )
}


@dataclass
class SeedOutcome:
    seed: int
    rows: list  # (trial, config_id, objective, accuracy, failed)
    makespan: float


@dataclass
class Outcome:
    seeds: list[SeedOutcome]
    files: dict | None = None  # output file name -> bytes (CLI workload only)

    def key(self):
        """Everything the run produced, for comparing two calls exactly."""
        return ([(s.seed, s.rows, s.makespan) for s in self.seeds], self.files)


def experiment_config(workload: Workload, seeds: list[int]) -> dict:
    return {**workload.config, "seeds": list(seeds)}


def write_yaml(workload: Workload, seeds: list[int], path: str):
    with open(path, "w") as fh:
        yaml.safe_dump(experiment_config(workload, seeds), fh)


def setup(workload: Workload, seeds: list[int], work_dir: str) -> float:
    """Seconds to validate the config and build the world of every seed."""
    path = os.path.join(work_dir, "setup.yaml")
    if workload.via_cli:
        write_yaml(workload, seeds, path)
    t0 = time.perf_counter()
    if workload.via_cli:
        cfg = config.load_config(path)
    else:
        cfg = config.config_from_dict(experiment_config(workload, seeds))
    for s in seeds:
        runner.build_world(cfg, s)
    return time.perf_counter() - t0


def call(workload: Workload, seeds: list[int], work_dir: str) -> tuple[float, Outcome]:
    """Run one experiment; returns (wall seconds, what it produced)."""
    if workload.via_cli:
        return _call_cli(workload, seeds, work_dir)
    cfg = config.config_from_dict(experiment_config(workload, seeds))
    t0 = time.perf_counter()
    report = runner.run_experiment(cfg)
    wall = time.perf_counter() - t0
    return wall, Outcome([
        SeedOutcome(
            seed=sr.seed,
            rows=[(t.trial_index, t.config_id, t.objective, t.accuracy, t.failed)
                  for t in sr.trials],
            makespan=sr.makespan,
        )
        for sr in report.per_seed
    ])


def _call_cli(workload, seeds, work_dir):
    path = os.path.join(work_dir, "exp.yaml")
    out_dir = os.path.join(work_dir, "out")
    write_yaml(workload, seeds, path)
    stdout = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["run", path, "--output", out_dir])
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"fedtune run exited with {code}")
    return wall, read_outputs(out_dir)


def read_outputs(out_dir: str) -> Outcome:
    """Parse the CLI's output files back into an Outcome."""
    files = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    report = json.loads(files["report.json"])
    makespans = {int(s["seed"]): float(s["makespan"]) for s in report["seeds"]}
    rows_by_seed: dict[int, list] = {s: [] for s in makespans}
    reader = csv.DictReader(io.StringIO(files["trials.csv"].decode("utf-8")))
    for r in reader:
        objective = float(r["objective"])
        # trials.csv marks a diverged (failed) trial only by an `inf` objective
        rows_by_seed.setdefault(int(r["seed"]), []).append(
            (int(r["trial"]), r["config_id"], objective, float(r["accuracy"]),
             objective == math.inf)
        )
    return Outcome(
        [SeedOutcome(s, rows, makespans.get(s, math.nan))
         for s, rows in sorted(rows_by_seed.items())],
        files,
    )


def check(workload: Workload, seeds: list[int], outcome: Outcome) -> list[str]:
    """Correctness problems in one call's outcome; empty when it is sound."""
    problems = []
    got = [s.seed for s in outcome.seeds]
    if sorted(got) != sorted(seeds):
        problems.append(f"seeds {got} != requested {seeds}")
    for s in outcome.seeds:
        if len(s.rows) != workload.budget:
            problems.append(f"seed {s.seed}: {len(s.rows)} trial rows, "
                            f"budget_configs is {workload.budget}")
        for trial, _cid, objective, accuracy, failed in s.rows:
            if not failed and not math.isfinite(objective):
                problems.append(f"seed {s.seed} trial {trial}: objective {objective}")
            if not 0.0 <= accuracy <= 1.0:
                problems.append(f"seed {s.seed} trial {trial}: accuracy {accuracy}")
        if not (math.isfinite(s.makespan) and s.makespan > 0):
            problems.append(f"seed {s.seed}: makespan {s.makespan}")
    return problems
