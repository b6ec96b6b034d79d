"""The output files agree with each other: report.json's best is the trial
it names, each trials.csv row is its report.json trial, curves.csv is the
best trial's trace and best_weights.json holds the best trial's weights.
Unlike the reference digests, these hold under any numpy and platform."""

import csv
import json

import pytest

from fedtune import runner
from fedtune.config import config_from_dict

BASE = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6, "n": 300,
                "class_sep": 4.0},
    "n_clients": 4,
    "alpha": 0.5,
    "model": {"kind": "logistic"},
    "budget_configs": 4,
    "rounds_per_trial": 4,
    "eval_cadence": 2,
    "seeds": [1, 2],
}
CONFIGS = {
    "random-async": {**BASE, "sampler": "random", "grouping": {"mode": "async"}},
    "adaptive": {**BASE, "sampler": "adaptive"},
    "halving": {**BASE, "sampler": "halving"},
    # learning rates that overflow: failed rows with an "inf" objective
    "random-diverging": {**BASE, "sampler": "random",
                         "hp_defaults": {"weight_decay": 1, "epochs": 10},
                         "tuned": ["learning_rate"],
                         "search_space": [{"name": "learning_rate", "scale": "log10",
                                           "low": 0.1, "high": 1e7, "step": 10.0}]},
}

# Copied from the outputs of the code before TrialRow became their one schema.
TRIALS_HEADER = ["seed", "sampler", "trial", "config_id", "learning_rate", "weight_decay",
                 "epochs", "batch_size", "dropout", "objective", "accuracy"]
TRIAL_KEYS = {"seed", "sampler", "trial", "group_id", "config_id", "hp", "objective",
              "accuracy", "sim_time", "failed"}
BEST_KEYS = {"config_id", "hp", "objective", "accuracy", "trial"}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def run(request, tmp_path_factory):
    """(report, report.json, trials.csv rows, curves.csv rows, best_weights.json)
    of one config's run."""
    report = runner.run_experiment(config_from_dict(CONFIGS[request.param]))
    out = tmp_path_factory.mktemp(request.param)
    paths = runner.emit_metrics(report, out)

    def rows(name):
        with open(paths[name], newline="") as fh:
            return list(csv.reader(fh))

    with open(paths["report.json"]) as fh:
        doc = json.load(fh)
    with open(paths["best_weights.json"]) as fh:
        weights = json.load(fh)
    return report, doc, rows("trials.csv"), rows("curves.csv"), weights


def test_trial_and_best_keys_are_pinned(run):
    _, doc, trials, _, _ = run
    assert trials[0] == TRIALS_HEADER
    for seed_doc in doc["seeds"]:
        assert set(seed_doc["best"]) == BEST_KEYS
        assert all(set(t) == TRIAL_KEYS for t in seed_doc["trials"])


def test_best_is_the_trial_it_names(run):
    report, doc, _, _, _ = run
    for sr, seed_doc in zip(report.per_seed, doc["seeds"], strict=True):
        best = seed_doc["best"]
        (named,) = [t for t in seed_doc["trials"] if t["trial"] == best["trial"]]
        assert {k: named[k] for k in best} == best
        ok = [t for t in sr.trials if not t.failed] or sr.trials[:1]
        chosen = max(ok, key=lambda t: (t.accuracy, -t.objective, -t.trial_index))
        assert sr.best.entry() == chosen.entry() and chosen.trial_index == best["trial"]


def test_each_trials_csv_row_is_its_report_json_trial(run):
    _, doc, trials, _, _ = run
    entries = [t for seed_doc in doc["seeds"] for t in seed_doc["trials"]]
    header, *body = trials
    assert len(body) == len(entries) > 0
    for row, entry in zip(body, entries):
        cells = {**entry, **entry["hp"]}
        assert row == [str(cells[c]) for c in header]


def test_curves_are_the_best_trials_trace(run):
    report, _, _, curves, _ = run
    assert curves[0] == ["seed", "sampler", "round", "accuracy", "loss"]
    expected = [[str(sr.seed), sr.best.sampler, str(p["round"]), repr(p["accuracy"]),
                 repr(p["loss"])] for sr in report.per_seed for p in sr.best.trace]
    assert curves[1:] == expected


def test_best_weights_name_the_best_config(run):
    report, doc, _, _, weights = run
    for sr, seed_doc in zip(report.per_seed, doc["seeds"], strict=True):
        if sr.best_weights is None:  # every trial failed
            assert sr.best.failed and str(sr.seed) not in weights
            continue
        entry = weights[str(sr.seed)]
        assert entry["config_id"] == seed_doc["best"]["config_id"] == sr.best.config_id
        assert entry["values"] == sr.best_weights.values.tolist()


def test_failed_rows_write_inf_in_both_files(run):
    report, doc, trials, _, _ = run
    rows = [t for sr in report.per_seed for t in sr.trials]
    entries = [t for seed_doc in doc["seeds"] for t in seed_doc["trials"]]
    assert [e["failed"] for e in entries] == [t.failed for t in rows]
    objective = TRIALS_HEADER.index("objective")
    for t, entry, row in zip(rows, entries, trials[1:]):
        if t.failed:
            assert t.objective == float("inf")
            assert entry["objective"] == row[objective] == "inf"


def test_a_diverging_search_has_failed_rows():
    report = runner.run_experiment(config_from_dict(CONFIGS["random-diverging"]))
    failed = [t.failed for sr in report.per_seed for t in sr.trials]
    assert any(failed) and not all(failed)
