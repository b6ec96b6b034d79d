import json
import math
import os
import re
from pathlib import Path

import pytest
import yaml

from fedtune import cli, flcore, hpo, runner
from fedtune.common import ConfigurationError
from fedtune.config import config_from_dict, load_config

SMALL = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6,
                "n": 300, "class_sep": 4.0},
    "n_clients": 3,
    "alpha": 1.0,
    "model": {"kind": "logistic"},
    "sampler": "random",
    "budget_configs": 2,
    "rounds_per_trial": 5,
    "eval_cadence": 5,
    "seeds": [1, 2],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    cfg = dict(SMALL)
    cfg["output_dir"] = str(tmp_path / "out")
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


LR_DIM = {"name": "learning_rate", "scale": "log10", "low": 1e-4, "high": 1e-1, "step": 10.0}


class TestConfig:
    def test_round_trip(self):
        cfg = config_from_dict(SMALL)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_field_level_error_message(self):
        bad = dict(SMALL, alpha=-1.0)
        with pytest.raises(ConfigurationError, match="alpha"):
            config_from_dict(bad)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="no_such_field"):
            config_from_dict(dict(SMALL, no_such_field=1))

    @pytest.mark.parametrize("section,key", [
        ("model", "dropout_rate"), ("model", "hiden_dim"), ("dataset", "seperation"),
        ("grouping", "windw"), ("latency", "jitter"), ("hp_defaults", "lerning_rate"),
    ])
    def test_unknown_section_field_rejected(self, section, key):
        bad = dict(SMALL, **{section: {**SMALL.get(section, {}), key: 1}})
        with pytest.raises(ConfigurationError,
                           match=f"^{section}\\.{key}: unknown configuration field$"):
            config_from_dict(bad)

    def test_unknown_search_space_field_rejected(self):
        space = [{"name": "learning_rate", "scale": "log10", "low": 1e-4, "high": 1e-1,
                  "step": 10.0, "foo": 1}]
        with pytest.raises(ConfigurationError,
                           match="^search_space\\.foo: unknown configuration field$"):
            config_from_dict(dict(SMALL, search_space=space, tuned=["learning_rate"]))

    @pytest.mark.parametrize("key,value,field", [
        ("n_clients", "abc", "n_clients"), ("alpha", [1], "alpha"),
        ("split", [0.5, "x", 0.5], "split"),
        ("hp_defaults", {"epochs": "many"}, "hp_defaults.epochs"),
        ("latency", {"base_min": "fast"}, "latency.base_min"),
        ("search_space", [{"name": "learning_rate", "scale": "log10", "low": "tiny",
                           "high": 1e-1, "step": 10.0}], "search_space.low"),
        ("n_clients", 2.7, "n_clients"), ("rounds_per_trial", 1.5, "rounds_per_trial"),
        ("budget_configs", True, "budget_configs"), ("dataset", {"n": 300.5}, "dataset.n"),
        ("model", {"hidden_dim": False}, "model.hidden_dim"),
        ("hp_defaults", {"batch_size": 32.5}, "hp_defaults.batch_size"),
    ])
    def test_non_numeric_value_rejected(self, key, value, field):
        leaf = value.get(field.split(".")[-1]) if isinstance(value, dict) else value
        kind = "an integer" if isinstance(leaf, (int, float)) else "a number"
        with pytest.raises(ConfigurationError, match=f"^{field}: must be {kind}$"):
            config_from_dict(dict(SMALL, **{key: value}, tuned=["learning_rate"]))

    @pytest.mark.parametrize("space,message", [
        ([{**LR_DIM, "name": "lerning_rate"}],
         "search_space.name: unknown hyperparameter 'lerning_rate'"),
        ([LR_DIM, LR_DIM], "search_space.name: 'learning_rate' appears twice"),
        ([{**LR_DIM, "integer": True}], "search_space.integer: unknown configuration field"),
        ([{**LR_DIM, "scale": "log2"}], "search_space.learning_rate: unknown scale 'log2'"),
        ([{**LR_DIM, "low": 0.1}], "search_space.learning_rate: low must be < high"),
        ([{**LR_DIM, "scale": "linear", "step": 0}],
         "search_space.learning_rate: step must be > 0"),
        ([{**LR_DIM, "low": 0}], "search_space.learning_rate: log scales need low > 0"),
        ([{**LR_DIM, "step": 1.0}],
         "search_space.learning_rate: multiplicative step must be > 1"),
        ([LR_DIM, {"name": "dropout", "scale": "linear", "low": 0.2, "high": 1.0,
                   "step": 0.4}], "search_space.dropout: must be in [0, 1)"),
        ([LR_DIM, {"name": "batch_size", "scale": "linear", "low": 0.1, "high": 0.4,
                   "step": 0.1}], "search_space.batch_size: must be >= 1"),
    ], ids=["unknown-name", "repeated-name", "integer-key", "scale", "low-high", "step",
            "log-low", "multiplicative-step", "dropout-grid", "integer-grid"])
    def test_bad_search_space_rejected(self, space, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            config_from_dict(dict(SMALL, search_space=space, tuned=["learning_rate"]))

    @pytest.mark.parametrize("hp,message", [
        ({"batch_size": 0}, "hp_defaults.batch_size: must be >= 1"),
        ({"dropout": 1.0}, "hp_defaults.dropout: must be in [0, 1)"),
        ({"learning_rate": -0.1}, "hp_defaults.learning_rate: must be >= 0"),
        ({"epochs": -1}, "hp_defaults.epochs: must be >= 0"),
    ])
    def test_bad_hp_default_rejected(self, hp, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            config_from_dict(dict(SMALL, hp_defaults=hp))

    def test_custom_dim_integer_follows_hyperparameter(self):
        space = [LR_DIM, {"name": "epochs", "scale": "linear", "low": 1, "high": 3,
                          "step": 1},
                 {"name": "weight_decay", "scale": "linear", "low": 1, "high": 3, "step": 1}]
        cfg = config_from_dict(dict(SMALL, search_space=space, tuned=["epochs"]))
        epochs = hpo.grid(cfg.search_space()["epochs"])
        assert epochs == [1, 2, 3] and all(type(v) is int for v in epochs)
        assert all(type(v) is float for v in hpo.grid(cfg.search_space()["learning_rate"]))
        # a float hyperparameter stays float on a grid of whole numbers
        weight_decay = hpo.grid(cfg.search_space()["weight_decay"])
        assert weight_decay == [1.0, 2.0, 3.0] and all(type(v) is float for v in weight_decay)

    def test_halving_with_async_grouping_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="^grouping.mode: must be 'sync' for the halving sampler$"):
            config_from_dict(dict(SMALL, sampler="halving", grouping={"mode": "async"}))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="^seeds: must be distinct$"):
            config_from_dict(dict(SMALL, seeds=[1, 2, 1]))

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="^model: must be a mapping$"):
            config_from_dict(dict(SMALL, model="mlp"))

    def test_set_override(self, config_path):
        cfg = load_config(config_path, overrides=["budget_configs=7",
                                                  "grouping.mode=async"])
        assert cfg["budget_configs"] == 7
        assert cfg["grouping"]["mode"] == "async"

    def test_seed_env_override(self, config_path):
        cfg = load_config(config_path, env={"FEDTUNE_SEED": "99"})
        assert cfg["seeds"] == [99]


class TestCliCommands:
    def test_validate_ok(self, config_path, capsys):
        assert cli.main(["validate", config_path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_code(self, config_path):
        assert cli.main(["validate", config_path, "--set", "alpha=-3"]) == cli.EXIT_CONFIG

    def test_unknown_section_field_exit_code(self, config_path, capsys):
        code = cli.main(["validate", config_path, "--set", "model.dropout_rate=0.2"])
        assert code == cli.EXIT_CONFIG
        assert "model.dropout_rate: unknown configuration field" in capsys.readouterr().err

    @pytest.mark.parametrize("override,field", [
        ("n_clients=abc", "n_clients"), ("latency.base_min=fast", "latency.base_min"),
        ("n_clients=2.7", "n_clients"), ("hp_defaults.epochs=true", "hp_defaults.epochs"),
    ])
    def test_non_numeric_value_exit_code(self, config_path, capsys, override, field):
        value = yaml.safe_load(override.split("=", 1)[1])
        kind = "an integer" if isinstance(value, (int, float)) else "a number"
        assert cli.main(["validate", config_path, "--set", override]) == cli.EXIT_CONFIG
        assert f"config error: {field}: must be {kind}" in capsys.readouterr().err

    def test_halving_with_async_grouping_exit_code(self, config_path, capsys):
        code = cli.main(["validate", config_path, "--set", "sampler=halving",
                         "--set", "grouping.mode=async"])
        assert code == cli.EXIT_CONFIG
        assert "grouping.mode: must be 'sync'" in capsys.readouterr().err

    def test_duplicate_seeds_exit_code(self, config_path, capsys):
        code = cli.main(["run", config_path, "--set", "seeds=[1, 1]"])
        assert code == cli.EXIT_CONFIG
        assert "config error: seeds: must be distinct" in capsys.readouterr().err

    def test_unknown_hp_default_exit_code(self, config_path, capsys):
        code = cli.main(["validate", config_path, "--set", "hp_defaults.lerning_rate=0.1"])
        assert code == cli.EXIT_CONFIG
        assert "hp_defaults.lerning_rate: unknown configuration field" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ("search_space=[{name: lerning_rate, scale: log10, low: 0.0001, high: 0.1, "
         "step: 10}]", "search_space.name: unknown hyperparameter 'lerning_rate'"),
        ("hp_defaults.batch_size=0", "hp_defaults.batch_size: must be >= 1"),
        ("tuned=[learning_rate, learning_rate]", "tuned: 'learning_rate' appears twice"),
        ("tuned=[[learning_rate]]", "tuned: unknown hyperparameter ['learning_rate']"),
    ])
    def test_bad_hyperparameter_exit_code(self, config_path, capsys, override, message):
        assert cli.main(["validate", config_path, "--set", override]) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["0", "0.001"])
    def test_empty_server_val_set_fails_before_training(self, config_path, capsys,
                                                         monkeypatch, fraction):
        def no_training(*args, **kwargs):
            raise AssertionError("run_trial called")

        monkeypatch.setattr(flcore, "run_trial", no_training)
        code = cli.main(["run", config_path, "--set", f"server_val_fraction={fraction}"])
        assert code == cli.EXIT_CONFIG
        assert "config error: server_val_fraction: " in capsys.readouterr().err

    def test_unusable_output_dir_fails_before_compute(self, config_path, tmp_path,
                                                      monkeypatch):
        def no_compute(cfg):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(runner, "run_experiment", no_compute)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["run", config_path, "--output", str(blocker / "out")])
        assert code == cli.EXIT_RUNTIME

    def test_missing_file_exit_code(self):
        assert cli.main(["validate", "/nonexistent.yaml"]) == cli.EXIT_CONFIG

    def test_grid_prints_cardinality(self, config_path, capsys):
        assert cli.main(["grid", config_path]) == 0
        out = capsys.readouterr().out
        assert "learning_rate" in out
        assert "grid cardinality: 8250" in out  # 5 * 10 * 11 * 5 * 3

    def test_grid_integer_points_once(self, config_path, capsys):
        space = ("search_space=[{name: learning_rate, scale: log10, low: 0.001, high: 0.1, "
                 "step: 10}, {name: epochs, scale: linear, low: 0, high: 1, step: 0.25}]")
        assert cli.main(["grid", config_path, "--set", space, "--set", "tuned=[epochs]"]) == 0
        out = capsys.readouterr().out
        assert "epochs (linear, 2 points): 0, 1\n" in out
        assert "grid cardinality: 6" in out

    def test_run_writes_all_outputs(self, config_path, tmp_path):
        assert cli.main(["run", config_path]) == 0
        out = tmp_path / "out"
        for name in ("trials.csv", "curves.csv", "report.json",
                     "events.jsonl", "best_weights.json"):
            assert (out / name).exists()

    @pytest.mark.parametrize("sampler", ["random", "adaptive", "halving"])
    def test_run_twice_byte_identical(self, config_path, tmp_path, sampler):
        for out in ("a", "b"):
            assert cli.main(["run", config_path, "--output", str(tmp_path / out),
                             "--set", f"sampler={sampler}"]) == 0
        for name in ("trials.csv", "curves.csv", "report.json", "events.jsonl",
                     "best_weights.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name


class TestEmitMetrics:
    def run_report(self, tmp_path, **overrides):
        cfg = config_from_dict({**SMALL, **overrides,
                                "output_dir": str(tmp_path / "out")})
        report = runner.run_experiment(cfg)
        paths = runner.emit_metrics(report, cfg["output_dir"])
        return report, paths

    def test_trials_row_count(self, tmp_path):
        report, paths = self.run_report(tmp_path)
        lines = Path(paths["trials.csv"]).read_text().splitlines()
        assert len(lines) == 1 + len(SMALL["seeds"]) * SMALL["budget_configs"]

    def test_every_trial_exactly_one_row(self, tmp_path):
        report, paths = self.run_report(tmp_path)
        rows = Path(paths["trials.csv"]).read_text().splitlines()[1:]
        keys = [tuple(r.split(",")[:3]) for r in rows]  # (seed, sampler, trial)
        assert len(keys) == len(set(keys))
        issued = {(str(sr.seed), t.sampler, str(t.trial_index), t.config_id)
                  for sr in report.per_seed for t in sr.trials}
        in_csv = {(r.split(",")[0], r.split(",")[1], r.split(",")[2], r.split(",")[3])
                  for r in rows}
        assert issued == in_csv

    def test_accuracy_in_unit_interval(self, tmp_path):
        _, paths = self.run_report(tmp_path)
        rows = Path(paths["trials.csv"]).read_text().splitlines()[1:]
        for r in rows:
            acc = float(r.split(",")[-1])
            assert 0.0 <= acc <= 1.0

    def test_curves_have_round_column(self, tmp_path):
        _, paths = self.run_report(tmp_path)
        lines = Path(paths["curves.csv"]).read_text().splitlines()
        assert lines[0] == "seed,sampler,round,accuracy,loss"
        assert len(lines) > 1

    def test_report_json_parses(self, tmp_path):
        report, paths = self.run_report(tmp_path)
        doc = json.loads(Path(paths["report.json"]).read_text())
        assert len(doc["seeds"]) == len(SMALL["seeds"])
        for seed_doc in doc["seeds"]:
            assert "best" in seed_doc and "trials" in seed_doc

    def test_async_mode_emits_group_events(self, tmp_path):
        _, paths = self.run_report(tmp_path, grouping={"mode": "async",
                                                       "window": "auto"},
                                   n_clients=6, budget_configs=4)
        lines = Path(paths["events.jsonl"]).read_text().splitlines()
        events = [json.loads(l) for l in lines]
        assert {e["event_kind"] for e in events} == {"issue", "feedback"}
        assert all("sim_time" in e and "config_id" in e for e in events)

    def test_halving_sampler_runs(self, tmp_path):
        report, paths = self.run_report(tmp_path, sampler="halving",
                                        budget_configs=4, seeds=[1])
        rows = Path(paths["trials.csv"]).read_text().splitlines()[1:]
        assert len(rows) == 4

    @pytest.mark.parametrize("sampler", ["random", "adaptive", "halving"])
    def test_feedback_round_is_issue_round_plus_one(self, tmp_path, sampler):
        _, paths = self.run_report(tmp_path, sampler=sampler, budget_configs=4, seeds=[1])
        lines = Path(paths["events.jsonl"]).read_text().splitlines()
        events = [json.loads(line) for line in lines]
        issues = [e for e in events if e["event_kind"] == "issue"]
        feedbacks = [e for e in events if e["event_kind"] == "feedback"]
        assert [e["round"] for e in issues] == list(range(len(issues)))
        assert [e["round"] for e in feedbacks] == list(range(1, len(issues) + 1))
        for issue, feedback in zip(issues, feedbacks):
            assert feedback["config_id"] == issue["config_id"]
            assert feedback["sim_time"] == pytest.approx(issue["sim_time"] + feedback["staleness"])

    def test_halving_promotes_best_half_through_dispatch(self, tmp_path, monkeypatch):
        calls = []  # (config_id, rounds, objective) per evaluation, in issue order
        run_trial = flcore.run_trial

        def recording_run_trial(hp, budget_rounds, *args, **kwargs):
            result = run_trial(hp, budget_rounds, *args, **kwargs)
            calls.append((hp.config_id, budget_rounds, result.objective))
            return result

        monkeypatch.setattr(flcore, "run_trial", recording_run_trial)
        report, _ = self.run_report(tmp_path, sampler="halving", budget_configs=5,
                                    rounds_per_trial=14, seeds=[1])
        assert [r for _, r, _ in calls] == [3] * 5 + [6] * 3 + [12] * 2 + [14]
        rungs = [[c for c in calls if c[1] == r] for r in (3, 6, 12, 14)]
        for rung, promoted in zip(rungs, rungs[1:]):
            best = sorted(rung, key=lambda c: (c[2], c[0]))[:math.ceil(len(rung) / 2)]
            assert [c[0] for c in promoted] == [c[0] for c in best]
        # trials.csv keeps one row per initial config: its last rung
        rows = report.per_seed[0].trials
        assert [r.trial_index for r in rows] == list(range(5))
        assert [r.config_id for r in rows] == [c[0] for c in rungs[0]]
        last = {cid: objective for cid, _, objective in calls}
        assert [r.objective for r in rows] == [last[r.config_id] for r in rows]

    def test_halving_repeated_config_keeps_one_row_per_position(self, tmp_path):
        # On seed 1 the 2-point grid draws learning_rate 0.1, 0.01, 0.1: one
        # config at positions 0 and 2.
        space = [{**LR_DIM, "low": 0.01}]
        report, paths = self.run_report(tmp_path, sampler="halving", budget_configs=3,
                                        search_space=space, tuned=["learning_rate"],
                                        seeds=[1])
        cfg = config_from_dict({**SMALL, "search_space": space, "tuned": ["learning_rate"]})
        configs = hpo.HalvingSampler(cfg.search_space(), 1, 3, SMALL["rounds_per_trial"]).configs
        assert configs[0] == configs[2] != configs[1]
        rows = [r.split(",") for r in Path(paths["trials.csv"]).read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["0", "1", "2"]
        assert [r[3] for r in rows] == [c.config_id for c in configs]

    def test_unwritable_directory_raises_before_compute(self, tmp_path):
        cfg = config_from_dict(SMALL)
        report = runner.run_experiment(cfg)
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, 0o500)
        try:
            if os.access(target, os.W_OK):
                pytest.skip("running as privileged user; directory stays writable")
            with pytest.raises(OSError):
                runner.emit_metrics(report, target)
        finally:
            os.chmod(target, 0o700)
