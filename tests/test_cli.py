import json
import os

import pytest
import yaml

from fedtune import cli, runner
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
        ("grouping", "windw"), ("latency", "jitter"),
    ])
    def test_unknown_section_field_rejected(self, section, key):
        bad = dict(SMALL, **{section: {**SMALL.get(section, {}), key: 1}})
        with pytest.raises(ConfigurationError,
                           match=f"^{section}\\.{key}: unknown configuration field$"):
            config_from_dict(bad)

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

    def test_missing_file_exit_code(self):
        assert cli.main(["validate", "/nonexistent.yaml"]) == cli.EXIT_CONFIG

    def test_grid_prints_cardinality(self, config_path, capsys):
        assert cli.main(["grid", config_path]) == 0
        out = capsys.readouterr().out
        assert "learning_rate" in out
        assert "grid cardinality: 8250" in out  # 5 * 10 * 11 * 5 * 3

    def test_run_writes_all_outputs(self, config_path, tmp_path):
        assert cli.main(["run", config_path]) == 0
        out = tmp_path / "out"
        for name in ("trials.csv", "curves.csv", "report.json",
                     "events.jsonl", "best_weights.json"):
            assert (out / name).exists()

    def test_run_twice_byte_identical(self, config_path, tmp_path):
        assert cli.main(["run", config_path, "--output", str(tmp_path / "a")]) == 0
        assert cli.main(["run", config_path, "--output", str(tmp_path / "b")]) == 0
        for name in ("trials.csv", "curves.csv", "report.json", "events.jsonl"):
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
        lines = open(paths["trials.csv"]).read().splitlines()
        assert len(lines) == 1 + len(SMALL["seeds"]) * SMALL["budget_configs"]

    def test_every_trial_exactly_one_row(self, tmp_path):
        report, paths = self.run_report(tmp_path)
        rows = open(paths["trials.csv"]).read().splitlines()[1:]
        keys = [tuple(r.split(",")[:3]) for r in rows]  # (seed, sampler, trial)
        assert len(keys) == len(set(keys))
        issued = {(str(sr.seed), t.sampler, str(t.trial_index), t.config_id)
                  for sr in report.per_seed for t in sr.trials}
        in_csv = {(r.split(",")[0], r.split(",")[1], r.split(",")[2], r.split(",")[3])
                  for r in rows}
        assert issued == in_csv

    def test_accuracy_in_unit_interval(self, tmp_path):
        _, paths = self.run_report(tmp_path)
        rows = open(paths["trials.csv"]).read().splitlines()[1:]
        for r in rows:
            acc = float(r.split(",")[-1])
            assert 0.0 <= acc <= 1.0

    def test_curves_have_round_column(self, tmp_path):
        _, paths = self.run_report(tmp_path)
        lines = open(paths["curves.csv"]).read().splitlines()
        assert lines[0] == "seed,sampler,round,accuracy,loss"
        assert len(lines) > 1

    def test_report_json_parses(self, tmp_path):
        report, paths = self.run_report(tmp_path)
        doc = json.load(open(paths["report.json"]))
        assert len(doc["seeds"]) == len(SMALL["seeds"])
        for seed_doc in doc["seeds"]:
            assert "best" in seed_doc and "trials" in seed_doc

    def test_async_mode_emits_group_events(self, tmp_path):
        _, paths = self.run_report(tmp_path, grouping={"mode": "async",
                                                       "window": "auto"},
                                   n_clients=6, budget_configs=4)
        lines = open(paths["events.jsonl"]).read().splitlines()
        events = [json.loads(l) for l in lines]
        assert {e["event_kind"] for e in events} == {"issue", "feedback"}
        assert all("sim_time" in e and "config_id" in e for e in events)

    def test_halving_sampler_runs(self, tmp_path):
        report, paths = self.run_report(tmp_path, sampler="halving",
                                        budget_configs=4, seeds=[1])
        rows = open(paths["trials.csv"]).read().splitlines()[1:]
        assert len(rows) == 4

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
