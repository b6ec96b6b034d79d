"""run_experiment's seed pool: seeds run in worker processes when there is
more than one seed and more than one usable CPU, with the same reports,
files and errors as running them one after another. And the runner's
continuation rule: an evaluation continues the latest committed one of its
trial key, which random and adaptive search never repeat."""

import os
import subprocess
import sys
import time

import pytest
import yaml

import fedtune
from fedtune import cli, flcore, runner
from fedtune.common import FedTuneError, PartitionError
from fedtune.config import config_from_dict

# The pool forks its workers, and several tests rely on that: patches made
# in this process reach the workers, and forks are counted at os.fork.
pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

OUTPUT_FILES = ("trials.csv", "curves.csv", "report.json", "events.jsonl",
                "best_weights.json")

TINY = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6,
                "n": 300, "class_sep": 4.0},
    "n_clients": 3,
    "alpha": 1.0,
    "model": {"kind": "logistic"},
    "sampler": "adaptive",
    "budget_configs": 2,
    "rounds_per_trial": 5,
    "eval_cadence": 5,
    "seeds": [1, 2],
}


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def seed_report_key(sr):
    """Everything a SeedReport holds; repr keeps nan comparable and floats exact."""
    weights = sr.best_weights
    return (sr.seed, repr(sr.best), repr(sr.trials), repr(sr.events), repr(sr.makespan),
            weights.layout_id, weights.values.tobytes(), repr(sr.feedback_history))


def write_config(tmp_path, **overrides):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({**TINY, **overrides}))
    return str(path)


def read_outputs(out_dir):
    return {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}


def env_with_fedtune():
    """The environment, with fedtune's source directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedtune.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


class TestSeedPool:
    def test_reports_in_seed_order_equal_one_seed_runs(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        report = runner.run_experiment(config_from_dict({**TINY, "seeds": [3, 1, 2]}))
        assert len(forks) == 2
        assert [sr.seed for sr in report.per_seed] == [3, 1, 2]
        for sr in report.per_seed:
            alone = runner.run_experiment(config_from_dict({**TINY, "seeds": [sr.seed]}))
            assert seed_report_key(sr) == seed_report_key(alone.per_seed[0])
            assert sr.feedback_history  # the adaptive sampler's probes were recorded
        assert len(forks) == 2  # the one-seed runs forked nothing

    def test_cli_files_identical_with_pool_and_one_cpu(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        forks = count_forks(monkeypatch)
        outputs = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus-{cpus}"
            assert cli.main(["run", path, "--output", str(out)]) == cli.EXIT_OK
            outputs[cpus] = read_outputs(out)
            if cpus == 1:
                assert forks == []
        assert len(forks) == 2  # both from the two-CPU run
        for name in OUTPUT_FILES:
            assert outputs[2][name] == outputs[1][name], name

    def test_runs_inline_without_fork(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        report = runner.run_experiment(config_from_dict(TINY))
        assert [sr.seed for sr in report.per_seed] == [1, 2]

    def test_one_seed_run_imports_no_pool_module(self):
        code = (
            "import sys\n"
            "from fedtune import config, runner\n"
            f"runner.run_experiment(config.config_from_dict({dict(TINY, seeds=[1])!r}))\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env_with_fedtune(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_entry_point_matches_one_cpu_run(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "fedtune.cli", "run", path, "--output",
             str(tmp_path / "entry")],
            env=env_with_fedtune(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning" not in done.stderr
        usable_cpus(monkeypatch, 1)
        assert cli.main(["run", path, "--output", str(tmp_path / "inline")]) == cli.EXIT_OK
        assert read_outputs(tmp_path / "entry") == read_outputs(tmp_path / "inline")


class TestSeedPoolFailures:
    def test_config_error_exits_2(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "one_class.csv"
        csv_path.write_text("".join(f"{i},{i % 7},0\n" for i in range(120)))
        path = write_config(tmp_path, dataset={"type": "csv", "path": str(csv_path)},
                            seeds=[1, 2, 3])
        usable_cpus(monkeypatch, 2)
        assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "config error: model.num_classes: must be >= 2" in capsys.readouterr().err

    def test_partition_error_exits_3(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, n_clients=200, seeds=[1, 2, 3])
        usable_cpus(monkeypatch, 2)
        assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert "error: could not give every client" in capsys.readouterr().err

    def test_first_failing_seed_raised_and_queued_seeds_cancelled(self, tmp_path,
                                                                   monkeypatch):
        build_world = runner.build_world

        def marking_build_world(cfg, seed):
            (tmp_path / f"seed-{seed}").write_text("")
            if seed == 1:
                time.sleep(0.3)
                raise PartitionError("seed 1 failed")
            if seed == 2:
                raise PartitionError("seed 2 failed")
            time.sleep(0.5)
            return build_world(cfg, seed)

        monkeypatch.setattr(runner, "build_world", marking_build_world)
        usable_cpus(monkeypatch, 2)
        seeds = list(range(1, 13))
        with pytest.raises(PartitionError, match="^seed 1 failed$"):
            runner.run_experiment(config_from_dict({**TINY, "seeds": seeds}))
        started = sorted(int(p.name.split("-")[1]) for p in tmp_path.glob("seed-*"))
        assert started == [1, 2]

    def test_dead_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def dying_build_world(cfg, seed):
            if os.getpid() == parent:
                raise AssertionError("build_world ran in the parent process")
            os._exit(1)

        monkeypatch.setattr(runner, "build_world", dying_build_world)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(FedTuneError, match="worker process died"):
            runner.run_experiment(config_from_dict(TINY))
        path = write_config(tmp_path)
        assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert "error: a seed's worker process died" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"sampler": "random", "grouping": {"mode": "async", "window": "auto"}},
    {"sampler": "adaptive"},
], ids=["random", "adaptive"])
def test_random_and_adaptive_evaluations_start_fresh(overrides, monkeypatch):
    # A trial key that repeated would continue another evaluation's weights.
    run_trial, calls = flcore.run_trial, []

    def spy(*args, **kwargs):
        calls.append((kwargs["trial_index"], kwargs["resume"]))
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(flcore, "run_trial", spy)
    runner.run_experiment(config_from_dict({**TINY, **overrides, "budget_configs": 4,
                                            "seeds": [1]}))
    # dispatch runs evaluation e as the e-th call
    assert calls == [(e, None) for e in range(4)]
