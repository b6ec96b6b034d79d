"""run_experiment's seed pool: seeds run in worker processes when there is
more than one seed and more than one usable CPU, with the same reports,
files and errors as running them one after another. And the runner's
continuation rule: an evaluation continues the latest committed one of its
trial key, which random and adaptive search never repeat. And a one-seed
random search, which reads no feedback, runs the evaluations whose group is
known before any runs in forked lanes, with the same report and errors as
inline."""

import os
import pickle
import subprocess
import sys
import time

import pytest
import yaml

import fedtune
from fedtune import cli, runner, sched
from fedtune.common import FedTuneError, FeedbackError, PartitionError
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
    # Random search may run evaluations in a forked child, where no spy in
    # this process sees them, so each row carries what its evaluation ran.
    run_one_eval = runner._run_one_eval

    def spy(cfg, world, group, config, eval_index, seed, plan, resume):
        outcome = run_one_eval(cfg, world, group, config, eval_index, seed, plan, resume)
        outcome.row.ran = (eval_index, plan[0], resume)  # (evaluation, trial key, resume)
        return outcome

    monkeypatch.setattr(runner, "_run_one_eval", spy)
    report = runner.run_experiment(config_from_dict({**TINY, **overrides, "budget_configs": 4,
                                                     "seeds": [1]}))
    # one row per trial key, in key order: evaluation e ran key e, fresh
    assert [t.ran for t in report.per_seed[0].trials] == [(e, e, None) for e in range(4)]


# Epochs are not tuned here, so no evaluation takes zero simulated time.
RANDOM_ASYNC = {**TINY, "sampler": "random", "grouping": {"mode": "async", "window": "auto"},
                "n_clients": 6, "budget_configs": 5, "seeds": [1], "search_space": [
                    {"name": "learning_rate", "scale": "log10", "low": 1e-3, "high": 1.0,
                     "step": 10.0},
                    {"name": "dropout", "scale": "linear", "low": 0.1, "high": 0.5,
                     "step": 0.2}],
                "tuned": ["learning_rate", "dropout"]}
# The criterion-7 world: epochs are tuned from 0, and with rounds_per_trial
# <= eval_cadence an evaluation with epochs 0 takes no simulated time.
CRITERION7 = {
    "dataset": {"type": "synthetic", "num_classes": 4, "input_dim": 6,
                "n": 1200, "class_sep": 3.0},
    "n_clients": 20,
    "alpha": 1.0,
    "model": {"kind": "logistic"},
    "sampler": "random",
    "budget_configs": 6,
    "rounds_per_trial": 3,
    "eval_cadence": 3,
    "latency": {"base_min": 0.2, "base_max": 5.0, "jitter_sigma": 0.3},
    "grouping": {"mode": "async", "window": "auto"},
    "seeds": [2],
}


def fork_pids(monkeypatch):
    """The pid of every child os.fork starts from now on."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def one_seed_report(monkeypatch, overrides, cpus):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    return runner.run_experiment(config_from_dict(overrides)).per_seed[0]


class TestRunAhead:
    """A one-seed random run computes the evaluations dispatch issues before
    any simulated time passes in forked lanes, with the same report."""

    @pytest.mark.parametrize("overrides", [RANDOM_ASYNC, {**RANDOM_ASYNC, "grouping":
                                                          {"mode": "sync"}}],
                             ids=["async", "sync"])
    def test_report_equals_one_cpu_run_and_one_child_is_reaped(self, overrides,
                                                                monkeypatch):
        pids = fork_pids(monkeypatch)
        alone = one_seed_report(monkeypatch, overrides, 1)
        assert pids == []
        laned = one_seed_report(monkeypatch, overrides, 2)
        assert len(pids) == 1
        assert_reaped(pids)
        assert seed_report_key(laned) == seed_report_key(alone)

    def test_zero_duration_evaluations_are_recomputed_inline(self, monkeypatch):
        pids = fork_pids(monkeypatch)
        alone = one_seed_report(monkeypatch, CRITERION7, 1)
        laned = one_seed_report(monkeypatch, CRITERION7, 2)
        assert len(pids) == 1
        assert_reaped(pids)
        assert seed_report_key(laned) == seed_report_key(alone)
        # evaluation 0 takes no simulated time, so dispatch issues evaluations
        # 1.. to other groups than the ones they ran on ahead
        cfg = config_from_dict(CRITERION7)
        groups = runner.make_groups(cfg, runner.build_world(cfg, 2), 2)
        assert alone.trials[0].sim_time == 0.0
        moved = [e for e, g in sched.first_issues(groups, 6)
                 if alone.trials[e].group_id != g.group_id]
        assert moved == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("sampler", ["adaptive", "halving"])
    def test_samplers_that_read_feedback_fork_nothing(self, sampler, monkeypatch):
        pids = fork_pids(monkeypatch)
        overrides = {**TINY, "sampler": sampler, "budget_configs": 3, "seeds": [1]}
        one_seed_report(monkeypatch, overrides, 2)
        assert pids == []

    def test_runs_inline_when_fork_fails_or_is_missing(self, monkeypatch):
        alone = one_seed_report(monkeypatch, RANDOM_ASYNC, 1)

        def failing_fork():
            raise BlockingIOError("no more processes")

        monkeypatch.setattr(os, "fork", failing_fork)
        assert seed_report_key(one_seed_report(monkeypatch, RANDOM_ASYNC, 2)) == \
            seed_report_key(alone)
        monkeypatch.delattr(os, "fork")
        assert seed_report_key(one_seed_report(monkeypatch, RANDOM_ASYNC, 2)) == \
            seed_report_key(alone)

    def test_child_that_dies_raises_fedtune_error(self, monkeypatch):
        parent, run_one_eval = os.getpid(), runner._run_one_eval

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return run_one_eval(*args)

        monkeypatch.setattr(runner, "_run_one_eval", dying)
        pids = fork_pids(monkeypatch)
        with pytest.raises(FedTuneError, match="worker process died"):
            one_seed_report(monkeypatch, RANDOM_ASYNC, 2)
        assert len(pids) == 1
        assert_reaped(pids)


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its message alone."""

    def __init__(self, message, _):
        super().__init__(message)


class UnpicklableError(Exception):
    """Holds a lambda, so it does not pickle."""

    def __init__(self, message, _):
        super().__init__(message)
        self.hook = lambda: None


@pytest.mark.parametrize("error", [FeedbackError, TwoArgError, UnpicklableError])
def test_prefetched_evaluation_raises_like_inline(error, monkeypatch):
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(TwoArgError("x", 1)))
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(UnpicklableError("x", 1))
    # the point an error surfaces at: the evaluations dispatch has issued,
    # and those it has committed
    run_one_eval, dispatch = runner._run_one_eval, sched.dispatch
    issued, committed = [], []
    monkeypatch.setattr(sched, "dispatch", lambda groups, n, issue, run_eval: dispatch(
        groups, n, lambda g, e: issued.append(e) or issue(g, e), run_eval))
    monkeypatch.setattr(runner.hpo.RandomSampler, "commit",
                        lambda self, outcome: committed.append(outcome.trial_key))
    for failing in range(RANDOM_ASYNC["budget_configs"]):  # in either lane

        def raising(*args):
            if args[4] == failing:
                raise (error(f"boom at {failing}") if error is FeedbackError
                       else error(f"boom at {failing}", failing))
            return run_one_eval(*args)

        monkeypatch.setattr(runner, "_run_one_eval", raising)
        seen = {}
        for cpus in (1, 2):
            issued.clear()
            committed.clear()
            with pytest.raises(error) as info:
                one_seed_report(monkeypatch, RANDOM_ASYNC, cpus)
            seen[cpus] = (type(info.value), str(info.value), list(issued), list(committed))
        assert seen[2] == seen[1]
        assert str(failing) in seen[1][1] and seen[1][2] == list(range(failing + 1))
