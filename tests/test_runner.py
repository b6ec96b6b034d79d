"""run_experiment's seeds run in lanes (fedtune.lanes: this process and
children forked for one share each, each pinned to a CPU of its own) when
there is more than one seed and more than one usable CPU, with the same
reports, files and errors as running them one after another. And the
runner's continuation rule: an evaluation continues the latest committed
one of its trial key, which random and adaptive search never repeat. And a
one-seed random search, which reads no feedback, runs every evaluation
ahead as waves, in lanes where a CPU is spare, on the group a dry dispatch
of simulated durations predicts, with the same report and errors as each
evaluation run inline. And one-seed adaptive and halving searches fork
nothing: every probe of a cycle trains in this process."""

import contextlib
import gc
import hashlib
import io
import math
import os
import pickle
import platform
import signal
import subprocess
import sys
import time
import weakref

import pytest
import yaml

import fedtune
from fedtune import cli, flcore, hpo, lanes, models, runner, sched
from fedtune.common import (FedTuneError, FeedbackError, NumericDivergenceError,
                            PartitionError, derive_seed)
from fedtune.config import config_from_dict

# Lanes are forked, and several tests rely on that: patches made in this
# process reach the children, and forks are counted at os.fork.
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


def ids(world):
    """The client_id of every client of world, in its order."""
    return [c.client_id for c in world.clients]


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: n)


def needs_cpus(n):
    """Skips a test unless this process may be pinned to n CPUs of its own:
    every lane is, so a lane forks only where another CPU is usable."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1
    return pytest.mark.skipif(usable < n, reason=f"needs {n} usable CPUs")


needs_two_cpus = needs_cpus(2)


@pytest.fixture
def affinity_is_restored():
    """Asserts that the test left this process's CPU affinity as it found it."""
    getaffinity = getattr(os, "sched_getaffinity", lambda pid: None)
    before = getaffinity(0)
    yield
    assert getaffinity(0) == before


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


def pickled_types(obj) -> set:
    """The type of every object that pickling obj pickles."""
    seen = set()

    class Recording(pickle.Pickler):
        def persistent_id(self, o):
            seen.add(type(o))

    Recording(io.BytesIO()).dump(obj)
    return seen


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def failing_fork():
    raise BlockingIOError("no more processes")


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


@pytest.mark.usefixtures("affinity_is_restored")
class TestSeedPool:
    @needs_two_cpus
    def test_reports_in_seed_order_equal_one_seed_runs(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        pids = fork_pids(monkeypatch)
        report = runner.run_experiment(config_from_dict({**TINY, "seeds": [3, 1, 2]}))
        assert len(pids) == 1  # this process is the other lane
        assert_reaped(pids)
        assert [sr.seed for sr in report.per_seed] == [3, 1, 2]
        for sr in report.per_seed:
            alone = runner.run_experiment(config_from_dict({**TINY, "seeds": [sr.seed]}))
            assert seed_report_key(sr) == seed_report_key(alone.per_seed[0])
            assert sr.feedback_history  # the adaptive sampler's probes were recorded
        assert len(pids) == 1  # and no one-seed adaptive run forks
        assert_reaped(pids)

    @needs_two_cpus
    def test_cli_files_identical_with_pool_and_one_cpu(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        pids = fork_pids(monkeypatch)
        outputs = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus-{cpus}"
            assert cli.main(["run", path, "--output", str(out)]) == cli.EXIT_OK
            outputs[cpus] = read_outputs(out)
            if cpus == 1:
                assert pids == []
        assert len(pids) == 1  # from the two-CPU run
        for name in OUTPUT_FILES:
            assert outputs[2][name] == outputs[1][name], name

    def test_runs_inline_without_fork(self, monkeypatch):
        def report_keys():
            report = runner.run_experiment(config_from_dict(TINY))
            return [seed_report_key(sr) for sr in report.per_seed]

        usable_cpus(monkeypatch, 1)
        alone = report_keys()
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", failing_fork)  # this process runs every seed
        assert report_keys() == alone
        monkeypatch.delattr(os, "fork")
        assert report_keys() == alone

    def test_one_seed_run_imports_no_pool_module(self):
        # nor does a two-seed run, which forks a lane
        code = (
            "import sys\n"
            "from fedtune import config, runner\n"
            "runner._usable_cpus = lambda: 2\n"
            "for seeds in ([1], [1, 2]):\n"
            f"    runner.run_experiment(config.config_from_dict(dict({TINY!r}, seeds=seeds)))\n"
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


@pytest.mark.usefixtures("affinity_is_restored")
class TestSeedPoolFailures:
    def test_config_error_exits_2(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "one_class.csv"
        csv_path.write_text("".join(f"{i},{i % 7},0\n" for i in range(120)))
        path = write_config(tmp_path, dataset={"type": "csv", "path": str(csv_path)},
                            seeds=[1, 2, 3])
        usable_cpus(monkeypatch, 2)
        assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"config error: dataset.path: {csv_path} has no label above 0" in \
            capsys.readouterr().err

    def test_partition_error_exits_3(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, n_clients=200, seeds=[1, 2, 3])
        usable_cpus(monkeypatch, 2)
        assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert "error: could not give every client" in capsys.readouterr().err

    @needs_two_cpus
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

    @needs_two_cpus
    def test_dead_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        parent, build_world = os.getpid(), runner.build_world

        def dying_build_world(cfg, seed):
            if os.getpid() != parent:  # the child lane is killed
                os.kill(os.getpid(), signal.SIGKILL)
            return build_world(cfg, seed)

        monkeypatch.setattr(runner, "build_world", dying_build_world)
        usable_cpus(monkeypatch, 2)
        pids = fork_pids(monkeypatch)
        with pytest.raises(FedTuneError, match="worker process died"):
            runner.run_experiment(config_from_dict(TINY))
        assert len(pids) == 1
        assert_reaped(pids)
        path = write_config(tmp_path)
        assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert "error: a worker process died" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"sampler": "random", "grouping": {"mode": "async", "window": "auto"}},
    {"sampler": "adaptive"},
], ids=["random", "adaptive"])
def test_random_and_adaptive_evaluations_start_fresh(overrides, monkeypatch):
    # A trial key that repeated would continue another evaluation's weights.
    # Random search may run evaluations in a forked child, where no spy in
    # this process sees them, so each row carries what its evaluation ran.
    # Every evaluation, inline or in a run-ahead wave, becomes its outcome
    # through _eval_outcome.
    eval_outcome = runner._eval_outcome

    def spy(cfg, world, group, eval_index, seed, plan, resume, result, records):
        outcome = eval_outcome(cfg, world, group, eval_index, seed, plan, resume, result, records)
        outcome.row.ran = (eval_index, plan[0], resume)  # (evaluation, trial key, resume)
        return outcome

    monkeypatch.setattr(runner, "_eval_outcome", spy)
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


def one_seed_report(monkeypatch, overrides, cpus):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    return runner.run_experiment(config_from_dict(overrides)).per_seed[0]


def inline_report(monkeypatch, overrides):
    """The one-CPU report with nothing planned ahead: dispatch runs every
    evaluation of a random search inline, one _run_one_eval each."""
    with monkeypatch.context() as patched:
        patched.setattr(runner, "_plan_ahead", lambda world, sampler, groups: {})
        return one_seed_report(patched, overrides, 1)


def dispatches(monkeypatch):
    """One list per sched.dispatch call from now on, of [eval index, group id,
    duration] for each evaluation it issued; a one-seed random run makes a
    dry call, whose durations are predicted, before the one that runs
    evaluations (an inline_report makes only the second). Evaluation e is
    listed before it runs, so one that raises is listed without a
    duration."""
    calls, dispatch = [], sched.dispatch

    def recording_dispatch(groups, num_evals, issue, run_eval):
        ran = []
        calls.append(ran)

        def recording_run_eval(group, config, e):
            ran.append([e, group.group_id])
            duration, commit = run_eval(group, config, e)
            ran[-1].append(duration)
            return duration, commit

        return dispatch(groups, num_evals, issue, recording_run_eval)

    monkeypatch.setattr(sched, "dispatch", recording_dispatch)
    return calls


def inline_evals(monkeypatch):
    """The eval index of every evaluation this process computes inside
    sched.dispatch: every one of an inline_report; with waves, which run
    before dispatch, only the ones computed again inline."""
    inline, depth = [], []
    run_one_eval, dispatch = runner._run_one_eval, sched.dispatch

    def in_dispatch(*args):
        depth.append(None)
        try:
            return dispatch(*args)
        finally:
            depth.pop()

    def spy(*args):
        if depth:
            inline.append(args[4])
        return run_one_eval(*args)

    monkeypatch.setattr(sched, "dispatch", in_dispatch)
    monkeypatch.setattr(runner, "_run_one_eval", spy)
    return inline


# random-async-wide, shrunk: many small ragged shards in several async groups,
# fewer groups than evaluations, so most issues wait on simulated durations.
WIDE_ASYNC = {
    "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 3000,
                "class_sep": 3.0},
    "n_clients": 30,
    "alpha": 0.3,
    "model": {"kind": "logistic"},
    "sampler": "random",
    "grouping": {"mode": "async"},
    "budget_configs": 12,
    "rounds_per_trial": 4,
    "eval_cadence": 2,
}


@pytest.mark.parametrize("world,mode,seed,digest", [
    ("criterion7", "sync", 2, "fcb5100450e06954a4015128b6129bc01cf6f0c6e7833bb0f32a8acccc628e9c"),
    ("criterion7", "async", 2, "da63c39eedccbbcb188fa14ca78c7e20a1548f0ce239933d7748e23f58b1489d"),
    ("criterion7", "async", 61, "2f73da047343fc7270bf2ac6aa46bbf2516ef5e30067e8099a417cac6b0b0df6"),
    ("wide", "sync", 2, "a22f6a6dcfc79698eb8744fd7c6194a5df806c0fd79638c99af9b0bed72fbe2c"),
    ("wide", "async", 2, "9ab08100fef1e16e5c9469d51d6df906156704546aa47b565db9547b01cc8caa"),
    ("wide", "async", 61, "e86cbf8168fddad23ec2bc6501432930df41c39c58c06bc079a2715718d52fc8"),
])
def test_make_groups_pinned(monkeypatch, world, mode, seed, digest):
    # SHA-256 of the repr of the groups' members and of the calibration times
    # make_groups hands sched.form_groups (none in sync mode), as float.hex
    # (async digests re-recorded when every per-client stream was keyed
    # straight from its key's digest; tests/test_sched.py checks the times)
    seen, form = [], sched.form_groups
    monkeypatch.setattr(sched, "form_groups",
                        lambda comps, window: seen.append(comps) or form(comps, window))
    over = {"criterion7": CRITERION7, "wide": WIDE_ASYNC}[world]
    cfg = config_from_dict({**over, "grouping": {**over["grouping"], "mode": mode}})
    groups = runner.make_groups(cfg, runner.build_world(cfg, seed), seed)
    out = ([g.members for g in groups], [[(i, t.hex()) for i, t in c] for c in seen])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest


def test_calibration_builds_no_cohort(monkeypatch):
    # each client is timed as flcore.cohort_time times its one-member cohort,
    # byte for byte, but no cohort is built or kept for it
    seen, form = [], sched.form_groups
    monkeypatch.setattr(sched, "form_groups",
                        lambda comps, window: seen.append(comps) or form(comps, window))
    cfg = config_from_dict({**WIDE_ASYNC, "hp_defaults": {"epochs": 2}})
    world = runner.build_world(cfg, 5)
    runner.make_groups(cfg, world, 5)
    assert world.cohorts == {}
    want = [(c.client_id, flcore.cohort_time(world.cohort([c.client_id]), 2,
                                             (5, "calibration", c.client_id)))
            for c in world.clients]
    assert [(i, t.hex()) for i, t in seen[0]] == [(i, t.hex()) for i, t in want]
    # a cohort of ids given in any order holds its members in id order
    given = [7, 3, 29, 0, 12]
    cohort = world.cohort(given)
    assert [c.client_id for c in cohort.members] == sorted(given)
    assert cohort.members == [world.clients[i] for i in sorted(given)]


def test_worlds_built_one_after_another_keep_their_own_cohorts():
    # Cohort records live on their world. Two seeds of one shape run here one
    # after the other, the second world built once the first is freed, when
    # a cache keyed by array ids could serve the first world's arrays; each
    # report must equal the one-CPU report of a fresh process.
    cfg = {**WIDE_ASYNC, "budget_configs": 6}
    code = ("import pickle, sys\n"
            "from fedtune import runner\n"
            "from fedtune.config import config_from_dict\n"
            "cfg = config_from_dict(pickle.loads(sys.stdin.buffer.read()))\n"
            "sys.stdout.buffer.write(pickle.dumps(runner._run_seed(cfg, int(sys.argv[1]))))\n")
    for seed in (5, 6):
        here = seed_report_key(runner._run_seed(config_from_dict(cfg), seed))
        gc.collect()
        fresh = subprocess.run([sys.executable, "-c", code, str(seed)], input=pickle.dumps(cfg),
                               capture_output=True, env=env_with_fedtune(), check=True)
        assert seed_report_key(pickle.loads(fresh.stdout)) == here


# Learning rates up to 1e30 with weight decay 1 diverge, and patience 1 stops
# the other trials after round 2, so trials free their groups sooner than
# predicted.
# An MLP tuning four plan keys (epochs 0 or 1, batch size 16 or 32), so a
# lane's six evaluations share some of them
MIXED_KEYS = {**WIDE_ASYNC, "model": {"kind": "mlp", "hidden_dim": 8}, "seeds": [1],
              "tuned": ["learning_rate", "epochs", "batch_size", "dropout"], "search_space": [
                  {"name": "learning_rate", "scale": "log10", "low": 1e-3, "high": 0.1,
                   "step": 10.0},
                  {"name": "epochs", "scale": "linear", "low": 0, "high": 1, "step": 1},
                  {"name": "batch_size", "scale": "pow2", "low": 16, "high": 32, "step": 2.0},
                  {"name": "dropout", "scale": "linear", "low": 0.1, "high": 0.5,
                   "step": 0.2}]}
MISPREDICTED = {
    **RANDOM_ASYNC, "budget_configs": 8, "rounds_per_trial": 6, "eval_cadence": 1,
    "early_stop_patience": 1, "hp_defaults": {"weight_decay": 1.0, "epochs": 10},
    "search_space": [{"name": "learning_rate", "scale": "log10", "low": 1e-2, "high": 1e30,
                      "step": 10.0}],
    "tuned": ["learning_rate"],
}


@pytest.mark.usefixtures("affinity_is_restored")
class TestRunAhead:
    """A one-seed random run computes every evaluation as waves before
    dispatch, on the group a dry dispatch predicts, at every CPU count (in
    this process alone at one), with the report of each evaluation run
    inline."""

    @needs_two_cpus
    @pytest.mark.parametrize("overrides", [RANDOM_ASYNC, {**RANDOM_ASYNC, "grouping":
                                                          {"mode": "sync"}}],
                             ids=["async", "sync"])
    def test_report_equals_one_cpu_run_and_one_child_is_reaped(self, overrides,
                                                                monkeypatch):
        pids = fork_pids(monkeypatch)
        inline = inline_report(monkeypatch, overrides)
        alone = one_seed_report(monkeypatch, overrides, 1)
        assert pids == []
        laned = one_seed_report(monkeypatch, overrides, 2)
        assert len(pids) == 1
        assert_reaped(pids)
        assert seed_report_key(laned) == seed_report_key(alone) == seed_report_key(inline)

    def test_dry_schedule_equals_one_cpu_issues_and_durations(self, monkeypatch):
        # The predicted duration is the sum of the rounds' cohort times under
        # run_trial's time keys; a change to either key shows here.
        calls, waves = dispatches(monkeypatch), []
        for seed in (1 + 1000 * k for k in range(8)):
            calls.clear()
            overrides = {**WIDE_ASYNC, "seeds": [seed]}
            inline = inline_report(monkeypatch, overrides)
            reports = [one_seed_report(monkeypatch, overrides, cpus) for cpus in (1, 2)]
            ran_inline, dry, ran, dry_laned, ran_laned = calls
            assert [(e, g) for e, g, _ in dry] == [(e, g) for e, g, _ in ran_inline]
            assert [d for _, _, d in dry] == [inline.trials[e].sim_time for e, _, _ in dry]
            assert dry_laned == dry
            assert ran == ran_laned == ran_inline
            assert all(seed_report_key(r) == seed_report_key(inline) for r in reports)
            waves.append(len({g for _, g, _ in dry}))
        assert 1 < min(waves) and max(waves) < WIDE_ASYNC["budget_configs"]

    @needs_two_cpus
    def test_zero_duration_evaluations_are_foreseen(self, monkeypatch):
        pids = fork_pids(monkeypatch)
        inline = inline_evals(monkeypatch)
        alone = inline_report(monkeypatch, CRITERION7)
        assert inline == list(range(6))
        inline.clear()
        laned = one_seed_report(monkeypatch, CRITERION7, 2)
        assert len(pids) == 1
        assert_reaped(pids)
        assert seed_report_key(laned) == seed_report_key(alone)
        # evaluation 0 takes no simulated time and frees its group at t=0
        # again, which the dry dispatch foresees: nothing is computed twice
        assert alone.trials[0].sim_time == 0.0
        assert inline == []

    def test_inline_evaluations_equal_the_in_process_wave(self, monkeypatch):
        # Each evaluation run by its own _run_one_eval against one wave in
        # this process, on an async world where some trials diverge and
        # early stopping ends others, so some evaluations are computed again
        # inline; at one CPU nothing forks.
        pids, inline = fork_pids(monkeypatch), inline_evals(monkeypatch)
        alone = inline_report(monkeypatch, MISPREDICTED)
        assert inline == list(range(MISPREDICTED["budget_configs"]))
        inline.clear()
        wave = one_seed_report(monkeypatch, MISPREDICTED, 1)
        assert pids == []
        assert [repr(t) for t in wave.trials] == [repr(t) for t in alone.trials]
        assert seed_report_key(wave) == seed_report_key(alone)
        assert any(t.failed for t in alone.trials)
        assert any(len(t.trace) < MISPREDICTED["rounds_per_trial"]
                   for t in alone.trials if not t.failed)
        assert 0 < len(inline) < MISPREDICTED["budget_configs"]

    @needs_two_cpus
    def test_waves_that_mix_plan_keys_leave_nothing_to_run_inline(self, monkeypatch):
        # each round of this process's wave trains one stack per plan key,
        # with a dropout rate per row; a wave that raised would leave its
        # share to dispatch, which would compute it again inline
        inline, real, stacks = inline_evals(monkeypatch), flcore.train_cohorts, []

        def recording(world, passes, *args):
            stacks.append([world.train_hp(p[1]) for p in passes])
            return real(world, passes, *args)

        alone = one_seed_report(monkeypatch, MIXED_KEYS, 1)
        inline.clear()
        monkeypatch.setattr(flcore, "train_cohorts", recording)
        laned = one_seed_report(monkeypatch, MIXED_KEYS, 2)
        assert seed_report_key(laned) == seed_report_key(alone)
        assert inline == []
        spec = runner.build_world(config_from_dict(MIXED_KEYS), 1).model_spec
        assert len({models.plan_key(spec, hps[0]) for hps in stacks}) > 1
        assert any(len({hp.dropout for hp in hps}) > 1 for hps in stacks)

    def test_mispredicted_issues_are_computed_inline(self, monkeypatch):
        inline = inline_evals(monkeypatch)
        alone = one_seed_report(monkeypatch, MISPREDICTED, 1)
        inline.clear()
        laned = one_seed_report(monkeypatch, MISPREDICTED, 2)
        assert seed_report_key(laned) == seed_report_key(alone)
        assert any(t.failed for t in alone.trials)
        assert any(len(t.trace) < MISPREDICTED["rounds_per_trial"]
                   for t in alone.trials if not t.failed)
        assert inline  # some issues went to other groups than predicted

    @needs_two_cpus
    def test_lanes_read_kept_times_and_reruns_draw_their_own(self, monkeypatch):
        # The dry dispatch keeps every round time it draws on the cohort it
        # issued the evaluation to, and the lanes fork after it: this
        # process's lane draws no time again. An evaluation computed again
        # inline runs on another group, so it draws its own.
        calls, inline = dispatches(monkeypatch), inline_evals(monkeypatch)
        alone = one_seed_report(monkeypatch, MISPREDICTED, 1)
        calls.clear()
        inline.clear()
        times, real = [], flcore.cohort_time

        def recording_cohort_time(cohort, epochs, seed_key):
            if seed_key[1] == "time":  # (dispatch call, eval index, cohort ids)
                times.append((len(calls), seed_key[2], cohort.ids))
            return real(cohort, epochs, seed_key)

        monkeypatch.setattr(flcore, "cohort_time", recording_cohort_time)
        laned = one_seed_report(monkeypatch, MISPREDICTED, 2)
        assert seed_report_key(laned) == seed_report_key(alone)
        dry, ran = calls
        rounds = MISPREDICTED["rounds_per_trial"]
        assert [e for n, e, _ in times if n == 1] == [e for e, _, _ in dry for _ in range(rounds)]
        assert inline and {e for n, e, _ in times if n == 2} == set(inline)
        predicted = {e: ids for n, e, ids in times if n == 1}
        assert all(ids != predicted[e] for n, e, ids in times if n == 2)
        assert all(dict((e, g) for e, g, _ in dry)[e] != g for e, g, _ in ran if e in inline)

    @needs_two_cpus
    @pytest.mark.parametrize("sampler", ["adaptive", "halving"])
    def test_samplers_that_read_feedback_fork_nothing(self, sampler, monkeypatch):
        pids = fork_pids(monkeypatch)
        overrides = {**TINY, "sampler": sampler, "budget_configs": 3, "seeds": [1]}
        alone = one_seed_report(monkeypatch, overrides, 1)
        two_cpus = one_seed_report(monkeypatch, overrides, 2)
        # both run every evaluation inline, with no run-ahead lanes
        assert pids == []
        assert seed_report_key(two_cpus) == seed_report_key(alone)

    def test_runs_inline_when_fork_fails_or_is_missing(self, monkeypatch):
        alone = one_seed_report(monkeypatch, RANDOM_ASYNC, 1)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert seed_report_key(one_seed_report(monkeypatch, RANDOM_ASYNC, 2)) == \
            seed_report_key(alone)
        monkeypatch.delattr(os, "fork")
        assert seed_report_key(one_seed_report(monkeypatch, RANDOM_ASYNC, 2)) == \
            seed_report_key(alone)

    @needs_two_cpus
    def test_child_that_dies_raises_fedtune_error(self, monkeypatch):
        # a lane's wave turns each result into its outcome by _eval_outcome
        parent, eval_outcome = os.getpid(), runner._eval_outcome

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return eval_outcome(*args)

        monkeypatch.setattr(runner, "_eval_outcome", dying)
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
    # and those it has committed, equal with every evaluation run inline and
    # with waves run ahead at one CPU and at two
    # (the dispatch that runs evaluations is the last; with waves a dry one
    # predicts the schedule first). The error is raised where an evaluation,
    # inline or in a run-ahead wave, becomes its outcome.
    eval_outcome, calls, committed = runner._eval_outcome, dispatches(monkeypatch), []
    monkeypatch.setattr(runner.hpo.RandomSampler, "commit",
                        lambda self, outcome: committed.append(outcome.trial_key))
    for failing in range(RANDOM_ASYNC["budget_configs"]):  # in either lane

        def raising(*args):
            if args[3] == failing:  # the evaluation index
                raise (error(f"boom at {failing}") if error is FeedbackError
                       else error(f"boom at {failing}", failing))
            return eval_outcome(*args)

        monkeypatch.setattr(runner, "_eval_outcome", raising)
        seen = {}
        for cpus in ("inline", 1, 2):
            calls.clear()
            committed.clear()
            with pytest.raises(error) as info:
                if cpus == "inline":
                    inline_report(monkeypatch, RANDOM_ASYNC)
                else:
                    one_seed_report(monkeypatch, RANDOM_ASYNC, cpus)
            assert len(calls) == (1 if cpus == "inline" else 2)
            issued = [ran[0] for ran in calls[-1]]
            seen[cpus] = (type(info.value), str(info.value), issued, list(committed))
        assert seen[2] == seen[1] == seen["inline"]
        assert str(failing) in seen[1][1] and seen[1][2] == list(range(failing + 1))


@pytest.mark.usefixtures("affinity_is_restored")
class TestRunJobs:
    """lanes.run_jobs runs each share but this process's in a child forked
    for that share alone and pinned to a CPU of its own, as fn(bound,
    *args, share), and merges the replies. Every child is reaped, and this
    process's affinity restored, before the call returns, raises or is
    interrupted."""

    @needs_cpus(3)
    def test_three_lanes_run_on_three_pinned_cpus(self, monkeypatch):
        def run(key):
            return key * key, os.getpid(), frozenset(os.sched_getaffinity(0))

        cpus, jobs = sorted(os.sched_getaffinity(0)), dict.fromkeys([1, 2, 3])
        pids = fork_pids(monkeypatch)
        done = lanes.run_jobs(run, 3, jobs, lambda k: 1, lanes.run_each)
        assert len(pids) == 2
        assert_reaped(pids)
        assert {k: r[0] for k, r in done.items()} == {k: run(k)[0] for k in jobs}
        pinned = {pid: lane_cpus for _, pid, lane_cpus in done.values()}  # one key per lane
        assert set(pinned) == {os.getpid(), *pids}
        assert pinned[os.getpid()] == {cpus[0]}
        assert sorted(pinned.values(), key=min) == [{c} for c in cpus[:3]]

    @needs_two_cpus
    def test_share_whose_exception_does_not_pickle_runs_again_here(self, monkeypatch):
        parent, ran_here = os.getpid(), []

        def run(key):
            if os.getpid() == parent:
                ran_here.append(key)
            if key == 3:
                raise UnpicklableError("boom at 3", 3)
            return key * key

        pids = fork_pids(monkeypatch)
        done = lanes.run_jobs(run, 2, dict.fromkeys(range(4)), lambda k: 1, lanes.run_each)
        assert len(pids) == 1
        assert_reaped(pids)
        # the shares are [0, 2] and [1, 3]; the child's whole share runs again here
        assert ran_here == [0, 2, 1, 3]
        assert [done[k] for k in range(3)] == [0, 1, 4]
        assert (type(done[3]), str(done[3])) == (UnpicklableError, "boom at 3")

    @needs_two_cpus
    def test_reply_that_does_not_unpickle_is_computed_here(self, tmp_path, monkeypatch):
        parent, log = os.getpid(), tmp_path / "runs"

        def run(key):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {key}\n")
            return os.getpid(), TwoArgError(f"made for {key}", key)  # pickles, never unpickles

        pids = fork_pids(monkeypatch)
        done = lanes.run_jobs(run, 2, dict.fromkeys(range(2)), lambda k: 1, lanes.run_each)
        assert len(pids) == 1
        assert_reaped(pids)
        # the child ran its share, [1], and its reply was dropped and computed here
        runs = log.read_text().splitlines()
        assert [r for r in runs if r.startswith(f"{parent} ")] == [f"{parent} 0", f"{parent} 1"]
        assert [r for r in runs if not r.startswith(f"{parent} ")] == [f"{pids[0]} 1"]
        assert {k: (pid, type(err), str(err)) for k, (pid, err) in done.items()} == \
            {k: (parent, TwoArgError, f"made for {k}") for k in range(2)}

    @needs_two_cpus
    @pytest.mark.parametrize("ending", ["returns", "raises here", "raises in the child",
                                        "is interrupted"])
    def test_every_child_is_reaped_and_affinity_restored(self, ending, monkeypatch):
        parent, before = os.getpid(), os.sched_getaffinity(0)
        cpus = sorted(before)

        def work(bound, share):
            here = os.getpid() == parent
            if ending == ("raises here" if here else "raises in the child"):
                raise FeedbackError(f"boom {ending[7:]}")
            if ending == "is interrupted":
                if here:
                    raise KeyboardInterrupt
                time.sleep(60)  # killed, not waited for
            return [(key, (bound, frozenset(os.sched_getaffinity(0)))) for key in share]

        pids = fork_pids(monkeypatch)
        error = {"returns": None, "is interrupted": KeyboardInterrupt}.get(ending, FeedbackError)
        started = time.perf_counter()
        with pytest.raises(error) if error else contextlib.nullcontext():
            done = lanes.run_jobs("bound", 2, dict.fromkeys("ab"), lambda k: 1, work)
            assert done == {"a": ("bound", {cpus[0]}), "b": ("bound", {cpus[1]})}
        assert time.perf_counter() - started < 30
        assert len(pids) == 1
        assert_reaped(pids)
        assert os.sched_getaffinity(0) == before

    def test_one_lane_runs_here_and_forks_nothing(self, monkeypatch):
        pids = fork_pids(monkeypatch)
        done = lanes.run_jobs(None, 1, dict.fromkeys(range(5)), lambda k: k,
                              lambda bound, share: [(k, os.getpid()) for k in share])
        assert pids == [] and done == dict.fromkeys(range(5), os.getpid())


# Six clients and one seed; PROBING (below) adds a probe cycle before rounds 2-4.
SPLIT = {**TINY, "dataset": {**TINY["dataset"], "n": 600}, "n_clients": 6, "seeds": [1]}


def failing_setaffinity(which, parent):
    """os.sched_setaffinity, failing in this process (parent) or in a child."""
    setaffinity = os.sched_setaffinity

    def failing(pid, cpus):
        if (os.getpid() == parent) == (which == "this process"):
            raise OSError(22, "Invalid argument")
        return setaffinity(pid, cpus)

    return failing


@needs_two_cpus
@pytest.mark.usefixtures("affinity_is_restored")
class TestLaneFailures:
    """A run-ahead or seed lane whose pin fails, or that is interrupted,
    leaves no child behind, and a lane that could not run its share leaves
    it to this process, with the report of one CPU."""

    @pytest.mark.parametrize("sampler", ["halving", "random"])
    def test_each_child_runs_one_share_and_replies_no_world(self, sampler, monkeypatch):
        # two seeds of halving fork the seed lane for its seed, one seed of
        # random search forks the run-ahead lane for its wave; neither reply
        # pickles a world
        overrides = {"halving": {**SPLIT, "sampler": "halving", "seeds": [1, 2]},
                     "random": RANDOM_ASYNC}[sampler]
        fn = {"halving": runner._run_seeds, "random": runner._run_wave}[sampler]
        forks, replies, fork, receive = [], [], lanes._fork, lanes._receive

        def recording_fork(cpu, *request):
            forks.append(request)
            return fork(cpu, *request)

        def recording_receive(*args):
            replies.append(receive(*args))
            return replies[-1]

        monkeypatch.setattr(lanes, "_fork", recording_fork)
        monkeypatch.setattr(lanes, "_receive", recording_receive)
        pids = fork_pids(monkeypatch)
        usable_cpus(monkeypatch, 2)
        laned = runner.run_experiment(config_from_dict(overrides))
        assert len(pids) == len(forks) == len(replies) == 1
        assert_reaped(pids)
        assert forks[0][0] is fn and isinstance(forks[0][-1], dict)
        assert flcore.ExperimentWorld not in pickled_types(replies)
        if sampler == "halving":
            cfg, share = forks[0][1:]
            assert (cfg["seeds"], share) == ([1, 2], {2: None})
            assert [seed for seed, _ in replies[0]] == [2]
        else:
            world, cfg, seed, share = forks[0][1:]
            assert isinstance(world, flcore.ExperimentWorld)
            assert (cfg["sampler"], seed) == ("random", 1)
            assert all(plan[2] is None for _, _, plan in share.values())  # no walk
            assert sorted(e for e, _ in replies[0]) == sorted(share)
        usable_cpus(monkeypatch, 1)
        alone = runner.run_experiment(config_from_dict(overrides)).per_seed
        assert [seed_report_key(sr) for sr in laned.per_seed] == \
            [seed_report_key(sr) for sr in alone]

    @pytest.mark.parametrize("which", ["this process", "the child"])
    @pytest.mark.parametrize("overrides", [RANDOM_ASYNC, {**SPLIT, "sampler": "halving",
                                                          "seeds": [1, 2]}],
                             ids=["run-ahead", "seeds"])
    def test_failing_sched_setaffinity_runs_inline(self, which, overrides, monkeypatch):
        def reports(cpus):
            usable_cpus(monkeypatch, cpus)
            return [seed_report_key(sr)
                    for sr in runner.run_experiment(config_from_dict(overrides)).per_seed]

        alone = reports(1)
        monkeypatch.setattr(os, "sched_setaffinity", failing_setaffinity(which, os.getpid()))
        pids = fork_pids(monkeypatch)
        assert reports(2) == alone
        assert len(pids) == (which == "the child")  # a child pins itself after the fork
        assert_reaped(pids)

    @pytest.mark.parametrize("overrides", [SPLIT, RANDOM_ASYNC], ids=["adaptive", "random"])
    def test_world_is_freed_when_its_run_returns(self, overrides, monkeypatch):
        # without a garbage collection: a world kept alive by a cycle through
        # a lane would hold its pools and plans until the next one
        build_world, worlds = runner.build_world, []

        def keeping_a_weakref(cfg, seed):
            world = build_world(cfg, seed)
            worlds.append(weakref.ref(world))
            return world

        monkeypatch.setattr(runner, "build_world", keeping_a_weakref)
        gc.disable()
        try:
            one_seed_report(monkeypatch, overrides, 2)
            assert len(worlds) == 1 and worlds[0]() is None
        finally:
            gc.enable()

    def test_interrupt_reaps_the_run_ahead_lane(self, monkeypatch):
        parent, run_trials = os.getpid(), flcore.run_trials

        def interrupted(*args):
            if os.getpid() == parent:  # while the child trains its share
                raise KeyboardInterrupt
            return run_trials(*args)

        monkeypatch.setattr(flcore, "run_trials", interrupted)
        pids = fork_pids(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            one_seed_report(monkeypatch, RANDOM_ASYNC, 2)
        assert len(pids) == 1
        assert_reaped(pids)


# SPLIT with a probe cycle of four probes before every round after the first.
PROBING = {**SPLIT, "rounds_per_trial": 4, "eval_cadence": 1}
# Tuned dimensions that keep epochs fixed, so every probe costs the same.
EVEN = ["learning_rate", "weight_decay", "dropout"]
SPACE = config_from_dict(PROBING).search_space()
START = hpo.suggest_random(SPACE, 0)  # the config the probes step from


def probe_cycle(world, tuned, round_index=2):
    """One run_probe_cycle before round_index from fixed weights, under a
    fresh sampler of tuned: (record reprs, new config, extra time, reused
    pass), or the type and message of the exception it raised."""
    sampler = hpo.AdaptiveSampler(SPACE, tuned, 0.0, 0, 1, 4)
    state = flcore.RoundState(round_index, models.init_weights(world.model_spec, 0), START)
    records = []
    try:
        new, extra, reused = runner.run_probe_cycle(state, world.cohort(ids(world)), world,
                                                    0, sampler, records)
    except Exception as err:
        return type(err), str(err)
    return (tuple(map(repr, records)), repr(new), extra.hex(),
            reused and (reused[0].values.tobytes(), repr(reused[1])))


def failing_probes(monkeypatch, failing, make_error, log=None):
    """Make flcore.train_cohort raise make_error(i) for the probes failing
    (indices into the probe set of EVEN) of the cycle before round 2; with
    log, every pass appends its pid and config_id there."""
    world = runner.build_world(config_from_dict(PROBING), 1)
    probes = hpo.probe_set(SPACE, START, EVEN)
    ids = {probes[i].config_id: i for i in failing}
    real = flcore.train_cohort

    def train_cohort(world, global_w, config, cohort, j, *args):
        if log is not None:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {config.config_id}\n")
        if j == 2 and config.config_id in ids:
            raise make_error(ids[config.config_id])
        return real(world, global_w, config, cohort, j, *args)

    monkeypatch.setattr(flcore, "train_cohort", train_cohort)
    return world, probes


@pytest.mark.usefixtures("affinity_is_restored")
class TestProbeCycle:
    """A probe cycle trains, scores and records its probes in this process,
    one whole-cohort pass each in probe order, at any CPU count: a diverging
    probe scores +inf and writes no record, the first error in probe order
    is raised, and the reused pass is the chosen probe's."""

    @needs_two_cpus
    def test_two_cpus_fork_nothing_and_train_every_probe_here(self, monkeypatch):
        parent, train_cohort, here, there = os.getpid(), flcore.train_cohort, [], []

        def spy(world, global_w, config, cohort, j, seed_key, *args):
            (here if os.getpid() == parent else there).append(seed_key)
            return train_cohort(world, global_w, config, cohort, j, seed_key, *args)

        monkeypatch.setattr(flcore, "train_cohort", spy)
        pids = fork_pids(monkeypatch)
        alone = one_seed_report(monkeypatch, PROBING, 1)
        passes_alone, here[:] = list(here), []
        two_cpus = one_seed_report(monkeypatch, PROBING, 2)
        assert seed_report_key(two_cpus) == seed_report_key(alone)
        assert pids == [] and there == []
        probes = sum(1 for r in two_cpus.feedback_history if r.kind == "probe")
        assert probes and here == passes_alone and len(here) >= probes

    def test_every_probe_trains_the_whole_cohort_here_in_probe_order(self, tmp_path,
                                                                       monkeypatch):
        log, train_cohort = tmp_path / "passes", flcore.train_cohort

        def logging(world, global_w, config, cohort, *args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(cohort.members)} {config.config_id}\n")
            return train_cohort(world, global_w, config, cohort, *args)

        monkeypatch.setattr(flcore, "train_cohort", logging)
        world = runner.build_world(config_from_dict(PROBING), 1)
        n = len(world.clients)
        for tuned in (EVEN[:2], []):
            log.write_text("")
            records = probe_cycle(world, tuned)[0]
            assert len(records) == len(tuned) + 1  # every probe finished
            probes = hpo.probe_set(SPACE, START, tuned)
            assert [line.split() for line in log.read_text().splitlines()] == \
                [[str(os.getpid()), str(n), p.config_id] for p in probes]

    @pytest.mark.parametrize("diverging", [{0}, {1}, {2}, {3}, {0, 1}, {2, 3}, {0, 1, 2, 3}])
    def test_diverging_probes_score_inf_and_write_no_record(self, diverging, monkeypatch):
        world, probes = failing_probes(monkeypatch, diverging, lambda i: NumericDivergenceError(
            f"client 0 diverged in round 2: probe {i}", client_id=0, round_index=2))
        steps, step = [], hpo.AdaptiveSampler.step

        def recording_step(self, current, results):
            steps.append([(p.config_id, score) for p, score in results])
            return step(self, current, results)

        monkeypatch.setattr(hpo.AdaptiveSampler, "step", recording_step)
        sampler = hpo.AdaptiveSampler(SPACE, EVEN, 0.0, 0, 1, 4)
        state = flcore.RoundState(2, models.init_weights(world.model_spec, 0), START)
        records = []
        new, _, reused = runner.run_probe_cycle(state, world.cohort(ids(world)), world, 0,
                                                sampler, records)
        # the cycle went on past every diverging probe
        (scores,) = steps
        assert [c for c, _ in scores] == [p.config_id for p in probes]
        assert [i for i, (_, score) in enumerate(scores) if score == math.inf] == \
            sorted(diverging)
        assert [r.config_id for r in records] == \
            [p.config_id for i, p in enumerate(probes) if i not in diverging]
        assert all(r.kind == "probe" and math.isfinite(r.val_loss) for r in records)
        # the step adopts no diverged neighbor's move
        for i in diverging - {0}:  # probe 0 is the current config
            name = hpo.probe_target_of(START, probes[i])
            assert new.values[name] == START.values[name]
        # the reused pass is the new config's when it is a probe that finished
        if new.config_id in {p.config_id for i, p in enumerate(probes) if i not in diverging}:
            fresh = flcore.train_cohort(world, state.global_weights, new,
                                        world.cohort(ids(world)), 2,
                                        flcore.train_key(world, 0, 2))
            assert reused[0].values.tobytes() == fresh[0].values.tobytes()
            assert repr(reused[1]) == repr(fresh[1])
        else:
            assert reused is None

    @pytest.mark.parametrize("error", [FeedbackError, TwoArgError, UnpicklableError])
    @pytest.mark.parametrize("failing", [{0}, {1}, {2}, {3}, {1, 2}, {2, 3}, {0, 3}])
    def test_first_error_in_probe_order_is_raised(self, error, failing, tmp_path,
                                                  monkeypatch):
        log = tmp_path / "passes"
        world, probes = failing_probes(
            monkeypatch, failing,
            lambda i: error(f"boom at {i}") if error is FeedbackError else error(f"boom at {i}", i),
            log)
        assert probe_cycle(world, EVEN) == (error, f"boom at {min(failing)}")
        # no probe after the first error trained, and the next cycle trains every probe
        next_cycle = probe_cycle(world, EVEN, round_index=3)
        assert len(next_cycle[0]) == len(probes)
        ran = [line.split() for line in log.read_text().splitlines()]
        assert ran == [[str(os.getpid()), p.config_id]
                       for p in probes[:min(failing) + 1] + probes]

    @needs_two_cpus
    @pytest.mark.parametrize("error", [FeedbackError, TwoArgError, UnpicklableError])
    def test_error_in_any_probe_raises_like_one_cpu(self, error, monkeypatch):
        cfg, train_cohort = config_from_dict(PROBING), flcore.train_cohort
        sampler = hpo.AdaptiveSampler(SPACE, cfg["tuned"], cfg["epsilon"],
                                      derive_seed(1, "sampler"), 1, cfg["rounds_per_trial"])
        probes = sampler.probes(sampler.start_config(0))  # the first cycle's, before round 2
        pids = fork_pids(monkeypatch)
        for failing in (p.config_id for p in probes):

            def raising(world, global_w, config, cohort, j, *args):
                if (j, config.config_id) == (2, failing):
                    raise (error(f"boom at {failing}") if error is FeedbackError
                           else error(f"boom at {failing}", failing))
                return train_cohort(world, global_w, config, cohort, j, *args)

            monkeypatch.setattr(flcore, "train_cohort", raising)
            seen = {}
            for cpus in (1, 2):
                with pytest.raises(error) as info:
                    one_seed_report(monkeypatch, PROBING, cpus)
                seen[cpus] = type(info.value), str(info.value)
            assert seen[2] == seen[1] == (error, f"boom at {failing}")
        assert len(probes) > 1 and pids == []


CRITERION8_HALVING = {
    "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 2000,
                "class_sep": 3.0},
    "n_clients": 20, "alpha": 0.5, "model": {"kind": "mlp", "hidden_dim": 16},
    "sampler": "halving", "budget_configs": 2, "rounds_per_trial": 6, "eval_cadence": 3,
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
def test_cohort_passes_reuse_freed_memory():
    # run_experiment fixes glibc's mmap and trim thresholds, so a criterion-8
    # cohort pass takes the heap its predecessor freed instead of faulting
    # fresh pages in (about 240 minor faults per pass under glibc's defaults).
    # A fresh interpreter, since the arrays freed by earlier tests move
    # glibc's default thresholds.
    code = (
        "import resource\n"
        "from fedtune import config, flcore, runner\n"
        "runner._usable_cpus = lambda: 1\n"
        "train_cohorts, faults = flcore.train_cohorts, []\n"
        "def counted(*args, **kwargs):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    try:\n"
        "        return train_cohorts(*args, **kwargs)\n"
        "    finally:\n"
        "        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "flcore.train_cohorts = counted\n"
        f"cfg = config.config_from_dict({CRITERION8_HALVING!r})\n"
        "runner.run_experiment(cfg)  # the first call may grow the heap\n"
        "faults.clear()\n"
        "runner.run_experiment(cfg)\n"
        "print(*faults)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env_with_fedtune(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = [int(f) for f in done.stdout.split()]
    assert len(faults) == 9
    assert sum(faults) / len(faults) < 20, faults
