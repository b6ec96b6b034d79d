"""run_experiment's seeds run in lanes (fedtune.lanes: this process and
helpers, each pinned to a CPU of its own) when there is more than one seed
and more than one usable CPU, with the same reports, files and errors as
running them one after another. And the runner's continuation rule: an
evaluation continues the latest committed one of its trial key, which
random and adaptive search never repeat. And a one-seed random search,
which reads no feedback, runs every evaluation ahead in lanes, on the
group a dry dispatch of simulated durations predicts, with the same report
and errors as inline. And a one-seed adaptive search splits every probe
cycle with one helper, with the same report and errors as inline, while a
one-seed halving search forks nothing."""

import contextlib
import gc
import hashlib
import io
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


def call(fn, *args):
    """fn(*args): a request to a helper bound to fn."""
    return fn(*args)


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
        assert len(pids) == 4  # and each one-seed run one helper
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


def dispatches(monkeypatch):
    """One list per sched.dispatch call from now on, of [eval index, group id,
    duration] for each evaluation it issued; a one-seed random run at two
    CPUs makes a dry call, whose durations are predicted, before the one
    that runs evaluations. Evaluation e is listed before it runs, so one
    that raises is listed without a duration."""
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
    sched.dispatch: every one at one CPU; with lanes, which run before
    dispatch, only the ones computed again inline."""
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
    """A one-seed random run computes every evaluation in lanes before
    dispatch, on the group a dry dispatch predicts, with the same report."""

    @needs_two_cpus
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

    def test_dry_schedule_equals_one_cpu_issues_and_durations(self, monkeypatch):
        # The predicted duration is the sum of the rounds' cohort times under
        # run_trial's time keys; a change to either key shows here.
        calls, waves = dispatches(monkeypatch), []
        for seed in (1 + 1000 * k for k in range(8)):
            calls.clear()
            alone = one_seed_report(monkeypatch, {**WIDE_ASYNC, "seeds": [seed]}, 1)
            laned = one_seed_report(monkeypatch, {**WIDE_ASYNC, "seeds": [seed]}, 2)
            one_cpu, dry, ran = calls
            assert [(e, g) for e, g, _ in dry] == [(e, g) for e, g, _ in one_cpu]
            assert [d for _, _, d in dry] == [alone.trials[e].sim_time for e, _, _ in dry]
            assert ran == one_cpu
            assert seed_report_key(laned) == seed_report_key(alone)
            waves.append(len({g for _, g, _ in dry}))
        assert 1 < min(waves) and max(waves) < WIDE_ASYNC["budget_configs"]

    @needs_two_cpus
    def test_zero_duration_evaluations_are_foreseen(self, monkeypatch):
        pids = fork_pids(monkeypatch)
        inline = inline_evals(monkeypatch)
        alone = one_seed_report(monkeypatch, CRITERION7, 1)
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
    def test_only_the_sampler_that_probes_forks_a_helper(self, sampler, monkeypatch):
        pids = fork_pids(monkeypatch)
        overrides = {**TINY, "sampler": sampler, "budget_configs": 3, "seeds": [1]}
        alone = one_seed_report(monkeypatch, overrides, 1)
        assert pids == []
        split = one_seed_report(monkeypatch, overrides, 2)
        # adaptive search's probe helper; halving runs inline, with no run-ahead lanes
        assert len(pids) == (sampler == "adaptive")
        assert_reaped(pids)
        assert seed_report_key(split) == seed_report_key(alone)

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
    # and those it has committed
    # (the dispatch that runs evaluations is the last; at two CPUs a dry one
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
        for cpus in (1, 2):
            calls.clear()
            committed.clear()
            with pytest.raises(error) as info:
                one_seed_report(monkeypatch, RANDOM_ASYNC, cpus)
            assert len(calls) == cpus
            issued = [ran[0] for ran in calls[-1]]
            seen[cpus] = (type(info.value), str(info.value), issued, list(committed))
        assert seen[2] == seen[1]
        assert str(failing) in seen[1][1] and seen[1][2] == list(range(failing + 1))


@pytest.mark.usefixtures("affinity_is_restored")
class TestRunJobs:
    """lanes.run_jobs runs each share but this process's in a pinned helper,
    as the request (fn, *args, share) it answers with fn(bound, *args,
    share), and merges the replies."""

    @needs_cpus(3)
    def test_three_lanes_run_on_three_pinned_cpus(self, monkeypatch):
        def run(key):
            return key * key, os.getpid(), frozenset(os.sched_getaffinity(0))

        cpus, jobs = sorted(os.sched_getaffinity(0)), dict.fromkeys([1, 2, 3])
        pids = fork_pids(monkeypatch)
        with lanes.helpers(run, 3) as started:
            done = lanes.run_jobs(started, run, jobs, lambda k: 1, lanes.run_each)
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
        with lanes.helpers(run, 2) as started:
            done = lanes.run_jobs(started, run, dict.fromkeys(range(4)), lambda k: 1,
                                  lanes.run_each)
        assert len(pids) == 1
        assert_reaped(pids)
        # the shares are [0, 2] and [1, 3]; the helper's whole share runs again here
        assert ran_here == [0, 2, 1, 3]
        assert [done[k] for k in range(3)] == [0, 1, 4]
        assert (type(done[3]), str(done[3])) == (UnpicklableError, "boom at 3")


# Six clients and one seed; PROBING (below) adds a probe cycle before rounds 2-4.
SPLIT = {**TINY, "dataset": {**TINY["dataset"], "n": 600}, "n_clients": 6, "seeds": [1]}


def failing_setaffinity(which):
    """os.sched_setaffinity, failing for this process (pid 0) or for the helper."""
    setaffinity = os.sched_setaffinity

    def failing(pid, cpus):
        if (pid == 0) == (which == "this process"):
            raise OSError(22, "Invalid argument")
        return setaffinity(pid, cpus)

    return failing


@needs_two_cpus
@pytest.mark.usefixtures("affinity_is_restored")
class TestHelper:
    """A one-seed adaptive search trains one share of every probe cycle in a
    pinned helper lane, with the same report and errors as inline, and
    leaves this process's CPU affinity as it found it."""

    def test_shares_train_on_two_pinned_cpus(self, monkeypatch):
        cpus = sorted(os.sched_getaffinity(0))
        alone = one_seed_report(monkeypatch, PROBING, 1)
        parent, train_cohort, seen = os.getpid(), flcore.train_cohort, set()

        def spy(world, *args):
            if os.getpid() == parent and world.helpers and world.helpers[0].busy:
                seen.add((frozenset(os.sched_getaffinity(0)),
                          frozenset(os.sched_getaffinity(world.helpers[0].pid))))
            return train_cohort(world, *args)

        monkeypatch.setattr(flcore, "train_cohort", spy)
        split = one_seed_report(monkeypatch, PROBING, 2)
        assert seed_report_key(split) == seed_report_key(alone)
        # this process trains its probes while the helper trains the others
        assert seen == {(frozenset(cpus[:1]), frozenset(cpus[1:2]))}

    @pytest.mark.parametrize("sampler", ["halving", "random", "adaptive"])
    def test_each_request_carries_the_rounds_key_and_no_words(self, sampler, monkeypatch):
        # Every run forks one helper and sends it requests of one form,
        # (fn, *args, share), which pickle no world: two seeds of halving send
        # the seed lane its seed, one seed of random search sends the run-ahead
        # lane its wave, and one seed of adaptive search runs a probe cycle
        # before rounds 2-4 and sends a probe share of each.
        overrides = {"halving": {**SPLIT, "sampler": "halving", "seeds": [1, 2]},
                     "random": RANDOM_ASYNC, "adaptive": PROBING}[sampler]
        fn = {"halving": runner._run_seeds, "random": runner._run_wave,
              "adaptive": runner._train_probes}[sampler]
        requests, send = [], lanes.Helper.send

        def recording_send(helper, *request):
            requests.append(request)
            return send(helper, *request)

        monkeypatch.setattr(lanes.Helper, "send", recording_send)
        pids = fork_pids(monkeypatch)
        one_seed_report(monkeypatch, overrides, 2)
        assert len(pids) == 1
        assert_reaped(pids)
        assert requests and all(request[0] is fn and isinstance(request[-1], dict)
                                for request in requests)
        assert flcore.ExperimentWorld not in pickled_types(requests)
        if sampler == "halving":
            assert requests == [(fn, {2: None})]
        elif sampler == "random":
            (_, cfg, seed, share), = requests
            assert (cfg["sampler"], seed) == ("random", 1)
            assert all(plan[2] is None for _, _, plan in share.values())  # no walk
        else:
            ids, rounds = tuple(range(SPLIT["n_clients"])), []
            for _, w, members, j, key, _ in requests:  # the whole cohort, the cycle's key
                assert isinstance(w, models.WeightVector) and members == ids
                assert key == (1, "train", key[2], j)  # the helper draws each stream itself
                rounds.append(key[2:])  # (trial, round)
            assert rounds == [(t, j) for t in range(overrides["budget_configs"])
                              for j in range(2, overrides["rounds_per_trial"] + 1)]

    @pytest.mark.parametrize("which", ["this process", "the helper"])
    def test_failing_sched_setaffinity_runs_inline(self, which, monkeypatch):
        alone = one_seed_report(monkeypatch, SPLIT, 1)
        monkeypatch.setattr(os, "sched_setaffinity", failing_setaffinity(which))
        pids = fork_pids(monkeypatch)
        inline = one_seed_report(monkeypatch, SPLIT, 2)
        assert seed_report_key(inline) == seed_report_key(alone)
        assert len(pids) == (which == "the helper")  # pinned after the fork
        assert_reaped(pids)

    def test_world_is_freed_when_its_run_returns(self, monkeypatch):
        # without a garbage collection: a world kept alive by a cycle through
        # its helper would hold its pools and plans until the next one
        build_world, worlds = runner.build_world, []

        def keeping_a_weakref(cfg, seed):
            world = build_world(cfg, seed)
            worlds.append(weakref.ref(world))
            return world

        monkeypatch.setattr(runner, "build_world", keeping_a_weakref)
        gc.disable()
        try:
            one_seed_report(monkeypatch, SPLIT, 2)
            assert len(worlds) == 1 and worlds[0]() is None
        finally:
            gc.enable()

    def test_interrupt_reaps_helper(self, monkeypatch):
        parent, train_cohort = os.getpid(), flcore.train_cohort

        def interrupted(world, *args):
            if os.getpid() == parent and world.helpers[0].busy:  # while the helper trains its share
                raise KeyboardInterrupt
            return train_cohort(world, *args)

        monkeypatch.setattr(flcore, "train_cohort", interrupted)
        pids = fork_pids(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            one_seed_report(monkeypatch, PROBING, 2)
        assert len(pids) == 1
        assert_reaped(pids)

    @pytest.mark.parametrize("error", [FeedbackError, TwoArgError, UnpicklableError])
    def test_error_in_either_share_raises_like_one_cpu(self, error, monkeypatch):
        cfg, train_cohort = config_from_dict(PROBING), flcore.train_cohort
        sampler = hpo.AdaptiveSampler(SPACE, cfg["tuned"], cfg["epsilon"],
                                      derive_seed(1, "sampler"), 1, cfg["rounds_per_trial"])
        probes = sampler.probes(sampler.start_config(0))  # the first cycle's, before round 2
        pids = fork_pids(monkeypatch)
        for failing in (p.config_id for p in probes):  # in either share

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
        assert len(pids) == len(probes) > 1
        assert_reaped(pids)


@needs_two_cpus
@pytest.mark.usefixtures("affinity_is_restored")
class TestReceive:
    """Helper.receive is the one place a reply is read, and a helper with a
    request out is busy: another request to it raises."""

    def test_reply_that_does_not_unpickle_is_computed_here(self, monkeypatch):
        parent, busy_here, started = os.getpid(), [], []

        def serve(x):
            if os.getpid() == parent:
                busy_here.append(started[0].busy)
            return os.getpid(), TwoArgError(f"made for {x}", x)  # pickles, never unpickles

        pids = fork_pids(monkeypatch)
        with lanes.helpers(serve, 2) as helpers:
            started += helpers
            started[0].send(call, 7)
            reply = started[0].receive()
            assert reply is not None
            assert not started[0].busy
        assert_reaped(pids)
        pid, err = reply
        assert (pid, type(err), str(err)) == (parent, TwoArgError, "made for 7")
        assert busy_here == [True]  # computed here while the request was still out

    def test_send_to_a_busy_helper_and_receive_from_an_idle_one_raise(self, monkeypatch):
        # either would leave a reply unread, or wait for one that never comes
        pids = fork_pids(monkeypatch)
        with lanes.helpers(lambda x: x * x, 2) as (helper,):
            with pytest.raises(FedTuneError, match="^a reply was awaited from an idle worker"):
                helper.receive()
            helper.send(call, 3)
            with pytest.raises(FedTuneError, match="^a request was sent to a busy worker"):
                helper.send(call, 4)
            assert helper.receive() == 9 and not helper.busy
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


@contextlib.contextmanager
def probe_helper(world):
    """world with its helper started, as a one-seed adaptive search has it."""
    with lanes.helpers(world, 2) as world.helpers:
        assert len(world.helpers) == 1
        yield world


def failing_probes(monkeypatch, failing, make_error, log=None):
    """Make flcore.train_cohort raise make_error(i) for the probes failing
    (indices into the probe set of EVEN) of the cycle before round 2, in
    either lane; with log, every pass appends its pid and config_id there."""
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


@needs_two_cpus
@pytest.mark.usefixtures("affinity_is_restored")
class TestProbeLanes:
    """With a helper, a cycle of two or more probes is split by probe: each
    lane trains whole-cohort passes of its probes, with one request to the
    helper, and the cycle's records, step, errors and reused pass are those
    of one CPU."""

    def test_report_equals_one_cpu_run(self, monkeypatch):
        parent, train_cohort, here = os.getpid(), flcore.train_cohort, []

        def spy(world, global_w, config, cohort, j, seed_key, *args):
            if os.getpid() == parent:
                here.append(seed_key)
            return train_cohort(world, global_w, config, cohort, j, seed_key, *args)

        monkeypatch.setattr(flcore, "train_cohort", spy)
        pids = fork_pids(monkeypatch)
        alone = one_seed_report(monkeypatch, PROBING, 1)
        here_alone, here[:] = len(here), []
        laned = one_seed_report(monkeypatch, PROBING, 2)
        assert seed_report_key(laned) == seed_report_key(alone)
        # here, only this process's probes trained
        assert 0 < len(here) < here_alone
        assert len(pids) == 1
        assert_reaped(pids)

    def test_three_probes_split_two_one_and_one_probe_trains_here(self, tmp_path,
                                                                  monkeypatch):
        log, train_cohort = tmp_path / "passes", flcore.train_cohort

        def logging(world, global_w, config, cohort, *args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(cohort.members)}\n")
            return train_cohort(world, global_w, config, cohort, *args)

        monkeypatch.setattr(flcore, "train_cohort", logging)
        world = runner.build_world(config_from_dict(PROBING), 1)
        n = len(world.clients)
        for tuned, here, there in [(EVEN[:2], [n, n], [n]), ([], [n], [])]:
            alone = probe_cycle(world, tuned)
            assert len(alone[0]) == len(tuned) + 1  # every probe finished
            log.write_text("")
            with probe_helper(world) as laned:
                assert probe_cycle(laned, tuned) == alone
                helper = laned.helpers[0].pid
            passes = [line.split() for line in log.read_text().splitlines()]
            mine = [int(size) for pid, size in passes if int(pid) == os.getpid()]
            theirs = [int(size) for pid, size in passes if int(pid) == helper]
            assert (mine, theirs) == (here, there)

    @pytest.mark.parametrize("diverging", [{0}, {1}, {2}, {3}, {0, 1}, {2, 3}, {0, 1, 2, 3}])
    def test_diverging_probes_give_the_records_and_step_of_one_cpu(self, diverging,
                                                                   monkeypatch):
        assert lanes.split(range(4), lambda i: 1, 2) == [[0, 2], [1, 3]]  # mine, the helper's
        world, _ = failing_probes(monkeypatch, diverging, lambda i: NumericDivergenceError(
            f"client 0 diverged in round 2: probe {i}", client_id=0, round_index=2))
        alone = probe_cycle(world, EVEN)
        with probe_helper(world) as laned:
            assert probe_cycle(laned, EVEN) == alone
        assert len(alone[0]) == 4 - len(diverging)

    @pytest.mark.parametrize("error", [FeedbackError, TwoArgError, UnpicklableError])
    @pytest.mark.parametrize("failing", [{0}, {1}, {2}, {3}, {1, 2}, {2, 3}, {0, 3}])
    def test_error_in_either_share_raises_like_one_cpu(self, error, failing, tmp_path,
                                                        monkeypatch):
        log = tmp_path / "passes"
        world, probes = failing_probes(
            monkeypatch, failing,
            lambda i: error(f"boom at {i}") if error is FeedbackError else error(f"boom at {i}", i),
            log)
        alone = probe_cycle(world, EVEN), probe_cycle(world, EVEN, round_index=3)
        assert alone[0] == (error, f"boom at {min(failing)}")
        log.write_text("")
        with probe_helper(world) as laned:
            # the helper's reply is taken, so the next cycle gets its own
            assert (probe_cycle(laned, EVEN), probe_cycle(laned, EVEN, round_index=3)) == alone
            helper = laned.helpers[0].pid
        ran = [line.split() for line in log.read_text().splitlines()]
        first_cycle = ran[:len(ran) - 4]  # the second cycle trains each probe once
        theirs = [c for i, c in enumerate(p.config_id for p in probes) if i % 2]
        rerun = error is not FeedbackError and failing & {1, 3}
        # a reply that does not pickle or unpickle: the helper's share runs again here
        assert any(pid == str(os.getpid()) and c in theirs for pid, c in first_cycle) == \
            bool(rerun)
        assert any(pid == str(helper) for pid, _ in first_cycle)

    def test_helper_killed_in_a_probe_request_exits_3(self, tmp_path, monkeypatch, capsys):
        parent, train_cohort = os.getpid(), flcore.train_cohort

        def dying(*args):
            # a helper trains only probes, so it dies in its first probe request
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_cohort(*args)

        monkeypatch.setattr(flcore, "train_cohort", dying)
        usable_cpus(monkeypatch, 2)
        pids = fork_pids(monkeypatch)
        path = write_config(tmp_path, **PROBING)
        assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert "error: a worker process died" in capsys.readouterr().err
        assert len(pids) == 1
        assert_reaped(pids)


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
