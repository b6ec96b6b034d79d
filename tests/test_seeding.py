"""Batched seeding: common.pcg64_words maps a batch of seeds to the PCG64
states np.random.default_rng starts from, and common.seeded sets one
reusable generator to such a state. These tests compare against numpy
itself, so they hold on any numpy version, where the reference digests
apply to one only; run with -W error, a uint32 overflow warning fails them.

Every consumer computes its words in batches: a world's latencies, shard
splits and calibration times in one call each, a trial's passes and round
times in one call per evaluation and cohort, in the process that runs the
trial, and a run-ahead dry dispatch's round times in one call. A probe
helper computes none: each request carries the cohort's rows. No word is
computed for a round that no pass reads.
"""

import ast
import os
from collections import defaultdict

import numpy as np
import pytest

from fedtune import data, flcore, models, runner
from fedtune.common import derive_seed, pcg64_words, seeded
from fedtune.config import config_from_dict

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def words_of(seed):
    """seed's pcg64_words row, as ints."""
    return pcg64_words([seed])[0].tolist()


class TestKernel:
    def test_states_equal_numpys_at_the_edges_and_on_derived_seeds(self):
        seeds = EDGE_SEEDS + [derive_seed("kernel", i) for i in range(10_000)]
        words = pcg64_words(seeds)
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for seed, (lo, hi, inc_lo, inc_hi) in zip(seeds, words.tolist()):
            state = np.random.PCG64(seed).state
            assert state["state"] == {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}, seed
            assert seeded(words_of(seed)).bit_generator.state == state

    def test_a_row_does_not_depend_on_its_batch(self):
        seeds = EDGE_SEEDS + [derive_seed("batch", i) for i in range(50)]
        alone = np.array([words_of(s) for s in seeds], dtype=np.uint64)
        assert pcg64_words(seeds).tobytes() == alone.tobytes()
        assert pcg64_words(seeds[::-1]).tobytes() == alone[::-1].tobytes()
        assert pcg64_words([]).shape == (0, 4)

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [derive_seed("draws", 0)])
    def test_a_seeded_generator_draws_what_default_rng_draws(self, seed):
        row = pcg64_words([seed])[0]
        for words in (row, row.tolist()):  # an array row or a list
            expected, got = np.random.default_rng(seed), seeded(words)
            a, b = np.arange(37), np.arange(37)
            expected.shuffle(a)
            got.shuffle(b)
            assert a.tolist() == b.tolist()
            x, y = np.empty((5, 3)), np.empty((5, 3))
            expected.random(out=x)
            got.random(out=y)
            assert x.tobytes() == y.tobytes()
            sigma = np.array([0.0, 0.25, 0.8])
            assert expected.lognormal(0.0, sigma).tobytes() == got.lognormal(0.0, sigma).tobytes()

    def test_each_call_restarts_the_one_generator(self):
        first = seeded(words_of(5))
        draws = first.random(4)
        second = seeded(words_of(6))
        assert second is first
        assert seeded(words_of(5)).random(4).tobytes() == draws.tobytes()


def on_default_rng(monkeypatch, path, *modules):
    """Make common.seeded, as each of modules calls it, return
    np.random.default_rng of the seed whose words it is given: the
    member-by-member seeding the kernel replaces. Each process keeps a
    table of the words its pcg64_words calls computed, and every call also
    appends them to the file path, where a process looks up words another
    process computed, as a helper does for the rows a request carries."""
    seeds = {}

    def kernel(batch):
        words = pcg64_words(batch)
        computed = dict(zip(map(tuple, words.tolist()),
                            np.asarray(batch, dtype=np.uint64).tolist()))
        seeds.update(computed)
        with open(path, "ab", buffering=0) as fh:  # one write per call
            fh.write("".join(" ".join(map(str, (*w, s))) + "\n"
                             for w, s in computed.items()).encode())
        return words

    def default_rng(words):
        words = tuple(words.tolist() if isinstance(words, np.ndarray) else words)
        if words not in seeds:
            for line in path.read_text().splitlines():
                *w, s = map(int, line.split())
                seeds[tuple(w)] = s
        return np.random.default_rng(seeds[words])

    for module in modules:
        monkeypatch.setattr(module, "pcg64_words", kernel)
        monkeypatch.setattr(module, "seeded", default_rng)


def engine_shards():
    """Ragged shards: with batch_size 5 and 32 they pad to 2 and 3 widths;
    two have a single training row, one has no validation rows."""
    rng = np.random.default_rng(0)
    shards = []
    for n_train, n_val in ((5, 7), (17, 3), (16, 20), (40, 9), (9, 0), (2, 4), (1, 1), (1, 2)):
        x = rng.standard_normal((n_train + n_val, 4))
        y = rng.integers(0, 3, n_train + n_val)
        shards.append((x[:n_train], y[:n_train], x[n_train:], y[n_train:]))
    return shards


def plan_bytes(plans):
    return [[None if a is None else (a.shape, a.tobytes()) for a in vars(plan).values()]
            for plan in plans]


@pytest.mark.parametrize("batch_size", [1, 5, 32])
@pytest.mark.parametrize("spec", [models.ModelSpec("logistic", 4, 3),
                                  models.ModelSpec("mlp", 4, 3, hidden_dim=5)])
def test_plans_from_words_equal_plans_drawn_on_default_rng(spec, batch_size, monkeypatch,
                                                           tmp_path):
    pool = models.pool_shards(spec.input_dim, engine_shards())
    widths = {models._padded_width(n, batch_size) for n in pool.sizes.tolist()}
    assert len(widths) == (1 if batch_size == 1 else 2 if batch_size == 5 else 3)
    seeds = [derive_seed("plan", i) for i in range(len(pool.sizes))]
    for epochs in range(4):
        for dropout in (False, True) if spec.kind == "mlp" else (False,):
            with monkeypatch.context() as patch:
                on_default_rng(patch, tmp_path / "seeds", models)
                expected = models.plan_batches(spec, pool, models.pcg64_words(seeds), epochs,
                                               batch_size, dropout)
            got = models.plan_batches(spec, pool, pcg64_words(seeds), epochs, batch_size, dropout)
            assert plan_bytes(got) == plan_bytes(expected)


SEEDED = (data, models, flcore, runner)
WORLD = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6, "n": 360,
                "class_sep": 3.0},
    "n_clients": 5,
    "alpha": 0.5,
    "model": {"kind": "mlp", "hidden_dim": 6},
    "hp_defaults": {"dropout": 0.2},
    "seeds": [3],
}
RUNS = {
    # rungs (4, 1), (2, 2), (1, 4): rungs 2 and 3 resume their trials
    "halving": {**WORLD, "sampler": "halving", "budget_configs": 4, "rounds_per_trial": 6,
                "eval_cadence": 2},
    # a probe cycle before rounds 3 and 5 of each trial
    "adaptive": {**WORLD, "sampler": "adaptive", "budget_configs": 2, "rounds_per_trial": 6,
                 "eval_cadence": 2},
    # run ahead in lanes on two CPUs, on groups a dry dispatch predicts
    "random": {**WORLD, "sampler": "random", "grouping": {"mode": "async"},
               "budget_configs": 5, "rounds_per_trial": 3, "eval_cadence": 3},
}


def needs_cpus(n):
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1
    return pytest.mark.skipif(usable < n or not hasattr(os, "fork"),
                              reason=f"needs {n} usable CPUs and os.fork")


def report_bytes(cfg):
    return repr(runner.run_experiment(cfg).to_dict())


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_cpus(2))])
@pytest.mark.parametrize("run", RUNS)
def test_reports_equal_runs_seeded_member_by_member(run, cpus, monkeypatch, tmp_path):
    cfg = config_from_dict(RUNS[run])
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    got = report_bytes(cfg)
    on_default_rng(monkeypatch, tmp_path / "seeds", *SEEDED)
    assert report_bytes(cfg) == got


def test_a_world_takes_each_kind_of_words_in_one_call(monkeypatch):
    cfg = config_from_dict({**RUNS["random"], "n_clients": 40, "dataset": {"n": 2000}})
    calls = []
    for module in (data, runner):
        monkeypatch.setattr(module, "pcg64_words",
                            lambda seeds: calls.append(list(seeds)) or pcg64_words(seeds))
    world = runner.build_world(cfg, 3)
    runner.make_groups(cfg, world, 3)
    cids, partition = range(40), derive_seed(3, "partition")
    assert calls == [[derive_seed(partition, "shard-split", i) for i in cids],
                     [derive_seed(3, "latency", i) for i in cids],
                     [derive_seed(3, "calibration", i) for i in cids]]


class KernelLog:
    """Which rounds each process computes words for, and which it reads
    after that: every flcore kernel call is logged with its rounds, and
    every pass (flcore.train_cohorts) and round time drawn
    (flcore.cohort_time) with its round once it is done. Lines go to a
    file, so helpers and lanes log too."""

    def __init__(self, monkeypatch, path, cfg, seed):
        self.path = path
        rounds, n = int(cfg["rounds_per_trial"]), int(cfg["n_clients"])
        trials = range(int(cfg["budget_configs"]))
        self.round_of = {derive_seed(seed, kind, t, j, *client): (t, j)
                         for kind, clients in (("train", [(i,) for i in range(n)]),
                                               ("time", [()]))
                         for t in trials for j in range(1, rounds + 1) for client in clients}
        kernel, train_cohorts, cohort_time = (flcore.pcg64_words, flcore.train_cohorts,
                                              flcore.cohort_time)

        def logged_kernel(seeds):
            self.write("words", sorted({self.round_of.get(s, ("?", s)) for s in seeds}))
            return kernel(seeds)

        def logged_pass(world, passes, *args):
            out = train_cohorts(world, passes, *args)
            self.write("pass", [p[4][2:] for p in passes])
            return out

        def logged_time(cohort, epochs, seed_key, words=None):
            out = cohort_time(cohort, epochs, seed_key, words)
            if seed_key[1] == "time":
                self.write("time", [seed_key[2:]])
            return out

        monkeypatch.setattr(flcore, "pcg64_words", logged_kernel)
        monkeypatch.setattr(flcore, "train_cohorts", logged_pass)
        monkeypatch.setattr(flcore, "cohort_time", logged_time)

    def write(self, what, rounds):
        with open(self.path, "a") as fh:
            fh.write(f"{os.getpid()} {what} {rounds!r}\n")

    def read(self):
        """pid -> [(rounds of a kernel call, rounds that process read after it)]."""
        events = defaultdict(list)
        for line in self.path.read_text().splitlines():
            pid, what, rounds = line.split(" ", 2)
            events[int(pid)].append((what, {tuple(r) for r in ast.literal_eval(rounds)}))
        return {pid: [(rounds, set().union(*(r for w, r in seen[i + 1:] if w != "words")))
                      for i, (what, rounds) in enumerate(seen) if what == "words"]
                for pid, seen in events.items()}


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_cpus(2))])
@pytest.mark.parametrize("run", RUNS)
def test_no_word_is_computed_for_a_round_no_pass_reads(run, cpus, monkeypatch, tmp_path):
    cfg = config_from_dict(RUNS[run])
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    log = KernelLog(monkeypatch, tmp_path / "log", cfg, 3)
    evaluations = []
    run_trial = flcore.run_trial
    monkeypatch.setattr(flcore, "run_trial", lambda *args, **kw: evaluations.append(
        os.getpid()) or run_trial(*args, **kw))
    (sr,) = runner.run_experiment(cfg).per_seed
    assert not any(t.failed for t in sr.trials)
    processes = log.read()
    for pid, calls in processes.items():
        for rounds, read_after in calls:
            assert rounds and rounds <= read_after, (pid, rounds - read_after)
    calls, evaluated = {pid: len(c) for pid, c in processes.items()}, len(sr.events) // 2
    if run == "random" and cpus == 2:
        # one call per lane, for its share's wave, and one per evaluation
        # dispatch runs again inline here
        assert calls.pop(os.getpid()) == 1 + len(evaluations)
        assert list(calls.values()) == [1]
    elif run == "random":  # one call per evaluation
        assert calls == {os.getpid(): evaluated} and len(evaluations) == evaluated
    else:  # this process ran every evaluation, one call each
        assert calls.pop(os.getpid()) == len(evaluations) == evaluated
        # adaptive search's helper trains probes on the rows its requests
        # carry, and computes none; halving starts no helper
        assert list(calls.values()) == ([0] if cpus == 2 and run == "adaptive" else [])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_dry_dispatch_takes_every_round_time_in_one_call(monkeypatch):
    cfg = config_from_dict(RUNS["random"])
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    calls = []
    real = runner.pcg64_words
    monkeypatch.setattr(runner, "pcg64_words", lambda seeds: calls.append(
        list(seeds)) or real(seeds))
    runner._run_seed(cfg, 3, 2)
    rounds = range(1, int(cfg["rounds_per_trial"]) + 1)
    assert calls[-1] == [derive_seed(3, "time", e, j)
                         for e in range(int(cfg["budget_configs"])) for j in rounds]
    assert len(calls) == 3  # and one each for the latencies and calibration times
