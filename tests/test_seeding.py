"""Keyed streams: a key's stream is PCG64 whose 128-bit state is the first
16 bytes of the key's SHA-256 digest and whose increment is the last 16,
OR 1, and common.seeded sets one reusable generator to its start. The
rule is checked against PCG64 set by hand from hashlib
(reference_run.stream), so it holds on any numpy version, where the
reference digests apply to one only; CI runs these with -W error.

A pass draws from its key's stream when it draws, so its draws depend on
its key alone: nothing is precomputed, held or carried in a request.
"""

import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest

from fedtune import data, flcore, models, runner, sched
from fedtune.common import derive_seed, seeded
from fedtune.config import config_from_dict

from reference_run import stream

KEYS = [(0,), (1,), (2**63 - 1,), ("rule", 7), (3, "train", 0, 1, 5),
        (3, "probe", 2, 4, "ab12cd34ef56ab78"), (-1, "time", 0, 0), ()]


class TestRule:
    @pytest.mark.parametrize("key", KEYS)
    def test_a_keyed_generator_draws_what_pcg64_set_from_the_digest_draws(self, key):
        for draw in (lambda g: g.permutation(37).tolist(),
                     lambda g: g.random((5, 3)).tobytes(),
                     lambda g: g.lognormal(0.0, np.array([0.0, 0.25, 0.8])).tobytes(),
                     lambda g: g.uniform(0.5, 2.0)):
            assert draw(seeded(*key)) == draw(stream(*key)), key

    @pytest.mark.parametrize("key", KEYS)
    def test_round_times_take_lognormals_jitters_and_leave_the_stream_where_it_does(self, key):
        # sigma 0 draws a jitter of exactly 1; sigma 400 overflows to inf for z > 1.78
        sigma = np.array([0.0, 0.3, 1.0, 0.0, 2.5, 0.05, 400.0, 0.8])
        base, scale = np.linspace(0.5, 3.5, 8), np.linspace(0.02, 1.4, 8)
        rng = seeded(*key)
        got = sched.completion_time(base, scale, sigma, 3, rng)
        after = rng.random(3)
        ref = stream(*key)
        expected = base * 3 * scale * ref.lognormal(0.0, sigma)
        assert got.tobytes() == expected.tobytes()
        assert after.tobytes() == ref.random(3).tobytes()

    def test_derive_seed_is_the_digests_first_63_bits(self):
        digest = hashlib.sha256(b"3|'data'").digest()
        assert derive_seed(3, "data") == int.from_bytes(digest[:8], "little") >> 1

    def test_each_call_restarts_the_one_generator(self):
        first = seeded(5)
        draws = first.random(4)
        second = seeded(6)
        assert second is first
        assert seeded(5).random(4).tobytes() == draws.tobytes()
        assert seeded(6).random(4).tobytes() != draws.tobytes()


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


def shard_batches(plans, i):
    """Shard i's batches in a plan list: (features, labels, uniforms) bytes."""
    out = []
    for plan in plans:
        for r in np.flatnonzero(plan.order == i):
            for t in range(len(plan.active)):
                if r < plan.active[t]:
                    e = plan.start[t] + r
                    out.append((plan.features[e].tobytes(), plan.labels[e].tobytes(),
                                None if plan.uniforms is None else plan.uniforms[e].tobytes()))
    return out


@pytest.mark.parametrize("batch_size", [1, 5, 32])
@pytest.mark.parametrize("spec", [models.ModelSpec("logistic", 4, 3),
                                  models.ModelSpec("mlp", 4, 3, hidden_dim=5)])
def test_a_shards_draws_depend_only_on_its_key(spec, batch_size):
    # alone, in a pool in another order, and beside other keys
    shards = engine_shards()
    keys = [(3, "train", 0, 1, i) for i in range(len(shards))]
    pool = models.pool_shards(spec.input_dim, shards)
    perm = [5, 0, 7, 2, 6, 1, 4, 3]
    shuffled = models.pool_shards(spec.input_dim, [shards[i] for i in perm])
    for epochs in range(3):
        for dropout in (False, True) if spec.kind == "mlp" else (False,):
            plans = models.plan_batches(spec, pool, keys, epochs, batch_size, dropout)
            others = models.plan_batches(spec, shuffled, [keys[i] for i in perm], epochs,
                                         batch_size, dropout)
            for i, shard in enumerate(shards):
                alone = models.plan_batches(spec, models.pool_shards(spec.input_dim, [shard]),
                                            [keys[i]], epochs, batch_size, dropout)
                assert shard_batches(plans, i) == shard_batches(alone, 0)
                assert shard_batches(others, perm.index(i)) == shard_batches(alone, 0)
            moved = models.plan_batches(spec, pool, [(*k[:-1], k[-1] + 1) for k in keys],
                                        epochs, batch_size, dropout)
            if epochs:
                assert [shard_batches(moved, i) for i in range(8)] != \
                    [shard_batches(plans, i) for i in range(8)]


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


@needs_cpus(2)
@pytest.mark.parametrize("run", RUNS)
def test_reports_are_equal_at_one_and_two_cpus(run, monkeypatch):
    cfg, reports = config_from_dict(RUNS[run]), []
    for cpus in (1, 2):
        monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
        reports.append(repr(runner.run_experiment(cfg).to_dict()))
    assert reports[0] == reports[1]


def readme_keys() -> dict:
    """README "Seeds": the keys drawn through common.seeded, by purpose
    (the key's second part): its parts' names."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Seeds", 1)[1].split("\n### ", 1)[0]
    seeded_part = section.split("common.seeded", 1)[1].split("default_rng", 1)[0]
    keys = re.findall(r'^- `\(([^)]*)\)`', seeded_part, re.M)
    return {parts.split(", ")[1].strip('"'): parts.split(", ") for parts in keys}


def test_each_readme_key_seeds_one_stream(monkeypatch):
    # Every key a run seeds has a purpose (its second part) and a length
    # that README "Seeds" lists, and every listed purpose is seeded.
    documented = readme_keys()
    assert set(documented) == {"latency", "shard-split", "calibration", "train", "time",
                               "probe"}
    seen = []

    def spy(*key):
        seen.append(key)
        return seeded(*key)

    for module in SEEDED:
        monkeypatch.setattr(module, "seeded", spy)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    for run in ("adaptive", "random"):
        runner.run_experiment(config_from_dict(RUNS[run]))
    for key in seen:
        assert key[1] in documented and len(key) == len(documented[key[1]]), key
    assert {key[1] for key in seen} == set(documented)
