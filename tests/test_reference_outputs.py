"""Random, adaptive and halving search write the same bytes as before the
runner drove all three samplers through one protocol. Random was pinned
before successive halving learned to continue promoted configs, and
halving (two seeds) just after; neither change may move these outputs,
and neither may the number of usable CPUs. Adaptive was re-pinned when the probe cycle moved to
the top of the round it steers, its probes took that round's training
key and the round began reusing the chosen probe's pass: the makespan
fell from 464.11 to 288.93 simulated seconds, trial 0's row now names
the config that trained its final round, and trial 1's objective moved
from 0.260512 to 0.262451; the best trial, its curve and its weights are
unchanged. Halving on the criterion-8 world was pinned before a run fixed
glibc's allocator thresholds: its passes build arrays over 128 KiB
where the worlds above build a few KB, so where those arrays live changed,
and the bytes may not.

All twelve were re-recorded when every per-pass and per-client stream
came to be keyed straight from its key's SHA-256 digest (README "Seeds"):
every batch order, dropout draw, jitter, latency and shard split moved.
The best configs stayed those of before except adaptive's (1d107c06 at
0.8143 became 197c43a3 at 0.9000); tests/test_reference_run.py checks the
new outputs' meaning against a plain reference.

The reference SHA-256 digests were recorded with numpy 2.4.6 on x86-64.
Floating-point results, and so the bytes, can differ under another numpy
or platform, where the digests do not apply.
"""

import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedtune import cli, runner

OUTPUT_FILES = ("trials.csv", "curves.csv", "report.json", "events.jsonl",
                "best_weights.json")

BASE = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6,
                "n": 400, "class_sep": 3.0},
    "n_clients": 6,
    "alpha": 0.5,
    "model": {"kind": "mlp", "hidden_dim": 8},
    "budget_configs": 3,
    "rounds_per_trial": 6,
    "eval_cadence": 2,
    "early_stop_patience": 1,
    "seeds": [1],
}
CONFIGS = {
    "random": {**BASE, "sampler": "random", "grouping": {"mode": "async", "window": "auto"}},
    "adaptive": {**BASE, "sampler": "adaptive"},
    # rungs (5, 1), (3, 2), (2, 4), (1, 6); two seeds, in two lanes on two CPUs
    "halving": {**BASE, "sampler": "halving", "budget_configs": 5, "seeds": [1, 2]},
    # the criterion-8 world: whole 20-client cohorts, each pass in the seed's own lane
    "halving-criterion8": {
        "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16, "n": 2000,
                    "class_sep": 3.0},
        "n_clients": 20,
        "alpha": 0.5,
        "model": {"kind": "mlp", "hidden_dim": 16},
        "sampler": "halving",
        "budget_configs": 2,
        "rounds_per_trial": 6,
        "eval_cadence": 3,
        "seeds": [1, 2],
    },
}
REFERENCE = {
    "random": {
        "trials.csv": "dab5ed06618b4e945104f3f8756a87fad0182dee5a9d8aad70c33848e6b13766",
        "curves.csv": "d792864b154b65e49a01df4a81b700593900ccebfd8405dee81d93bd58d81e07",
        "report.json": "d6b87bdf1d654aa6d19c7ad48aa4b2c37fd2aaa6f29ab674b4a1846c35d96977",
        "events.jsonl": "c8e2a49c81706fe7b9c515f434cc7c3015b9b575dbf20ad2b22e42a36840782c",
        "best_weights.json": "952e11194155cbe11c5818641afa77e9f1ec55ce05683eca3446246820a5be03",
    },
    "adaptive": {
        "trials.csv": "2d3bbba13bb707112f9bff1219964d6f25dea148aba30473ae64b2dd2832f00b",
        "curves.csv": "9dc5a45c5c3a4626fc744a64a65e426907f73ffa03f41a6e8a7ba0977735303a",
        "report.json": "93ed397ef08f5038bdcfdb0e5f493fbe39e13233538be4a71eb836ba37838124",
        "events.jsonl": "56cedeb19f8261a52b295647859ae9417b5fb831d116e6c067bb8adff430cc94",
        "best_weights.json": "3c479d9eb954cc6c1147619ff5e319be3c6135e7562053ac02995751b8ffb82e",
    },
    "halving": {
        "trials.csv": "59034a9e2eed4e934b99379623d491a5fb3f9e4f21db302365d2e431084d3db0",
        "curves.csv": "a3403126d050b657bad82ca2dfc1ebadb8b275aa3ba80e6e1d34f1f8affe2386",
        "report.json": "d3116f4cfe408c7cfeca34b3cf109eea282b43b10a5c8f61b67790f685aff2e9",
        "events.jsonl": "e8594985c1d3a58bb880b213bd6d5bb23d05bae53a695584ea865b978edcdb96",
        "best_weights.json": "14d553f373961a6b11fd940f7bbcb4769a159ae9b6a58fb447b4e609a75c464c",
    },
    "halving-criterion8": {
        "trials.csv": "c69740bc63348fca9b5bd55a31e288e20b2a56dfbb80ef5b8052ffb939b70df6",
        "curves.csv": "34f17fe39d18bb994dee199588ded65f0ad702483a71ab166b08304e02a6cdaf",
        "report.json": "37f4dfaba78b444174b5bbbe9ce5e6e9977c32848932c14f558f1b66cbef5080",
        "events.jsonl": "0dffc9af9bf76a58e229e2bb0e40b74cc80b4b29a1d138fdc90a6d5258e01ff7",
        "best_weights.json": "d6dd1c960dcd41a434233ad5c3c869d1efe3e075546fc91d9914fe74088aff4f",
    },
}

pytestmark = pytest.mark.skipif(
    (np.__version__, platform.machine()) != ("2.4.6", "x86_64"),
    reason="reference digests were recorded with numpy 2.4.6 on x86-64")


def output_digests(cfg: dict) -> dict:
    """Run cfg through the CLI in the working directory; the SHA-256 of
    each output file. report.json holds the config, output_dir included."""
    Path("exp.yaml").write_text(yaml.safe_dump({**cfg, "output_dir": "out"}))
    assert cli.main(["run", "exp.yaml"]) == 0
    return {name: hashlib.sha256(Path("out", name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


@pytest.mark.parametrize("sampler", sorted(CONFIGS))
def test_outputs_match_reference(sampler, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert output_digests(CONFIGS[sampler]) == REFERENCE[sampler]


@pytest.mark.parametrize("cpus", [1, 2])
def test_random_outputs_match_reference_at_usable_cpus(cpus, tmp_path, monkeypatch):
    # One seed of random search runs its evaluations ahead as waves, in
    # forked lanes when a CPU is spare and in this process on one CPU; both
    # write the same bytes.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    assert output_digests(CONFIGS["random"]) == REFERENCE["random"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_halving_outputs_match_reference_at_usable_cpus(cpus, tmp_path, monkeypatch):
    # Two seeds run in two lanes when a CPU is spare, and inline on one CPU.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    assert output_digests(CONFIGS["halving"]) == REFERENCE["halving"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_adaptive_outputs_match_reference_at_usable_cpus(cpus, tmp_path, monkeypatch):
    # One seed of adaptive search trains every pass in this process, at
    # any CPU count.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    assert output_digests(CONFIGS["adaptive"]) == REFERENCE["adaptive"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_criterion8_halving_outputs_match_reference_at_usable_cpus(cpus, tmp_path,
                                                                   monkeypatch):
    # Two seeds of large cohort passes, inline on one CPU and in two lanes
    # on two; either way the allocator only places the arrays.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    assert output_digests(CONFIGS["halving-criterion8"]) == REFERENCE["halving-criterion8"]
