"""Random, adaptive and halving search write the same bytes as before the
runner drove all three samplers through one protocol. Random was pinned
before successive halving learned to continue promoted configs, and
halving (two seeds, in the worker pool) just after; neither change may
move these outputs. Adaptive was re-pinned when the probe cycle moved to
the top of the round it steers, its probes took that round's training
key and the round began reusing the chosen probe's pass: the makespan
fell from 464.11 to 288.93 simulated seconds, trial 0's row now names
the config that trained its final round, and trial 1's objective moved
from 0.260512 to 0.262451; the best trial, its curve and its weights are
unchanged.

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
    # rungs (5, 1), (3, 2), (2, 4), (1, 6); two seeds run in the worker pool
    "halving": {**BASE, "sampler": "halving", "budget_configs": 5, "seeds": [1, 2]},
}
REFERENCE = {
    "random": {
        "trials.csv": "edb6071d45c5a373759bc2f8a528a7a4fc40f4bb704a1d27a23edd13f237b768",
        "curves.csv": "1aea66fe26d955b9322cfc66c76842040c43fd7380711db3fd471eacb73ed8eb",
        "report.json": "b67d2a652080a58c28c8dca2c2fb8d0b4dd5dc80dde6f1fe463d36393888d7f4",
        "events.jsonl": "5ee37709857df63e5a9663b9b57656b1e4ab3860a14eb091d75be0ab3f2ee292",
        "best_weights.json": "c4d89e4dff42e21a9f31d3488c38a0dfbdabe90f06d0b22b20a980ff927c2daf",
    },
    "adaptive": {
        "trials.csv": "0089f51d502133f329ed7162cdb25aa513ec28496a72306cfd371a12cf1bc12b",
        "curves.csv": "13fb30542b7d2266723e203f4caa2bf6abd77ecf1bc30426b0d4dea1bceb3eee",
        "report.json": "1d3dab859c5fa67e8edbcaa19b96334ce740a4712f7d585d4f92b8ce20838a54",
        "events.jsonl": "0f91fb2ae57e5c19094c6ac74f88d2f262c9be03c4920455faf67f687320ab87",
        "best_weights.json": "2f990bad757711f49b224949220ece77ead179ec2074ffc48c7a7b2d23e0c86a",
    },
    "halving": {
        "trials.csv": "75c4491ed4906fafbd938b12d409cfce2694a4d00b9cbaf27da0d263da88d4fe",
        "curves.csv": "08f040489d717703250cc8a9cae603dc0de167caa793bc6a753f709119595c35",
        "report.json": "07fd4d555dd1e821ee2e4b64ba22a55ed9b6fabb90085bb2c9b7bcda0f95f6d0",
        "events.jsonl": "8fcadc856dc789435543f0d071a01c2c991232824252ceef8674728417086a5d",
        "best_weights.json": "8f2c1f3218a9b1238000779aa4e74341085d312309d4b97229b9ead66d0f8a37",
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
    # One seed of random search runs its first evaluations in forked lanes
    # when a CPU is spare, and inline on one CPU; both write the same bytes.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    assert output_digests(CONFIGS["random"]) == REFERENCE["random"]
