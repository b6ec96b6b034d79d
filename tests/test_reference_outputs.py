"""Random and adaptive search write the same bytes as before successive
halving learned to continue promoted configs: that change must not move
the other samplers' outputs.

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

from fedtune import cli

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
        "trials.csv": "fbee713375aaf2e97b05f87f16a11cf283613dfbf5c0898e446a86cd7c2a0cb4",
        "curves.csv": "13fb30542b7d2266723e203f4caa2bf6abd77ecf1bc30426b0d4dea1bceb3eee",
        "report.json": "ef41700d0e2c2a32aad7b4db8987b1539d107bd9bcce0b8e2e4d087afe2ef651",
        "events.jsonl": "fc64d884dd7bf42137ecbebd1a5bccd18e577aefe52b2ef25497fd4897e70478",
        "best_weights.json": "2f990bad757711f49b224949220ece77ead179ec2074ffc48c7a7b2d23e0c86a",
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
