"""Smoke test of the benchmark harness on shrunken copies of its workloads.

From the repository root:

    python3 -m pytest perfbench/test_harness.py -q
"""

import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

fedtune, _ = run.load_fedtune(ROOT)

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def shrink(workload):
    """The same workload on a smaller world, a few configs and rounds."""
    cfg = dict(workload.config)
    cfg["dataset"] = {**cfg["dataset"], "n": 1200}
    cfg["n_clients"] = min(cfg["n_clients"], 12)
    cfg["budget_configs"] = 4 if workload.via_cli else 2
    cfg["rounds_per_trial"] = 4
    cfg["eval_cadence"] = 2
    return dataclasses.replace(workload, config=cfg, call_s=1.0)


SMALL = {name: shrink(w) for name, w in wl.WORKLOADS.items()}


def test_benchmark_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_emitted_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "2",
                     "--trace", str(trace)], catalog=SMALL)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert code == 0, info["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float | int)
        assert "missing" not in entry
    assert info["seed_lists"][0][0] == 3
    assert info["seed_lists"][-1] == info["seed_lists"][0]
    assert info["env"]["numpy"] and info["env"]["nproc"] >= 1
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["models.loss_and_grad.calls"] > 0
        assert (values["runner.run_probe_cycle.calls"] > 0) == (name == "adaptive-sync")
        assert (values["runner.emit_metrics.bytes"] > 0) == (name == "halving-cli")
        assert (values["sched.groups"] > 0) == (name != "halving-cli")


def test_end_to_end_metrics_are_never_zero(capsys):
    assert run.main(["--workload", "adaptive-sync", "--seconds", "2"], catalog=SMALL) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_check_fires_on_corrupted_output_file(tmp_path):
    workload = SMALL["halving-cli"]
    seeds = [1, 1001]
    _, good = wl.call(workload, seeds, str(tmp_path))
    assert wl.check(workload, seeds, good) == []

    out = tmp_path / "out"
    rows = list(csv.reader(io.StringIO((out / "trials.csv").read_text())))
    rows[1][rows[0].index("accuracy")] = "1.5"
    with open(out / "trials.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    bad = wl.read_outputs(str(out))
    assert any("accuracy 1.5" in p for p in wl.check(workload, seeds, bad))

    problems = []
    seen = {}
    run._same(seen, seeds, good, "calls", problems)
    run._same(seen, seeds, bad, "calls", problems)
    assert problems == [f"seeds {seeds}: output differs between calls"]


def test_check_fires_on_missing_trial_rows(tmp_path):
    workload = SMALL["adaptive-sync"]
    _, outcome = wl.call(workload, [5], str(tmp_path))
    del outcome.seeds[0].rows[-1]
    assert any("trial rows" in p for p in wl.check(workload, [5], outcome))


def test_missing_layer_is_reported_and_the_run_continues(monkeypatch, capsys):
    # adaptive-sync never writes output files, so emit_metrics can go
    monkeypatch.delattr(fedtune.runner, "emit_metrics")
    code = run.main(["--workload", "adaptive-sync", "--seconds", "2", "--trace", "1"],
                    catalog=SMALL)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    missing = {k for k, v in result["metrics"].items() if v.get("missing")}
    assert missing == {"runner.emit_metrics.s", "runner.emit_metrics.bytes"}


def test_tracer_restores_every_original():
    before = {(o, a): vars(tracer._resolve(fedtune, o))[a]
              for o, a, _ in tracer.SPANS + tracer.FOLDED}
    with tracer.Tracer(fedtune) as tr:
        assert not tr.missing
        with pytest.raises(RuntimeError):
            tracer.assert_untraced(fedtune)
    tracer.assert_untraced(fedtune)
    after = {(o, a): vars(tracer._resolve(fedtune, o))[a]
             for o, a, _ in tracer.SPANS + tracer.FOLDED}
    assert after == before


def test_self_time_plus_child_time_is_duration():
    tr = tracer.Tracer(fedtune)
    with tr:
        cfg = fedtune.config.config_from_dict(wl.experiment_config(SMALL["adaptive-sync"], [2]))
        fedtune.runner.run_experiment(cfg)
    stats, mismatch = tr.layer_stats()
    assert mismatch < 1e-9
    trial = stats["flcore.run_trial"]
    children = sum(stats[n]["s"] for n in ("flcore.run_round", "runner.run_probe_cycle"))
    assert trial["self_s"] <= trial["s"] - children + 1e-9


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adaptive-sync", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
