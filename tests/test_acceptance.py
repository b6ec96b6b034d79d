"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Criterion 8 runs the full adaptive-vs-random comparison and takes
several minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from fedtune import cli, data, models, runner
from fedtune.config import config_from_dict
from fedtune.flcore import fedavg_aggregate, run_trial
from fedtune.hpo import (
    FeedbackRecord,
    FeedbackStore,
    HpConfig,
    combine_feedback,
    default_search_space,
    probe_set,
)

SPACE = default_search_space()


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fedavg_oracle_equivalence():
    rng = np.random.default_rng(123)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        vecs = [models.WeightVector(rng.standard_normal(d), "x") for _ in range(k)]
        counts = [int(rng.integers(1, 100)) for _ in range(k)]
        out = fedavg_aggregate(list(zip(vecs, counts)), "weighted")
        total = sum(counts)
        expected = np.zeros(d)
        for i in range(d):
            expected[i] = sum(n * v.values[i] for v, n in zip(vecs, counts)) / total
        worst = max(worst, float(np.max(np.abs(out.values - expected))))
    elapsed = time.time() - t0
    report("criterion 1: FedAvg oracle equivalence",
           worst < 1e-12 and elapsed < 1.0,
           f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_gradient_checks():
    t0 = time.time()
    worst = 0.0
    for kind, hidden in (("logistic", 0), ("mlp", 5)):
        spec = models.ModelSpec(kind, 3, 3, hidden_dim=hidden)
        rng = np.random.default_rng(7)
        for _ in range(100):
            values = rng.standard_normal(len(models.init_weights(spec, 0).values))
            x = rng.standard_normal((5, 3))
            y = rng.integers(0, 3, size=5)
            _, analytic = models.loss_and_grad(spec, values, x, y)
            numeric = np.zeros_like(values)
            eps = 1e-6
            for i in range(len(values)):
                up, dn = values.copy(), values.copy()
                up[i] += eps
                dn[i] -= eps
                lu, _ = models.loss_and_grad(spec, up, x, y)
                ld, _ = models.loss_and_grad(spec, dn, x, y)
                numeric[i] = (lu - ld) / (2 * eps)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, float(rel))
    elapsed = time.time() - t0
    report("criterion 2: gradient checks",
           worst <= 1e-4 and elapsed < 5.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_probe_cardinality():
    cur = HpConfig({"learning_rate": 1e-3, "weight_decay": 1e-5, "epochs": 2,
                    "batch_size": 32, "dropout": 0.1})
    tuned_sets = [[], ["learning_rate"], ["learning_rate", "weight_decay"],
                  ["learning_rate", "weight_decay", "epochs"]]
    sizes = [len(probe_set(SPACE, cur, t)) for t in tuned_sets]
    report("criterion 3: probe cardinality", sizes == [1, 2, 3, 4], f"sizes {sizes}")


def test_criterion_04_feedback_algebra():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        lf = rng.uniform(0, 4, size=n).tolist()
        gf = float(rng.uniform(0, 4))
        c = combine_feedback(lf, gf, n)
        ok &= min(lf + [gf]) - 1e-12 <= c <= max(lf + [gf]) + 1e-12
        fixed = combine_feedback([gf] * n, gf, n)
        ok &= abs(fixed - gf) < 1e-12
    store = FeedbackStore()
    vals = rng.uniform(0, 10, size=1000)
    for v in vals:
        store.record(FeedbackRecord("cfg", 0, "global", float(v), float(v)))
    mean_err = abs(store.mean("cfg") - float(np.sum(vals)) / 1000)
    report("criterion 4: feedback algebra", ok and mean_err < 1e-12,
           f"running-mean err {mean_err:.2e}")


def test_criterion_05_low_fidelity_grids():
    lr = list(SPACE["learning_rate"].points)
    batch = list(SPACE["batch_size"].points)
    epochs = list(SPACE["epochs"].points)
    dropout = list(SPACE["dropout"].points)
    ok = (lr == [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
          and batch == [16, 32, 64, 128, 256]
          and epochs == list(range(11))
          and dropout == [0.1, 0.3, 0.5])
    report("criterion 5: low-fidelity grids", ok,
           f"lr {len(lr)} pts, batch {batch[0]}..{batch[-1]}, "
           f"epochs {len(epochs)} pts, dropout {dropout}")


def test_criterion_06_partition_properties():
    rng = np.random.default_rng(21)
    ds = data.gen_synthetic(10, 4, 3000, 2.0, seed=0)
    conserved = True
    for _ in range(50):
        n_clients = int(rng.integers(2, 8))
        alpha = float(rng.uniform(0.2, 50.0))
        shards = data.partition_dirichlet(ds, n_clients, alpha,
                                          seed=int(rng.integers(1 << 30)))
        all_idx = np.concatenate([np.r_[s.train_idx, s.val_idx, s.test_idx] for s in shards])
        conserved &= sorted(all_idx) == list(range(len(ds)))
    entropies = []
    for alpha in (0.1, 1.0, 10.0, 100.0):
        vals = []
        for seed in range(20):
            shards = data.partition_dirichlet(ds, 10, alpha, seed=seed)
            vals.append(np.mean([
                data.label_entropy(ds.labels[np.r_[s.train_idx, s.val_idx, s.test_idx]], 10)
                for s in shards
            ]))
        entropies.append(float(np.mean(vals)))
    monotone = all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))
    report("criterion 6: partition properties", conserved and monotone,
           "entropies " + ", ".join(f"{e:.3f}" for e in entropies))


def test_criterion_07_straggler_makespan_dominance():
    t0 = time.time()
    base = {
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
    }
    dominated = True
    gaps = []
    for seed in range(1, 11):
        async_cfg = config_from_dict({**base, "seeds": [seed],
                                      "grouping": {"mode": "async", "window": "auto"}})
        sync_cfg = config_from_dict({**base, "seeds": [seed],
                                     "grouping": {"mode": "sync", "window": "auto"}})
        m_async = runner.run_experiment(async_cfg).per_seed[0].makespan
        m_sync = runner.run_experiment(sync_cfg).per_seed[0].makespan
        dominated &= m_async <= m_sync + 1e-9
        gaps.append(m_sync - m_async)
    elapsed = time.time() - t0
    report("criterion 7: straggler makespan dominance",
           dominated and elapsed < 30.0,
           f"min gap {min(gaps):.2f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_08_adaptive_beats_random_direction():
    t0 = time.time()
    base = {
        "dataset": {"type": "synthetic", "num_classes": 10, "input_dim": 16,
                    "n": 2000, "class_sep": 3.0},
        "n_clients": 20,
        "alpha": 0.5,
        "model": {"kind": "mlp", "hidden_dim": 16},
        "budget_configs": 20,
        "rounds_per_trial": 50,
        "eval_cadence": 5,
        "seeds": [1, 2, 3, 4, 5],
    }
    rep_random = runner.run_experiment(config_from_dict({**base, "sampler": "random"}))
    rep_adaptive = runner.run_experiment(config_from_dict({**base, "sampler": "adaptive"}))
    rand_best = [sr.best.accuracy for sr in rep_random.per_seed]
    adapt_best = [sr.best.accuracy for sr in rep_adaptive.per_seed]
    median_gap = float(np.median(adapt_best) - np.median(rand_best))
    mean_gap = float(np.mean(adapt_best) - np.mean(rand_best))
    elapsed = time.time() - t0
    report("criterion 8: adaptive >= random (qualitative direction)",
           median_gap >= 0.0 and mean_gap >= 0.0 and elapsed < 600.0,
           f"median gap {median_gap:+.4f}, mean gap {mean_gap:+.4f}, {elapsed:.0f}s")


CLI_CONFIG = {
    "dataset": {"type": "synthetic", "num_classes": 3, "input_dim": 6,
                "n": 300, "class_sep": 4.0},
    "n_clients": 4,
    "alpha": 1.0,
    "model": {"kind": "logistic"},
    "sampler": "adaptive",
    "budget_configs": 3,
    "rounds_per_trial": 10,
    "eval_cadence": 5,
    "seeds": [7],
}


def test_criterion_09_cli_determinism(tmp_path):
    import yaml

    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(CLI_CONFIG))
    assert cli.main(["run", str(path), "--output", str(tmp_path / "a")]) == 0
    assert cli.main(["run", str(path), "--output", str(tmp_path / "b")]) == 0
    identical = True
    for name in ("trials.csv", "curves.csv", "report.json"):
        identical &= (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    report("criterion 9: byte-identical reruns", identical)


def test_criterion_10_convergence_smoke():
    t0 = time.time()
    cfg = config_from_dict({
        "dataset": {"type": "synthetic", "num_classes": 2, "input_dim": 4,
                    "n": 400, "class_sep": 8.0},
        "n_clients": 3,
        "alpha": 1000.0,  # effectively IID
        "model": {"kind": "logistic"},
        "eval_cadence": 5,
        "seeds": [1],
        "hp_defaults": {"learning_rate": 0.1, "weight_decay": 1e-5, "epochs": 1,
                        "batch_size": 16, "dropout": 0.1},
    })
    world = runner.build_world(cfg, 1)
    hp = HpConfig(dict(cfg["hp_defaults"]))
    result = run_trial(hp, 30, world)
    acc = max(point["accuracy"] for point in result.trace)
    elapsed = time.time() - t0
    report("criterion 10: convergence smoke",
           acc >= 0.95 and elapsed < 10.0,
           f"accuracy {acc:.3f}, {elapsed:.2f}s")
