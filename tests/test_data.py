import numpy as np
import pytest

from fedtune import data, models
from fedtune.common import ConfigurationError, DataError, PartitionError, derive_seed
from fedtune.models import ModelSpec, TrainHp


class TestGenSynthetic:
    def test_deterministic(self):
        a = data.gen_synthetic(3, 5, 100, 2.0, seed=9)
        b = data.gen_synthetic(3, 5, 100, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_counts(self):
        ds = data.gen_synthetic(3, 5, 100, 2.0, seed=1)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1

    def test_n_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            data.gen_synthetic(5, 4, 3, 1.0, seed=0)

    def test_separable_with_reference_classifier(self):
        # sep=10 with unit noise: a logistic fit should reach > 0.99
        ds = data.gen_synthetic(2, 4, 200, 10.0, seed=3)
        spec = ModelSpec("logistic", 4, 2)
        hp = TrainHp(0.1, 0.0, 1, 16, 0.0)
        w = models.init_weights(spec, 0)
        for _ in range(30):
            w, _ = models.local_train(spec, w, hp, ds.features, ds.labels,
                                      ds.features, ds.labels, 0)
        _, acc = models.evaluate(spec, w, ds.features, ds.labels)
        assert acc > 0.99


class TestPartitionDirichlet:
    def test_single_client_gets_everything(self):
        ds = data.gen_synthetic(3, 4, 90, 2.0, seed=0)
        shards = data.partition_dirichlet(ds, 1, 1.0, seed=0)
        assert len(shards) == 1
        assert sorted(shards[0].all_indices()) == list(range(90))

    def test_conservation(self):
        ds = data.gen_synthetic(5, 4, 500, 2.0, seed=2)
        shards = data.partition_dirichlet(ds, 5, 0.5, seed=7)
        all_idx = np.concatenate([s.all_indices() for s in shards])
        assert sorted(all_idx) == list(range(len(ds)))

    def test_splits_disjoint_and_train_nonempty(self):
        ds = data.gen_synthetic(4, 4, 400, 2.0, seed=2)
        for s in data.partition_dirichlet(ds, 4, 1.0, seed=3):
            parts = [set(s.train_idx), set(s.val_idx), set(s.test_idx)]
            assert len(parts[0] | parts[1] | parts[2]) == len(s.all_indices())
            assert len(s.train_idx) >= 10

    def test_split_fractions_within_one_sample(self):
        ds = data.gen_synthetic(4, 4, 403, 2.0, seed=5)
        for s in data.partition_dirichlet(ds, 3, 10.0, split=(0.6, 0.2, 0.2), seed=1):
            n = len(s.all_indices())
            assert abs(len(s.train_idx) - 0.6 * n) <= 1
            assert abs(len(s.val_idx) - 0.2 * n) <= 1
            assert abs(len(s.test_idx) - 0.2 * n) <= 1

    def test_deterministic(self):
        ds = data.gen_synthetic(4, 4, 300, 2.0, seed=5)
        a = data.partition_dirichlet(ds, 3, 0.5, seed=4)
        b = data.partition_dirichlet(ds, 3, 0.5, seed=4)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.train_idx, sb.train_idx)
            assert np.array_equal(sa.val_idx, sb.val_idx)
            assert np.array_equal(sa.test_idx, sb.test_idx)

    def test_high_alpha_near_uniform(self):
        # alpha=1000: per-client label distribution close to the global one.
        # Threshold (TV <= 0.1 for >= 9/10 clients) checked over 50 seeds in
        # test_acceptance-style Monte Carlo before freezing here.
        ds = data.gen_synthetic(10, 4, 10000, 2.0, seed=0)
        shards = data.partition_dirichlet(ds, 10, 1000.0, seed=11)
        ok = 0
        for s in shards:
            labels = ds.labels[s.all_indices()]
            p = np.bincount(labels, minlength=10) / len(labels)
            tv = 0.5 * np.abs(p - 0.1).sum()
            if tv <= 0.1:
                ok += 1
        assert ok >= 9

    def test_low_alpha_more_skewed_than_high(self):
        ds = data.gen_synthetic(10, 4, 10000, 2.0, seed=0)
        def mean_entropy(alpha, seed):
            shards = data.partition_dirichlet(ds, 10, alpha, seed=seed)
            return np.mean([
                data.label_entropy(ds.labels[s.all_indices()], 10) for s in shards
            ])
        assert mean_entropy(0.1, 3) < mean_entropy(1000.0, 3)

    def test_infeasible_min_shard_raises(self):
        ds = data.gen_synthetic(2, 4, 30, 2.0, seed=0)
        with pytest.raises(PartitionError):
            data.partition_dirichlet(ds, 10, 1.0, seed=0)


def largest_remainder_counts(total, fractions):
    """The loop reference: integer allocation of total by fractions."""
    raw = [f * total for f in fractions]
    base = [int(np.floor(r)) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:total - sum(base)]:
        base[i] += 1
    return base


def reference_partition(ds, n_clients, alpha, split, seed, min_train):
    """The loop reference for partition_dirichlet: each client's
    (train, val, test) indices, or the PartitionError message."""
    rng = np.random.default_rng(seed)
    classes = np.unique(ds.labels)
    for _ in range(100):
        parts = [[] for _ in range(n_clients)]
        for c in classes:
            idx = np.flatnonzero(ds.labels == c)
            rng.shuffle(idx)
            counts = largest_remainder_counts(len(idx), rng.dirichlet(np.full(n_clients, alpha)))
            ends = np.cumsum(counts)
            for k in range(n_clients):
                parts[k].append(idx[ends[k] - counts[k]:ends[k]])
        allocations = [np.concatenate(p) for p in parts]
        if all(largest_remainder_counts(len(a), split)[0] >= min_train for a in allocations):
            break
    else:
        return (f"could not give every client >= {min_train} training samples after 100 "
                f"Dirichlet draws (alpha={alpha}, n_clients={n_clients})")
    shards = []
    for cid, alloc in enumerate(allocations):
        np.random.default_rng(derive_seed(seed, "shard-split", cid)).shuffle(alloc)
        n_tr, n_va, _ = largest_remainder_counts(len(alloc), split)
        shards.append((alloc[:n_tr], alloc[n_tr:n_tr + n_va], alloc[n_tr + n_va:]))
    return shards


def test_partition_equals_loop_reference():
    rng = np.random.default_rng(0)
    outcomes = set()
    for world in range(40):
        ds = data.gen_synthetic(int(rng.integers(2, 12)), 3, int(rng.integers(20, 1000)), 2.0,
                                world)
        args = (int(rng.integers(1, 60)), float(10 ** rng.uniform(-2, 3)),
                [(0.6, 0.2, 0.2), (0.5, 0.25, 0.25), (0.7, 0.2, 0.1)][world % 3],
                int(rng.integers(1 << 30)), int(rng.integers(0, 15)))
        expected = reference_partition(ds, *args)
        try:
            got = [(s.train_idx, s.val_idx, s.test_idx)
                   for s in data.partition_dirichlet(ds, *args[:4], min_train=args[4])]
        except PartitionError as err:
            got = str(err)
        outcomes.add(type(got))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert [[p.tolist() for p in s] for s in got] == \
                [[p.tolist() for p in s] for s in expected]
    assert outcomes == {list, str}  # shards on some worlds, PartitionError on others


class TestCsvLoader:
    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n0.5,1.5,0\n-1.0,2.0,1\n")
        ds = data.load_csv(path)
        assert ds.features.shape == (2, 2)
        assert list(ds.labels) == [0, 1]

    def test_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,1.5,0\n-1.0,2.0,1\n")
        ds = data.load_csv(path)
        assert len(ds) == 2

    @pytest.mark.parametrize("text,message", [
        ("0.5,1.5,0\n-1.0,2.0,-1\n", "negative label on line 2"),
        ("f1,f2,label\n0.5,nan,0\n", "non-finite feature value on line 2"),
        ("0.5,1.5,0\n-1.0,inf,1\n", "non-finite feature value on line 2"),
        ("0.5,1.5,0\n-1.0,2.0,inf\n", "integer labels"),
        ("0.5,1.5,0\n-1.0,1\n", "line 2 has 2 columns, expected 3"),
    ], ids=["negative-label", "nan-feature", "inf-feature", "inf-label", "ragged-row"])
    def test_bad_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            data.load_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError):
            data.load_csv(path)
