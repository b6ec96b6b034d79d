"""Synthetic data generation, Dirichlet non-IID partitioning and CSV loading."""

import csv
from dataclasses import dataclass

import numpy as np

from .common import ConfigurationError, DataError, PartitionError, derive_seed


@dataclass
class Dataset:
    features: np.ndarray  # (n, input_dim)
    labels: np.ndarray  # (n,), int class indices

    def __len__(self):
        return len(self.labels)


@dataclass
class DataShard:
    """One client's allocation, split into disjoint train/val/test parts.

    Index arrays refer back to the source Dataset so that conservation of
    the partition can be checked exactly.
    """

    client_id: int
    train: Dataset
    val: Dataset
    test: Dataset
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def all_indices(self) -> np.ndarray:
        return np.concatenate([self.train_idx, self.val_idx, self.test_idx])


def gen_synthetic(
    num_classes: int, input_dim: int, n: int, class_sep: float, seed: int
) -> Dataset:
    """Gaussian blobs with one mean per class and unit noise.

    When num_classes <= input_dim the class means are mutually orthogonal
    and at exact pairwise distance class_sep; otherwise random directions
    are scaled to the same expected separation. Class labels are assigned
    round-robin so counts differ by at most one, then the rows are
    shuffled. Deterministic in seed.
    """
    if n < num_classes:
        raise ConfigurationError("dataset.n: need at least one sample per class")
    if class_sep <= 0:
        raise ConfigurationError("dataset.class_sep: must be > 0")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((num_classes, input_dim))
    if num_classes <= input_dim:
        q, _ = np.linalg.qr(g.T)
        dirs = q[:, :num_classes].T
    else:
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    means = dirs * (class_sep / np.sqrt(2.0))
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    features = means[labels] + rng.standard_normal((n, input_dim))
    return Dataset(features, labels.astype(np.int64))


def _largest_remainder_rows(totals: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Integer allocation of totals[r] by fractions[r] for every row r, each
    part off by at most one: the units left after flooring go to the
    largest remainders, ties to the lower index."""
    raw = fractions * totals[:, None]
    base = np.floor(raw)
    behind = base - raw  # minus the remainders: the lowest get a unit first
    short = totals - base.astype(np.int64).sum(axis=1)  # units left per row
    # the short-th lowest of each row; below it all get a unit, at it the first
    cut = np.sort(behind, axis=1)[np.arange(len(raw)), np.clip(short - 1, 0, raw.shape[1] - 1)]
    ahead = behind < cut[:, None]
    tied = behind == cut[:, None]
    extra = ahead | (tied & (np.cumsum(tied, axis=1) <= (short - ahead.sum(axis=1))[:, None]))
    return base.astype(np.int64) + extra


def partition_dirichlet(
    ds: Dataset,
    n_clients: int,
    alpha: float,
    split=(0.6, 0.2, 0.2),
    seed: int = 0,
    min_train: int = 10,
    max_retries: int = 100,
) -> list[DataShard]:
    """Allot each class's samples across clients by Dirichlet proportions.

    For every class a proportion vector ~ Dirichlet(alpha, ..., alpha) is
    drawn over the clients and the class's samples are divided accordingly
    (largest-remainder rounding, so the union of shards equals the dataset
    exactly). Draws yielding a client with fewer than min_train training
    samples are rejected and resampled up to max_retries times.
    """
    if n_clients < 1:
        raise ConfigurationError("n_clients: must be >= 1")
    if alpha <= 0:
        raise ConfigurationError("alpha: must be > 0")
    if abs(sum(split) - 1.0) > 1e-9:
        raise ConfigurationError("split: fractions must sum to 1")
    if len(ds) == 0:
        raise DataError("partition_dirichlet: empty dataset")
    rng = np.random.default_rng(seed)
    by_class = [np.flatnonzero(ds.labels == c) for c in np.unique(ds.labels)]
    class_sizes = np.array([len(idx) for idx in by_class])

    for _ in range(max_retries):
        shuffled, props = [], []
        for idx in by_class:
            idx = idx.copy()
            rng.shuffle(idx)
            shuffled.append(idx)
            props.append(rng.dirichlet(np.full(n_clients, alpha)))
        counts = _largest_remainder_rows(class_sizes, np.array(props))  # (classes, clients)
        sizes = counts.sum(axis=0)
        splits = _largest_remainder_rows(sizes, np.tile(split, (n_clients, 1)))
        if (splits[:, 0] >= min_train).all():
            break
    else:
        raise PartitionError(
            f"could not give every client >= {min_train} training samples "
            f"after {max_retries} Dirichlet draws (alpha={alpha}, "
            f"n_clients={n_clients})"
        )

    # each client's allocation: its part of every class, in class order,
    # gathered from the class-major concatenation of the shuffled classes
    starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape).T.ravel()
    lens = counts.T.ravel()
    gather = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    flat = np.concatenate(shuffled)[gather]
    shards = []
    for cid, alloc in enumerate(np.split(flat, np.cumsum(sizes)[:-1])):
        shuffle_rng = np.random.default_rng(derive_seed(seed, "shard-split", cid))
        shuffle_rng.shuffle(alloc)
        n_tr, n_va, _ = splits[cid]
        tr = alloc[:n_tr]
        va = alloc[n_tr : n_tr + n_va]
        te = alloc[n_tr + n_va :]
        shards.append(
            DataShard(
                client_id=cid,
                train=Dataset(ds.features[tr], ds.labels[tr]),
                val=Dataset(ds.features[va], ds.labels[va]),
                test=Dataset(ds.features[te], ds.labels[te]),
                train_idx=tr,
                val_idx=va,
                test_idx=te,
            )
        )
    return shards


def label_entropy(labels: np.ndarray, num_classes: int) -> float:
    """Shannon entropy (nats) of the empirical label distribution."""
    if len(labels) == 0:
        return 0.0
    counts = np.bincount(labels, minlength=num_classes).astype(float)
    p = counts / counts.sum()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def load_csv(path) -> Dataset:
    """Load (features..., integer label) rows; a non-numeric header is skipped.

    Rejects ragged rows, non-finite features and labels that are not
    non-negative integers.
    """
    rows, line_numbers = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row:
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                if i == 0:
                    continue  # header row
                raise DataError(f"{path}: non-numeric value on line {i + 1}")
            if rows and len(values) != len(rows[0]):
                raise DataError(f"{path}: line {i + 1} has {len(values)} columns, "
                                f"expected {len(rows[0])}")
            rows.append(values)
            line_numbers.append(i + 1)
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    features, labels = arr[:, :-1], arr[:, -1]
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        raise DataError(f"{path}: non-finite feature value on line {line_numbers[bad[0]]}")
    if not (np.all(np.isfinite(labels)) and np.allclose(labels, np.round(labels))):
        raise DataError(f"{path}: final column must hold integer labels")
    bad = np.flatnonzero(labels < 0)
    if len(bad):
        raise DataError(f"{path}: negative label on line {line_numbers[bad[0]]}")
    return Dataset(features, labels.astype(np.int64))
