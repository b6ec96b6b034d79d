"""Synthetic data generation, Dirichlet non-IID partitioning and CSV loading."""

import csv
from dataclasses import dataclass

import numpy as np

from .common import ConfigurationError, DataError, PartitionError, seeded

_MAX_DRAWS = 100  # Dirichlet draws partition_dirichlet makes before it gives up


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
    features = means[labels]
    features += rng.standard_normal((n, input_dim))
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
) -> list[DataShard]:
    """Allot each class's samples across clients by Dirichlet proportions.

    For every class a proportion vector ~ Dirichlet(alpha, ..., alpha) is
    drawn over the clients and the class's samples are divided accordingly
    (largest-remainder rounding, so the union of shards equals the dataset
    exactly). Draws yielding a client with fewer than min_train training
    samples are rejected and resampled, up to _MAX_DRAWS draws in all.
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
    # each present class's row indices in row order: one stable sort, cut by
    # class counts (labels are never negative)
    class_sizes = np.bincount(ds.labels)
    class_sizes = class_sizes[class_sizes > 0]
    by_class = np.split(np.argsort(ds.labels, kind="stable"), np.cumsum(class_sizes)[:-1])
    concentration = np.full(n_clients, alpha)
    fractions = np.tile(split, (n_clients, 1))

    for _ in range(_MAX_DRAWS):
        shuffled, props = [], []
        for idx in by_class:
            idx = idx.copy()
            rng.shuffle(idx)
            shuffled.append(idx)
            props.append(rng.dirichlet(concentration))
        counts = _largest_remainder_rows(class_sizes, np.array(props))  # (classes, clients)
        sizes = counts.sum(axis=0)
        # a train part is its floor or one more, so a client short even of
        # that fails the draw before the rounding
        if (np.floor(fractions[:, 0] * sizes) + 1 < min_train).any():
            continue
        splits = _largest_remainder_rows(sizes, fractions)
        if (splits[:, 0] >= min_train).all():
            break
    else:
        raise PartitionError(
            f"could not give every client >= {min_train} training samples "
            f"after {_MAX_DRAWS} Dirichlet draws (alpha={alpha}, "
            f"n_clients={n_clients})"
        )

    # each client's allocation: its part of every class, in class order,
    # gathered from the class-major concatenation of the shuffled classes,
    # then shuffled in place with its own stream
    starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape).T.ravel()
    lens = counts.T.ravel()
    gather = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    flat = np.concatenate(shuffled)[gather]
    ends = np.cumsum(sizes)
    for cid, alloc in enumerate(np.split(flat, ends[:-1])):
        seeded(seed, "shard-split", cid).shuffle(alloc)
    # one gather of every allocated row; each split is a row slice of it
    features, labels = ds.features[flat], ds.labels[flat]
    # per client: its start, train end, validation end and end in flat
    bounds = np.cumsum(np.column_stack([ends - sizes, splits]), axis=1)
    shards = []
    for cid, (a, b, c, d) in enumerate(bounds.tolist()):
        tr, va, te = slice(a, b), slice(b, c), slice(c, d)
        shards.append(
            DataShard(
                client_id=cid,
                train=Dataset(features[tr], labels[tr]),
                val=Dataset(features[va], labels[va]),
                test=Dataset(features[te], labels[te]),
                train_idx=flat[tr],
                val_idx=flat[va],
                test_idx=flat[te],
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
    integers in [0, 2**63).
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
    if not (np.all(np.isfinite(labels)) and np.all(labels == np.round(labels))):
        raise DataError(f"{path}: final column must hold integer labels")
    bad = np.flatnonzero(labels < 0)
    if len(bad):
        raise DataError(f"{path}: negative label on line {line_numbers[bad[0]]}")
    bad = np.flatnonzero(labels >= 2.0**63)  # would wrap in the int64 cast
    if len(bad):
        raise DataError(f"{path}: label >= 2**63 on line {line_numbers[bad[0]]}")
    return Dataset(features, labels.astype(np.int64))
