"""Small differentiable models trained by mini-batch SGD.

Two architectures are supported: multinomial logistic regression and a
one-hidden-layer MLP with tanh activation and (inverted) dropout on the
hidden layer. Parameters live in a single flat vector so that federated
averaging is a plain vector mean.
"""

from dataclasses import dataclass

import numpy as np

from .common import (
    ConfigurationError,
    DataError,
    NumericDivergenceError,
)

LOGISTIC = "logistic"
MLP = "mlp"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; fully determines the weight layout."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in (LOGISTIC, MLP):
            raise ConfigurationError(f"model.kind: unknown kind {self.kind!r}")
        if self.input_dim < 1:
            raise ConfigurationError("model.input_dim: must be >= 1")
        if self.num_classes < 2:
            raise ConfigurationError("model.num_classes: must be >= 2")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ConfigurationError("model.hidden_dim: must be >= 1 for mlp")

    @property
    def layout_id(self) -> str:
        return f"{self.kind}:{self.input_dim}x{self.hidden_dim}x{self.num_classes}"

    def num_params(self) -> int:
        d, h, c = self.input_dim, self.hidden_dim, self.num_classes
        if self.kind == LOGISTIC:
            return d * c + c
        return d * h + h + h * c + c


@dataclass
class WeightVector:
    """Flat model parameters tied to an architecture via layout_id."""

    values: np.ndarray
    layout_id: str

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


@dataclass(frozen=True)
class TrainHp:
    """One local-training assignment; its typed fields are the hyperparameter schema."""

    learning_rate: float
    weight_decay: float
    epochs: int
    batch_size: int
    dropout: float

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate: must be >= 0")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay: must be >= 0")
        if self.epochs < 0:
            raise ConfigurationError("epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size: must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError("dropout: must be in [0, 1)")


def _unpack(spec: ModelSpec, values: np.ndarray, extra: int = 0):
    """Views of the weight matrices and biases of a (k, P) weight stack.

    Matrices are shaped (k, fan_in, fan_out) and biases (k, 1, fan_out),
    with `extra` unit axes after k, so that both broadcast against inputs
    of shape (k, <extra axes>, rows, fan_in).
    """
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    lead = (values.shape[0],) + (1,) * extra
    out, o = [], 0
    for fan_in, fan_out in ([(d, c)] if spec.kind == LOGISTIC else [(d, h), (h, c)]):
        out.append(values[:, o : o + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        o += fan_in * fan_out
        out.append(values[:, o : o + fan_out].reshape(*lead, 1, fan_out))
        o += fan_out
    return out


def init_weights(spec: ModelSpec, seed: int) -> WeightVector:
    """Per-layer uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases."""
    rng = np.random.default_rng(seed)
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if spec.kind == LOGISTIC:
        bound = 1.0 / np.sqrt(d)
        w = rng.uniform(-bound, bound, size=d * c)
        return WeightVector(np.concatenate([w, np.zeros(c)]), spec.layout_id)
    b1 = 1.0 / np.sqrt(d)
    b2 = 1.0 / np.sqrt(h)
    w1 = rng.uniform(-b1, b1, size=d * h)
    w2 = rng.uniform(-b2, b2, size=h * c)
    parts = [w1, np.zeros(h), w2, np.zeros(c)]
    return WeightVector(np.concatenate(parts), spec.layout_id)


def _forward(spec: ModelSpec, params, features: np.ndarray, dropout_mask=None):
    """Logits of stacked inputs (k, ..., rows, d) under _unpack'ed params.

    For the MLP also returns the tanh activations and the (dropped-out)
    hidden layer that backpropagation needs; for logistic both are None.
    """
    if spec.kind == LOGISTIC:
        w, b = params
        return features @ w + b, None, None
    w1, b1, w2, b2 = params
    act = np.tanh(features @ w1 + b1)
    hidden = act if dropout_mask is None else act * dropout_mask
    return hidden @ w2 + b2, act, hidden


def _softmax_parts(logits: np.ndarray, labels: np.ndarray):
    """Stabilized log-softmax over the last axis.

    Returns (log-probability of each row's label, exp of the shifted
    logits, their sum). A label of -1 reads the last class; callers mask
    those rows.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    exp_z = np.exp(z)
    denom = exp_z.sum(axis=-1, keepdims=True)
    flat = z.reshape(-1, z.shape[-1])
    picked = flat[np.arange(len(flat)), labels.reshape(-1)].reshape(labels.shape) \
        - np.log(denom[..., 0])
    return picked, exp_z, denom


def loss_and_grad(
    spec: ModelSpec,
    values: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    dropout_mask: np.ndarray | None = None,
):
    """Mean cross-entropy and its gradient w.r.t. the flat weight vector.

    One model: values (P,), features (n, d), labels (n,); returns a scalar
    loss and a (P,) gradient. A stack of k models: values (k, P), features
    (k, rows, d), labels (k, rows); returns (k,) losses and a (k, P)
    gradient, row i computed from row i alone. A label of -1 marks a
    padding row, which contributes nothing; each row's mean divides by its
    own count of real rows. dropout_mask, when given, is the
    inverted-dropout multiplier for the hidden activations (shape matching
    the hidden layer output).
    """
    labels = np.asarray(labels)
    single = values.ndim == 1
    if single:
        values, features, labels = values[None], features[None], labels[None]
        if dropout_mask is not None:
            dropout_mask = dropout_mask[None]
    k = values.shape[0]
    params = _unpack(spec, values)
    logits, act, hidden = _forward(spec, params, features, dropout_mask)
    picked, exp_z, denom = _softmax_parts(logits, labels)
    real = labels >= 0
    count = real.sum(axis=-1)
    loss = -np.where(real, picked, 0.0).sum(axis=-1) / count
    dlogits = exp_z / denom
    dlogits -= labels[..., None] == np.arange(spec.num_classes)
    dlogits /= np.where(real, count[:, None], np.inf)[..., None]  # padding rows -> 0
    if spec.kind == LOGISTIC:
        grads = [features.swapaxes(1, 2) @ dlogits, dlogits.sum(axis=1)]
    else:
        dhidden = dlogits @ params[2].swapaxes(1, 2)
        if dropout_mask is not None:
            dhidden = dhidden * dropout_mask
        dpre = dhidden * (1.0 - act ** 2)
        grads = [features.swapaxes(1, 2) @ dpre, dpre.sum(axis=1),
                 hidden.swapaxes(1, 2) @ dlogits, dlogits.sum(axis=1)]
    grad = np.concatenate([g.reshape(k, -1) for g in grads], axis=1)
    return (loss[0], grad[0]) if single else (loss, grad)


def sgd_step(values: np.ndarray, grad: np.ndarray, lr: float, weight_decay: float) -> np.ndarray:
    """w <- w - lr * (grad + weight_decay * w)."""
    return values - lr * (grad + weight_decay * values)


def _pool(sets, input_dim: int):
    """Concatenate (features, labels) sets and append one padding row.

    The padding row has zero features and label -1. Returns (features,
    labels, offset of each set).
    """
    features = np.concatenate([f for f, _ in sets] + [np.zeros((1, input_dim))])
    labels = np.concatenate([np.asarray(y, dtype=np.int64) for _, y in sets]
                            + [np.array([-1])])
    offsets = np.cumsum([0] + [len(y) for _, y in sets])[:-1]
    return features, labels, offsets


def evaluate_stack(spec: ModelSpec, values: np.ndarray, sets, block: int | None = None):
    """Mean cross-entropy and top-1 accuracy of weight row i on sets[i].

    values is a (k, P) weight stack and sets[i] a nonempty (features,
    labels) pair; dropout is disabled. Each set is scored in blocks of
    `block` rows (default: the largest set), the last one padded; block
    sums are added in order. With a fixed block, row i's result does not
    depend on the other rows. Argmax ties break toward the lowest class
    index. Returns ((k,) losses, (k,) accuracies).
    """
    sizes = np.array([len(y) for _, y in sets])
    if not sizes.all():
        raise DataError("evaluate: empty evaluation set")
    block = block or int(sizes.max())
    features, labels, offsets = _pool(sets, spec.input_dim)
    nblocks = -(-int(sizes.max()) // block)
    pos = np.arange(nblocks * block)
    idx = np.where(pos < sizes[:, None], offsets[:, None] + pos, len(labels) - 1)
    idx = idx.reshape(len(sets), nblocks, block)
    y = labels[idx]
    logits, _, _ = _forward(spec, _unpack(spec, values, extra=1), features[idx])
    picked, _, _ = _softmax_parts(logits, y)
    real = y >= 0
    block_sums = np.where(real, picked, 0.0).sum(axis=-1)
    total = block_sums[:, 0]
    for j in range(1, nblocks):
        total = total + block_sums[:, j]
    hits = (real & (np.argmax(logits, axis=-1) == y)).sum(axis=(1, 2))
    return -total / sizes, hits / sizes


def evaluate(spec: ModelSpec, w: WeightVector, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and top-1 accuracy; dropout disabled, no mutation.

    The one-set case of evaluate_stack, scored in a single block.
    """
    if w.layout_id != spec.layout_id:
        raise ConfigurationError(
            f"weight layout {w.layout_id} does not match spec {spec.layout_id}"
        )
    loss, acc = evaluate_stack(spec, w.values[None], [(features, labels)])
    return float(loss[0]), float(acc[0])


# Validation sets are scored in blocks of this many rows.
VAL_BLOCK = 32


def _padded_width(n: int, batch_size: int) -> int:
    """Rows each batch of an n-row shard is padded to.

    batch_size, divided by 4 (rounding up) while the shard still fits, so
    a shard smaller than a batch pads to at most 4x its size. Depends on n
    and batch_size alone.
    """
    width = batch_size
    while 4 * n <= width:
        width = -(-width // 4)
    return width


def _sgd_pass(spec: ModelSpec, w: WeightVector, hp: TrainHp, shards, seeds, width: int):
    """Stacked SGD for shards whose batches all pad to `width` rows.

    Returns ((k, P) weights, failures), both in shard order.
    """
    k, epochs, hidden = len(shards), hp.epochs, spec.hidden_dim
    batches = np.array([-(-len(s[1]) // width) for s in shards], dtype=np.int64)
    # Longest rows first, so the rows still training at any step are a prefix.
    rows = np.argsort(-batches, kind="stable")
    steps = epochs * batches[rows]
    features, labels, offsets = _pool([shards[i][:2] for i in rows], spec.input_dim)
    pad = len(labels) - 1
    use_dropout = spec.kind == MLP and hp.dropout > 0.0
    keep = 1.0 - hp.dropout
    # Row r's epochs lie back to back from base[r], each padded to whole batches.
    base = np.concatenate([[0], np.cumsum(steps * width)])
    order = np.full(base[-1], pad)
    kept = np.zeros((base[-1], hidden), dtype=bool) if use_dropout else None
    for r, i in enumerate(rows):
        rng = np.random.default_rng(seeds[i])
        n = len(shards[i][1])
        for o in range(base[r], base[r + 1], batches[i] * width):
            order[o : o + n] = offsets[r] + rng.permutation(n)
            if use_dropout:
                kept[o : o + n] = rng.random((n, hidden)) < keep
    # Step t trains rows 0..active[t]-1, each on its t-th batch.
    step_of, row_of = np.nonzero(steps > np.arange(steps.max(initial=0))[:, None])
    active = np.bincount(step_of, minlength=steps.max(initial=0))
    start = np.concatenate([[0], np.cumsum(active)])
    batch_of = base[row_of] // width + step_of
    idx = order.reshape(-1, width)[batch_of]
    if use_dropout:
        kept = kept.reshape(-1, width, hidden)[batch_of]
    epoch_end = (step_of + 1) % batches[rows][row_of] == 0

    values = np.tile(w.values, (k, 1))
    failures = [None] * k
    for t, m in enumerate(active):
        s = slice(start[t], start[t + 1])
        g = idx[s]
        mask = kept[s] / keep if use_dropout else None
        loss, grad = loss_and_grad(spec, values[:m], features[g], labels[g], dropout_mask=mask)
        values[:m] = sgd_step(values[:m], grad, hp.learning_rate, hp.weight_decay)
        checks = [(~np.isfinite(loss), "non-finite training loss")]
        if epoch_end[s].any():
            checks.append((epoch_end[s] & ~np.isfinite(values[:m]).all(axis=1),
                           "non-finite weights after epoch"))
        for bad, message in checks:
            for r in np.flatnonzero(bad):
                if failures[rows[r]] is None:
                    failures[rows[r]] = message
                values[r] = 0.0  # keeps a failed row finite, so it raises no float warnings
    trained = np.empty_like(values)
    trained[rows] = values
    return trained, failures


def train_stack(spec: ModelSpec, w: WeightVector, hp: TrainHp, shards, seeds):
    """Train one copy of w per shard with mini-batch SGD, all in stacked passes.

    shards[i] is (train_features, train_labels, val_features, val_labels)
    and seeds[i] keys its RNG: each epoch draws permutation(n) for the
    batch order, then, for the MLP with dropout, one random((n, hidden))
    whose rows are the batches' dropout draws in order. Every step runs
    forward and backward for all rows still training on (rows, width, ...)
    arrays. Short batches are padded to the width, which is batch_size
    unless the shard is much smaller (_padded_width); padding rows add
    nothing. Rows of one width share a pass, and validation losses are
    scored in VAL_BLOCK-row blocks, so row i's weights and loss are bitwise
    independent of the other rows.

    Returns ((k, P) weights, (k,) validation losses, failures), with
    failures[i] None or the first non-finite check that row i failed. An
    empty validation split falls back to the loss on the training split.
    """
    if w.layout_id != spec.layout_id:
        raise ConfigurationError(
            f"weight layout {w.layout_id} does not match spec {spec.layout_id}"
        )
    if any(len(s[1]) == 0 for s in shards):
        raise DataError("local_train: empty training split")
    widths = np.array([_padded_width(len(s[1]), hp.batch_size) for s in shards])
    trained = np.empty((len(shards), len(w.values)))
    failures = [None] * len(shards)
    for width in np.unique(widths):
        members = np.flatnonzero(widths == width)
        trained[members], group_failures = _sgd_pass(
            spec, w, hp, [shards[i] for i in members], [seeds[i] for i in members], width)
        for i, failure in zip(members, group_failures):
            failures[i] = failure
    sets = [(vx, vy) if len(vy) else (tx, ty) for tx, ty, vx, vy in shards]
    val_losses, _ = evaluate_stack(spec, trained, sets, VAL_BLOCK)
    for i in np.flatnonzero(~np.isfinite(val_losses)):
        if failures[i] is None:
            failures[i] = "non-finite post-training loss"
    return trained, val_losses, failures


def local_train(
    spec: ModelSpec,
    w: WeightVector,
    hp: TrainHp,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    rng_seed: int,
):
    """Run hp.epochs epochs of mini-batch SGD on one client shard.

    The one-shard case of train_stack. Returns (updated weights,
    validation loss), the loss measured after training with dropout
    disabled. Deterministic in all inputs; batch order reshuffles each
    epoch from rng_seed. An empty validation split falls back to the loss
    on the training split.
    """
    values, val_losses, failures = train_stack(
        spec, w, hp, [(train_features, train_labels, val_features, val_labels)], [rng_seed]
    )
    if failures[0] is not None:
        raise NumericDivergenceError(failures[0])
    return WeightVector(values[0], w.layout_id), float(val_losses[0])
