"""Small differentiable models trained by mini-batch SGD.

Two architectures are supported: multinomial logistic regression and a
one-hidden-layer MLP with tanh activation and (inverted) dropout on the
hidden layer. Parameters live in a single flat vector so that federated
averaging is a plain vector mean.
"""

from dataclasses import dataclass, replace

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

    @property
    def layers(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input first; each holds a matrix, then a bias."""
        d, h, c = self.input_dim, self.hidden_dim, self.num_classes
        return [(d, c)] if self.kind == LOGISTIC else [(d, h), (h, c)]


@dataclass
class WeightVector:
    """Flat model parameters tied to an architecture via layout_id."""

    values: np.ndarray
    layout_id: str


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
    lead = (values.shape[0],) + (1,) * extra
    out, o = [], 0
    for fan_in, fan_out in spec.layers:
        out.append(values[:, o : o + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        o += fan_in * fan_out
        out.append(values[:, o : o + fan_out].reshape(*lead, 1, fan_out))
        o += fan_out
    return out


def init_weights(spec: ModelSpec, seed: int) -> WeightVector:
    """Per-layer uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in spec.layers:  # one draw per layer, input first
        bound = 1.0 / np.sqrt(fan_in)
        parts += [rng.uniform(-bound, bound, size=fan_in * fan_out), np.zeros(fan_out)]
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


def _softmax_parts(logits: np.ndarray, labels: np.ndarray, pick: bool = True):
    """Stabilized log-softmax over the last axis.

    Returns (log-probability of each row's label, exp of the shifted
    logits, their sum). A label of -1 reads the last class; callers mask
    those rows. Without pick the log-probabilities are None if every
    shifted logit is finite, which makes every one of them finite.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    exp_z = np.exp(z)
    denom = exp_z.sum(axis=-1, keepdims=True)
    if not pick and np.isfinite(z.min(initial=0.0)):
        return None, exp_z, denom
    flat = z.reshape(-1, z.shape[-1])
    picked = flat[np.arange(len(flat)), labels.reshape(-1)].reshape(labels.shape) \
        - np.log(denom[..., 0])
    return picked, exp_z, denom


def loss_and_grad(spec: ModelSpec, values: np.ndarray, features: np.ndarray, labels: np.ndarray,
                  dropout_mask: np.ndarray | None = None, with_loss: bool = True):
    """Mean cross-entropy and its gradient w.r.t. the flat weight vector.

    One model: values (P,), features (n, d), labels (n,); returns a scalar
    loss and a (P,) gradient. A stack of k models: values (k, P), features
    (k, rows, d), labels (k, rows); returns (k,) losses and a (k, P)
    gradient, row i computed from row i alone. A label of -1 marks a
    padding row, which contributes nothing; each row's mean divides by its
    own count of real rows. dropout_mask, when given, is the
    inverted-dropout multiplier for the hidden activations (shape matching
    the hidden layer output). Without with_loss the gradient alone is
    returned, with the same bytes, and the loss is computed only if some
    row's may be non-finite: such a row's gradient is NaN instead, so its
    weights stay non-finite from that step on.
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
    picked, exp_z, denom = _softmax_parts(logits, labels, pick=with_loss)
    real = labels >= 0
    count = real.sum(axis=-1)
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
    if picked is not None:
        loss = -np.where(real, picked, 0.0).sum(axis=-1) / count
        if with_loss:
            return (loss[0], grad[0]) if single else (loss, grad)
        grad[~np.isfinite(loss)] = np.nan
    return grad[0] if single else grad


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


def _blocks(offsets, sizes, block: int, pad: int) -> np.ndarray:
    """(k, blocks, block) row indices: row i reads sizes[i] rows from
    offsets[i] on, in blocks of `block`, and the row pad after them."""
    nblocks = -(-int(sizes.max(initial=0)) // block)
    pos = np.arange(nblocks * block)
    idx = np.where(pos < sizes[:, None], offsets[:, None] + pos, pad)
    return idx.reshape(len(sizes), nblocks, block)


@np.errstate(over="ignore", invalid="ignore")
def _score(spec: ModelSpec, values: np.ndarray, x, y, sizes, accuracy: bool):
    """Mean cross-entropy of weight row i on the row blocks x[i], y[i] (each
    (blocks, block, ...), gathered by _blocks), its block sums added in
    order, and with accuracy its top-1 accuracy too. Float overflow is
    silenced: it shows as a non-finite loss."""
    logits, _, _ = _forward(spec, _unpack(spec, values, extra=1), x)
    picked, _, _ = _softmax_parts(logits, y)
    real = y >= 0
    block_sums = np.where(real, picked, 0.0).sum(axis=-1)
    total = block_sums[:, 0]
    for j in range(1, y.shape[1]):
        total = total + block_sums[:, j]
    if not accuracy:
        return -total / sizes
    hits = (real & (np.argmax(logits, axis=-1) == y)).sum(axis=(1, 2))
    return -total / sizes, hits / sizes


def evaluate_stack(spec: ModelSpec, values: np.ndarray, sets, block: int | None = None):
    """Mean cross-entropy and top-1 accuracy of weight row i on sets[i].

    values is a (k, P) weight stack and sets[i] a nonempty (features,
    labels) pair; dropout is disabled. Each set is scored in blocks of
    `block` rows (default: the largest set), the last one padded; block
    sums are added in order. With a fixed block, row i's result does not
    depend on the other rows. Argmax ties break toward the lowest class
    index. Float overflow shows as a non-finite loss, which train_stack
    reports as a failure. Returns ((k,) losses, (k,) accuracies).
    """
    sizes = np.array([len(y) for _, y in sets])
    if not sizes.all():
        raise DataError("evaluate: empty evaluation set")
    if len(sets) == 1 and block in (None, sizes[0]):  # one block: the set itself, in place
        (features, labels), = sets
        return _score(spec, values, np.ascontiguousarray(features, dtype=np.float64)[None, None],
                      np.asarray(labels, dtype=np.int64)[None, None], sizes, accuracy=True)
    features, labels, offsets = _pool(sets, spec.input_dim)
    idx = _blocks(offsets, sizes, block or int(sizes.max()), len(labels) - 1)
    return _score(spec, values, features[idx], labels[idx], sizes, accuracy=True)


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


@dataclass(frozen=True)
class ShardPool:
    """The rows every pass over a fixed list of shards reads, pooled once.

    features and labels hold every shard's training rows, then every
    shard's validation rows, then one padding row (zero features, label
    -1). Shard i trains on sizes[i] rows from offsets[i]. val_features[i]
    and val_labels[i] are its validation rows, or its training rows if it
    has none, gathered in VAL_BLOCK-row blocks padded with the padding row
    (_blocks), and val_sizes[i] counts them. scale is max(1, max |features|),
    0-d. Every array is read-only.
    """

    features: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    val_features: np.ndarray
    val_labels: np.ndarray
    val_sizes: np.ndarray
    scale: np.ndarray


def pool_shards(input_dim: int, shards) -> ShardPool:
    """The ShardPool of shards, each (train_features, train_labels,
    val_features, val_labels)."""
    k = len(shards)
    features, labels, offsets = _pool([s[:2] for s in shards] + [s[2:] for s in shards],
                                      input_dim)
    sizes = np.array([len(s[1]) for s in shards], dtype=np.int64)
    has_val = np.array([len(s[3]) > 0 for s in shards])
    val_sizes = np.where(has_val, [len(s[3]) for s in shards], sizes)
    val = _blocks(np.where(has_val, offsets[k:], offsets[:k]), val_sizes, VAL_BLOCK,
                  len(labels) - 1)
    pool = ShardPool(features, labels, offsets[:k], sizes, features[val], labels[val], val_sizes,
                     np.array(max(1.0, np.abs(features).max())))
    for a in vars(pool).values():
        a.flags.writeable = False
    return pool


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


@dataclass(frozen=True)
class BatchPlan:
    """What a stacked SGD pass over shards of one padded width draws and gathers.

    It depends on the shards, their seeds, epochs, batch_size and whether
    dropout is on, never on the learning rate, weight decay or dropout
    rate, so passes of several configs under one training key can share
    it. Stack row r trains shard order[r]; rows run longest first, so step
    t trains rows 0..active[t]-1 on entries start[t]:start[t+1]. Every
    array is read-only.
    """

    order: np.ndarray  # (rows,): the position in the shard list each row trains
    active: np.ndarray
    start: np.ndarray
    epoch_end: np.ndarray  # (entries,): the entry is its row's last batch of an epoch
    features: np.ndarray  # (entries, width, input_dim) batch features
    labels: np.ndarray  # (entries, width); -1 marks a padding row
    uniforms: np.ndarray | None  # (entries, width, hidden) dropout draws; 1.0 on padding


def plan_key(spec: ModelSpec, hp: TrainHp) -> tuple:
    """(epochs, batch_size, dropout on): the parts of hp a BatchPlan depends on."""
    return hp.epochs, hp.batch_size, spec.kind == MLP and hp.dropout > 0.0


@dataclass(frozen=True)
class BatchLayout:
    """What a BatchPlan of one padded width holds before any seed draws:
    plan, without the three arrays it gathers (None); slots, its batches of
    row indices unshuffled, each row's epochs back to back, slot p of an
    epoch reading the shard's p-th row; batch_of[e], the batch entry e
    reads; and draws, per training row, (shard position, rows, the flat
    slot offset of each epoch). Every array is read-only."""

    plan: BatchPlan
    slots: np.ndarray  # (batches, width)
    batch_of: np.ndarray
    draws: tuple


def _layout(pool: ShardPool, members, width: int, epochs: int) -> BatchLayout:
    """The BatchLayout of the pool's shards `members`, padded to `width` rows."""
    sizes = pool.sizes[members]
    batches = -(-sizes // width)
    # Longest rows first, so the rows still training at any step are a prefix.
    rank = np.argsort(-batches, kind="stable")
    order, sizes, batches = members[rank], sizes[rank], batches[rank]
    steps = epochs * batches
    base = np.concatenate([[0], np.cumsum(steps * width)])
    row = np.repeat(np.arange(len(order)), steps * width)
    p = (np.arange(base[-1]) - base[row]) % (batches * width)[row]
    slots = np.where(p < sizes[row], pool.offsets[order][row] + p, len(pool.labels) - 1)
    # Step t trains rows 0..active[t]-1, each on its t-th batch.
    step_of, row_of = np.nonzero(steps > np.arange(steps.max(initial=0))[:, None])
    active = np.bincount(step_of, minlength=steps.max(initial=0))
    start = np.concatenate([[0], np.cumsum(active)])
    plan = BatchPlan(order, active, start, (step_of + 1) % batches[row_of] == 0, None, None, None)
    draws = zip(order.tolist(), sizes.tolist(), base.tolist(), base[1:].tolist(), batches.tolist())
    layout = BatchLayout(plan, slots.reshape(-1, width), base[row_of] // width + step_of, tuple(
        (i, n, tuple(range(b, e, k * width))) for i, n, b, e, k in draws if e > b))
    for a in (order, active, start, plan.epoch_end, layout.slots, layout.batch_of):
        a.flags.writeable = False
    return layout


def _draw(spec: ModelSpec, pool: ShardPool, seeds, layout: BatchLayout, dropout: bool):
    """The BatchPlan of layout under seeds: each epoch's draw shuffles a
    copy of its slots in place, then draws its dropout uniforms."""
    slots = layout.slots.copy()
    flat = slots.reshape(-1)
    uniforms = np.ones((len(flat), spec.hidden_dim)) if dropout else None
    for i, n, starts in layout.draws:
        rng = np.random.default_rng(seeds[i])
        for o in starts:
            rng.shuffle(flat[o : o + n])  # the draws of rng.permutation(n)
            if dropout:
                rng.random(out=uniforms[o : o + n])
    idx = slots[layout.batch_of]
    if dropout:
        uniforms = uniforms.reshape(-1, slots.shape[1], spec.hidden_dim)[layout.batch_of]
    plan = replace(layout.plan, features=pool.features[idx], labels=pool.labels[idx],
                   uniforms=uniforms)
    for a in vars(plan).values():
        if a is not None:
            a.flags.writeable = False
    return plan


def plan_batches(spec: ModelSpec, pool: ShardPool, seeds, epochs: int, batch_size: int,
                 dropout: bool, layouts: dict | None = None) -> tuple[BatchPlan, ...]:
    """The BatchPlans of a train_stack pass over pool, one per padded width,
    widest last.

    seeds[i] keys shard i's RNG: each epoch draws permutation(n) for the
    batch order, then, if dropout is on, one random((n, hidden)) whose rows
    are the batches' dropout draws in order. Batches pad to a width that is
    batch_size unless the shard is much smaller (_padded_width). epochs,
    batch_size and dropout are plan_key of the pass's spec and hp. layouts,
    when given, keeps pool's BatchLayouts by (epochs, batch_size) for reuse.
    """
    layouts = {} if layouts is None else layouts
    if (epochs, batch_size) not in layouts:
        if not pool.sizes.all():
            raise DataError("plan_batches: empty training split")
        widths = np.array([_padded_width(n, batch_size) for n in pool.sizes.tolist()])
        layouts[epochs, batch_size] = tuple(
            _layout(pool, np.flatnonzero(widths == width), width, epochs)
            for width in np.unique(widths))
    return tuple(_draw(spec, pool, seeds, layout, dropout)
                 for layout in layouts[epochs, batch_size])


@np.errstate(over="ignore", invalid="ignore")
def _sgd_pass(spec: ModelSpec, w: WeightVector, hp: TrainHp, plan: BatchPlan):
    """Stacked SGD over one BatchPlan under hp, on gradients alone.

    Float overflow is silenced. A row whose loss goes non-finite keeps
    non-finite weights (loss_and_grad); one with non-finite weights where
    an epoch ends fails there and is zeroed, finite for validation.
    Returns ((rows, P) weights, failures), both in stack-row order.
    """
    keep = 1.0 - hp.dropout
    # Thresholded once per pass, scaled per step: the boolean mask is an
    # eighth the size of a pass-wide float multiplier, which would hold a
    # second array as large as the uniforms for the whole pass.
    kept = None if plan.uniforms is None else plan.uniforms < keep
    values = np.tile(w.values, (len(plan.order), 1))
    failures = [None] * len(plan.order)
    for t, m in enumerate(plan.active):
        s = slice(plan.start[t], plan.start[t + 1])
        grad = loss_and_grad(spec, values[:m], plan.features[s], plan.labels[s],
                             dropout_mask=None if kept is None else kept[s] / keep,
                             with_loss=False)
        values[:m] = sgd_step(values[:m], grad, hp.learning_rate, hp.weight_decay)
        ends = plan.epoch_end[s]
        if ends.any():
            for r in np.flatnonzero(ends & ~np.isfinite(values[:m]).all(axis=1)):
                failures[r] = failures[r] or "non-finite weights after epoch"
                values[r] = 0.0
    return values, failures


@np.errstate(over="ignore")  # an L1 norm that overflows scores its row
def train_stack(spec: ModelSpec, w: WeightVector, hp: TrainHp, pool: ShardPool, plans,
                score: bool = True):
    """Train one copy of w per shard of pool with mini-batch SGD, in stacked passes.

    plans is plan_batches of pool under *plan_key(spec, hp), which fixes
    every batch and dropout draw. Every step runs forward and backward for
    all rows still training on (rows, width, ...) arrays; padding rows add
    nothing. Rows of one width share a pass, and validation losses are
    scored on pool's VAL_BLOCK-row validation blocks, so row i's weights
    and loss are bitwise independent of the other rows.

    Without score, a row is scored only if its loss could be non-finite,
    and an unscored row's loss is nan. A row whose L1 norm times
    pool.scale is below 1e300 has finite weights, and no validation
    pre-activation or logit can exceed that bound, so its loss is finite.

    Returns ((k, P) weights, (k,) validation losses, failures), with
    failures[i] None or the first non-finite check that row i failed
    (_sgd_pass's, then the validation loss). An empty validation split
    falls back to the loss on the training split.
    """
    if w.layout_id != spec.layout_id:
        raise ConfigurationError(
            f"weight layout {w.layout_id} does not match spec {spec.layout_id}"
        )
    trained = np.empty((len(pool.sizes), len(w.values)))
    failures = [None] * len(pool.sizes)
    for plan in plans:
        trained[plan.order], row_failures = _sgd_pass(spec, w, hp, plan)
        for i, failure in zip(plan.order, row_failures):
            failures[i] = failure
    rows = slice(None) if score else np.flatnonzero(~(pool.scale * abs(trained).sum(1) < 1e300))
    val_losses = np.full(len(trained), np.nan)
    if score or rows.size:
        val_losses[rows] = _score(spec, trained[rows], pool.val_features[rows],
                                  pool.val_labels[rows], pool.val_sizes[rows], accuracy=False)
    for i in np.arange(len(trained))[rows][~np.isfinite(val_losses[rows])]:
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
    pool = pool_shards(spec.input_dim, [(train_features, train_labels, val_features,
                                         val_labels)])
    values, val_losses, failures = train_stack(
        spec, w, hp, pool, plan_batches(spec, pool, [rng_seed], *plan_key(spec, hp)))
    if failures[0] is not None:
        raise NumericDivergenceError(failures[0])
    return WeightVector(values[0], w.layout_id), float(val_losses[0])
