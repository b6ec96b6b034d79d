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

    def copy(self) -> "WeightVector":
        return WeightVector(self.values.copy(), self.layout_id)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


@dataclass(frozen=True)
class TrainHp:
    """One local-training hyperparameter assignment."""

    learning_rate: float
    weight_decay: float
    local_epochs: int
    batch_size: int
    dropout: float

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate: must be >= 0")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay: must be >= 0")
        if self.local_epochs < 0:
            raise ConfigurationError("local_epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size: must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError("dropout: must be in [0, 1)")


def _unpack(spec: ModelSpec, values: np.ndarray):
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if spec.kind == LOGISTIC:
        w = values[: d * c].reshape(d, c)
        b = values[d * c : d * c + c]
        return w, b
    o = 0
    w1 = values[o : o + d * h].reshape(d, h)
    o += d * h
    b1 = values[o : o + h]
    o += h
    w2 = values[o : o + h * c].reshape(h, c)
    o += h * c
    b2 = values[o : o + c]
    return w1, b1, w2, b2


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


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Stabilized softmax cross-entropy. Returns (mean loss, dlogits)."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    exp_z = np.exp(z)
    denom = exp_z.sum(axis=1)
    log_probs = z - np.log(denom)[:, None]
    loss = -log_probs[np.arange(n), labels].mean()
    dlogits = exp_z / denom[:, None]
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def loss_and_grad(
    spec: ModelSpec,
    values: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    dropout_mask: np.ndarray | None = None,
):
    """Mean cross-entropy and its gradient w.r.t. the flat weight vector.

    dropout_mask, when given, is the inverted-dropout multiplier for the
    hidden activations (shape matching the hidden layer output).
    """
    labels = np.asarray(labels)
    if spec.kind == LOGISTIC:
        w, b = _unpack(spec, values)
        logits = features @ w + b
        loss, dlogits = _softmax_xent(logits, labels)
        dw = features.T @ dlogits
        db = dlogits.sum(axis=0)
        return loss, np.concatenate([dw.ravel(), db])
    w1, b1, w2, b2 = _unpack(spec, values)
    pre = features @ w1 + b1
    hidden = np.tanh(pre)
    if dropout_mask is not None:
        hidden = hidden * dropout_mask
    logits = hidden @ w2 + b2
    loss, dlogits = _softmax_xent(logits, labels)
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ w2.T
    if dropout_mask is not None:
        dhidden = dhidden * dropout_mask
    dpre = dhidden * (1.0 - np.tanh(pre) ** 2)
    dw1 = features.T @ dpre
    db1 = dpre.sum(axis=0)
    return loss, np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def sgd_step(values: np.ndarray, grad: np.ndarray, lr: float, weight_decay: float) -> np.ndarray:
    """w <- w - lr * (grad + weight_decay * w)."""
    return values - lr * (grad + weight_decay * values)


def evaluate(spec: ModelSpec, w: WeightVector, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and top-1 accuracy; dropout disabled, no mutation.

    Argmax ties break toward the lowest class index.
    """
    if len(labels) == 0:
        raise DataError("evaluate: empty evaluation set")
    if w.layout_id != spec.layout_id:
        raise ConfigurationError(
            f"weight layout {w.layout_id} does not match spec {spec.layout_id}"
        )
    labels = np.asarray(labels)
    if spec.kind == LOGISTIC:
        wm, b = _unpack(spec, w.values)
        logits = features @ wm + b
    else:
        w1, b1, w2, b2 = _unpack(spec, w.values)
        logits = np.tanh(features @ w1 + b1) @ w2 + b2
    loss, _ = _softmax_xent(logits, labels)
    pred = np.argmax(logits, axis=1)
    acc = float(np.mean(pred == labels))
    return float(loss), acc


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
    """Run hp.local_epochs epochs of mini-batch SGD on one client shard.

    Returns (updated weights, validation loss), the loss measured after
    training with dropout disabled. Deterministic in all inputs; batch
    order reshuffles each epoch from rng_seed. An empty validation split
    falls back to the loss on the training split.
    """
    if len(train_labels) == 0:
        raise DataError("local_train: empty training split")
    if w.layout_id != spec.layout_id:
        raise ConfigurationError(
            f"weight layout {w.layout_id} does not match spec {spec.layout_id}"
        )
    values = w.values.copy()
    rng = np.random.default_rng(rng_seed)
    n = len(train_labels)
    use_dropout = spec.kind == MLP and hp.dropout > 0.0
    keep = 1.0 - hp.dropout
    for _ in range(hp.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            xb, yb = train_features[idx], train_labels[idx]
            mask = None
            if use_dropout:
                mask = (rng.random((len(idx), spec.hidden_dim)) < keep) / keep
            loss, grad = loss_and_grad(spec, values, xb, yb, dropout_mask=mask)
            if not np.isfinite(loss):
                raise NumericDivergenceError("non-finite training loss")
            values = sgd_step(values, grad, hp.learning_rate, hp.weight_decay)
        if not np.all(np.isfinite(values)):
            raise NumericDivergenceError("non-finite weights after epoch")
    new_w = WeightVector(values, w.layout_id)
    if len(val_labels) > 0:
        val_loss, _ = evaluate(spec, new_w, val_features, val_labels)
    else:
        val_loss, _ = evaluate(spec, new_w, train_features, train_labels)
    if not np.isfinite(val_loss):
        raise NumericDivergenceError("non-finite post-training loss")
    return new_w, float(val_loss)
