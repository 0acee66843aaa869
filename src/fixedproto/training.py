"""Training: the prototype-matching loss, mixup over labels and coded
factors, SGD/Adam, and the minibatch loop.

A step minimizes the batch mean of ``CE(y, softmax(logits)) + lambda_p *
||z - p||^2``, with ``p`` the fixed prototype for a sample's label/factors
and ``lambda_p`` defaulting to ``1/embedding_dim``; ``loss`` hands
``backward`` that mean's partials.  With ``lambda_p = 0`` the prototype
machinery is skipped entirely, so such a run executes exactly the same
arithmetic as the plain cross-entropy baseline and yields bit-identical
parameters for the same seed.

``train`` returns the model, its widths and its one parameter vector (see
``fixedproto.model``), and the ``train-history`` document, the one record
of a run's epochs.  ``TrainConfig`` checks every field's type (an integer field takes
no bool or float), so a mistyped config fails naming the field before
anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_types, is_integer
from .metrics import accuracy
from .model import backward, forward, init_params

OPTIMIZERS = ("adam", "sgd")
LOSS_KINDS = ("proto", "ce")
EXTRACTOR_KEYS = {"class-orthogonal": ("kind", "seed"), "factor-coded": ("kind",)}


class DivergenceError(RuntimeError):
    """Raised when a batch-mean loss, or the parameters after an epoch's last
    step, stop being finite; ``value`` is the loss, or None for the parameters."""

    def __init__(self, epoch: int, batch: int, value: float | None):
        what = "the parameters went non-finite" if value is None else f"non-finite loss {value!r}"
        super().__init__(f"{what} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.value = value


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mixup_alpha: float = 0.0
    lambda_p: float | None = None  # None means 1/embedding_dim
    loss: str = "proto"
    hidden_dims: tuple = (64, 64)
    embedding_dim: int = 16
    train_fraction: float = 1.0
    seed: int = 0
    extractor: dict = field(default_factory=lambda: {"kind": "class-orthogonal"})

    def __post_init__(self):
        check_types(self, ints=("epochs", "batch_size", "embedding_dim", "seed"),
                    reals=("learning_rate", "adam_beta1", "adam_beta2", "adam_eps",
                           "mixup_alpha", "train_fraction"))
        if self.lambda_p is not None:
            check_types(self, reals=("lambda_p",))
        if not isinstance(self.hidden_dims, (list, tuple)) or not all(map(is_integer, self.hidden_dims)):
            raise TypeError(f"field 'hidden_dims' must be a list of integers, got {self.hidden_dims!r}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if not isinstance(self.extractor, dict) or "kind" not in self.extractor:
            raise TypeError(f"field 'extractor' must be an object with a 'kind' field, got {self.extractor!r}")
        kind = self.extractor["kind"]
        allowed = EXTRACTOR_KEYS.get(kind) if isinstance(kind, str) else None
        if allowed is None:
            raise ValueError(f"field 'extractor' has kind {kind!r}, expected one of {list(EXTRACTOR_KEYS)}")
        unknown = [key for key in self.extractor if key not in allowed]
        if unknown:
            raise ValueError(f"field 'extractor' has unknown key {unknown[0]!r}; "
                             f"a {kind} extractor takes {list(allowed)}")
        extractor_seed = self.extractor.get("seed", 0)
        if not is_integer(extractor_seed) or extractor_seed < 0:
            raise ValueError(f"field 'extractor' has seed {extractor_seed!r}, expected an integer >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.mixup_alpha < 0:
            raise ValueError("mixup_alpha must be >= 0")
        if self.lambda_p is not None and self.lambda_p < 0:
            raise ValueError("lambda_p must be >= 0")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if min(self.hidden_dims, default=1) < 1:
            raise ValueError("hidden_dims entries must be >= 1")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction must be in (0, 1]")

    def effective_lambda(self) -> float:
        return 1.0 / self.embedding_dim if self.lambda_p is None else float(self.lambda_p)

    @property
    def uses_prototypes(self) -> bool:
        """Whether training has a prototype term: the proto loss with nonzero weight."""
        return self.loss == "proto" and self.effective_lambda() != 0.0


def loss(y, trace, prototype, lambda_p: float):
    """Cross-entropy plus the prototype-matching penalty on a batch, as
    ``(ce, proto_sq, grad_logits, grad_z)``: the batch's sums of the two terms
    and the partials of its mean ``(ce + lambda_p * proto_sq) / n``.

    ``prototype=None`` is allowed only with ``lambda_p == 0`` and drops the
    penalty term: ``proto_sq`` is 0.0 and ``grad_z`` None.  Cross-entropy is
    computed from the trace's log-probabilities, so it stays finite for logits
    up to very large magnitudes.
    """
    y = np.asarray(y, dtype=np.float64)
    ce = float(np.sum(-(y * trace.log_probs).sum(axis=-1)))
    scale = 1.0 / trace.probs.shape[0]
    grad_logits = (trace.probs - y) * scale
    if prototype is None:
        if lambda_p != 0.0:
            raise ValueError("a prototype is required when lambda_p != 0")
        return ce, 0.0, grad_logits, None
    p = np.asarray(prototype, dtype=np.float64)
    diff = trace.z - p
    proto_sq = float(np.sum((diff * diff).sum(axis=-1)))
    return ce, proto_sq, grad_logits, (2.0 * lambda_p) * diff * scale


def mix_rows(a: np.ndarray, lam: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Mixup of a batch with itself.

    Row ``i`` becomes ``lam[i] * a[i] + (1 - lam[i]) * a[perm[i]]``.  Works
    on inputs, labels and (soft) level codes alike.  Factors must be coded
    before mixing: mixing raw values and re-discretizing would break the
    linearity of the prototypes.
    """
    lam = lam.reshape((-1,) + (1,) * (a.ndim - 1))
    return lam * a + (1.0 - lam) * a[perm]


class SGD:
    """Plain gradient descent on the parameter vector: p <- p - lr * g, in place."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        params -= self.learning_rate * grads


class Adam:
    """Adam with bias correction on the parameter vector, in place.

    The first and second moments are one vector each, shaped like the
    parameters and created at the first step, with two scratch vectors for
    the step's temporaries (the textbook operation order, so the same bits).
    """

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = None
        self.v = None
        self.scratch = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self.scratch = (np.empty_like(params), np.empty_like(params))
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        a, b = self.scratch
        self.m *= self.beta1
        self.m += np.multiply(grads, 1.0 - self.beta1, out=a)
        self.v *= self.beta2
        self.v += np.multiply(np.multiply(grads, grads, out=a), 1.0 - self.beta2, out=a)
        # params -= lr * (m / c1) / (sqrt(v / c2) + eps)
        a = np.multiply(np.divide(self.m, c1, out=a), self.learning_rate, out=a)
        b = np.add(np.sqrt(np.divide(self.v, c2, out=b), out=b), self.eps, out=b)
        params -= np.divide(a, b, out=a)


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return SGD(config.learning_rate)
    return Adam(config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps)


def train(dataset: Dataset, extractor, config: TrainConfig, val: Dataset | None = None):
    """Minibatch training; returns the model and its record, (widths, params, history).

    ``history`` is the ``train-history`` document, one row per epoch; a
    non-finite row raises ``ValueError``.

    The extractor's ``targets`` are looked up and checked once.  Each epoch
    gathers the inputs, labels and targets once in shuffled order, and each
    batch is a slice of them.  Per batch: mix the rows (with mixup), forward
    all samples, look up their fixed prototypes, average the per-sample
    losses, and take one optimizer step on the exact batch gradient.  The
    optimizer steps the model's one parameter vector in place, the vector
    returned.  The minibatch, full-set and validation passes each reuse
    their previous trace (``forward(into=)``).
    The extractor is read-only throughout.  Runs are deterministic for a
    fixed config seed: initialization, shuffling and mixup draw from
    independent child streams of it, in a fixed order.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    lambda_p = config.effective_lambda() if config.uses_prototypes else 0.0
    targets = None
    if config.uses_prototypes:
        if extractor is None:
            raise ValueError("prototype loss requires an extractor")
        if extractor.embedding_dim != config.embedding_dim:
            raise ValueError(
                f"extractor embedding_dim {extractor.embedding_dim} "
                f"does not match config embedding_dim {config.embedding_dim}"
            )
        targets = extractor.targets(dataset.Y, dataset.factors)
        if targets is None:
            raise ValueError(f"{extractor.kind} extractor needs a dataset with factor values")

    emb_seed, clf_seed, shuffle_seed, mix_seed = np.random.SeedSequence(config.seed).spawn(4)
    widths = (dataset.input_dim, *config.hidden_dims, config.embedding_dim, dataset.class_count)
    params = init_params(widths, emb_seed, clf_seed)
    rng_shuffle = np.random.default_rng(shuffle_seed)
    rng_mix = np.random.default_rng(mix_seed)
    opt = make_optimizer(config)

    X, Y = dataset.X, dataset.Y
    n = dataset.n
    rows = []
    trace = full_trace = val_trace = None
    for epoch in range(config.epochs):
        order = rng_shuffle.permutation(n)
        X_epoch, Y_epoch = X[order], Y[order]
        T_epoch = None if targets is None else targets[order]
        ce_sum = 0.0
        proto_sum = 0.0
        for batch_i, start in enumerate(range(0, n, config.batch_size)):
            batch = slice(start, start + config.batch_size)
            xb, yb = X_epoch[batch], Y_epoch[batch]
            tb = None if T_epoch is None else T_epoch[batch]
            size = len(xb)
            if config.mixup_alpha > 0:
                perm = rng_mix.permutation(size)
                lam = rng_mix.beta(config.mixup_alpha, config.mixup_alpha, size=size)
                xb, yb = mix_rows(xb, lam, perm), mix_rows(yb, lam, perm)
                if tb is not None:
                    tb = mix_rows(tb, lam, perm)
            trace = forward(widths, params, xb, into=trace)
            proto = None if tb is None else extractor.extract_batch(tb)
            ce, proto_sq, grad_logits, grad_z = loss(yb, trace, proto, lambda_p)
            batch_loss = (ce + lambda_p * proto_sq) / size
            if not np.isfinite(batch_loss):
                raise DivergenceError(epoch, batch_i, batch_loss)
            ce_sum += ce
            proto_sum += proto_sq
            opt.step(params, backward(trace, grad_logits, grad_z))
        if not np.isfinite(params).all():  # the last step's loss was finite, its update need not be
            raise DivergenceError(epoch, batch_i, None)
        ce_mean = ce_sum / n
        proto_mean = proto_sum / n
        full_trace = forward(widths, params, X, into=full_trace)
        train_acc = accuracy(full_trace.probs, Y)
        val_acc = None
        if val is not None:
            val_trace = forward(widths, params, val.X, into=val_trace)
            val_acc = accuracy(val_trace.probs, val.Y)
        row = {
            "epoch": epoch,
            "total_loss": ce_mean + lambda_p * proto_mean,
            "ce_loss": ce_mean,
            "prototype_loss": proto_mean,
            "train_accuracy": train_acc,
            "val_accuracy": val_acc,
        }
        if not np.all(np.isfinite([v for v in row.values() if v is not None])):
            raise ValueError(f"non-finite history entry at epoch {epoch}")
        rows.append(row)
    return widths, params, {
        "format": "train-history",
        "version": 1,
        "rows": rows,
    }
