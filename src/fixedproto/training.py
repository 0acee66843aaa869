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
of a run's epochs.  It is the one-run case of ``train_runs``, the one
minibatch loop, which trains R runs of equal shapes as one stack of
parameter vectors with each run's bits unchanged.  A row's prototype target
is one more part of the row: each epoch a run's inputs, labels and targets
form one block, and each batch is one slice of it, mixed once.
``TrainConfig`` checks every field's type (an integer field takes no bool
or float), so a mistyped config fails naming the field before anything
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, check_types, is_integer
from .metrics import accuracy
from .model import backward, forward, init_params

OPTIMIZERS = ("adam", "sgd")
LOSS_KINDS = ("proto", "ce")
EXTRACTOR_KEYS = {"class-orthogonal": ("kind", "seed"), "factor-coded": ("kind",)}


class DivergenceError(RuntimeError):
    """Raised when a batch-mean loss, the parameters after an epoch's last
    step, or an epoch's mean loss stop being finite; ``value`` is the loss,
    or None for the parameters.  An epoch's loss is placed at its last batch."""

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
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be > 0")
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

    On a stacked trace (see ``fixedproto.model``) ``y`` and ``prototype``
    carry the run axis too, and ``ce`` and ``proto_sq`` are per-run sums
    ``(R,)``.  ``prototype=None`` is allowed only with ``lambda_p == 0`` and
    drops the penalty term: ``proto_sq`` is 0.0 and ``grad_z`` None.
    Cross-entropy is computed from the trace's log-probabilities, so it stays
    finite for logits up to very large magnitudes.
    """
    y = np.asarray(y, dtype=np.float64)
    ce = (-(y * trace.log_probs).sum(axis=-1)).sum(axis=-1)
    scale = 1.0 / trace.probs.shape[-2]
    grad_logits = (trace.probs - y) * scale
    if prototype is None:
        if lambda_p != 0.0:
            raise ValueError("a prototype is required when lambda_p != 0")
        return ce, 0.0, grad_logits, None
    p = np.asarray(prototype, dtype=np.float64)
    diff = trace.z - p
    proto_sq = (diff * diff).sum(axis=-1).sum(axis=-1)
    return ce, proto_sq, grad_logits, (2.0 * lambda_p) * diff * scale


def mix_rows(a: np.ndarray, lam: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Mixup of a batch with itself.

    Row ``i`` becomes ``lam[i] * a[i] + (1 - lam[i]) * a[perm[i]]``.  For a
    stack ``(R, n, ...)``, ``lam`` and ``perm`` are ``(R, n)`` and row ``i``
    of run ``r`` mixes with row ``perm[r, i]`` of the same run.  Works on
    inputs, labels and (soft) level codes alike.  Factors must be coded
    before mixing: mixing raw values and re-discretizing would break the
    linearity of the prototypes.
    """
    partner = (perm,) if perm.ndim == 1 else (np.arange(len(perm))[:, None], perm)
    shape = lam.shape + (1,) * (a.ndim - lam.ndim)
    return lam.reshape(shape) * a + (1.0 - lam).reshape(shape) * a[partner]


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
    """Minibatch training of one run; returns the model and its record,
    ``(widths, params, history)``: the one run of ``train_runs``.

    ``history`` is the ``train-history`` document, one row per epoch, each
    scored on the full training set and on ``val``.  A batch loss, parameter
    vector or epoch loss that is not finite raises ``DivergenceError`` (an
    epoch loss that overflows at the epoch's last batch).  Runs are
    deterministic for a fixed config seed: initialization, shuffling and
    mixup draw from independent child streams of it, in a fixed order.
    """
    return train_runs([(dataset, extractor, config, val)])[0]


def _prototype_targets(dataset: Dataset, extractor, config: TrainConfig):
    """The rows the run's extractor takes for its dataset, looked up and
    checked once; None without a prototype term."""
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    if not config.uses_prototypes:
        return None
    if extractor is None:
        raise ValueError("prototype loss requires an extractor")
    if extractor.embedding_dim != config.embedding_dim:
        raise ValueError(
            f"extractor embedding_dim {extractor.embedding_dim} "
            f"does not match config embedding_dim {config.embedding_dim}"
        )
    targets = extractor.targets(dataset)
    if targets is None:
        raise ValueError(f"{extractor.kind} extractor needs a dataset with factor values")
    return targets


def _fail(failed: dict, bad, error) -> None:
    """Record ``error(r)`` for each run ``r`` flagged in ``bad`` that comes
    before every run already in ``failed``; raise it at once for run 0."""
    for r in np.flatnonzero(bad[:min(failed, default=len(bad))]):
        failed[int(r)] = error(r)
    if 0 in failed:
        raise failed[0]


# Divergence is caught by the explicit isfinite checks, so the overflow on
# the way to it is expected, not a warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_runs(runs, *, score_every_epoch: bool = True) -> list:
    """Train R >= 1 runs ``(dataset, extractor, config, val)`` in one loop;
    returns ``(widths, params, history)`` per run, each to the bit what
    training that run alone gives.

    The runs may differ in the config's seed, the dataset's rows, the
    extractor and ``val``; the rest of the configs, and the shapes of the
    datasets and of their prototype targets, must be equal (``ValueError``
    naming the first difference).  The parameters are one ``(R, P)`` array
    and each run's ``params`` is its row.  A run's rows are one block per
    epoch: its inputs, labels and prototype targets side by side as columns,
    gathered in its own shuffled order (a class-orthogonal run's targets are
    its labels, again; a run without a prototype term has none), so each
    batch is one slice of the stacked blocks.  Per batch: mix the slice once,
    each run's rows with its own draws (with mixup), forward the stack's
    inputs, look up each run's fixed prototypes from its targets, take the
    per-run losses, and take one optimizer step on the stack; the optimizers
    are elementwise, so each row steps as it would alone.  The minibatch
    pass and each run's full-set and validation passes reuse their previous
    trace (``forward(into=)``).  Extractors are read-only throughout.

    With ``score_every_epoch=False`` the full-set and validation passes run
    after the last epoch only: the other rows keep their losses and carry
    None for ``train_accuracy`` and ``val_accuracy``.  The last row, the
    parameters and every error are those of the default.

    Errors come as training the runs in order would raise them first: a run
    whose batch loss, parameters or epoch loss go non-finite is dropped with
    its ``DivergenceError`` (at its own epoch and batch), the runs after it
    stop mattering, and the error of the lowest such run is raised once no
    earlier run is left training.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("train_runs needs at least one run")
    datasets, extractors, configs, vals = zip(*runs)
    config = configs[0]
    for i, other in enumerate(configs[1:], 1):
        for f in fields(TrainConfig):
            if f.name != "seed" and getattr(other, f.name) != getattr(config, f.name):
                raise ValueError(f"run {i} differs from run 0 in config field {f.name!r}")
    targets = [_prototype_targets(ds, ex, config) for ds, ex in zip(datasets, extractors)]
    for i, (ds, t) in enumerate(zip(datasets[1:], targets[1:]), 1):
        for what, mine, first in (("inputs", ds.X, datasets[0].X), ("labels", ds.Y, datasets[0].Y),
                                  ("prototype targets", t, targets[0])):
            if np.shape(mine) != np.shape(first):
                raise ValueError(f"run {i} has {what} of shape {np.shape(mine)}, run 0 {np.shape(first)}")
    lambda_p = config.effective_lambda() if config.uses_prototypes else 0.0

    R = len(runs)
    seeds = [np.random.SeedSequence(c.seed).spawn(4) for c in configs]
    widths = (datasets[0].input_dim, *config.hidden_dims, config.embedding_dim, datasets[0].class_count)
    params = np.stack([init_params(widths, emb_seed, clf_seed) for emb_seed, clf_seed, _, _ in seeds])
    # Each run's full-set and validation passes are 2-D, on one vector that
    # holds that run's parameters, so one trace each serves every run and
    # epoch: R of them would hold R times the memory.
    shown = np.empty_like(params[0])
    rng_shuffle = [np.random.default_rng(s[2]) for s in seeds]
    rng_mix = [np.random.default_rng(s[3]) for s in seeds]
    opt = make_optimizer(config)

    n, p = datasets[0].X.shape
    C = datasets[0].class_count
    d = 0 if targets[0] is None else targets[0][0].size
    # Each epoch's shuffled rows, one block per run, written in place: the
    # inputs, the labels, then the prototype targets flattened (none for a
    # run without a prototype term), so that a batch is one slice.
    block = np.empty((R, n, p + C + d))
    rows = [[] for _ in runs]
    failed = {}  # run -> the error training it alone raises
    trace = full_trace = val_trace = None
    for epoch in range(config.epochs):
        for r, (ds, t, rng) in enumerate(zip(datasets, targets, rng_shuffle)):
            order = rng.permutation(n)
            block[r, :, :p] = ds.X[order]
            block[r, :, p:p + C] = ds.Y[order]
            if d:
                block[r, :, p + C:] = t[order].reshape(n, d)
        ce_sum = np.zeros(R)
        proto_sum = np.zeros(R)
        for batch_i, start in enumerate(range(0, n, config.batch_size)):
            batch = block[:, start:start + config.batch_size]
            size = batch.shape[1]
            if config.mixup_alpha > 0:
                draws = [(rng.permutation(size), rng.beta(config.mixup_alpha, config.mixup_alpha, size=size))
                         for rng in rng_mix]
                perms, lams = map(np.array, zip(*draws))
                batch = mix_rows(batch, lams, perms)
            # The labels as one contiguous copy: ``loss`` runs two elementwise
            # passes over them, which are slower on a strided column view.
            xb, yb = batch[..., :p], batch[..., p:p + C].copy()
            trace = forward(widths, params, xb, into=trace)
            proto = None
            if d:
                tb = batch[..., p + C:].reshape(R, size, *targets[0].shape[1:])
                proto = np.empty_like(trace.z)
                for r, (ex, t) in enumerate(zip(extractors, tb)):
                    proto[r] = ex.extract_batch(t)
            ce, proto_sq, grad_logits, grad_z = loss(yb, trace, proto, lambda_p)
            batch_loss = (ce + lambda_p * proto_sq) / size
            if not np.isfinite(batch_loss).all():
                _fail(failed, ~np.isfinite(batch_loss),
                      lambda r: DivergenceError(epoch, batch_i, float(batch_loss[r])))
            ce_sum += ce
            proto_sum += proto_sq
            opt.step(params, backward(trace, grad_logits, grad_z))
        # The last step's loss was finite, its update need not be.
        _fail(failed, ~np.isfinite(params).all(axis=1), lambda r: DivergenceError(epoch, batch_i, None))
        # Each batch's mean was finite, the epoch's sums need not be.
        ce_mean = ce_sum / n
        proto_mean = proto_sum / n
        total = ce_mean + lambda_p * proto_mean
        _fail(failed, ~np.isfinite(total), lambda r: DivergenceError(epoch, batch_i, float(total[r])))
        scored = score_every_epoch or epoch == config.epochs - 1
        for r in range(min(failed, default=R)):
            train_acc = val_acc = None
            if scored:
                shown[...] = params[r]
                full_trace = forward(widths, shown, datasets[r].X, into=full_trace)
                train_acc = accuracy(full_trace.probs, datasets[r].Y)
                if vals[r] is not None:
                    val_trace = forward(widths, shown, vals[r].X, into=val_trace)
                    val_acc = accuracy(val_trace.probs, vals[r].Y)
            rows[r].append({
                "epoch": epoch,
                "total_loss": float(total[r]),
                "ce_loss": float(ce_mean[r]),
                "prototype_loss": float(proto_mean[r]),
                "train_accuracy": train_acc,
                "val_accuracy": val_acc,
            })
    if failed:
        raise failed[min(failed)]
    return [(widths, params[r], {"format": "train-history", "version": 1, "rows": rows[r]})
            for r in range(R)]
