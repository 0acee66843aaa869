"""Shared test helpers: finite-difference oracle, error measures, hand-made
models and datasets, a factor-coded extractor for layout tests, the
generator's levels read back from its factor values, a loss whose epoch
sums overflow, and the environment of a child process."""

import os

import numpy as np

import fixedproto
from fixedproto.data import LEVEL_BANDS, Dataset
from fixedproto.prototypes import FactorCodedExtractor, FactorCoder


def central_difference(f, arrays, step=1e-5):
    """Gradient of the scalar ``f()`` w.r.t. each array, by central differences.

    Perturbs entries in place and restores them; independent of any
    analytic gradient code.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + step
            f_plus = f()
            arr[ix] = orig - step
            f_minus = f()
            arr[ix] = orig
            g[ix] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-10):
    """Largest elementwise relative error between two gradient lists."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def factor_extractor(names, embedding_dim):
    """A factor-coded extractor for the named factors; its thresholds do not matter."""
    zeros = np.zeros(len(names))
    return FactorCodedExtractor(FactorCoder(names=names, lower=zeros, upper=zeros), embedding_dim)


def rows_dataset(labels=None, factors=None, factor_names=None):
    """A ``Dataset`` of the given label rows ``(n, C)`` and raw factor values
    ``(n, m)``, either of which may be left out, with one zero feature per row.
    Without labels every row is of the one class "0"; the factors are named
    ``alpha_i`` unless ``factor_names`` names them.  The constructor checks
    the rows as it checks every dataset's."""
    labels = np.ones((len(factors), 1)) if labels is None else np.asarray(labels, dtype=np.float64)
    if factor_names is None:
        factor_names = () if factors is None else tuple(f"alpha_{i}" for i in range(np.shape(factors)[-1]))
    return Dataset(X=np.zeros((len(labels), 1)), Y=labels, factors=factors,
                   class_names=tuple(str(c) for c in range(labels.shape[-1])), factor_names=factor_names)


def true_levels(factors) -> np.ndarray:
    """Recover generating levels from generated factor values.

    Inverts the generator's level bands exactly: values below -0.5 were drawn
    as level 0, values from -0.5 up to (excluding) 0.5 as level 1, the rest
    as level 2.  Only meaningful for data from ``generate_synthetic``.
    """
    a = np.asarray(factors, dtype=np.float64)
    return (a >= LEVEL_BANDS[0][1]).astype(np.int64) + (a >= LEVEL_BANDS[1][1]).astype(np.int64)


def pack(layers, head):
    """The model ``(widths, params)`` with the given ``[(weight, bias), ...]``
    embedder layers and head weight, concatenated in the documented layout:
    each layer's weight then its bias, then the head, each row-major."""
    widths = (np.shape(layers[0][0])[1], *[np.shape(weight)[0] for weight, _ in layers], np.shape(head)[1])
    arrays = [a for layer in layers for a in layer] + [head]
    return widths, np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)


def overflowing_loss(threshold=-np.inf):
    """A stand-in for ``training.loss`` with zero gradients, so the
    parameters never move.  A run whose batch starts with a first input above
    ``threshold`` gets a batch sum of 1e308, a finite batch mean; the others
    get 1.0.  Two such batches overflow the epoch's sum."""
    def fake(y, trace, prototype, lambda_p):
        marked = trace.inputs[0][:, 0, 0] > threshold
        grad_z = None if prototype is None else np.zeros_like(trace.z)
        return np.where(marked, 1e308, 1.0), 0.0, np.zeros_like(trace.logits), grad_z
    return fake


def child_env(**extra):
    """The environment of a child that imports the same package as this
    process, installed or not, with ``extra`` set on top."""
    src = os.path.dirname(os.path.dirname(fixedproto.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **extra}
