"""Shared test helpers: finite-difference oracle, error measures, hand-made
models and a factor-coded extractor for layout tests."""

import numpy as np

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


def pack(layers, head):
    """The model ``(widths, params)`` with the given ``[(weight, bias), ...]``
    embedder layers and head weight, concatenated in the documented layout:
    each layer's weight then its bias, then the head, each row-major."""
    widths = (np.shape(layers[0][0])[1], *[np.shape(weight)[0] for weight, _ in layers], np.shape(head)[1])
    arrays = [a for layer in layers for a in layer] + [head]
    return widths, np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
