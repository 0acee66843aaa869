"""Trainable model: a small ReLU feed-forward embedder, a bias-free linear
classifier head, exact reverse-mode gradients, and per-prediction relevance.

A model is its layer widths ``(p, h1, ..., k, C)`` and one contiguous
float64 parameter vector.  The layout is each embedder layer's weight
``(fan_out, fan_in)`` then its bias, in layer order, then the head weight
``(k, C)``, each flattened row-major; ``param_views`` gives them as views of
the vector, so updating the vector in place updates the model.  Hidden
layers use ReLU and the last embedder layer is linear, by position.
``backward`` returns the batch-summed gradient as one vector in the same
layout, so an optimizer step is a few whole-vector operations.

R models of equal widths stack as one ``(R, P)`` array, one parameter
vector per row.  ``param_views``, ``forward`` and ``backward`` take that
leading run axis as it is: the views are ``(R, fan_out, fan_in)`` weights,
``(R, fan_out)`` biases and an ``(R, k, C)`` head, the input is ``(R, n,
input_dim)``, and each run's slice of every result has the bits the run's
own 2-D call gives (each product is the same matrix product per run, and
each sum runs over the same rows in the same order).

The head has no bias on purpose: every class logit then decomposes exactly
into per-dimension contributions (the relevance matrix), with nothing left
over.  Forward, backward and relevance work on batches, one row per sample
(a single sample is a 1-row batch).  ``forward`` computes the probabilities
and log-probabilities once, from the same max-shifted exponentials
(``softmax`` returns both), and the loss reads them from the trace.
``forward`` applies each hidden layer's ReLU in place, so a layer keeps one
array, its activation, and ``backward`` takes the ReLU mask from it
(``max(s, 0) > 0`` exactly when ``s > 0``, for every float).
``forward(..., into=trace)`` overwrites an earlier trace's arrays when the
input shape matches, so a loop allocates them once, and hands on the
gradient vector that ``backward`` writes, so a loop allocates it once per
model.  Only ``backward`` reads the layer inputs: a pass that never calls
it (``eval``, ``explain`` and ``compare``'s held-out scoring) runs
``forward(..., keep_inputs=False)``, which keeps none, so each hidden layer
is freed once the next one is made.  It runs the same operations on the
same arrays, so its results have the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def param_count(widths) -> int:
    """Length of the parameter vector of a model with widths ``(p, h1, ..., k, C)``."""
    layers = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-2], widths[1:-1]))
    return layers + widths[-2] * widths[-1]


def param_views(widths, params) -> tuple:
    """``([(weight, bias), ...], head)``: the embedder layers and the head weight
    of the model ``(widths, params)``, as views of ``params``.

    ``params`` is one vector ``(P,)`` or a stack ``(R, P)``; the views of a
    stack carry its run axis first."""
    count = param_count(widths)
    shape = np.shape(params)
    if len(shape) not in (1, 2) or shape[-1] != count:
        raise ValueError(f"parameter vector has shape {shape}, widths {tuple(widths)} "
                         f"need ({count},) or (runs, {count})")
    runs = shape[:-1]
    layers = []
    end = 0
    for fan_in, fan_out in zip(widths[:-2], widths[1:-1]):
        start, mid, end = end, end + fan_out * fan_in, end + (fan_in + 1) * fan_out
        layers.append((params[..., start:mid].reshape(*runs, fan_out, fan_in), params[..., mid:end]))
    return layers, params[..., end:].reshape(*runs, widths[-2], widths[-1])


def init_params(widths, emb_seed, clf_seed) -> np.ndarray:
    """Fan-in-scaled uniform initialization, deterministic per seed.

    Each weight is drawn from U(-sqrt(6/fan_in), sqrt(6/fan_in)): the embedder
    layers one by one from ``emb_seed``, then the head from ``clf_seed``.
    Biases start at zero.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 3 or min(widths) < 1:
        raise ValueError(f"widths {widths} must be (input_dim, ..., embedding_dim, class_count), each >= 1")
    params = np.zeros(param_count(widths))
    layers, head = param_views(widths, params)
    rng = np.random.default_rng(emb_seed)
    for weight, _ in layers:
        limit = np.sqrt(6.0 / weight.shape[1])
        weight[...] = rng.uniform(-limit, limit, size=weight.shape)
    limit = np.sqrt(6.0 / widths[-2])
    head[...] = np.random.default_rng(clf_seed).uniform(-limit, limit, size=head.shape)
    return params


def softmax(logits: np.ndarray) -> tuple:
    """Numerically stable softmax over the last axis: ``(probs, log_probs)``.

    Both come from the same max-shifted exponentials, so the log-probabilities
    stay finite for logits of very large magnitude.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, plus the public outputs.

    ``z`` is (n, embedding_dim); ``logits``, ``probs`` and ``log_probs``
    are (n, class_count), one row per input row (each with the run axis
    first for a stack).  ``grad`` is ``None`` until ``backward`` writes the
    gradient: then the vector and its views, which a trace that reuses this
    one keeps, so the next ``backward`` overwrites them.
    """

    widths: tuple
    params: np.ndarray
    views: tuple  # param_views(widths, params)
    inputs: list  # activations entering each layer, batched; none for inference
    z: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray
    grad: tuple | None = None  # (vector, param_views(widths, vector))


def forward(widths, params, X, into=None, *, keep_inputs=True) -> ForwardTrace:
    """Run the embedder and head on a batch (n, input_dim), caching what backward needs.

    For a stack of parameter vectors ``(R, P)`` the batch is ``(R, n,
    input_dim)``, one per run.  If ``into`` is an earlier trace of this
    parameter array and these widths on an input of this shape, the layer
    arrays, ``z`` and ``logits`` are written into its arrays (same values as
    fresh ones; ``into`` is stale afterwards); else they are new.  A trace of
    this parameter array and these widths hands on its gradient vector
    either way.  With ``keep_inputs=False`` the pass is for inference: the
    trace keeps no layer inputs, so each hidden layer is dropped once the
    next one exists, and ``backward`` refuses it; the results have the same
    bits.
    """
    widths = tuple(widths)
    same_model = into is not None and into.params is params and into.widths == widths
    views = into.views if same_model else param_views(widths, params)
    layers, head = views
    A = np.asarray(X, dtype=np.float64)
    runs = np.shape(params)[:-1]
    if A.ndim != len(runs) + 2 or A.shape[:-2] != runs or A.shape[-1] != widths[0]:
        raise ValueError(f"input has shape {A.shape}, embedder expects "
                         f"({', '.join([*map(str, runs), 'n', str(widths[0])])})")
    reuse = same_model and len(into.inputs) > 0 and into.inputs[0].shape == A.shape
    out = [*into.inputs[1:], into.z] if reuse else [None] * len(layers)
    inputs = []
    for i, ((weight, bias), A_out) in enumerate(zip(layers, out)):
        if keep_inputs:
            inputs.append(A)
        A = np.matmul(A, weight.swapaxes(-1, -2), out=A_out)
        A += bias[..., None, :]
        if i < len(layers) - 1:
            np.maximum(A, 0.0, out=A)
    logits = np.matmul(A, head, out=into.logits if reuse else None)
    probs, log_probs = softmax(logits)
    return ForwardTrace(widths, params, views, inputs, A, logits, probs, log_probs,
                        into.grad if same_model else None)


def backward(trace: ForwardTrace, grad_logits, grad_z_extra=None) -> np.ndarray:
    """Exact reverse-mode gradient of all parameters, in the parameter layout.

    ``grad_logits`` and ``grad_z_extra`` are the partials of a scalar loss
    with respect to the logits and (directly) the embedding, one row per
    sample; the returned gradient is the sum over the batch (per run, for
    a stack).  ``grad_z_extra=None`` means the loss has no direct embedding
    term.  The gradient is written into the trace's ``grad`` vector,
    allocated at the first call for this model.
    """
    layers, head = trace.views
    if len(trace.inputs) != len(layers):
        raise ValueError("the trace was made for inference (forward(..., keep_inputs=False)) and "
                         "keeps no layer inputs to take the gradient from")
    gL = np.asarray(grad_logits, dtype=np.float64)
    if gL.shape != trace.logits.shape:
        raise ValueError(f"grad_logits has shape {gL.shape}, expected {trace.logits.shape}")
    gZ = gL @ head.swapaxes(-1, -2)
    if grad_z_extra is not None:
        gE = np.asarray(grad_z_extra, dtype=np.float64)
        if gE.shape != trace.z.shape:
            raise ValueError(f"grad_z_extra has shape {gE.shape}, expected {trace.z.shape}")
        gZ = gZ + gE
    if trace.grad is None:
        vector = np.empty_like(trace.params)
        trace.grad = (vector, param_views(trace.widths, vector))
    grad, (grad_layers, grad_head) = trace.grad
    np.matmul(trace.z.swapaxes(-1, -2), gL, out=grad_head)
    gA = gZ
    for i in reversed(range(len(layers))):
        gS = gA * (trace.inputs[i + 1] > 0) if i < len(layers) - 1 else gA
        gS.sum(axis=-2, out=grad_layers[i][1])
        np.matmul(gS.swapaxes(-1, -2), trace.inputs[i], out=grad_layers[i][0])
        if i > 0:  # the input gradient of the first layer is not needed
            gA = gS @ layers[i][0]
    return grad


def relevance(head, Z) -> np.ndarray:
    """Relevance matrices of a batch of embeddings (n, k) under the bias-free head (k, C).

    Returns ``gamma`` (n, k, C) with ``gamma[i, j, c] = head[j, c] * z[i, j]``;
    its sums over ``j`` are the logits.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != head.shape[0]:
        raise ValueError(f"embeddings have shape {Z.shape}, expected (n, {head.shape[0]})")
    return head[None] * Z[:, :, None]
