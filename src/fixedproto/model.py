"""Trainable model: a small ReLU feed-forward embedder, a bias-free linear
classifier head, exact reverse-mode gradients, and per-prediction relevance.

The head has no bias on purpose: every class logit then decomposes exactly
into per-dimension contributions (the relevance matrix), with nothing left
over.  Forward, backward and relevance work on batches, one row per sample
(a single sample is a 1-row batch).  ``forward`` computes the probabilities
and log-probabilities once, from the same max-shifted exponentials
(``softmax`` returns both), and the loss reads them from the trace.
``forward(..., into=trace)`` overwrites an earlier trace's arrays when the
input shape matches, so a loop allocates them once.

Training keeps every parameter in one contiguous vector (``flat_params``):
the layer weights and biases and the head weight are views of it, and
``backward`` returns the batch-summed gradient as one vector in the same
layout, so an optimizer step is a few whole-vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "identity")


@dataclass
class Layer:
    weight: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("layer weight/bias shapes are inconsistent")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters contain non-finite entries")


@dataclass
class EmbedderParams:
    """Feed-forward embedder parameters; ReLU hidden layers, identity output."""

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ValueError("embedder needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[0] != nxt.weight.shape[1]:
                raise ValueError("consecutive layer shapes do not compose")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


@dataclass
class ClassifierParams:
    """Bias-free linear head; logits are ``weight.T @ z``."""

    weight: np.ndarray  # (embedding_dim, class_count)

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ValueError("classifier weight must be 2-D (embedding_dim, class_count)")
        if not np.all(np.isfinite(self.weight)):
            raise ValueError("classifier weight contains non-finite entries")

    @property
    def embedding_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def class_count(self) -> int:
        return self.weight.shape[1]


def init_embedder(input_dim: int, hidden_dims, embedding_dim: int, seed) -> EmbedderParams:
    """Fan-in-scaled uniform initialization, deterministic per seed.

    Weights are drawn from U(-sqrt(6/fan_in), sqrt(6/fan_in)); biases start
    at zero.  Hidden layers use ReLU, the output layer is linear.
    """
    dims = [int(input_dim), *[int(h) for h in hidden_dims], int(embedding_dim)]
    if any(d < 1 for d in dims):
        raise ValueError("all layer widths must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / fan_in)
        weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        activation = "relu" if i < len(dims) - 2 else "identity"
        layers.append(Layer(weight=weight, bias=np.zeros(fan_out), activation=activation))
    return EmbedderParams(layers=layers)


def init_classifier(embedding_dim: int, class_count: int, seed) -> ClassifierParams:
    """Fan-in-scaled uniform initialization of the bias-free head."""
    if embedding_dim < 1 or class_count < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / embedding_dim)
    return ClassifierParams(weight=rng.uniform(-limit, limit, size=(embedding_dim, class_count)))


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
    are (n, class_count), one row per input row.
    """

    embedder: EmbedderParams
    classifier: ClassifierParams
    inputs: list  # activations entering each layer, batched
    pre_activations: list  # per layer, batched
    z: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


def forward(embedder: EmbedderParams, classifier: ClassifierParams, X, into=None) -> ForwardTrace:
    """Run the embedder and head on a batch (n, input_dim), caching what backward needs.

    If ``into`` is an earlier trace of this model on an input of this shape,
    the layer arrays, ``z`` and ``logits`` are written into its arrays (same
    values as fresh ones; ``into`` is stale afterwards); else they are new.
    """
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != embedder.input_dim:
        raise ValueError(f"input has shape {A.shape}, embedder expects (n, {embedder.input_dim})")
    if classifier.embedding_dim != embedder.embedding_dim:
        raise ValueError("classifier embedding_dim does not match embedder output")
    reuse = (into is not None and into.embedder is embedder and into.classifier is classifier
             and into.inputs[0].shape == A.shape)
    pre_out = into.pre_activations if reuse else [None] * len(embedder.layers)
    act_out = [*into.inputs[1:], into.z] if reuse else pre_out
    inputs = []
    pres = []
    for layer, S_out, A_out in zip(embedder.layers, pre_out, act_out):
        inputs.append(A)
        S = np.matmul(A, layer.weight.T, out=S_out)
        S += layer.bias
        pres.append(S)
        A = np.maximum(S, 0.0, out=A_out) if layer.activation == "relu" else S
    logits = np.matmul(A, classifier.weight, out=into.logits if reuse else None)
    probs, log_probs = softmax(logits)
    return ForwardTrace(
        embedder=embedder,
        classifier=classifier,
        inputs=inputs,
        pre_activations=pres,
        z=A,
        logits=logits,
        probs=probs,
        log_probs=log_probs,
    )


def flat_params(embedder: EmbedderParams, classifier: ClassifierParams) -> np.ndarray:
    """All parameters as one contiguous float64 vector, shared with the model.

    The layout is each layer's weight then its bias, in layer order, then the
    head weight, each flattened row-major; ``backward`` returns gradients in
    the same layout.  The model's arrays are rebound as views of the vector,
    so updating the vector in place updates the model.
    """
    owners = [(layer, name) for layer in embedder.layers for name in ("weight", "bias")]
    owners.append((classifier, "weight"))
    arrays = [getattr(owner, name) for owner, name in owners]
    flat = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
    end = 0
    for (owner, name), a in zip(owners, arrays):
        start, end = end, end + a.size
        setattr(owner, name, flat[start:end].reshape(a.shape))
    return flat


def backward(trace: ForwardTrace, grad_logits, grad_z_extra=None) -> np.ndarray:
    """Exact reverse-mode gradient of all parameters, in the ``flat_params`` layout.

    ``grad_logits`` and ``grad_z_extra`` are the partials of a scalar loss
    with respect to the logits and (directly) the embedding, one row per
    sample; the returned gradient is the sum over the batch.
    ``grad_z_extra=None`` means the loss has no direct embedding term.
    """
    gL = np.asarray(grad_logits, dtype=np.float64)
    n = trace.inputs[0].shape[0]
    C = trace.classifier.class_count
    if gL.shape != (n, C):
        raise ValueError(f"grad_logits has shape {gL.shape}, expected ({n}, {C})")
    gZ = gL @ trace.classifier.weight.T
    if grad_z_extra is not None:
        gE = np.asarray(grad_z_extra, dtype=np.float64)
        if gE.shape != trace.z.shape:
            raise ValueError(f"grad_z_extra has shape {gE.shape}, expected {trace.z.shape}")
        gZ = gZ + gE
    parts = [trace.z.T @ gL]  # collected back to front
    gA = gZ
    layers = trace.embedder.layers
    for i in reversed(range(len(layers))):
        layer = layers[i]
        gS = gA * (trace.pre_activations[i] > 0) if layer.activation == "relu" else gA
        parts += [gS.sum(axis=0), gS.T @ trace.inputs[i]]
        if i > 0:  # the input gradient of the first layer is not needed
            gA = gS @ layer.weight
    return np.concatenate([part.ravel() for part in reversed(parts)])


def relevance(classifier: ClassifierParams, Z) -> np.ndarray:
    """Relevance matrices of a batch of embeddings (n, k) under the bias-free head.

    Returns ``gamma`` (n, k, C) with ``gamma[i, j, c] = weight[j, c] * z[i, j]``;
    its sums over ``j`` are the logits.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != classifier.embedding_dim:
        raise ValueError(f"embeddings have shape {Z.shape}, expected (n, {classifier.embedding_dim})")
    return classifier.weight[None] * Z[:, :, None]

