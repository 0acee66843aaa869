"""Per-prediction explanations from the relevance decomposition, computed for
a batch of rows in one forward pass.

Each class logit is an exact sum of per-dimension contributions
``gamma[j, c] = weight[j, c] * z[j]``.  For factor-coded runs the rows carry
factor-slot labels (factor name plus level, then "other factor j" for the
free dimensions), so an explanation reads as "which factor levels pushed the
prediction where".
"""

from __future__ import annotations

import numpy as np

from .model import forward, param_views, relevance

# Largest gap allowed between relevance sums and the forward pass's logits
# (acceptance criterion 7).
RELEVANCE_TOL = 1e-9


def check_explainable(head, trace, sample_ids=None) -> None:
    """Raise ``ValueError`` naming the first row of ``trace`` (by
    ``sample_ids``, default its index) beyond the model's range: its logits
    or its embedding's squared norm (which the metrics take) are not finite,
    or its relevance sums miss its logits by more than ``RELEVANCE_TOL``, as
    they do for an input so large that rounding alone breaks the
    decomposition.

    The sums add the contributions one dimension at a time, apart from
    ``relevance`` and without holding the ``(n, k, C)`` gamma.
    """
    z = trace.z
    sums = np.zeros_like(trace.logits)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(head.shape[0]):
            sums += z[:, j, None] * head[j]
        gap = np.abs(sums - trace.logits).max(axis=1, initial=0.0)
        finite = np.isfinite((z * z).sum(axis=1)) & np.isfinite(trace.logits).all(axis=1)
    bad = np.flatnonzero(~(finite & (gap <= RELEVANCE_TOL)))
    if bad.size:
        i = int(bad[0])
        why = (f"its relevance sums miss its logits by {gap[i]:.3e}, more than {RELEVANCE_TOL}" if finite[i]
               else "its logits or its embedding's squared norm are not finite")
        sample = i if sample_ids is None else sample_ids[i]
        raise ValueError(f"sample {sample} is beyond the model's range: {why}")


def explain_sample(widths, params, X, sample_ids=None, layout=None, class_names=None) -> dict:
    """Explain each row of ``X`` under the model ``(widths, params)``: one
    forward pass, then every logit split by dimension.

    Returns the batch as one dict: ``sample_ids`` (default ``0..n-1``),
    ``class_names`` and ``row_labels`` once each, ``probabilities`` and
    ``logits`` ``(n, C)``, ``gamma`` ``(n, k, C)`` and ``ranking``
    ``(n, k, C)``, each class's dimensions by descending ``|gamma|``, ties by
    dimension.  The logits are the column sums of gamma.  ``layout``, a
    factor-coded extractor, names the dimensions by factor slot; without it
    they are ``dim j``.  Raises ``ValueError`` from ``check_explainable`` for
    the first row beyond the model's range, and ``RuntimeError`` when the
    relevance sums miss the forward pass's own logits ``z @ W`` by more than
    ``RELEVANCE_TOL`` all the same, so nothing built on a broken
    decomposition gets out.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # check_explainable reports what overflows
        trace = forward(widths, params, X)
    n = trace.z.shape[0]
    sample_ids = range(n) if sample_ids is None else sample_ids
    if len(sample_ids) != n:
        raise ValueError(f"expected {n} sample ids, got {len(sample_ids)}")
    head = param_views(widths, params)[1]
    check_explainable(head, trace, sample_ids)
    gamma = relevance(head, trace.z)
    k, C = head.shape
    logits = gamma.sum(axis=1)
    worst = float(np.max(np.abs(logits - trace.logits), initial=0.0))
    if not worst <= RELEVANCE_TOL:
        raise RuntimeError(f"relevance sums are {worst:.3e} away from the forward logits")
    class_names = [str(c) for c in (range(C) if class_names is None else class_names)]
    if len(class_names) != C:
        raise ValueError(f"expected {C} class names, got {len(class_names)}")
    if layout is None:
        labels = [f"dim {j}" for j in range(k)]
    elif layout.embedding_dim != k:
        raise ValueError(f"layout embedding_dim {layout.embedding_dim} does not match {k}")
    else:
        labels = layout.dim_labels()
    return {
        "sample_ids": [int(i) for i in sample_ids],
        "class_names": class_names,
        "row_labels": labels,
        "probabilities": trace.probs,
        "logits": logits,
        "gamma": gamma,
        "ranking": np.argsort(-np.abs(gamma), axis=1, kind="stable"),
    }


def explanation_to_csv_text(expl: dict, i: int) -> str:
    """Row ``i`` of the batch as a labeled k-row, C-column table of contributions."""
    lines = ["dimension," + ",".join(expl["class_names"])]
    for label, contributions in zip(expl["row_labels"], expl["gamma"][i].tolist()):
        lines.append(label + "," + ",".join(map(repr, contributions)))
    return "\n".join(lines) + "\n"


def explanation_to_doc(expl: dict, i: int) -> dict:
    """Row ``i`` of the batch as an ``explanation`` document, with each class's
    three strongest positive and negative contributions."""
    # Per class: the contributions by dimension, and the dimensions by |contribution|.
    columns, ranking, labels = expl["gamma"][i].T.tolist(), expl["ranking"][i].T.tolist(), expl["row_labels"]

    def top(c, sign):
        dims = [j for j in ranking[c] if sign * columns[c][j] > 0][:3]
        return [{"dimension": j, "label": labels[j], "contribution": columns[c][j]} for j in dims]

    return {
        "format": "explanation",
        "version": 1,
        "sample_id": expl["sample_ids"][i],
        "class_names": list(expl["class_names"]),
        "probabilities": expl["probabilities"][i].tolist(),
        "logits": expl["logits"][i].tolist(),
        "row_labels": list(labels),
        "top_positive": {name: top(c, 1) for c, name in enumerate(expl["class_names"])},
        "top_negative": {name: top(c, -1) for c, name in enumerate(expl["class_names"])},
    }
