"""Per-prediction explanations from the relevance decomposition, computed for
a batch of rows in one forward pass.

Each class logit is an exact sum of per-dimension contributions
``gamma[j, c] = weight[j, c] * z[j]``.  For factor-coded runs the rows carry
factor-slot labels (factor name plus level, then "other factor j" for the
free dimensions), so an explanation reads as "which factor levels pushed the
prediction where".  ``check_explainable`` checks the decomposition against
the forward pass a slice of rows at a time and returns the checked sums, so
``eval`` never holds the whole ``(n, k, C)`` relevance; ``explain_sample``
builds it once for the rows it writes.  ``explanation_to_doc`` writes each
row's ``gamma`` as it is and no ranking of it: a reader ranks a class's
dimensions with one ``argsort`` of its column.
"""

from __future__ import annotations

import numpy as np

from .model import forward, param_views, relevance

# Largest gap allowed between relevance sums and the forward pass's logits
# (acceptance criterion 7).
RELEVANCE_TOL = 1e-9

# Rows of a batch per slice from ``explanation_slices`` and per check in
# ``check_explainable``, so that neither the ``explanations`` document nor,
# in ``eval``, the relevance of a large batch is ever built whole.
SLICE_ROWS = 256

# Why a row that ``finite_rows`` rejects is beyond the model's range.
NOT_FINITE = "its logits or its embedding's squared norm are not finite"


def finite_rows(z, logits) -> np.ndarray:
    """Whether each row's logits and embedding's squared norm (which the
    metrics take) are finite; overflow warns unless ``np.errstate`` holds it."""
    return np.isfinite((z * z).sum(axis=1)) & np.isfinite(logits).all(axis=1)


def check_explainable(head, trace, sample_ids=None) -> np.ndarray:
    """The relevance sums ``(n, C)`` of ``trace``'s rows under ``head``: the
    sums over the dimensions of ``relevance(head, trace.z)``, checked against
    the forward pass's own logits ``z @ W``.  The relevance is built
    ``SLICE_ROWS`` rows at a time, so the whole ``(n, k, C)`` array never is.

    Raises ``ValueError`` naming the first row (by ``sample_ids``, default its
    index) beyond the model's range: its logits or its embedding's squared
    norm (which the metrics take) are not finite; or for some class its sum
    of absolute contributions ``sum_j |gamma[j, c]|`` exceeds
    ``RELEVANCE_TOL / (2 (k + 1) u)`` (``u = 2**-53``), beyond which rounding
    alone may move a relevance sum from its logit by more than
    ``RELEVANCE_TOL``; or its relevance sums do miss its logits by more than
    ``RELEVANCE_TOL``.
    """
    # The textbook bound on the rounding of a k-term sum of products,
    # 2 (k + 1) u sum_j |gamma[j, c]| for two such sums, reaches
    # RELEVANCE_TOL at this sum of absolute contributions.
    reach = 2 * (head.shape[0] + 1) * 2.0**-53
    limit = RELEVANCE_TOL / reach
    sums = np.empty_like(trace.logits)
    for start in range(0, len(sums), SLICE_ROWS):
        rows = slice(start, start + SLICE_ROWS)
        z, logits = trace.z[rows], trace.logits[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = relevance(head, z)
            sums[rows] = gamma.sum(axis=1)
            gap = np.abs(sums[rows] - logits).max(axis=1, initial=0.0)
            finite = finite_rows(z, logits)
            size = np.abs(gamma, out=gamma).sum(axis=1).max(axis=1, initial=0.0)
        bad = np.flatnonzero(~(finite & (size <= limit) & (gap <= RELEVANCE_TOL)))
        if bad.size:
            i = int(bad[0])
            if not finite[i]:
                why = NOT_FINITE
            elif size[i] > limit:
                why = (f"its relevance sums miss its logits by up to {reach * size[i]:.3e}, more than "
                       f"{RELEVANCE_TOL}: a class's sum of absolute contributions is {size[i]:.3e}, "
                       f"above {limit:.3e}")
            else:
                why = f"its relevance sums miss its logits by {gap[i]:.3e}, more than {RELEVANCE_TOL}"
            sample = start + i if sample_ids is None else sample_ids[start + i]
            raise ValueError(f"sample {sample} is beyond the model's range: {why}")
    return sums


def explain_sample(widths, params, X, sample_ids=None, layout=None, class_names=None) -> dict:
    """Explain each row of ``X`` under the model ``(widths, params)``: one
    forward pass, then every logit split by dimension.

    Returns the batch as one dict: ``sample_ids`` (default ``0..n-1``),
    ``class_names`` and ``row_labels`` once each, ``probabilities`` and
    ``logits`` ``(n, C)`` and ``gamma`` ``(n, k, C)``, where the logits are
    the column sums of gamma that ``check_explainable`` compared with the
    forward pass's own, and gamma is ``relevance(head, z)`` of the checked
    rows.  ``layout``, a factor-coded extractor, names the dimensions by
    factor slot; without it they are ``dim j``.  Raises
    ``ValueError`` from ``check_explainable`` for the first row beyond the
    model's range, so nothing built on a broken decomposition gets out.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # check_explainable reports what overflows
        trace = forward(widths, params, X, keep_inputs=False)
    n = trace.z.shape[0]
    sample_ids = range(n) if sample_ids is None else sample_ids
    if len(sample_ids) != n:
        raise ValueError(f"expected {n} sample ids, got {len(sample_ids)}")
    head = param_views(widths, params)[1]
    logits = check_explainable(head, trace, sample_ids)
    gamma = relevance(head, trace.z)
    k, C = head.shape
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
    }


def explanation_to_csv_text(expl: dict, i: int) -> str:
    """Row ``i`` of the batch as a labeled k-row, C-column table of contributions."""
    lines = ["dimension," + ",".join(expl["class_names"])]
    for label, contributions in zip(expl["row_labels"], expl["gamma"][i].tolist()):
        lines.append(label + "," + ",".join(map(repr, contributions)))
    return "\n".join(lines) + "\n"


def explanation_slices(expl: dict):
    """The batch in consecutive slices of up to ``SLICE_ROWS`` rows, each a
    batch of the same form (one empty slice for an empty batch): the rows of
    the whole batch's document are those of its slices' documents, in order."""
    per_row = ("sample_ids", "probabilities", "logits", "gamma")
    for start in range(0, max(len(expl["sample_ids"]), 1), SLICE_ROWS):
        rows = slice(start, start + SLICE_ROWS)
        yield {**expl, **{key: expl[key][rows] for key in per_row}}


def explanation_to_doc(expl: dict) -> dict:
    """The batch as one ``explanations`` document, version 2: ``class_names``
    and ``row_labels`` once, then per row its ``sample_id``,
    ``probabilities``, ``logits`` and ``k x C`` ``gamma``.  ``rows`` is the
    last key, so the document can be written as its envelope and then the
    rows of each of ``explanation_slices``."""
    rows = [{"sample_id": sample_id, "probabilities": probabilities, "logits": logits, "gamma": gamma}
            for sample_id, probabilities, logits, gamma in zip(
                expl["sample_ids"], expl["probabilities"].tolist(), expl["logits"].tolist(), expl["gamma"].tolist())]
    return {
        "format": "explanations",
        "version": 2,
        "class_names": list(expl["class_names"]),
        "row_labels": list(expl["row_labels"]),
        "rows": rows,
    }
