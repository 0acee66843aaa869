"""Per-prediction explanations from the relevance decomposition, computed for
a batch of rows in one forward pass.

Each class logit is an exact sum of per-dimension contributions
``gamma[j, c] = weight[j, c] * z[j]``.  For factor-coded runs the rows carry
factor-slot labels (factor name plus level, then "other factor j" for the
free dimensions), so an explanation reads as "which factor levels pushed the
prediction where".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClassifierParams, EmbedderParams, forward, relevance

# Largest gap allowed between relevance sums and the forward pass's logits
# (acceptance criterion 7).
RELEVANCE_TOL = 1e-9


def _top_contributions(column: np.ndarray, count: int = 3):
    """Strongest positive and negative entries, by absolute value."""
    order = np.argsort(-np.abs(column), kind="stable")
    pos = [(int(j), float(column[j])) for j in order if column[j] > 0][:count]
    neg = [(int(j), float(column[j])) for j in order if column[j] < 0][:count]
    return pos, neg


@dataclass
class Explanation:
    sample_id: int
    class_names: tuple
    probabilities: np.ndarray  # (C,)
    gamma: np.ndarray  # (k, C)
    logits: np.ndarray  # (C,), column sums of gamma
    row_labels: list
    top_positive: list  # per class: [(dim, contribution), ...]
    top_negative: list


def explain_sample(
    embedder: EmbedderParams,
    classifier: ClassifierParams,
    X,
    sample_ids=None,
    layout=None,
    class_names=None,
) -> list:
    """Explain each row of ``X``: one forward pass, then every logit split by dimension.

    Returns one :class:`Explanation` per row, labelled by ``sample_ids``
    (default ``0..n-1``).  Raises ``RuntimeError`` when the relevance sums
    miss the forward pass's own logits ``z @ W`` by more than
    ``RELEVANCE_TOL``, so nothing built on a broken decomposition gets out.
    """
    trace = forward(embedder, classifier, X)
    gamma = relevance(classifier, trace.z)
    n, k, C = gamma.shape
    logits = gamma.sum(axis=1)
    worst = float(np.max(np.abs(logits - trace.logits), initial=0.0))
    if not worst <= RELEVANCE_TOL:
        raise RuntimeError(f"relevance sums are {worst:.3e} away from the forward logits")
    sample_ids = range(n) if sample_ids is None else sample_ids
    if len(sample_ids) != n:
        raise ValueError(f"expected {n} sample ids, got {len(sample_ids)}")
    if class_names is None:
        class_names = range(C)
    class_names = tuple(str(c) for c in class_names)
    if len(class_names) != C:
        raise ValueError(f"expected {C} class names, got {len(class_names)}")
    if layout is None:
        labels = [f"dim {j}" for j in range(k)]
    elif layout.embedding_dim != k:
        raise ValueError(f"layout embedding_dim {layout.embedding_dim} does not match {k}")
    else:
        labels = layout.dim_labels()
    explanations = []
    for i, sample_id in enumerate(sample_ids):
        tops = [_top_contributions(gamma[i, :, c]) for c in range(C)]
        explanations.append(
            Explanation(
                sample_id=int(sample_id),
                class_names=class_names,
                probabilities=trace.probs[i],
                gamma=gamma[i],
                logits=logits[i],
                row_labels=labels,
                top_positive=[t[0] for t in tops],
                top_negative=[t[1] for t in tops],
            )
        )
    return explanations


def explanation_to_csv_text(expl: Explanation) -> str:
    """Labeled k-row, C-column table of contributions."""
    lines = ["dimension," + ",".join(expl.class_names)]
    for j, label in enumerate(expl.row_labels):
        lines.append(label + "," + ",".join(repr(float(v)) for v in expl.gamma[j]))
    return "\n".join(lines) + "\n"


def explanation_to_doc(expl: Explanation) -> dict:
    return {
        "format": "explanation",
        "version": 1,
        "sample_id": expl.sample_id,
        "class_names": list(expl.class_names),
        "probabilities": expl.probabilities.tolist(),
        "logits": expl.logits.tolist(),
        "row_labels": list(expl.row_labels),
        "top_positive": {
            name: [{"dimension": j, "label": expl.row_labels[j], "contribution": v} for j, v in entries]
            for name, entries in zip(expl.class_names, expl.top_positive)
        },
        "top_negative": {
            name: [{"dimension": j, "label": expl.row_labels[j], "contribution": v} for j, v in entries]
            for name, entries in zip(expl.class_names, expl.top_negative)
        },
    }
