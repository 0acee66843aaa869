"""Evaluation metrics: accuracy, inter-class separation of embeddings,
factor disentanglement probes, and class/factor-level joint probabilities.

The disentanglement probe is a nearest-level-centroid classifier, fit on the
even-indexed half of the given embeddings and scored on the odd-indexed
half.  It is deterministic and hyperparameter-free; when a dimension group
carries no information (exactly constant features) every centroid ties and
the probe falls back to the majority level of its training half, so its
accuracy equals that level's rate in the eval half.
"""

from __future__ import annotations

import numpy as np


def accuracy(predictions, truth) -> float:
    """Fraction of argmax agreements between (n, C) rows; argmax ties go to the lowest index."""
    pred = np.asarray(predictions, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[0] == 0:
        raise ValueError("predictions must be a non-empty (n, C) array")
    t = np.asarray(truth)
    if t.shape != pred.shape:
        raise ValueError(f"truth has shape {t.shape}, predictions {pred.shape}")
    return float(np.mean(np.argmax(pred, axis=1) == np.argmax(t, axis=1)))


def separation_report(embeddings, labels, prototypes=None) -> dict:
    """How far apart the classes sit in embedding space.

    ``labels`` are (n, C) rows on the class simplex; every class must occur.
    Cosines are measured between class centroids; ``prototypes`` (n, k), when
    given, adds the mean distance from each embedding to its own prototype.
    Returns the report document; the centroids (C, k) are nested lists.
    """
    Z = np.asarray(embeddings, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.float64)
    if Z.ndim != 2 or Y.ndim != 2 or Z.shape[0] != Y.shape[0]:
        raise ValueError("embeddings and labels must be 2-D with matching row counts")
    C = Y.shape[1]
    if C < 2:
        raise ValueError("at least 2 classes required")
    cls = np.argmax(Y, axis=1)
    centroids = np.empty((C, Z.shape[1]))
    for c in range(C):
        members = Z[cls == c]
        if members.shape[0] == 0:
            raise ValueError(f"class {c} is absent from the batch")
        centroids[c] = members.mean(axis=0)
    norms = np.linalg.norm(centroids, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)  # zero centroid contributes cosine 0
    unit = centroids / safe[:, None]
    cos = unit @ unit.T
    iu = np.triu_indices(C, k=1)
    abs_cos = np.abs(cos[iu])
    proto_dist = None
    if prototypes is not None:
        P = np.asarray(prototypes, dtype=np.float64)
        if P.shape != Z.shape:
            raise ValueError("prototypes must be per-sample, same shape as embeddings")
        proto_dist = float(np.mean(np.linalg.norm(Z - P, axis=1)))
    return {
        "mean_abs_cos": float(abs_cos.mean()),
        "max_abs_cos": float(abs_cos.max()),
        "mean_within_class_dist": float(np.mean(np.linalg.norm(Z - centroids[cls], axis=1))),
        "mean_prototype_dist": proto_dist,
        "centroids": centroids.tolist(),
    }


def _probe_accuracy(train_x, train_levels, eval_x, eval_levels, n_levels: int = 3) -> float:
    """Nearest-centroid probe with a deterministic tie rule.

    Exact distance ties (constant feature groups) resolve to the level with
    the most training samples, then to the lowest level index.
    """
    counts = np.bincount(train_levels, minlength=n_levels)
    present = np.flatnonzero(counts > 0)
    centroids = np.stack([train_x[train_levels == l].mean(axis=0) for l in present])
    d = ((eval_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    best = d.min(axis=1, keepdims=True)
    score = np.where(d == best, counts[present][None, :], -1)
    pred = present[np.argmax(score, axis=1)]
    return float(np.mean(pred == eval_levels))


def disentanglement_report(embeddings, factor_levels, extractor) -> dict:
    """Can each factor's level be read off its designated dimensions, and
    only those?

    For every factor of the factor-coded ``extractor``, probes predict its
    true level from (a) its own 3 dimensions, (b) the zero-block dimensions,
    and (c) all other factors' dimensions; (b) and (c) are None when the respective group is empty.
    Also reports the mean absolute activation over the zero block.  Returns
    the report document, with one probe document per factor.
    """
    Z = np.asarray(embeddings, dtype=np.float64)
    L = np.asarray(factor_levels, dtype=np.int64)
    if Z.ndim != 2 or L.ndim != 2 or Z.shape[0] != L.shape[0]:
        raise ValueError("embeddings and factor_levels must be 2-D with matching row counts")
    if Z.shape[1] != extractor.embedding_dim:
        raise ValueError(f"embeddings have width {Z.shape[1]}, extractor expects {extractor.embedding_dim}")
    if L.shape[1] != extractor.factor_count:
        raise ValueError(f"levels have {L.shape[1]} factors, extractor expects {extractor.factor_count}")
    if Z.shape[0] < 4:
        raise ValueError("need at least 4 samples to fit and evaluate probes")
    train_sel = slice(0, None, 2)
    eval_sel = slice(1, None, 2)
    zero = extractor.zero_slice
    probes = []
    for f in range(extractor.factor_count):
        lv = L[:, f]
        if np.unique(lv).size < 2:
            raise ValueError(f"factor {extractor.names[f]!r} has fewer than 2 distinct levels")
        own = Z[:, extractor.factor_slice(f)]
        designated = _probe_accuracy(own[train_sel], lv[train_sel], own[eval_sel], lv[eval_sel])
        zb_acc = None
        if extractor.zero_dim > 0:
            zb = Z[:, zero]
            zb_acc = _probe_accuracy(zb[train_sel], lv[train_sel], zb[eval_sel], lv[eval_sel])
        other_acc = None
        if extractor.factor_count > 1:
            cols = np.concatenate(
                [np.arange(extractor.embedding_dim)[extractor.factor_slice(g)]
                 for g in range(extractor.factor_count) if g != f]
            )
            other = Z[:, cols]
            other_acc = _probe_accuracy(other[train_sel], lv[train_sel], other[eval_sel], lv[eval_sel])
        probes.append({
            "name": extractor.names[f],
            "designated_accuracy": designated,
            "zero_block_accuracy": zb_acc,
            "other_factors_accuracy": other_acc,
        })
    return {
        "factors": probes,
        "zero_block_mean_abs": float(np.mean(np.abs(Z[:, zero]))) if extractor.zero_dim > 0 else None,
    }


def zero_block_activity(embeddings, extractor) -> np.ndarray:
    """Mean absolute activation of each dimension in the factor-coded
    ``extractor``'s zero block over (n, k) ``embeddings``.

    Near zero, the named factors explain the predictions almost entirely; well
    away from zero, unnamed factors carry weight too.
    """
    if extractor.zero_dim == 0:
        raise ValueError("extractor has an empty zero block")
    Z = np.asarray(embeddings, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != extractor.embedding_dim:
        raise ValueError(f"embeddings have shape {Z.shape}, extractor expects (n, {extractor.embedding_dim})")
    return np.abs(Z[:, extractor.zero_slice]).mean(axis=0)


def joint_probability_table(factor_levels, labels) -> np.ndarray:
    """Empirical joint probabilities of (class, factor level), per factor.

    ``factor_levels`` are the (n, m) level indices 0/1/2 of the rows and
    ``labels`` their (n, C) label rows.  Returns an (m, C, 3) array; each
    factor's C-by-3 slice sums to 1.
    """
    L = np.asarray(factor_levels, dtype=np.int64)
    Y = np.asarray(labels, dtype=np.float64)
    if L.ndim != 2 or Y.ndim != 2 or L.shape[0] != Y.shape[0] or L.shape[0] == 0:
        raise ValueError("factor_levels and labels must be non-empty 2-D arrays with matching row counts")
    counts = np.zeros((L.shape[1], Y.shape[1], 3))
    np.add.at(counts, (np.arange(L.shape[1]), np.argmax(Y, axis=1)[:, None], L), 1.0)
    return counts / L.shape[0]
