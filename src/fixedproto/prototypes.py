"""Fixed (non-trainable) prototype extractors.

A prototype extractor maps rows of (soft) class labels or factor level codes
to target points in embedding space.  It is frozen at construction and never
updated by training.  ``targets(dataset)`` picks, once per checked ``Dataset``,
the rows an extractor reads; ``extract_batch`` maps a batch of such rows to
prototypes.  Both kinds are one fixed linear map, a read-only
``table``: ``extract_batch(rows)`` is ``rows.reshape(n, -1) @ table``.

* class-orthogonal: a C x k table, one prototype row per class.  When the
  embedding has room (k >= C) the rows are mutually orthonormal; otherwise
  orthonormal vectors in R^C are pushed through a Johnson-Lindenstrauss
  projection into R^k, which nearly preserves their pairwise distances.
* factor-coded: the table ``eye(3m, k)``.  Prototypes encode m named,
  human-meaningful factors as three-level one-hot codes (low/medium/high by
  training-set terciles), concatenated and padded with a zero block.  Labels
  are ignored; the zero block leaves the trailing dimensions free for
  factors nobody named.

So a convex mix of soft label / soft level-code rows yields the same convex
mix of prototypes.  That is what makes label-mixing augmentation compatible
with prototype matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, json_field, json_numbers
from .linalg import jlt_create, random_orthonormal_basis

LEVELS_PER_FACTOR = 3
LEVEL_NAMES = ("low", "medium", "high")

# Hyndman & Fan type 4: linear interpolation of the empirical CDF.  With this
# convention the terciles of {1..9} are exactly (3, 6) and equal-count level
# bins stay exact up to ties.
QUANTILE_METHOD = "interpolated_inverted_cdf"

EXTRACTOR_FORMAT = "prototype-extractor"
EXTRACTOR_VERSION = 1

ORTHONORMAL_TOL = 1e-10  # largest |table @ table.T - I| entry of a class-orthogonal table, k >= C


@dataclass(frozen=True, eq=False)
class FactorCoder:
    """Per-factor tercile thresholds mapping raw values to 3-level codes.

    ``lower`` and ``upper`` hold the 1/3 and 2/3 training-set quantiles per
    factor, in the raw units of each factor.  A value lands in the lower bin
    when it is <= the lower threshold, in the middle bin when it is <= the
    upper threshold, and in the upper bin otherwise.
    """

    names: tuple
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.ascontiguousarray(np.asarray(self.lower, dtype=np.float64))
        hi = np.ascontiguousarray(np.asarray(self.upper, dtype=np.float64))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if len(self.names) != lo.shape[0]:
            raise ValueError("one name per factor required")
        if lo.shape[0] == 0:
            raise ValueError("at least one factor required")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("thresholds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower thresholds must not exceed upper thresholds")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def factor_count(self) -> int:
        return self.lower.shape[0]

    def level_indices(self, values) -> np.ndarray:
        """Map raw values (..., m) to integer levels 0/1/2 per factor."""
        v = np.asarray(values, dtype=np.float64)
        if v.shape[-1] != self.factor_count:
            raise ValueError(f"expected {self.factor_count} factor values, got {v.shape[-1]}")
        return (v > self.lower).astype(np.int64) + (v > self.upper).astype(np.int64)

    def code(self, values) -> np.ndarray:
        """Map raw values (..., m) to hard one-hot level codes (..., m, 3)."""
        idx = self.level_indices(values)
        return np.identity(LEVELS_PER_FACTOR)[idx]


def fit_factor_coder(dataset: Dataset) -> FactorCoder:
    """Fit tercile thresholds on a dataset's factor columns, named as the columns.

    Both terciles of every factor come from one quantile call with the
    ``interpolated_inverted_cdf`` convention (linear interpolation of the
    empirical CDF); the convention is recorded in the serialized document
    since bin boundaries shift between conventions.  Raises ``ValueError``
    for a dataset without factor columns or without rows, and for a factor
    with fewer than 3 distinct values.
    """
    F = dataset.factors
    if F is None:
        raise ValueError("factor-coded extractor needs a dataset with factor columns")
    if F.size == 0:
        raise ValueError(f"factor values must be a non-empty (n, m) array, got shape {F.shape}")
    for name, col in zip(dataset.factor_names, F.T):
        distinct = np.unique(col).size
        if distinct < 3:
            raise ValueError(f"factor {name!r} is degenerate: needs >= 3 distinct values, got {distinct}")
    lower, upper = np.quantile(F, [1.0 / 3.0, 2.0 / 3.0], axis=0, method=QUANTILE_METHOD)
    return FactorCoder(names=dataset.factor_names, lower=lower, upper=upper)


def _table_map(table: np.ndarray, rows, what: str, row_shape: tuple) -> np.ndarray:
    """Prototypes of a batch of ``row_shape`` rows: each row, flattened, times ``table``."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1:] != row_shape:
        raise ValueError(f"{what} must have shape (n, {', '.join(map(str, row_shape))})")
    return rows.reshape(rows.shape[0], -1) @ table


@dataclass(frozen=True, eq=False)
class ClassOrthogonalExtractor:
    """Prototype per class; orthonormal rows when k >= C, JLT images otherwise."""

    class_count: int
    embedding_dim: int
    seed: int
    table: np.ndarray

    def __post_init__(self):
        table = np.ascontiguousarray(np.asarray(self.table, dtype=np.float64))
        if table.shape != (self.class_count, self.embedding_dim):
            raise ValueError(
                f"table shape {table.shape} does not match "
                f"({self.class_count}, {self.embedding_dim})"
            )
        if not np.all(np.isfinite(table)):
            raise ValueError("prototype table contains non-finite entries")
        if self.embedding_dim >= self.class_count:
            gram = table @ table.T
            if np.max(np.abs(gram - np.eye(self.class_count))) > ORTHONORMAL_TOL:
                raise ValueError("prototype table rows must be orthonormal when k >= C")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def kind(self) -> str:
        return "class-orthogonal"

    def targets(self, dataset: Dataset) -> np.ndarray:
        """The rows :meth:`extract_batch` takes for the dataset's samples: its
        labels, after checking their class count."""
        if dataset.class_count != self.class_count:
            raise ValueError(f"extractor has {self.class_count} classes, labels have {dataset.class_count}")
        return dataset.Y

    def extract_batch(self, targets) -> np.ndarray:
        """Prototypes for (soft) label rows (n, C): label-weighted mixes of the class rows."""
        return _table_map(self.table, targets, "labels", (self.class_count,))


@dataclass(frozen=True, eq=False)
class FactorCodedExtractor:
    """Prototype from factor level codes; labels are accepted and ignored.

    ``table`` is ``eye(3m, embedding_dim)``, which fixes the layout: factor
    ``i`` (in the coder's order) owns dimensions ``[3i, 3i+3)``, and the
    trailing ``embedding_dim - 3m`` dimensions form the zero block (possibly
    empty).
    """

    coder: FactorCoder
    embedding_dim: int
    table: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.coded_dim > self.embedding_dim:
            raise ValueError(
                f"embedding_dim {self.embedding_dim} is too small for "
                f"{self.factor_count} factors (needs >= {self.coded_dim})"
            )
        table = np.eye(self.coded_dim, self.embedding_dim)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def kind(self) -> str:
        return "factor-coded"

    @property
    def names(self) -> tuple:
        return self.coder.names

    @property
    def factor_count(self) -> int:
        return self.coder.factor_count

    @property
    def coded_dim(self) -> int:
        return LEVELS_PER_FACTOR * self.factor_count

    @property
    def zero_dim(self) -> int:
        return self.embedding_dim - self.coded_dim

    def factor_slice(self, i: int) -> slice:
        if not 0 <= i < self.factor_count:
            raise ValueError(f"factor index {i} out of range")
        return slice(LEVELS_PER_FACTOR * i, LEVELS_PER_FACTOR * (i + 1))

    @property
    def zero_slice(self) -> slice:
        return slice(self.coded_dim, self.embedding_dim)

    def dim_labels(self) -> list:
        """One human-readable label per embedding dimension."""
        labels = [f"{name}:{level}" for name in self.names for level in LEVEL_NAMES]
        labels += [f"other factor {j}" for j in range(self.zero_dim)]
        return labels

    def targets(self, dataset: Dataset) -> np.ndarray | None:
        """The rows :meth:`extract_batch` takes: the hard level codes (n, m, 3)
        of the dataset's factor values, after checking their factor count.
        ``None`` when the dataset has no factor values; labels are ignored.
        """
        if dataset.factors is None:
            return None
        if dataset.factor_count != self.factor_count:
            raise ValueError(f"factor values have shape {dataset.factors.shape}, "
                             f"extractor expects (n, {self.factor_count})")
        return self.coder.code(dataset.factors)

    def extract_batch(self, targets) -> np.ndarray:
        """Prototypes for (possibly soft) level codes (n, m, 3)."""
        return _table_map(self.table, targets, "level codes", (self.factor_count, LEVELS_PER_FACTOR))


def class_orthogonal_extractor(class_count: int, embedding_dim: int, seed: int) -> ClassOrthogonalExtractor:
    """Build the class-orthogonal extractor.

    With k >= C the table is a seeded orthonormal set.  With k < C an
    orthonormal basis of R^C is projected to R^k by a dense Gaussian JLT, so
    pairwise prototype distances stay close to sqrt(2).  The basis and the
    projection draw from independent child seeds of ``seed``.
    """
    if class_count < 2:
        raise ValueError("class_count must be >= 2")
    if embedding_dim < 1:
        raise ValueError("embedding_dim must be >= 1")
    if embedding_dim >= class_count:
        table = random_orthonormal_basis(class_count, embedding_dim, seed)
    else:
        basis_seed, jlt_seed = np.random.SeedSequence(seed).spawn(2)
        basis = random_orthonormal_basis(class_count, class_count, basis_seed)
        T = jlt_create(class_count, embedding_dim, jlt_seed)
        table = basis @ T.T
    return ClassOrthogonalExtractor(
        class_count=class_count, embedding_dim=embedding_dim, seed=int(seed), table=table
    )


def extractor_to_doc(extractor) -> dict:
    """Serialize an extractor to a versioned, JSON-ready document."""
    if isinstance(extractor, ClassOrthogonalExtractor):
        return {
            "format": EXTRACTOR_FORMAT,
            "version": EXTRACTOR_VERSION,
            "kind": extractor.kind,
            "class_count": extractor.class_count,
            "embedding_dim": extractor.embedding_dim,
            "seed": extractor.seed,
            "table": extractor.table.tolist(),
        }
    if isinstance(extractor, FactorCodedExtractor):
        return {
            "format": EXTRACTOR_FORMAT,
            "version": EXTRACTOR_VERSION,
            "kind": extractor.kind,
            "embedding_dim": extractor.embedding_dim,
            "quantile_method": QUANTILE_METHOD,
            "factors": [
                {
                    "name": name,
                    "lower": float(extractor.coder.lower[i]),
                    "upper": float(extractor.coder.upper[i]),
                }
                for i, name in enumerate(extractor.coder.names)
            ],
        }
    raise TypeError(f"not a prototype extractor: {type(extractor).__name__}")


def extractor_from_doc(doc: dict, at: str = ""):
    """Rebuild an extractor from its serialized document.

    ``at`` is the path of ``doc`` in the document that holds it, such as
    ``extractor`` in a checkpoint, and errors name each field by its full
    path.  Every field is checked: a missing one raises ``KeyError``, one of
    the wrong type ``TypeError``, and a bad value ``ValueError``.
    """
    def path(key):
        return f"{at}.{key}" if at else key

    def bad(key, message):
        return ValueError(f"field {path(key)!r}: {message}")

    if not isinstance(doc, dict):
        raise ValueError("an extractor document must be a JSON object")
    if doc.get("format") != EXTRACTOR_FORMAT:
        raise bad("format", f"not a prototype extractor document: {doc.get('format')!r}")
    if json_field(doc, "version", int, at=at) != EXTRACTOR_VERSION:
        raise bad("version", f"unsupported extractor document version {doc['version']!r}")
    kind = doc.get("kind")
    if kind == "class-orthogonal":
        fields = {"class_count": json_field(doc, "class_count", int, at=at),
                  "embedding_dim": json_field(doc, "embedding_dim", int, at=at),
                  "seed": json_field(doc, "seed", int, at=at),
                  "table": json_numbers(json_field(doc, "table", list, at=at), path("table"), 2)}
        try:
            return ClassOrthogonalExtractor(**fields)
        except ValueError as e:  # the table's shape, finiteness or orthonormality
            raise bad("table", e) from None
    if kind == "factor-coded":
        if doc.get("quantile_method") != QUANTILE_METHOD:
            raise bad("quantile_method", f"unsupported quantile_method {doc.get('quantile_method')!r}")
        factors = [(path(f"factors[{i}]"), f) for i, f in enumerate(json_field(doc, "factors", list, at=at))]

        def thresholds(key):  # each factor's, checked and named at its own path
            return np.array([json_numbers([json_field(f, key, float, int, at=where)], f"{where}.{key}", 1)[0]
                             for where, f in factors])

        names = tuple(json_field(f, "name", str, at=where) for where, f in factors)
        lower, upper = thresholds("lower"), thresholds("upper")
        try:
            coder = FactorCoder(names=names, lower=lower, upper=upper)
        except ValueError as e:  # no factor, or a lower threshold above its upper one
            raise bad("factors", e) from None
        try:
            return FactorCodedExtractor(coder, json_field(doc, "embedding_dim", int, at=at))
        except ValueError as e:  # too few dimensions for the factors
            raise bad("embedding_dim", e) from None
    raise bad("kind", f"unknown extractor kind {kind!r}")
