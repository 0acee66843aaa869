"""Datasets: a synthetic generator with controllable ground-truth factors,
tabular file ingestion, and deterministic stratified splits.

The file format is delimiter-separated text with a header row naming the
columns ``f0..f{p-1}, label, alpha_0..alpha_{m-1}``; factor columns are
optional.  Floats are written with ``repr`` so save/load round-trips exactly.
The numeric columns are read with one ``np.loadtxt`` call; when it fails, a
cell-by-cell ``float`` pass names the first bad cell's line and column.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .linalg import random_orthonormal_basis

LABEL_SUM_TOL = 1e-9

# Per-level value bands used by the generator: one unit wide, centered on
# -1, 0, +1.  Draws are uniform in [low, high), so a value maps back to its
# generating level unambiguously.
LEVEL_BANDS = ((-1.5, -0.5), (-0.5, 0.5), (0.5, 1.5))


@dataclass(eq=False)
class Dataset:
    X: np.ndarray  # (n, p)
    Y: np.ndarray  # (n, C), rows on the class simplex
    factors: np.ndarray | None  # (n, m) raw values, or None
    class_names: tuple
    factor_names: tuple

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        Y = np.ascontiguousarray(np.asarray(self.Y, dtype=np.float64))
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y must be 2-D with matching row counts")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.isfinite(Y)):
            raise ValueError("labels contain non-finite entries")
        if np.any(Y < 0) or np.max(np.abs(Y.sum(axis=1) - 1.0), initial=0.0) > LABEL_SUM_TOL:
            raise ValueError("labels must be nonnegative and sum to 1 per row")
        if len(self.class_names) != Y.shape[1]:
            raise ValueError("one class name per label column required")
        if self.factors is not None:
            F = np.ascontiguousarray(np.asarray(self.factors, dtype=np.float64))
            if F.ndim != 2 or F.shape[0] != X.shape[0]:
                raise ValueError("factors must be (n, m) with one row per sample")
            if len(self.factor_names) != F.shape[1]:
                raise ValueError("one factor name per factor column required")
            finite = np.all(np.isfinite(F), axis=0)
            if not np.all(finite):
                bad = self.factor_names[int(np.argmin(finite))]
                raise ValueError(f"factor column {bad!r} contains non-finite values")
            self.factors = F
        elif self.factor_names:
            raise ValueError("factor names given but no factor values")
        self.X = X
        self.Y = Y
        self.class_names = tuple(str(c) for c in self.class_names)
        self.factor_names = tuple(str(f) for f in self.factor_names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    @property
    def class_count(self) -> int:
        return self.Y.shape[1]

    @property
    def factor_count(self) -> int:
        return 0 if self.factors is None else self.factors.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        f = None if self.factors is None else self.factors[idx]
        return Dataset(
            X=self.X[idx],
            Y=self.Y[idx],
            factors=f,
            class_names=self.class_names,
            factor_names=self.factor_names,
        )

    def class_indices(self) -> np.ndarray:
        return np.argmax(self.Y, axis=1)


def is_integer(value) -> bool:
    """A Python or numpy int; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_types(config, ints=(), reals=()) -> None:
    """Check the types of a config's fields, naming the first wrong one.

    Integer fields take a Python or numpy int and are stored back as an int;
    real fields take a finite float or an int that fits a float.  A bool is
    neither.
    """
    for name in ints:
        value = getattr(config, name)
        if not is_integer(value):
            raise TypeError(f"field {name!r} must be an integer, got {value!r}")
        setattr(config, name, int(value))
    for name in reals:
        value = getattr(config, name)
        # An exact comparison: NaN, infinities and ints too large for a float fail it.
        finite = isinstance(value, numbers.Real) and -sys.float_info.max <= value <= sys.float_info.max
        if isinstance(value, bool) or not finite:
            raise TypeError(f"field {name!r} must be a finite number, got {value!r}")


def config_from_doc(config_class, doc: dict):
    """A ``config_class`` from a config document; ``schema_version`` is skipped
    (the caller checks it), any other field the class lacks is refused."""
    known = [f.name for f in fields(config_class)]
    unknown = set(doc) - set(known) - {"schema_version"}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return config_class(**{k: doc[k] for k in known if k in doc})


def config_to_doc(config) -> dict:
    """A config as a version-1 JSON document; arrays become nested lists."""
    doc = {"schema_version": 1}
    for f in fields(config):
        value = getattr(config, f.name)
        doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def json_field(doc: dict, key: str, *types, at: str = ""):
    """``doc[key]``, required to be exactly one of ``types`` (so a bool is no int).

    ``at`` is the path of ``doc`` in its document, such as ``factors[0]``, and
    errors name the field by its path.  Raises ``KeyError`` when the field is
    missing and ``TypeError`` when it has another type or ``doc`` is no object.
    """
    name = f"{at}.{key}" if at else key
    if type(doc) is not dict:
        raise TypeError(f"field {at!r} must be an object, got {type(doc).__name__}")
    if key not in doc:
        raise KeyError(name)
    value = doc[key]
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"field {name!r} must be {names}, got {type(value).__name__}")
    return value


def json_numbers(value, name: str, ndim: int, finite: bool = True) -> np.ndarray:
    """The JSON list ``value``, nested ``ndim`` deep (1, 2 or 3), as float64.

    Its entries must be ints or floats, never bools or strings, and fit a
    float, the lists at each depth must be of one length, and unless
    ``finite`` is False no entry may be a NaN or an infinity (``json.load``
    reads both); else ``TypeError`` or ``ValueError`` names the field ``name``.
    """
    def numbers(v, depth):
        if type(v) is not list:
            return False
        if depth == 1:
            return {int, float}.issuperset(map(type, v))
        return all(numbers(item, depth - 1) for item in v)

    if not numbers(value, ndim):
        raise TypeError(f"field {name!r} must be a list{' of lists' * (ndim - 1)} of numbers")
    level = value
    for depth in range(1, ndim):
        lengths = sorted({len(v) for v in level})
        if len(lengths) > 1:
            raise ValueError(f"field {name!r} is ragged: its lists at depth {depth} have lengths {lengths}")
        level = [item for v in level for item in v]
    try:
        array = np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"field {name!r} holds an integer too large for a float") from None
    if finite and not np.isfinite(array).all():
        raise ValueError(f"field {name!r} holds a non-finite number")
    return array


@dataclass
class SynthConfig:
    """Generator settings.

    ``factor_tables`` gives, per factor, a (class_count, 3) row-stochastic
    table of level probabilities conditioned on the class, as a numeric
    array or as JSON lists of numbers; ``None`` means uniform levels for
    every class.  Requires ``input_dim >= class_count + factor_count`` so
    class and factor signal directions can be mutually orthogonal.
    """

    class_count: int
    input_dim: int
    samples_per_class: int
    factor_count: int = 0
    factor_tables: np.ndarray | None = None
    class_separation: float = 3.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_types(self, ints=("class_count", "input_dim", "samples_per_class", "factor_count", "seed"),
                    reals=("class_separation", "noise_scale"))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.input_dim < 1 or self.samples_per_class < 1:
            raise ValueError("input_dim and samples_per_class must be >= 1")
        if self.factor_count < 0:
            raise ValueError("factor_count must be >= 0")
        if self.input_dim < self.class_count + self.factor_count:
            raise ValueError(
                f"input_dim {self.input_dim} must be >= class_count + factor_count "
                f"({self.class_count + self.factor_count}) for orthogonal signal directions"
            )
        if self.class_separation <= 0:
            raise ValueError("class_separation must be > 0")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.factor_tables is not None:
            T = self.factor_tables
            if not (isinstance(T, np.ndarray) and T.dtype.kind in "iuf"):
                T = json_numbers(T, "factor_tables", 3, finite=False)  # refused below, by factor
            T = np.asarray(T, dtype=np.float64)
            if T.shape != (self.factor_count, self.class_count, 3):
                raise ValueError(
                    f"factor_tables must have shape ({self.factor_count}, {self.class_count}, 3)"
                )
            for f in range(self.factor_count):
                rows = T[f].sum(axis=1)
                if np.any(T[f] < 0) or not np.max(np.abs(rows - 1.0)) <= 1e-9:  # NaN fails too
                    raise ValueError(f"factor {f}: probability table rows must sum to 1")
            self.factor_tables = T


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Generate a dataset where class and factors are both recoverable.

    Class centroids and per-factor signal directions are mutually orthogonal
    unit vectors in input space; each sample is its class centroid (scaled by
    ``class_separation``) plus its factor values along the factor directions
    plus isotropic Gaussian noise.  Factor levels are drawn per sample from
    the class-conditional tables, then the continuous value uniformly within
    that level's band.

    Draw order (levels per factor, then values, then noise) is fixed, so a
    seed pins the dataset exactly.
    """
    C, p, m = config.class_count, config.input_dim, config.factor_count
    n = C * config.samples_per_class
    dir_seed, draw_seed = np.random.SeedSequence(config.seed).spawn(2)
    directions = random_orthonormal_basis(C + m, p, dir_seed)
    centroids = config.class_separation * directions[:C]
    rng = np.random.default_rng(draw_seed)

    class_idx = np.repeat(np.arange(C), config.samples_per_class)
    X = centroids[class_idx].copy()
    factors = None
    if m > 0:
        if config.factor_tables is None:
            tables = np.full((m, C, 3), 1.0 / 3.0)
        else:
            tables = config.factor_tables
        bands = np.asarray(LEVEL_BANDS)
        factors = np.empty((n, m))
        for f in range(m):
            probs = tables[f][class_idx]  # (n, 3)
            cdf = np.cumsum(probs, axis=1)
            u = rng.random(n)
            levels = (u[:, None] > cdf[:, :2]).sum(axis=1)
            factors[:, f] = rng.uniform(bands[levels, 0], bands[levels, 1])
        X += factors @ directions[C:]
    if config.noise_scale > 0:
        X += config.noise_scale * rng.standard_normal((n, p))

    Y = np.identity(C)[class_idx]
    return Dataset(
        X=X,
        Y=Y,
        factors=factors,
        class_names=tuple(str(c) for c in range(C)),
        factor_names=tuple(f"alpha_{i}" for i in range(m)),
    )


def _check_names(names, what: str, prefix: str = "") -> None:
    """Refuse names the text format cannot carry as they are."""
    for i, name in enumerate(names):
        if not name or name != name.strip() or any(c in name for c in ",\n\r"):
            raise ValueError(f"{what} {name!r} cannot be written: it is empty, holds a comma "
                             f"or a line break, or has leading or trailing whitespace")
        if not name.startswith(prefix):
            raise ValueError(f"{what} {name!r} cannot be written: it is not {prefix}<name>")
        if name in names[:i]:
            raise ValueError(f"{what} {name!r} is given twice")


def save_dataset(dataset: Dataset, path) -> None:
    """Write the documented tabular text format (hard labels only).

    What would not load back as it is raises ``ValueError`` before the file
    is created: a class or factor name the format cannot carry, a label row
    that is not one-hot, a class without rows (the file names a class only
    in its rows), or classes that :func:`load_table` would put in another
    order.
    """
    _check_names(dataset.class_names, "class name")
    _check_names(dataset.factor_names, "factor name", prefix="alpha_")
    soft = np.flatnonzero(((dataset.Y != 0.0) & (dataset.Y != 1.0)).any(axis=1))
    if soft.size:
        raise ValueError(f"label row {soft[0]} is not one-hot; the file format holds hard labels only")
    empty = np.flatnonzero(dataset.Y.sum(axis=0) == 0.0)
    if empty.size:
        raise ValueError(f"class {dataset.class_names[empty[0]]!r} has no rows; the file format "
                         f"cannot hold a class without rows")
    labels = [dataset.class_names[c] for c in dataset.class_indices().tolist()]
    loaded = _ordered_class_names(labels)
    if loaded != dataset.class_names:
        raise ValueError(f"classes {dataset.class_names} would load back in the order {loaded}")
    header = [f"f{j}" for j in range(dataset.input_dim)] + ["label"] + list(dataset.factor_names)
    factors = [[]] * dataset.n if dataset.factors is None else dataset.factors.tolist()
    lines = [",".join(header)]
    for x, label, f in zip(dataset.X.tolist(), labels, factors):
        lines.append(",".join([*map(repr, x), label, *map(repr, f)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _ordered_class_names(names) -> tuple:
    names = list(dict.fromkeys(names))
    try:
        return tuple(sorted(names, key=int))
    except ValueError:
        return tuple(sorted(names))


def _parse_cells(path, header, rows, cols) -> np.ndarray:
    """The ``cols`` cells of each ``(lineno, line)`` row through ``float``, naming
    the first cell that is not a number: the fallback when ``np.loadtxt`` fails,
    which also reads spellings only ``float`` takes (``1_0``, non-ASCII digits)."""
    values = []
    for lineno, line in rows:
        cells = [c.strip() for c in line.split(",")]

        def parse(col):
            try:
                return float(cells[col])
            except ValueError:
                raise ValueError(
                    f"{path}: row {lineno}, column {header[col]!r}: "
                    f"could not parse {cells[col]!r} as a number"
                ) from None

        values.append([parse(c) for c in cols])
    return np.array(values, dtype=np.float64)


def load_table(path, class_names=None) -> Dataset:
    """Load a dataset from the documented tabular text format.

    The header determines the schema: ``f*`` columns are features (in file
    order), ``label`` is the class column, ``alpha_*`` columns are factors;
    any other name, or a name given twice, is refused.  Row order is
    preserved; labels become one-hot rows.  When ``class_names`` is given it
    fixes the class order and unlisted names are rejected.  Blank lines are
    skipped; an error names the offending row by its line number in the file
    and, for a cell, its column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e})") from None
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[0][1].split(",")]
    for i, name in enumerate(header):
        if name != "label" and not name.startswith(("f", "alpha_")):
            raise ValueError(f"{path}: column {name!r} is not f<j>, 'label' or alpha_<name>")
        if name in header[:i]:
            raise ValueError(f"{path}: column {name!r} is named twice in the header")
    try:
        label_col = header.index("label")
    except ValueError:
        raise ValueError(f"{path}: header has no 'label' column") from None
    feature_cols = [i for i, name in enumerate(header) if name.startswith("f")]
    factor_cols = [i for i, name in enumerate(header) if name.startswith("alpha_")]
    if [header[i] for i in feature_cols] != [f"f{j}" for j in range(len(feature_cols))]:
        raise ValueError(f"{path}: feature columns must be named f0..f{{p-1}} in order")
    if not feature_cols:
        raise ValueError(f"{path}: no feature columns found")
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: the file has no data rows")

    labels = []
    for lineno, line in rows:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: row {lineno}: expected {len(header)} cells, got {len(cells)}")
        labels.append(cells[label_col].strip())
        if not labels[-1]:
            raise ValueError(f"{path}: row {lineno}: empty label")
    cols = feature_cols + factor_cols
    try:
        values = np.loadtxt([line for _, line in rows], delimiter=",", usecols=cols,
                            comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        values = _parse_cells(path, header, rows, cols)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        cell = rows[i][1].split(",")[cols[j]].strip()
        raise ValueError(f"{path}: row {rows[i][0]}, column {header[cols[j]]!r}: {cell!r} is not finite")

    if class_names is None:
        class_names = _ordered_class_names(labels)
    else:
        class_names = tuple(str(c) for c in class_names)
    index = {name: i for i, name in enumerate(class_names)}
    Y = np.zeros((len(labels), len(class_names)))
    for i, name in enumerate(labels):
        if name not in index:
            raise ValueError(f"{path}: row {rows[i][0]}: unknown class name {name!r}")
        Y[i, index[name]] = 1.0

    p = len(feature_cols)
    return Dataset(
        X=values[:, :p],
        Y=Y,
        factors=values[:, p:] if factor_cols else None,
        class_names=class_names,
        factor_names=tuple(header[i] for i in factor_cols),
    )


def split(dataset: Dataset, train_fraction: float, seed) -> tuple:
    """Deterministic stratified split into (train, validation).

    Disjoint and exhaustive; every class keeps at least one sample on each
    side, so per-class proportions hold within one sample.  Indices within
    each side stay in original order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    class_idx = dataset.class_indices()
    train_ids, val_ids = [], []
    for c in range(dataset.class_count):
        members = np.flatnonzero(class_idx == c)
        if members.size < 2:
            raise ValueError(f"class {dataset.class_names[c]!r} has fewer than 2 samples")
        perm = rng.permutation(members)
        n_train = int(np.clip(round(train_fraction * members.size), 1, members.size - 1))
        train_ids.extend(perm[:n_train])
        val_ids.extend(perm[n_train:])
    train_ids = np.sort(np.asarray(train_ids))
    val_ids = np.sort(np.asarray(val_ids))
    return dataset.subset(train_ids), dataset.subset(val_ids)

