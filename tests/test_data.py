import errno
import itertools
import math
import os
import re
import stat
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fixedproto import data as data_module
from fixedproto.cli import _write
from fixedproto.data import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_table,
    save_dataset,
    split,
)
from fixedproto.metrics import joint_probability_table
from fixedproto.prototypes import FactorCoder, fit_factor_coder
from util import true_levels


def blob_config(**overrides):
    base = dict(class_count=2, input_dim=4, samples_per_class=50,
                class_separation=4.0, noise_scale=0.5, seed=0)
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerator:
    def test_noiseless_classes_are_nearest_centroid_separable(self):
        config = blob_config(noise_scale=0.0, samples_per_class=20)
        ds = generate_synthetic(config)
        # oracle: classify by nearest class mean
        cls = ds.class_indices()
        centroids = np.stack([ds.X[cls == c].mean(axis=0) for c in range(2)])
        d = np.linalg.norm(ds.X[:, None, :] - centroids[None], axis=-1)
        assert np.array_equal(np.argmin(d, axis=1), cls)

    def test_uniform_level_frequencies(self):
        config = SynthConfig(class_count=3, input_dim=8, samples_per_class=1000,
                             factor_count=2, seed=1)
        ds = generate_synthetic(config)
        levels = true_levels(ds.factors)
        for f in range(2):
            freqs = np.bincount(levels[:, f], minlength=3) / ds.n
            assert np.max(np.abs(freqs - 1.0 / 3.0)) < 0.05

    def test_skewed_factor_table_respected(self):
        tables = np.zeros((1, 2, 3))
        tables[0, 0] = [1.0, 0.0, 0.0]  # class 0 always low
        tables[0, 1] = [0.0, 0.0, 1.0]  # class 1 always high
        config = SynthConfig(class_count=2, input_dim=4, samples_per_class=100,
                             factor_count=1, factor_tables=tables, seed=2)
        ds = generate_synthetic(config)
        levels = true_levels(ds.factors)[:, 0]
        cls = ds.class_indices()
        assert np.all(levels[cls == 0] == 0)
        assert np.all(levels[cls == 1] == 2)

    def test_deterministic(self):
        a = generate_synthetic(blob_config(factor_count=1))
        b = generate_synthetic(blob_config(factor_count=1))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.factors, b.factors)

    def test_input_dim_must_fit_directions(self):
        with pytest.raises(ValueError):
            SynthConfig(class_count=4, input_dim=4, samples_per_class=5, factor_count=2)

    def test_bad_probability_table_names_factor(self):
        tables = np.full((2, 2, 3), 1.0 / 3.0)
        tables[1, 0] = [0.5, 0.5, 0.5]
        with pytest.raises(ValueError, match="factor 1"):
            SynthConfig(class_count=2, input_dim=8, samples_per_class=5,
                        factor_count=2, factor_tables=tables)

    def test_coder_recovers_generating_levels(self):
        config = SynthConfig(class_count=3, input_dim=10, samples_per_class=500,
                             factor_count=2, seed=3)
        ds = generate_synthetic(config)
        coder = fit_factor_coder(ds)
        coded = coder.level_indices(ds.factors)
        agreement = np.mean(coded == true_levels(ds.factors))
        assert agreement >= 0.95


class TestFileRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        ds = generate_synthetic(blob_config(factor_count=1, samples_per_class=3))
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        back = load_table(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)
        assert np.array_equal(back.factors, ds.factors)
        assert back.class_names == ds.class_names
        assert back.factor_names == ds.factor_names

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_table(path)
        assert ds.n == 3
        assert ds.class_names == ("a", "b")
        assert np.array_equal(ds.Y, [[1, 0], [0, 1], [1, 0]])
        assert ds.factors is None

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,oops,a\n")
        with pytest.raises(ValueError, match=r"row 2.*f1"):
            load_table(path)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n3.0,b\n")
        with pytest.raises(ValueError, match="row 3"):
            load_table(path)

    def test_unknown_class_name_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n1.0,a\n2.0,c\n")
        with pytest.raises(ValueError, match="unknown class name 'c'"):
            load_table(path, class_names=("a", "b"))

    def test_errors_name_file_lines_past_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n\n\n3.0,oops,a\n")
        with pytest.raises(ValueError, match=r"row 5, column 'f1'"):
            load_table(path)
        path.write_text("f0,label\n1.0,a\n\n\n2.0,c\n")
        with pytest.raises(ValueError, match=r"row 5: unknown class name 'c'"):
            load_table(path, class_names=("a", "b"))

    def test_numeric_class_names_sort_numerically(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n" + "".join(f"1.0,{c}\n" for c in (10, 2, 1)))
        ds = load_table(path)
        assert ds.class_names == ("1", "2", "10")

    def test_no_factor_columns_means_no_factors(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n1.0,a\n2.0,b\n")
        ds = load_table(path)
        assert ds.factors is None and ds.factor_names == ()

    @pytest.mark.parametrize("class_names, factor_names, name", [
        (("a,b", "c"), (), "class name 'a,b'"),
        ((" a", "c"), (), "class name ' a'"),
        (("a", "c\t"), (), "class name 'c\\t'"),
        (("", "c"), (), "class name ''"),
        (("a\nb", "c"), (), "class name 'a\\nb'"),
        (("a", "a"), (), "class name 'a' is given twice"),
        (("a", "c"), ("size",), "factor name 'size'"),
        (("a", "c"), ("alpha_x,y",), "factor name 'alpha_x,y'"),
    ], ids=["comma", "leading-space", "trailing-tab", "empty", "line-break", "twice", "no-alpha", "factor-comma"])
    def test_unwritable_names_refused_before_the_file_exists(self, tmp_path, class_names, factor_names, name):
        ds = Dataset(X=np.zeros((2, 1)), Y=np.identity(2),
                     factors=np.zeros((2, len(factor_names))) if factor_names else None,
                     class_names=class_names, factor_names=factor_names)
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match=re.escape(name)):
            save_dataset(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize("class_names, classes, loaded", [
        (("b", "a"), [0, 1], "('a', 'b')"),
        (("01", "1"), [1, 0], "('1', '01')"),
    ], ids=["unsorted", "same-integer"])
    def test_class_order_that_would_not_load_back_refused(self, tmp_path, class_names, classes, loaded):
        ds = Dataset(X=np.zeros((2, 1)), Y=np.identity(2)[classes], factors=None,
                     class_names=class_names, factor_names=())
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match=re.escape(loaded)):
            save_dataset(ds, path)
        assert not path.exists()

    def test_soft_label_refused(self, tmp_path):
        ds = Dataset(X=np.zeros((2, 1)), Y=[[0.0, 1.0], [0.6, 0.4]], factors=None,
                     class_names=("a", "b"), factor_names=())
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="label row 1 is not one-hot"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_names_with_inner_spaces_round_trip(self, tmp_path):
        ds = Dataset(X=np.zeros((2, 1)), Y=np.identity(2), factors=np.zeros((2, 1)),
                     class_names=("big cat", "small-dog"), factor_names=("alpha_body size",))
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        back = load_table(path)
        assert back.class_names == ds.class_names and back.factor_names == ds.factor_names

    @pytest.mark.parametrize("header, row, message", [
        ("f0,f0,label", "1,2,a", "column 'f0' is named twice"),
        ("f0,label,extra", "1,a,0", "column 'extra' is not"),
        ("f0,label,", "1,a,", "column '' is not"),
    ])
    def test_malformed_header_names_column(self, tmp_path, header, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_table(path)

    @pytest.mark.parametrize("cell", ["1e400", "-1e400", "nan", "inf"])
    @pytest.mark.parametrize("column", ["f1", "alpha_0"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, column):
        path = tmp_path / "bad.csv"
        f1, alpha = (cell, "0") if column == "f1" else ("2", cell)
        path.write_text(f"f0,f1,label,alpha_0\n1,2,a,0\n\n1,{f1},b,{alpha}\n")
        with pytest.raises(ValueError, match=f"row 4, column '{column}': '{cell}' is not finite"):
            load_table(path)

    @pytest.mark.parametrize("row, message", [("nan,inf,a", "'nan' is not finite"),
                                              ("x,y,a", "could not parse 'x' as a number")],
                             ids=["non-finite", "unparsable"])
    def test_bad_cell_is_named_in_file_column_order(self, tmp_path, row, message):
        # A factor before the features: either fault names the first bad cell in the file.
        path = tmp_path / "bad.csv"
        path.write_text(f"alpha_a,f0,label\n1,2,a\n{row}\n")
        expected = f"{path}: row 3, column 'alpha_a': {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            load_table(path)

    def test_comment_sign_is_a_bad_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1,a\n#5,b\n")
        with pytest.raises(ValueError, match=r"row 3, column 'f0': could not parse '#5'"):
            load_table(path)

    def test_extra_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1,a\n2,b,3\n")
        with pytest.raises(ValueError, match="row 3: expected 2 cells, got 3"):
            load_table(path)

    def test_spellings_only_float_reads(self, tmp_path):
        # Refused as np.loadtxt refuses them, as --samples and --seeds do.
        path = tmp_path / "data.csv"
        for lines, row, cell in [("1_0,a\n４２,b\n", 2, "1_0"), ("1,a\n４２,b\n", 3, "４２")]:
            path.write_text(f"f0,label\n{lines}")
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: row {row}, column ')}'f0': "
                                                 f"could not parse '{cell}' as a number$"):
                load_table(path)
        path.write_bytes(b"f0,label\r\n 1.5 ,a\r\n\t-2\t,b\r\n")
        assert load_table(path).X.ravel().tolist() == [1.5, -2.0]


# Finite float64 values by bit pattern, with the edge cases always in reach.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
               sys.float_info.min, sys.float_info.max, -sys.float_info.max]
FINITE_FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0])
    .filter(math.isfinite),
)


@st.composite
def datasets(draw):
    n, p, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    X = draw(st.lists(FINITE_FLOATS, min_size=n * p, max_size=n * p))
    F = draw(st.lists(FINITE_FLOATS, min_size=n * m, max_size=n * m))
    classes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Dataset(
        X=np.array(X).reshape(n, p),
        Y=np.identity(3)[classes],
        factors=np.array(F).reshape(n, m) if m else None,
        class_names=("a", "b", "c"),
        factor_names=tuple(f"alpha_{i}" for i in range(m)),
    )


# Cell texts for the agreement with a row-by-row reader: ordinary numbers, then cells
# that parse only with ``float``, are not finite, are not numbers at all, or
# are empty.
GOOD_CELLS = ["0.5", " 1.5 ", "-0.0", "5e-324", "1e-400", "\t2\t", "+3", ".5", "1.7976931348623157e+308"]
ODD_CELLS = ["1_0", "４２", "#5", "", " ", "nan", "1e400", "-inf", "x", "0x10", "1 2"]
AGREEMENT_HEADER = ["f0", "f1", "label", "alpha_0"]


@st.composite
def table_texts(draw):
    n = draw(st.integers(1, 3))
    rows = [[draw(st.sampled_from(GOOD_CELLS)) for _ in range(2)] + [draw(st.sampled_from(["a", " b "]))]
            + [draw(st.sampled_from(GOOD_CELLS))] for _ in range(n)]
    for i, j, cell in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3),
                                              st.sampled_from(ODD_CELLS)), max_size=2)):
        rows[i][j] = cell
    lines = [",".join(row) for row in rows]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        lines[i] += ",9"
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\n\n"]), min_size=n + 1, max_size=n + 1))
    return "".join(line + end for line, end in zip([",".join(AGREEMENT_HEADER)] + lines, endings))


def load_outcome(path, load=load_table):
    """What ``load(path)`` gives: the arrays' bytes, or the error message."""
    try:
        ds = load(path)
    except ValueError as e:
        return str(e)
    return ds.X.tobytes(), ds.Y.tobytes(), ds.factors.tobytes(), ds.class_names


def row_by_row_outcome(path, text):
    """What ``load_outcome`` should give for a ``table_texts`` file, read
    independently: row by row in file order, the cell count, then the label,
    then each number cell, which must be ASCII without '_' and not empty once
    stripped; then the finiteness of every row's values."""
    header, *rows = [(lineno, line.split(",")) for lineno, line in
                     enumerate(text.replace("\r\n", "\n").split("\n"), start=1) if line.strip()]
    assert header[1] == AGREEMENT_HEADER
    numbers = [0, 1, 3]
    values, labels = [], []
    for lineno, cells in rows:
        if len(cells) != len(AGREEMENT_HEADER):
            return f"{path}: row {lineno}: expected {len(AGREEMENT_HEADER)} cells, got {len(cells)}"
        labels.append(cells[2].strip())
        if not labels[-1]:
            return f"{path}: row {lineno}: empty label"
        for j in numbers:
            cell = cells[j].strip()
            try:
                if not cell or not cell.isascii() or "_" in cell:
                    raise ValueError
                values.append(float(cell))
            except ValueError:
                return f"{path}: row {lineno}, column {AGREEMENT_HEADER[j]!r}: could not parse {cell!r} as a number"
    for k, value in enumerate(values):
        if not math.isfinite(value):
            lineno, cells = rows[k // len(numbers)]
            j = numbers[k % len(numbers)]
            return f"{path}: row {lineno}, column {AGREEMENT_HEADER[j]!r}: {cells[j].strip()!r} is not finite"
    values = np.array(values).reshape(-1, len(numbers))
    class_names = tuple(sorted(set(labels)))
    Y = np.array([[float(name == c) for c in class_names] for name in labels])
    return values[:, :2].tobytes(), Y.tobytes(), values[:, 2:].tobytes(), class_names


# Header columns for the schema property: features at any index, factors
# (one with an empty name), and names the format does not know, some of
# them close to its own.
FEATURE_NAMES = st.integers(0, 4).map("f{}".format)
FACTOR_NAMES = st.sampled_from(["a", "b", "0", ""]).map("alpha_{}".format)
OTHER_NAMES = st.sampled_from(["", "x", "f", "F0", "f01", "feature", "Label", "labels", "alpha", "alpha0"])


@st.composite
def headers(draw):
    """Column names: f0..f{p-1} in order, or features in any order with gaps
    and repeats; the label absent, once or twice; factors; other names.  The
    features keep their order among the other columns.  No column at all is
    the empty file."""
    columns = [f"f{j}" for j in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        columns = draw(st.lists(FEATURE_NAMES, max_size=4))
    others = ["label"] * draw(st.sampled_from([1, 1, 0, 2])) + draw(st.lists(FACTOR_NAMES, max_size=2))
    if draw(st.booleans()):
        others += draw(st.lists(OTHER_NAMES, max_size=1))
    for name in others:
        columns.insert(draw(st.integers(0, len(columns))), name)
    return columns


def is_valid_header(columns) -> bool:
    """f0..f{p-1} in order with p >= 1, one label, distinct factor names and nothing else."""
    factors = [c for c in columns if c.startswith("alpha_")]
    rest = [c for c in columns if c != "label" and not c.startswith("alpha_")]
    return (columns.count("label") == 1 and len(set(factors)) == len(factors)
            and len(rest) >= 1 and rest == [f"f{j}" for j in range(len(rest))])


class TestFileProperties:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=headers())
    @example(columns=[])
    @example(columns=["f0", "alpha_a"])
    @example(columns=["f1", "f0", "label"])
    @example(columns=["label", "alpha_a"])
    def test_header_loads_exactly_when_it_is_a_schema(self, tmp_path, columns):
        path = tmp_path / "data.csv"
        rows = [[label if c == "label" else "1" for c in columns] for label in ("a", "b")]
        path.write_text("".join(",".join(line) + "\n" for line in [columns, *rows] if columns))
        try:
            ds = load_table(path)
        except ValueError as e:
            assert not is_valid_header(columns), str(e)
            assert str(e).startswith(f"{path}: ")
            return
        assert is_valid_header(columns)
        assert ds.X.shape == (2, sum(c.startswith("f") for c in columns))
        assert ds.factor_names == tuple(c for c in columns if c.startswith("alpha_"))
        assert ds.class_names == ("a", "b")

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=datasets())
    def test_save_load_round_trip_is_bit_exact(self, tmp_path, ds):
        path = tmp_path / "data.csv"
        path.unlink(missing_ok=True)
        present = ds.Y.sum(axis=0) > 0
        if not present.all():
            with pytest.raises(ValueError, match=f"class {ds.class_names[np.argmin(present)]!r} has no rows"):
                save_dataset(ds, path)
            assert not path.exists()
            # The same rows without the empty classes round-trip.
            ds = Dataset(X=ds.X, Y=ds.Y[:, present], factors=ds.factors, factor_names=ds.factor_names,
                         class_names=tuple(name for name, p in zip(ds.class_names, present) if p))
        save_dataset(ds, path)
        back = load_table(path)
        assert back.class_names == ds.class_names
        assert back.X.tobytes() == ds.X.tobytes()
        assert (back.factors is None) == (ds.factors is None)
        if ds.factors is not None:
            assert back.factors.tobytes() == ds.factors.tobytes()
        names = [back.class_names[c] for c in back.class_indices()]
        assert names == [ds.class_names[c] for c in ds.class_indices()]

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=table_texts())
    @example(text="f0,f1,label,alpha_0\n1,1_0,a,2\n1,2,a,3,9\n")
    @example(text="f0,f1,label,alpha_0\n1,2,a,3,9\n1,1_0,a,2\n")
    @example(text="f0,f1,label,alpha_0\n1,nan,a,2\n1,x,a,3\n")
    def test_load_agrees_with_a_row_by_row_reader(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(path) == row_by_row_outcome(path, text)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=table_texts(), picks=st.lists(st.integers(0, 2), max_size=4))
    @example(text="f0,f1,label,alpha_0\n1,2, ,3\n1,x,a,3\n1,2,b,3\n", picks=[2])
    @example(text="f0,f1,label,alpha_0\n1,2,a\n1,x,a,3\n1,2,b,3\n", picks=[2, 2])
    def test_listed_rows_load_as_their_subset_of_the_file_without_the_other_rows_cells(self, tmp_path, text, picks):
        # The other rows' cells are not parsed: the listed rows load as the
        # subset of the same file with every cell but the label of each other
        # row (that has the header's cell count) made a number.  When the
        # whole file loads, that is its subset.
        path, clean = tmp_path / "data.csv", tmp_path / "clean.csv"
        lines = text.splitlines(keepends=True)
        data_lines = [i for i, line in enumerate(lines) if not line.isspace()][1:]
        rows = [pick % len(data_lines) for pick in picks]
        label = AGREEMENT_HEADER.index("label")
        for row, i in enumerate(data_lines):
            cells = lines[i].rstrip("\r\n").split(",")
            if row not in rows and len(cells) == len(AGREEMENT_HEADER):
                cells = ["0" if j != label else cell for j, cell in enumerate(cells)]
                lines[i] = ",".join(cells) + lines[i][len(lines[i].rstrip("\r\n")):]
        path.write_bytes(text.encode("utf-8"))
        clean.write_bytes("".join(lines).encode("utf-8"))
        listed = load_outcome(path, lambda p: load_table(p, rows=rows))
        expected = load_outcome(clean, lambda p: load_table(p).subset(rows))
        assert listed == (expected.replace(str(clean), str(path)) if isinstance(expected, str) else expected)
        if not isinstance(load_outcome(path), str):
            assert listed == load_outcome(path, lambda p: load_table(p).subset(rows))


N = data_module.CHUNK_ROWS


def long_table(rows, replace=()):
    """A table of ``rows`` data rows (f0, f1, label and alpha_0) as text, with
    each ``(lineno, line)`` of ``replace`` put at that line of the file."""
    lines = ["f0,f1,label,alpha_0"] + [f"{i}.5,-{i},{'ab'[i % 2]},0.25" for i in range(rows)]
    for lineno, line in replace:
        lines[lineno - 1] = line
    return "".join(line + "\n" for line in lines)


class TestChunkedFiles:
    """Files longer than one chunk of rows: the loader streams them and the
    writer formats them a chunk at a time, with the messages and bytes that a
    whole-file read and write give."""

    @pytest.mark.parametrize("cell_line, short_line", [(3, 600), (600, 3)])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, cell_line, short_line):
        path = tmp_path / "bad.csv"
        path.write_text(long_table(3 * N, [(cell_line, "1.0,oops,a,0"), (short_line, "1.0,a,0")]))
        message = (f"row {cell_line}, column 'f1': could not parse 'oops' as a number" if cell_line < short_line
                   else f"row {short_line}: expected 4 cells, got 3")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_table(path)

    @pytest.mark.parametrize("row", [0, N - 1, N, 2 * N])
    @pytest.mark.parametrize("column, cell, named", [(1, "abc", "abc"), (0, "", ""), (3, " ", "")],
                             ids=["text", "empty", "blank"])
    def test_bad_cell_at_a_chunk_edge_is_named_by_its_own_line(self, tmp_path, row, column, cell, named):
        # np.loadtxt reads no line ahead of the one it refuses, so the row
        # named is the one looked at again, in a whole read and a listed one.
        cells = f"{row}.5,-{row},{'ab'[row % 2]},0.25".split(",")
        cells[column] = cell
        path = tmp_path / "bad.csv"
        path.write_text(long_table(2 * N + 1, [(row + 2, ",".join(cells))]))
        header = long_table(0).strip().split(",")
        message = f"{path}: row {row + 2}, column {header[column]!r}: could not parse {named!r} as a number"
        for rows in (None, [row], [0, row]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    load_table(path, rows=rows)

    def test_byte_that_is_not_utf8_past_the_first_chunk(self, tmp_path):
        path = tmp_path / "bad.csv"
        text = long_table(2 * N, [(N + 50, "1.0,2.0,\udcff,0.25")])
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: not UTF-8 text (')}"):
            load_table(path)

    def test_non_finite_cell_deep_in_the_file_is_named_as_written(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(long_table(2 * N, [(10, ""), (N + 40, "1.0,1e400,b,0.25")]))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: row {N + 40}, column ')}'f1': "
                                             f"'1e400' is not finite$"):
            load_table(path)

    def test_spelling_only_float_reads_deep_in_the_file_is_refused(self, tmp_path):
        path, plain = tmp_path / "data.csv", tmp_path / "plain.csv"
        path.write_text(long_table(2 * N, [(10, ""), (N + 60, "1_0,2,a,0.25")]))
        plain.write_text(long_table(2 * N, [(10, ""), (N + 60, "10,2,a,0.25")]))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: row {N + 60}, column ')}'f0': "
                                             f"could not parse '1_0' as a number$"):
            load_table(path)
        assert load_table(plain).X[N + 57].tolist() == [10.0, 2.0]

    def test_header_only_file_has_no_data_rows_and_no_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f0,f1,label,alpha_0\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: the file has no data rows')}$"):
                load_table(path)

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from([1, N - 1, N, N + 1, 2 * N + 1]), p=st.integers(1, 3), m=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_and_values_across_chunk_boundaries(self, tmp_path, n, p, m, seed):
        rng = np.random.default_rng(seed)
        values = np.frombuffer(rng.bytes(8 * n * (p + m)), dtype=np.float64).reshape(n, p + m).copy()
        values[~np.isfinite(values)] = 0.0
        values.flat[rng.integers(0, values.size, 3)] = rng.choice(EDGE_FLOATS, 3)
        C = min(n, 3)
        classes = rng.permutation(np.arange(n) % C)
        names = ("a", "b", "c")[:C]
        ds = Dataset(X=values[:, :p], Y=np.identity(C)[classes], factors=values[:, p:] if m else None,
                     class_names=names, factor_names=tuple(f"alpha_{i}" for i in range(m)))
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        # An independent writer: the whole table as one text.
        header = [f"f{j}" for j in range(p)] + ["label"] + list(ds.factor_names)
        lines = [",".join(header)] + [",".join([*map(repr, row[:p]), names[c], *map(repr, row[p:])])
                                      for row, c in zip(values.tolist(), classes)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert os.listdir(tmp_path) == ["data.csv"]
        back = load_table(path)
        assert back.X.tobytes() == ds.X.tobytes() and back.Y.tobytes() == ds.Y.tobytes()
        assert (back.factors is None) == (m == 0)
        if m:
            assert back.factors.tobytes() == ds.factors.tobytes()

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_target_that_is_not_a_regular_file_is_kept(self, tmp_path, kind):
        path = tmp_path / "data.csv"
        path.mkdir() if kind == "directory" else os.mkfifo(path)
        with pytest.raises(OSError, match=f"^{re.escape(f'{path}: not a regular file')}"):
            save_dataset(generate_synthetic(blob_config()), path)
        assert path.is_dir() if kind == "directory" else stat.S_ISFIFO(path.stat().st_mode)
        assert os.listdir(tmp_path) == ["data.csv"]

    @pytest.mark.parametrize("error", [RuntimeError("formatting failed"),
                                       OSError(errno.ENOSPC, "No space left on device")], ids=["runtime", "os"])
    def test_failed_write_keeps_the_earlier_file_and_no_temporary_file(self, tmp_path, monkeypatch, error):
        path = tmp_path / "data.csv"
        path.write_text("earlier bytes\n")
        ds = generate_synthetic(blob_config(samples_per_class=N))
        cells = itertools.count()

        def failing_repr(value):  # fails at the first cell of the second chunk
            if next(cells) == N * ds.input_dim:
                assert len(list(tmp_path.glob("data.csv.*.tmp"))) == 1
                raise error
            return repr(value)

        monkeypatch.setattr(data_module, "repr", failing_repr, raising=False)
        with pytest.raises(type(error)) as raised:
            save_dataset(ds, path)
        assert path.read_text() == "earlier bytes\n"
        assert os.listdir(tmp_path) == ["data.csv"]
        expected = f"[Errno {errno.ENOSPC}] No space left on device: '{path}'" if type(error) is OSError else str(error)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("content, error", [
        ({"accuracy": float("nan")}, ValueError),
        ("lone surrogate \ud800\n", ValueError),  # UTF-8 cannot encode it
        ("iterator", ValueError),
        ("iterator", KeyboardInterrupt),
    ], ids=["document", "str", "iterator-value-error", "iterator-interrupt"])
    def test_failed_text_write_keeps_the_earlier_file_and_no_temporary_file(self, tmp_path, content, error):
        path = tmp_path / "report.json"
        path.write_text("earlier bytes\n")

        def pieces():  # fails at the second piece, with the first one written
            yield "new bytes\n"
            assert len(list(tmp_path.glob("report.json.*.tmp"))) == 1
            raise error("piece failed")

        with pytest.raises(error) as raised:
            _write(path, pieces() if content == "iterator" else content)
        assert path.read_text() == "earlier bytes\n"
        assert os.listdir(tmp_path) == ["report.json"]
        if error is ValueError:
            assert str(raised.value).startswith(f"{path}: ")

    def test_target_named_near_the_file_name_limit_is_written_and_replaced(self, tmp_path):
        path = tmp_path / ("n" * 250)
        for text in ("first\n", "second\n"):
            _write(path, text)
            assert path.read_text() == text
            assert os.listdir(tmp_path) == [path.name]


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_labels_rejected(self, bad):
        with pytest.raises(ValueError, match="labels contain non-finite entries"):
            Dataset(X=np.zeros((2, 2)), Y=[[bad, bad], [1, 0]], factors=None,
                    class_names=("a", "b"), factor_names=())


class TestSplit:
    def test_stratified_proportions(self):
        ds = generate_synthetic(blob_config(samples_per_class=50))
        train, val = split(ds, 0.8, seed=0)
        assert train.n == 80 and val.n == 20
        for c in range(2):
            assert np.sum(train.class_indices() == c) == 40
            assert np.sum(val.class_indices() == c) == 10

    def test_partition(self):
        ds = generate_synthetic(blob_config(samples_per_class=25))
        train, val = split(ds, 0.7, seed=1)
        combined = np.vstack([train.X, val.X])
        # same multiset of rows: sort both and compare
        key = np.lexsort(ds.X.T)
        key2 = np.lexsort(combined.T)
        assert np.array_equal(ds.X[key], combined[key2])
        assert train.n + val.n == ds.n

    def test_deterministic(self):
        ds = generate_synthetic(blob_config())
        a_train, a_val = split(ds, 0.8, seed=5)
        b_train, b_val = split(ds, 0.8, seed=5)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_val.X, b_val.X)

    def test_small_class_rejected(self):
        ds = Dataset(
            X=np.zeros((3, 2)),
            Y=np.array([[1.0, 0], [1, 0], [0, 1]]),
            factors=None,
            class_names=("a", "b"),
            factor_names=(),
        )
        with pytest.raises(ValueError, match="fewer than 2"):
            split(ds, 0.5, seed=0)

    def test_fraction_bounds(self):
        ds = generate_synthetic(blob_config())
        with pytest.raises(ValueError):
            split(ds, 1.0, seed=0)


class TestJointProbabilityTable:
    def test_deterministic_factor_concentrates_mass(self):
        tables = np.zeros((1, 2, 3))
        tables[0, 0] = [1.0, 0.0, 0.0]
        tables[0, 1] = [0.0, 1.0, 0.0]
        config = SynthConfig(class_count=2, input_dim=4, samples_per_class=50,
                             factor_count=1, factor_tables=tables, seed=0)
        ds = generate_synthetic(config)
        # coder with thresholds on the generator's band edges
        coder = FactorCoder(names=("alpha_0",), lower=np.array([-0.5]), upper=np.array([0.5]))
        joint = joint_probability_table(coder.level_indices(ds.factors), ds.Y)
        assert joint.shape == (1, 2, 3)
        # class 0 mass sits entirely in the low column
        assert joint[0, 0, 0] == 0.5
        assert joint[0, 0, 1] == joint[0, 0, 2] == 0.0

    def test_table_sums_to_one(self):
        config = SynthConfig(class_count=3, input_dim=8, samples_per_class=40,
                             factor_count=2, seed=4)
        ds = generate_synthetic(config)
        coder = fit_factor_coder(ds)
        joint = joint_probability_table(coder.level_indices(ds.factors), ds.Y)
        for f in range(2):
            assert abs(joint[f].sum() - 1.0) < 1e-12

    def test_generator_table_recovered(self):
        tables = np.zeros((1, 2, 3))
        tables[0, 0] = [0.6, 0.3, 0.1]
        tables[0, 1] = [0.1, 0.3, 0.6]
        config = SynthConfig(class_count=2, input_dim=4, samples_per_class=1500,
                             factor_count=1, factor_tables=tables, seed=5)
        ds = generate_synthetic(config)
        coder = fit_factor_coder(ds)
        joint = joint_probability_table(coder.level_indices(ds.factors), ds.Y)
        # joint = table * P(class) with uniform classes
        expected = tables[0] / 2.0
        assert np.max(np.abs(joint[0] - expected)) < 0.05
