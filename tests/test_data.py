import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fixedproto import data as data_module
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
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n1_0,a\n４２,b\n 1.5 ,a\r\n")
        assert load_table(path).X.ravel().tolist() == [10.0, 42.0, 1.5]


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


# Cell texts for the bulk/fallback agreement: ordinary numbers, then cells
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


def load_outcome(path):
    """What ``load_table`` gives for ``path``: the arrays' bytes, or the error message."""
    try:
        ds = load_table(path)
    except ValueError as e:
        return str(e)
    return ds.X.tobytes(), ds.Y.tobytes(), ds.factors.tobytes(), ds.class_names


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
    def test_bulk_parse_agrees_with_cell_by_cell_fallback(self, tmp_path, monkeypatch, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        bulk = load_outcome(path)

        def fail(*args, **kwargs):
            raise ValueError("bulk parse forced to fail")

        with monkeypatch.context() as m:
            m.setattr(data_module.np, "loadtxt", fail)
            fallback = load_outcome(path)
        assert bulk == fallback


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
