import numpy as np
import pytest

from fixedproto.data import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    joint_probability_table,
    load_table,
    save_dataset,
    split,
    true_levels,
)
from fixedproto.prototypes import FactorCoder, fit_factor_coder


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
        coder = fit_factor_coder([ds.factors[:, i] for i in range(2)])
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
        joint = joint_probability_table(ds, coder)
        assert joint.shape == (1, 2, 3)
        # class 0 mass sits entirely in the low column
        assert joint[0, 0, 0] == 0.5
        assert joint[0, 0, 1] == joint[0, 0, 2] == 0.0

    def test_table_sums_to_one(self):
        config = SynthConfig(class_count=3, input_dim=8, samples_per_class=40,
                             factor_count=2, seed=4)
        ds = generate_synthetic(config)
        coder = fit_factor_coder([ds.factors[:, i] for i in range(2)])
        joint = joint_probability_table(ds, coder)
        for f in range(2):
            assert abs(joint[f].sum() - 1.0) < 1e-12

    def test_generator_table_recovered(self):
        tables = np.zeros((1, 2, 3))
        tables[0, 0] = [0.6, 0.3, 0.1]
        tables[0, 1] = [0.1, 0.3, 0.6]
        config = SynthConfig(class_count=2, input_dim=4, samples_per_class=1500,
                             factor_count=1, factor_tables=tables, seed=5)
        ds = generate_synthetic(config)
        coder = fit_factor_coder([ds.factors[:, 0]])
        joint = joint_probability_table(ds, coder)
        # joint = table * P(class) with uniform classes
        expected = tables[0] / 2.0
        assert np.max(np.abs(joint[0] - expected)) < 0.05

    def test_requires_factors(self):
        ds = generate_synthetic(blob_config())
        coder = fit_factor_coder([np.arange(9.0)])
        with pytest.raises(ValueError):
            joint_probability_table(ds, coder)
