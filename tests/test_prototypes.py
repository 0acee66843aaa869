import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedproto.prototypes import (
    ClassOrthogonalExtractor,
    FactorCodedExtractor,
    FactorCoder,
    class_orthogonal_extractor,
    extractor_from_doc,
    extractor_to_doc,
    fit_factor_coder,
)
from fixedproto.training import mix_rows
from util import factor_extractor, rows_dataset

# Fixture seeds: the distance bound below holds for these specific draws.
EXTRACTOR_JL_SEEDS = (0, 2, 3)


def one_row(v):
    """A single sample as a 1-row batch."""
    return np.asarray(v, dtype=float)[None]


def type4_quantile(values, q):
    """Independent oracle: linear interpolation of the empirical CDF."""
    xs = np.sort(np.asarray(values, dtype=float))
    h = len(xs) * q
    lo = int(np.floor(h))
    if lo < 1:
        return xs[0]
    if lo >= len(xs):
        return xs[-1]
    frac = h - lo
    return xs[lo - 1] + frac * (xs[lo] - xs[lo - 1])


class TestClassOrthogonalExtractor:
    def test_gram_identity_when_k_ge_c(self):
        ex = class_orthogonal_extractor(4, 16, seed=0)
        gram = ex.table @ ex.table.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_one_hot_label_returns_table_row(self):
        ex = class_orthogonal_extractor(4, 16, seed=0)
        for j in range(4):
            label = np.zeros(4)
            label[j] = 1.0
            proto = ex.extract_batch(ex.targets(rows_dataset(one_row(label))))
            assert np.allclose(proto[0], ex.table[j], atol=1e-15)

    def test_soft_label_mixes_rows(self):
        ex = class_orthogonal_extractor(4, 16, seed=1)
        label = np.array([0.5, 0.5, 0.0, 0.0])
        expected = 0.5 * ex.table[0] + 0.5 * ex.table[1]
        assert np.max(np.abs(ex.extract_batch(ex.targets(rows_dataset(one_row(label))))[0] - expected)) < 1e-12

    @pytest.mark.parametrize("seed", EXTRACTOR_JL_SEEDS)
    def test_jlt_path_distance_distortion(self, seed):
        ex = class_orthogonal_extractor(100, 32, seed=seed)
        # brute force over all pairs; orthonormal sources sit sqrt(2) apart
        ratios = []
        for i in range(100):
            for j in range(i + 1, 100):
                ratios.append(np.linalg.norm(ex.table[i] - ex.table[j]) / np.sqrt(2.0))
        ratios = np.array(ratios)
        assert ratios.min() > 0.5
        assert ratios.max() < 1.5

    def test_jlt_path_c50_k16(self):
        ex = class_orthogonal_extractor(50, 16, seed=2)
        dists = []
        for i in range(50):
            for j in range(i + 1, 50):
                dists.append(np.linalg.norm(ex.table[i] - ex.table[j]))
        ratios = np.array(dists) / np.sqrt(2.0)
        assert ratios.min() > 0.4
        assert ratios.max() < 1.6

    def test_factors_are_ignored(self):
        ex = class_orthogonal_extractor(3, 8, seed=0)
        labels = one_row([0.2, 0.3, 0.5])
        assert np.array_equal(ex.targets(rows_dataset(labels)),
                              ex.targets(rows_dataset(labels, factors=one_row([1.0, 2.0]))))

    def test_label_validation(self):
        ex = class_orthogonal_extractor(3, 8, seed=0)
        with pytest.raises(ValueError, match="extractor has 3 classes, labels have 2"):
            ex.targets(rows_dataset(one_row([0.5, 0.5])))  # wrong length
        # The other bad label rows never reach targets: the Dataset refuses them.
        with pytest.raises(ValueError, match="nonnegative"):
            rows_dataset(one_row([0.7, 0.6, -0.3]))  # negative entry
        with pytest.raises(ValueError, match="sum to 1"):
            rows_dataset(one_row([0.5, 0.4, 0.2]))  # sums to 1.1
        with pytest.raises(ValueError, match="non-finite"):
            rows_dataset(one_row([0.5, np.nan, 0.5]))  # non-finite entry
        with pytest.raises(ValueError, match="2-D"):
            rows_dataset(np.array([1.0, 0.0, 0.0]))  # not a batch

    def test_preconditions(self):
        with pytest.raises(ValueError):
            class_orthogonal_extractor(1, 8, seed=0)
        with pytest.raises(ValueError):
            class_orthogonal_extractor(3, 0, seed=0)

    def test_deterministic(self):
        a = class_orthogonal_extractor(6, 16, seed=3)
        b = class_orthogonal_extractor(6, 16, seed=3)
        assert np.array_equal(a.table, b.table)

    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ClassOrthogonalExtractor(class_count=2, embedding_dim=2, seed=0,
                                     table=np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_table_is_frozen(self):
        ex = class_orthogonal_extractor(2, 4, seed=0)
        with pytest.raises(ValueError):
            ex.table[0, 0] = 5.0


class TestFactorCoder:
    def test_terciles_of_one_to_nine(self):
        coder = fit_factor_coder(rows_dataset(factors=np.arange(1.0, 10.0)[:, None]))
        assert coder.lower[0] == type4_quantile(np.arange(1.0, 10.0), 1 / 3) == 3.0
        assert coder.upper[0] == type4_quantile(np.arange(1.0, 10.0), 2 / 3) == 6.0
        levels = coder.level_indices(np.arange(1.0, 10.0)[:, None])
        assert list(levels[:, 0]) == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_degenerate_factor_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_factor_coder(rows_dataset(factors=np.full((10, 1), 2.5)))

    def test_fit_needs_factor_values_and_rows(self):
        with pytest.raises(ValueError, match="needs a dataset with factor columns"):
            fit_factor_coder(rows_dataset(one_row([1.0])))
        with pytest.raises(ValueError, match="non-empty"):
            fit_factor_coder(rows_dataset(factors=np.empty((0, 2))))

    def test_three_value_bins_are_exact_thirds(self):
        values = np.array([0.0, 0, 0, 1, 1, 1, 2, 2, 2])
        coder = fit_factor_coder(rows_dataset(factors=values[:, None]))
        levels = coder.level_indices(values[:, None])[:, 0]
        assert np.bincount(levels, minlength=3).tolist() == [3, 3, 3]

    def test_quantiles_match_oracle_on_random_data(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(101)
        coder = fit_factor_coder(rows_dataset(factors=values[:, None]))
        assert coder.lower[0] == pytest.approx(type4_quantile(values, 1 / 3), abs=1e-12)
        assert coder.upper[0] == pytest.approx(type4_quantile(values, 2 / 3), abs=1e-12)

    @pytest.mark.parametrize("n", [30, 101, 1000])
    def test_fitted_bins_hold_near_equal_mass(self, n):
        # tie-free continuous data: empirical bin masses within 0.05 of 1/3
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n)
        coder = fit_factor_coder(rows_dataset(factors=values[:, None]))
        levels = coder.level_indices(values[:, None])[:, 0]
        masses = np.bincount(levels, minlength=3) / n
        assert np.max(np.abs(masses - 1.0 / 3.0)) < 0.05

    def test_code_factor_levels(self):
        coder = FactorCoder(names=("a",), lower=np.array([1.0]), upper=np.array([2.0]))
        codes = coder.code(np.array([[0.5], [1.5], [3.0]]))
        assert np.array_equal(codes[:, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_threshold_ties_fall_to_lower_bin(self):
        coder = FactorCoder(names=("a",), lower=np.array([1.0]), upper=np.array([2.0]))
        codes = coder.code(np.array([[1.0], [2.0]]))
        assert np.array_equal(codes[:, 0], [[1, 0, 0], [0, 1, 0]])

    def test_factor_index_checked(self):
        coder = FactorCoder(names=("a",), lower=np.array([1.0]), upper=np.array([2.0]))
        with pytest.raises(ValueError):
            coder.code(np.array([[0.0, 1.0]]))  # two factor values for a one-factor coder


class TestFactorCodedExtractor:
    def make(self, m=3, k=16):
        coder = FactorCoder(
            names=tuple(f"alpha_{i}" for i in range(m)),
            lower=np.zeros(m) - 0.5,
            upper=np.zeros(m) + 0.5,
        )
        return FactorCodedExtractor(coder, k)

    def test_low_medium_high_prototype_layout(self):
        ex = self.make(m=3, k=16)
        proto = ex.extract_batch(ex.targets(rows_dataset(factors=one_row([-1.0, 0.0, 1.0]))))  # low, medium, high
        expected = np.zeros(16)
        expected[:9] = [1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert np.array_equal(proto, [expected])

    def test_empty_zero_block_boundary(self):
        ex = self.make(m=1, k=3)
        assert ex.zero_dim == 0
        assert np.array_equal(ex.extract_batch(ex.targets(rows_dataset(factors=one_row([2.0])))), [[0, 0, 1]])

    def test_zero_block_always_zero(self):
        ex = self.make(m=2, k=8)
        rng = np.random.default_rng(0)
        proto = ex.extract_batch(ex.targets(rows_dataset(factors=rng.standard_normal((20, 2)))))
        assert np.array_equal(proto[:, 6:], np.zeros((20, 2)))

    def test_rejects_too_small_embedding(self):
        with pytest.raises(ValueError):
            self.make(m=3, k=8)

    def test_soft_level_codes(self):
        ex = self.make(m=1, k=4)
        codes = np.array([[[0.5, 0.5, 0.0]]])
        proto = ex.extract_batch(codes)
        assert np.array_equal(proto, [[0.5, 0.5, 0.0, 0.0]])

    def test_missing_factors_rejected(self):
        ex = self.make()
        assert ex.targets(rows_dataset(one_row([1.0, 0.0]))) is None
        with pytest.raises(ValueError, match="factor"):
            ex.targets(rows_dataset(factors=one_row([0.0, 1.0])))  # two factor values, three expected
        with pytest.raises(ValueError, match="factor"):
            rows_dataset(factors=one_row([0.0, np.nan, 1.0]))  # the Dataset refuses it
        with pytest.raises(ValueError, match="codes"):
            ex.extract_batch(one_row([0.0, 0.0, 1.0]))  # raw values, not level codes

    def test_label_ignored(self):
        ex = self.make(m=2, k=6)
        f = one_row([0.0, 1.0])
        a = ex.targets(rows_dataset(one_row([1.0, 0.0]), f))
        b = ex.targets(rows_dataset(one_row([0.0, 1.0]), f))
        assert np.array_equal(a, b)

    def test_layout_labels(self):
        ex = self.make(m=3, k=16)
        labels = ex.dim_labels()
        assert len(labels) == 16
        assert labels[0] == "alpha_0:low"
        assert labels[4] == "alpha_1:medium"
        assert labels[8] == "alpha_2:high"
        assert labels[9] == "other factor 0"
        assert labels[15] == "other factor 6"

    def test_slices(self):
        layout = factor_extractor(("a", "b"), 10)
        assert layout.factor_slice(0) == slice(0, 3)
        assert layout.factor_slice(1) == slice(3, 6)
        assert layout.zero_slice == slice(6, 10)
        assert layout.coded_dim == 6 and layout.zero_dim == 4

    def test_too_many_factors_rejected(self):
        with pytest.raises(ValueError):
            factor_extractor(("a", "b"), 5)


@st.composite
def factor_cases(draw):
    """(m, k, levels (n, m), lam, perm): factor values on levels 0/1/2 and a mixup draw."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(3 * m, 3 * m + 5))
    n = draw(st.integers(1, 40))
    levels = np.array(draw(st.lists(st.integers(0, 2), min_size=n * m, max_size=n * m)), dtype=float)
    lam = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))))
    return m, k, levels.reshape(n, m), lam, perm


class TestFactorCodedTable:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=factor_cases())
    def test_table_map_is_the_zero_padded_codes_to_the_bit(self, case):
        m, k, levels, lam, perm = case
        coder = FactorCoder(names=tuple(f"f{i}" for i in range(m)), lower=np.full(m, 0.5), upper=np.full(m, 1.5))
        ex = FactorCodedExtractor(coder, k)
        codes = mix_rows(ex.targets(rows_dataset(factors=levels)), lam, perm)  # soft codes, as training mixes them
        expected = np.zeros((len(codes), k))
        expected[:, : 3 * m] = codes.reshape(len(codes), -1)
        assert ex.extract_batch(codes).tobytes() == expected.tobytes()

class TestMultilinearity:
    def test_label_side(self):
        rng = np.random.default_rng(0)
        ex = class_orthogonal_extractor(5, 12, seed=4)
        worst = 0.0
        for _ in range(200):
            ya, yb = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
            a = rng.random()
            b = 1.0 - a
            lhs = ex.extract_batch(one_row(a * ya + b * yb))
            rhs = a * ex.extract_batch(one_row(ya)) + b * ex.extract_batch(one_row(yb))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-12

    def test_factor_side(self):
        rng = np.random.default_rng(1)
        coder = FactorCoder(names=("u", "v"), lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
        ex = FactorCodedExtractor(coder, 8)
        worst = 0.0
        for _ in range(200):
            ca = rng.dirichlet(np.ones(3), size=2)
            cb = rng.dirichlet(np.ones(3), size=2)
            a = rng.random()
            b = 1.0 - a
            lhs = ex.extract_batch(one_row(a * ca + b * cb))
            rhs = a * ex.extract_batch(one_row(ca)) + b * ex.extract_batch(one_row(cb))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-12


class TestSerialization:
    def test_class_orthogonal_round_trip(self):
        ex = class_orthogonal_extractor(7, 16, seed=11)
        back = extractor_from_doc(json.loads(json.dumps(extractor_to_doc(ex))))
        assert np.array_equal(back.table, ex.table)
        assert back.class_count == 7 and back.embedding_dim == 16 and back.seed == 11

    def test_factor_coded_round_trip(self):
        coder = fit_factor_coder(rows_dataset(factors=np.column_stack([np.arange(9.0), np.arange(0.0, 18, 2)]),
                                             factor_names=("a", "b")))
        ex = FactorCodedExtractor(coder, 10)
        back = extractor_from_doc(json.loads(json.dumps(extractor_to_doc(ex))))
        assert back.coder.names == ("a", "b")
        assert np.array_equal(back.coder.lower, ex.coder.lower)
        assert np.array_equal(back.coder.upper, ex.coder.upper)
        assert back.embedding_dim == 10

    def test_extract_does_not_mutate(self):
        ex = class_orthogonal_extractor(4, 6, seed=0)
        before = extractor_to_doc(ex)
        rng = np.random.default_rng(2)
        ex.extract_batch(ex.targets(rows_dataset(rng.dirichlet(np.ones(4), size=50))))
        assert extractor_to_doc(ex) == before

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            extractor_from_doc({"format": "prototype-extractor", "version": 1, "kind": "nope"})

