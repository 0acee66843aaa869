import numpy as np
import pytest

from fixedproto.linalg import gram_schmidt, jlt_create, random_orthonormal_basis

# Seeds are part of the fixture: the distance-distortion bound holds for
# these specific draws.
JL_FIXTURE_SEEDS = (0, 1, 2)


def pairwise_distances(rows):
    """Brute-force oracle: all pairwise Euclidean distances."""
    rows = np.asarray(rows)
    n = rows.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(np.sqrt(np.sum((rows[i] - rows[j]) ** 2)))
    return np.array(out)


class TestRandomOrthonormalBasis:
    def test_single_vector_is_unit(self):
        basis = random_orthonormal_basis(1, 3, seed=5)
        assert abs(np.linalg.norm(basis[0]) - 1.0) < 1e-12

    def test_full_basis_is_orthonormal(self):
        basis = random_orthonormal_basis(3, 3, seed=9)
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_gram_matrix_n4_dim8(self):
        basis = random_orthonormal_basis(4, 8, seed=42)
        # direct Gram computation, one pair of rows at a time
        gram = np.array([[vi @ vj for vj in basis] for vi in basis])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_more_vectors_than_dim_rejected(self):
        with pytest.raises(ValueError):
            random_orthonormal_basis(4, 3, seed=0)

    def test_deterministic_per_seed(self):
        a = random_orthonormal_basis(5, 12, seed=7)
        b = random_orthonormal_basis(5, 12, seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_orthonormal_basis(5, 12, seed=7)
        b = random_orthonormal_basis(5, 12, seed=8)
        assert not np.array_equal(a, b)


class TestGramSchmidt:
    def test_axis_aligned_normalization(self):
        basis = gram_schmidt([[2.0, 0.0], [0.0, 5.0]])
        assert np.allclose(basis, np.eye(2), atol=1e-12)

    def test_hand_computed_result(self):
        basis = gram_schmidt([[1.0, 1.0], [1.0, 0.0]])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis, [[s, s], [s, -s]], atol=1e-12)

    def test_span_preserved(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((3, 6))
        basis = gram_schmidt(V)
        # every input vector is reproduced by its projection onto the basis
        for v in V:
            recon = basis.T @ (basis @ v)
            assert np.allclose(recon, v, atol=1e-10)

    def test_rank_deficiency_detected(self):
        with pytest.raises(ValueError, match="rank"):
            gram_schmidt([[1.0, 0.0], [2.0, 0.0]])

    def test_near_dependent_vectors_stay_orthonormal(self):
        v = np.array([1.0, 1e-9, 0.0])
        basis = gram_schmidt([[1.0, 0.0, 0.0], v, [0.0, 0.0, 1.0]])
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


class TestJlt:
    def test_shape_contract(self):
        T = jlt_create(100, 32, seed=0)
        assert T.shape == (32, 100)

    def test_zero_vector_maps_to_zero(self):
        T = jlt_create(10, 4, seed=1)
        assert np.array_equal(np.zeros(10) @ T.T, np.zeros(4))

    def test_identity_like_matrix(self):
        assert np.array_equal(np.array([3.0, 4.0]) @ np.eye(2).T, [3.0, 4.0])

    def test_first_basis_vector_selects_first_column(self):
        T = jlt_create(3, 2, seed=7)
        x = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(x @ T.T, T[:, 0])

    def test_linearity(self):
        rng = np.random.default_rng(11)
        T = jlt_create(20, 6, seed=2)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        a, b = 0.3, -1.7
        lhs = (a * x + b * y) @ T.T
        rhs = a * (x @ T.T) + b * (y @ T.T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_source_dim_must_exceed_target(self):
        with pytest.raises(ValueError):
            jlt_create(10, 10, seed=0)

    def test_dimension_mismatch(self):
        T = jlt_create(5, 2, seed=0)
        with pytest.raises(ValueError):
            np.zeros(4) @ T.T

    @pytest.mark.parametrize("seed", JL_FIXTURE_SEEDS)
    def test_distance_distortion_on_orthonormal_sources(self, seed):
        sources = random_orthonormal_basis(100, 100, seed=seed)
        T = jlt_create(100, 32, seed=seed + 1000)
        projected = sources @ T.T
        before = pairwise_distances(sources)
        after = pairwise_distances(projected)
        ratio = after / before
        assert ratio.min() > 0.5
        assert ratio.max() < 1.5

    def test_deterministic_per_seed(self):
        assert np.array_equal(jlt_create(30, 8, seed=4), jlt_create(30, 8, seed=4))
