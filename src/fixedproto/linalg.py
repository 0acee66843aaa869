"""Dense float64 linear algebra: seeded orthonormal bases and
Johnson-Lindenstrauss projections.

Matrices are C-contiguous float64 numpy arrays (row-major); vectors are 1-D
float64 arrays.  Every function here is a pure function of its inputs and is
deterministic for a fixed seed, so results are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-12


def gram_schmidt(vectors) -> np.ndarray:
    """Orthonormalize row vectors with modified Gram-Schmidt into an (n, dim) array.

    A second projection pass per vector guards against loss of orthogonality
    for nearly dependent inputs.  Raises ``ValueError`` when a residual norm
    falls below ``RANK_TOL`` (linearly dependent input).
    """
    out = np.array(vectors, dtype=np.float64, ndmin=2)
    n, dim = out.shape
    if n > dim:
        raise ValueError(f"cannot orthonormalize {n} vectors in dimension {dim}")
    if not np.all(np.isfinite(out)):
        raise ValueError("input vectors contain non-finite entries")
    for i in range(n):
        for _ in range(2):  # re-orthogonalization pass
            for j in range(i):
                out[i] -= (out[j] @ out[i]) * out[j]
        norm = np.linalg.norm(out[i])
        if norm < RANK_TOL:
            raise ValueError(f"rank deficiency: vector {i} has residual norm {norm:.3e}")
        out[i] /= norm
    return out


def random_orthonormal_basis(n: int, dim: int, seed) -> np.ndarray:
    """Return ``n`` orthonormal rows in R^dim as an (n, dim) array, deterministic per seed.

    Built by orthonormalizing a seeded Gaussian matrix, which is almost
    surely full rank.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > dim:
        raise ValueError(f"cannot build {n} orthonormal vectors in dimension {dim}")
    rng = np.random.default_rng(seed)
    return gram_schmidt(rng.standard_normal((n, dim)))


def jlt_create(source_dim: int, target_dim: int, seed) -> np.ndarray:
    """Create a dense Gaussian Johnson-Lindenstrauss projection matrix.

    Entries are i.i.d. normal with standard deviation 1/sqrt(target_dim), so
    squared norms are preserved in expectation.  Shape is
    ``(target_dim, source_dim)``; project row vectors ``x`` as ``x @ T.T``.
    """
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    if source_dim <= target_dim:
        raise ValueError(
            f"source_dim {source_dim} must exceed target_dim {target_dim}; "
            "an orthonormal basis fits directly otherwise"
        )
    rng = np.random.default_rng(seed)
    return rng.standard_normal((target_dim, source_dim)) / np.sqrt(target_dim)

