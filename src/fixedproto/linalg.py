"""Dense float64 linear algebra: seeded orthonormal bases and
Johnson-Lindenstrauss projections.

Matrices are C-contiguous float64 numpy arrays (row-major); vectors are 1-D
float64 arrays.  Every function here is a pure function of its inputs and is
deterministic for a fixed seed, so results are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-10
RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Mutually orthonormal row vectors in R^dim.

    Unit norms and zero pairwise dot products (within ``ORTHONORMAL_TOL``)
    are checked at construction; the vector array is frozen afterwards.
    """

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        if vecs.ndim != 2:
            raise ValueError("vectors must be a 2-D array, one vector per row")
        if vecs.shape[1] != self.dim:
            raise ValueError(f"vector length {vecs.shape[1]} does not match dim {self.dim}")
        if vecs.shape[0] > self.dim:
            raise ValueError(f"{vecs.shape[0]} vectors cannot be orthonormal in dimension {self.dim}")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("vectors contain non-finite entries")
        gram = vecs @ vecs.T
        if np.max(np.abs(gram - np.eye(vecs.shape[0]))) > ORTHONORMAL_TOL:
            raise ValueError("vectors are not orthonormal")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def gram_schmidt(vectors) -> OrthonormalBasis:
    """Orthonormalize row vectors with modified Gram-Schmidt.

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
    return OrthonormalBasis(dim=dim, vectors=out)


def random_orthonormal_basis(n: int, dim: int, seed) -> OrthonormalBasis:
    """Return ``n`` orthonormal vectors in R^dim, deterministic per seed.

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

