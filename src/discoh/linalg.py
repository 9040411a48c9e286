"""Dense complex linear algebra for small composite systems.

Everything operates on plain numpy arrays of complex128.  Matrices follow
the row-major composite index convention: the basis vector |ij> of an
m x n system sits at flat index i*n + j.
"""

import numpy as np

from .errors import HermiticityError, ShapeError

HERMITICITY_TOL = 1e-10

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Stacked in the index order used by Bloch components (1, 2, 3).
PAULI = np.stack([sigma_x, sigma_y, sigma_z])


def partial_trace(mat: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one side of a bipartite matrix.

    keep='A' returns the m x m reduction, keep='B' the n x n one.
    """
    m, n = dims
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (m * n, m * n):
        raise ShapeError(f"matrix shape {mat.shape} does not match dims {dims}")
    t = mat.reshape(m, n, m, n)
    if keep == "A":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError("keep must be 'A' or 'B'")


def hermiticity_defect(mat: np.ndarray) -> float:
    mat = np.asarray(mat)
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


def hermitian_eigen(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns.

    The input must be Hermitian within HERMITICITY_TOL; anything else is a
    contract violation, not something to silently symmetrize.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got {mat.shape}")
    defect = hermiticity_defect(mat)
    if defect > HERMITICITY_TOL:
        raise HermiticityError(f"not hermitian: max |m - m^dag| = {defect:.3e}")
    w, v = np.linalg.eigh(mat)
    return w[::-1].copy(), v[:, ::-1].copy()


def frobenius_sq(mat: np.ndarray) -> float:
    """Sum of squared moduli of all entries."""
    mat = np.asarray(mat)
    return float(np.vdot(mat, mat).real)
