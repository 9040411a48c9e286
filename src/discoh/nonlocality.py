"""CHSH-related quantities from the correlation matrix of a two-qubit state.

The anti-diagonal class sum, seen as a function of the two measurement
directions, is a quartic in Bloch data:

  v(p1, p2) = (|T|^2 - p1.T T^t p1 - p2.T^t T p2 + (p1.T p2)^2) / 4

Its extremes over all product bases are (s3^2)/4 and (s1^2 + s2^2)/4 with
s1 >= s2 >= s3 the singular values of T.  The Horodecki quantity
m = s1^2 + s2^2 decides CHSH violation (m > 1), equivalently
v_tilde > 1/4, and the two extremes always add up to |T|^2 / 4.

spectrum_closed_forms computes v, v_tilde, m and the violation flag of a
whole stack of states from one spectrum each; measures.records calls it
once for every state of a block.  correlation_spectrum,
v_measures_analytic and chsh_violation are its calls on one state.
"""

from dataclasses import dataclass

import numpy as np

from .coherence import LocalBasisPair
from .coherence import minimize_over_bases  # noqa: F401 (bench/test_bench.py reads it here)
from .errors import ConsistencyError, NormalizationError, ShapeError
from .states import DensityMatrix, bloch_decompose


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Singular values of T (descending) and the squared Frobenius norm."""

    singular_values: np.ndarray
    t_norm_sq: float

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float).reshape(-1)
        if s.shape != (3,):
            raise ShapeError(f"expected three singular values, got shape {s.shape}")
        if np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise ConsistencyError(f"singular values must be nonnegative descending, got {s}")
        object.__setattr__(self, "singular_values", s)


def _spectra(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (N, 3), descending, and squared norms (N,) of a stack of
    correlation matrices, via the eigenvalues of T T^t; checked as
    CorrelationSpectrum checks one."""
    w = np.clip(np.linalg.eigvalsh(t @ t.swapaxes(1, 2)), 0.0, None)
    s = np.sqrt(w[:, ::-1])
    bad = np.flatnonzero((s < 0.0).any(axis=1) | (s[:, 1:] > s[:, :-1]).any(axis=1))
    if bad.size:
        CorrelationSpectrum(s[bad[0]], 0.0)  # raises ConsistencyError
    return s, np.sum(w, axis=1)


def spectrum_closed_forms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """v, v_tilde, the Horodecki m and the CHSH violation flags of a stack of
    correlation matrices T (N, 3, 3), from one spectrum per state."""
    s, t_norm_sq = _spectra(t)
    # C pow on each entry, as Python's float ** 2 computes it; s**2 on an array
    # multiplies instead, which rounds differently now and then
    sq = np.float_power(s, 2)
    m = sq[:, 0] + sq[:, 1]
    v = sq[:, 2] / 4.0
    violated = m > 1.0
    # equivalent reading: the minimized class sum drops below (|T|^2 - 1)/4
    if np.any(violated & ~(v < (t_norm_sq - 1.0) / 4.0 + 1e-12)):
        raise ConsistencyError("violation flag disagrees with the minimized class sum")
    return v, m / 4.0, m, violated


def correlation_spectrum(rho: DensityMatrix) -> CorrelationSpectrum:
    """Spectrum of the correlation matrix via the eigenvalues of T T^t."""
    s, t_norm_sq = _spectra(bloch_decompose(rho).T[None])
    return CorrelationSpectrum(s[0], float(t_norm_sq[0]))


def v_measures_analytic(rho: DensityMatrix) -> tuple[float, float]:
    """Closed-form extremes (v, v_tilde) of the anti-diagonal class sum."""
    v, v_tilde, _, _ = spectrum_closed_forms(bloch_decompose(rho).T[None])
    return float(v[0]), float(v_tilde[0])


def _unit(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape != (3,):
        raise NormalizationError(f"{name} must be a 3-vector, got shape {p.shape}")
    if abs(float(np.dot(p, p)) - 1.0) > 1e-12:
        raise NormalizationError(f"{name} norm^2 = {np.dot(p, p):.15f} is not 1")
    return p


def v_objective_bloch(rho: DensityMatrix, p1, p2) -> float:
    """Anti-diagonal class sum for measurement directions p1 (side A), p2 (side B)."""
    p1 = _unit(p1, "p1")
    p2 = _unit(p2, "p2")
    t = bloch_decompose(rho).T
    t2 = float(np.sum(t * t))
    return 0.25 * (
        t2
        - float(p1 @ (t @ t.T) @ p1)
        - float(p2 @ (t.T @ t) @ p2)
        + float(p1 @ t @ p2) ** 2
    )


def direction_basis(p) -> np.ndarray:
    """Qubit basis rotation for a measurement direction.

    Returns the unitary U such that conjugating by U makes the computational
    indices of the rotated matrix refer to the eigenvectors along +p and -p;
    the +z direction maps to the computational basis itself.
    """
    p = _unit(p, "direction")
    theta = np.arccos(np.clip(p[2], -1.0, 1.0))
    phi = np.arctan2(p[1], p[0])
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    columns = np.array(
        [
            [c, -s * np.exp(-1j * phi)],
            [s * np.exp(1j * phi), c],
        ]
    )
    return columns.conj().T


def basis_pair_from_directions(p1, p2) -> LocalBasisPair:
    return LocalBasisPair(direction_basis(p1), direction_basis(p2))


def chsh_violation(rho: DensityMatrix) -> tuple[bool, float]:
    """CHSH violation flag and the Horodecki quantity s1^2 + s2^2."""
    _, _, m, violated = spectrum_closed_forms(bloch_decompose(rho).T[None])
    return bool(violated[0]), float(m[0])
