"""CHSH-related quantities from the correlation matrix of a two-qubit state.

The anti-diagonal class sum, seen as a function of the two measurement
directions, is a quartic in Bloch data:

  v(p1, p2) = (|T|^2 - p1.T T^t p1 - p2.T^t T p2 + (p1.T p2)^2) / 4

Its extremes over all product bases are (s3^2)/4 and (s1^2 + s2^2)/4 with
s1 >= s2 >= s3 the singular values of T.  The Horodecki quantity
m = s1^2 + s2^2 decides CHSH violation (m > 1), equivalently
v_tilde > 1/4, and the two extremes always add up to |T|^2 / 4.
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


def correlation_spectrum(rho: DensityMatrix) -> CorrelationSpectrum:
    """Spectrum of the correlation matrix via the eigenvalues of T T^t."""
    t = bloch_decompose(rho).T
    w = np.linalg.eigvalsh(t @ t.T)
    w = np.clip(w, 0.0, None)
    return CorrelationSpectrum(np.sqrt(w[::-1]), float(np.sum(w)))


def v_measures_analytic(rho: DensityMatrix) -> tuple[float, float]:
    """Closed-form extremes (v, v_tilde) of the anti-diagonal class sum."""
    s = correlation_spectrum(rho).singular_values
    return float(s[2] ** 2 / 4.0), float((s[0] ** 2 + s[1] ** 2) / 4.0)


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
    corr = correlation_spectrum(rho)
    s = corr.singular_values
    m = float(s[0] ** 2 + s[1] ** 2)
    violates = m > 1.0
    if violates:
        # equivalent reading: the minimized class sum drops below (|T|^2 - 1)/4
        v_min = float(s[2] ** 2 / 4.0)
        if not v_min < (corr.t_norm_sq - 1.0) / 4.0 + 1e-12:
            raise ConsistencyError("violation flag disagrees with the minimized class sum")
    return violates, m
