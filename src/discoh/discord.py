"""Geometric discord measures built on the coherence class sums.

For two qubits the one-sided measures have closed forms in Bloch data:

  d_ab = (|x|^2 + |T|^2 - lmax(x x^t + T T^t)) / 4
  d_ba = (|y|^2 + |T|^2 - lmax(y y^t + T^t T)) / 4

where lmax is the largest eigenvalue.  The symmetric measure is their sum
(the two minimizations decouple).  The two-sided measure, minimizing the
single-count off-diagonal sum over product bases, has no closed form and is
always computed by the basis search; it is bracketed by
max(d_ab, d_ba) <= d_tilde <= d_ab + d_ba.  bracket_violation says by how
much a value misses it, for DiscordReport and the two-side-sandwich campaign.
The numeric routes and discord_report live in measures.py.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DiscohError, NormalizationError, UnsupportedDimensionError
from .states import DensityMatrix, bloch_decompose

ANALYTIC = "analytic"
NUMERIC = "numeric"

# The searches stop at an objective tolerance (1e-9 by default), so every
# numeric side of the d_tilde bracket may miss its optimum by that much.
BRACKET_SLACK = 1e-7


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit vector on the Bloch sphere picking the optimal local basis."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if p.shape != (3,):
            raise NormalizationError(f"direction must be a 3-vector, got shape {p.shape}")
        if abs(np.dot(p, p) - 1.0) > 1e-12:
            raise NormalizationError(f"direction norm^2 = {np.dot(p, p):.15f} is not 1")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class DiscordReport:
    """One-sided, symmetric and (optional) two-sided measures of one state."""

    d_ab: float
    d_ba: float
    d_sym: float
    d_tilde: float | None
    method: str
    diagnostics: dict | None = None

    def __post_init__(self):
        if self.method not in (ANALYTIC, NUMERIC):
            raise DiscohError(f"method must be analytic or numeric, got {self.method!r}")
        if abs(self.d_sym - (self.d_ab + self.d_ba)) > 1e-12:
            raise ConsistencyError("d_sym must equal d_ab + d_ba")
        if self.d_tilde is not None:
            violation = bracket_violation(self.d_ab, self.d_ba, self.d_tilde)
            if violation > BRACKET_SLACK:
                raise ConsistencyError(
                    f"d_tilde {self.d_tilde:.3e} misses [max(d_ab, d_ba), d_sym] by {violation:.3e}"
                )


def bracket_violation(d_ab: float, d_ba: float, d_tilde: float) -> float:
    """How far d_tilde lies outside max(d_ab, d_ba) <= d_tilde <= d_ab + d_ba; 0 inside."""
    return max(0.0, max(d_ab, d_ba) - d_tilde, d_tilde - (d_ab + d_ba))


def _lexmax_unit(span: np.ndarray) -> np.ndarray:
    """Unit vector in the column span with lexicographically largest entries."""
    for k in range(span.shape[0]):
        v = span @ span[k].conj()
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-12:
            return (v / nrm).real
    raise ConsistencyError("eigenvector span is degenerate to numerical zero")


def _closed_form(local: np.ndarray, corr: np.ndarray) -> tuple[float, MeasurementDirection]:
    mmat = np.outer(local, local) + corr @ corr.T
    w, v = np.linalg.eigh(mmat)
    lam = float(w[-1])
    span = v[:, w >= w[-1] - 1e-12]
    value = 0.25 * (float(np.dot(local, local)) + float(np.sum(corr * corr)) - lam)
    return max(value, 0.0), MeasurementDirection(_lexmax_unit(span))


def _require_two_qubits(rho: DensityMatrix, what: str):
    if rho.dims != (2, 2):
        raise UnsupportedDimensionError(f"{what} closed form needs dims (2, 2), got {rho.dims}")


def discord_ab_analytic(rho: DensityMatrix) -> tuple[float, MeasurementDirection]:
    """Closed-form measure with the minimizing measurement on side A."""
    _require_two_qubits(rho, "d_ab")
    rep = bloch_decompose(rho)
    return _closed_form(rep.x, rep.T)


def discord_ba_analytic(rho: DensityMatrix) -> tuple[float, MeasurementDirection]:
    """Closed-form measure with the minimizing measurement on side B."""
    _require_two_qubits(rho, "d_ba")
    rep = bloch_decompose(rho)
    return _closed_form(rep.y, rep.T.T)
