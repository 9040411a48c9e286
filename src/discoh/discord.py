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

one_sided_closed_form computes either closed form for a whole stack of
states at once; measures.records calls it once per side for every state
of a block.  discord_ab_analytic and discord_ba_analytic are its calls on
one state.  The numeric routes and discord_report live in measures.py.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DiscohError, NormalizationError, UnsupportedDimensionError
from .linalg import row_dots
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


def _lexmax_unit(spans: np.ndarray) -> np.ndarray:
    """Per state, the unit vector in the span of the columns of spans (N, 3, 3)
    with lexicographically largest entries: span @ span[k], normalized, for the
    first row k where that is not numerically zero."""
    candidates = spans @ spans.swapaxes(1, 2)  # symmetric: row k is span @ span[k]
    norms = np.sqrt(row_dots(candidates))
    found = norms > 1e-12
    if not found.any(axis=1).all():
        raise ConsistencyError("eigenvector span is degenerate to numerical zero")
    k = np.argmax(found, axis=1)
    rows = np.arange(len(k))
    return candidates[rows, k] / norms[rows, k, None]


def one_sided_closed_form(local: np.ndarray, corr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form one-sided measures of a stack of states, with their directions.

    local (N, 3) is the measured side's Bloch vector and corr (N, 3, 3) the
    correlation matrix with the measured side's index first: x and T for
    d_ab, y and T^t for d_ba.  Returns the values (N,) and the unit
    measurement directions (N, 3).  A degenerate top eigenvalue spans
    several directions; the lexicographically largest is taken.
    """
    mmat = local[:, :, None] * local[:, None, :] + corr @ corr.swapaxes(1, 2)
    w, v = np.linalg.eigh(mmat)
    lam = w[:, -1]
    top = w >= lam[:, None] - 1e-12  # the columns spanning the top eigenspace
    value = 0.25 * (row_dots(local) + np.sum(corr * corr, axis=(1, 2)) - lam)
    directions = _lexmax_unit(v * top[:, None, :])
    bad = np.flatnonzero(np.abs(row_dots(directions) - 1.0) > 1e-12)
    if bad.size:
        MeasurementDirection(directions[bad[0]])  # raises NormalizationError
    return np.maximum(value, 0.0), directions


def _require_two_qubits(rho: DensityMatrix, what: str):
    if rho.dims != (2, 2):
        raise UnsupportedDimensionError(f"{what} closed form needs dims (2, 2), got {rho.dims}")


def discord_ab_analytic(rho: DensityMatrix) -> tuple[float, MeasurementDirection]:
    """Closed-form measure with the minimizing measurement on side A."""
    _require_two_qubits(rho, "d_ab")
    rep = bloch_decompose(rho)
    values, directions = one_sided_closed_form(rep.x[None], rep.T[None])
    return float(values[0]), MeasurementDirection(directions[0])


def discord_ba_analytic(rho: DensityMatrix) -> tuple[float, MeasurementDirection]:
    """Closed-form measure with the minimizing measurement on side B."""
    _require_two_qubits(rho, "d_ba")
    rep = bloch_decompose(rho)
    values, directions = one_sided_closed_form(rep.y[None], rep.T.T[None])
    return float(values[0]), MeasurementDirection(directions[0])
