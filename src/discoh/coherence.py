"""Coherence contributions of a bipartite state, split by index class.

For a product basis rotation rho -> (U_A x U_B) rho (U_A x U_B)^dag, the
squared moduli of the rotated entries <k k'| . |l l'> are summed over four
index families:

  class1       A-side off-diagonal pairs (k != l, any k', l')
  class2       B-side off-diagonal pairs (k' != l', any k, l)
  class3       anti-diagonal pairs (k + l = m - 1 and k' + l' = n - 1)
  tilde_total  every off-diagonal entry (k, k') != (l, l') counted once

`total` is class1 + class2, which counts entries off-diagonal in both
indices twice.  Extremizing any family over all product bases is done by a
seeded multi-start simplex search over unitary generator coefficients; all
restarts advance in lockstep so the objective vectorizes over the batch.

Every family is a sum of squared moduli, and a diagonal phase matrix D only
rephases the rotated entries: U_A -> D_A U_A and U_B -> D_B U_B leave all
sums unchanged.  So the search runs on the quotient by diagonal phases: each
varied side is U = exp(i H) with an off-diagonal Hermitian H, d^2 - d real
coefficients instead of d^2.  The curves t -> exp(i t X) with off-diagonal
X project to the geodesics through the identity class of the compact
quotient, so by Hopf-Rinow they reach every class: the search still covers
every product basis up to phases.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DiscohError, ShapeError, UnitarityError
from .simplex import minimize_batch
from .states import DensityMatrix, _check_finite

UNITARITY_TOL = 1e-9
_EPS = np.finfo(float).eps

OBJECTIVES = ("class1", "class2", "class3", "tilde_total", "total")

# Which local unitary actually moves each objective.  The sum over a complete
# local index is basis independent, so one-sided families only vary one side.
_VARIED_SIDES = {
    "class1": (True, False),
    "class2": (False, True),
    "class3": (True, True),
    "tilde_total": (True, True),
    "total": (True, True),
}


@dataclass(frozen=True)
class LocalBasisPair:
    """Product basis given as a unitary per side (columns are basis vectors)."""

    u_a: np.ndarray
    u_b: np.ndarray

    def __post_init__(self):
        for name, u in (("u_a", self.u_a), ("u_b", self.u_b)):
            u = np.asarray(u, dtype=complex)
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ShapeError(f"{name} must be square, got {u.shape}")
            _check_finite(u, name)
            defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
            if defect > UNITARITY_TOL:
                raise UnitarityError(f"{name} deviates from unitarity by {defect:.3e}")
            object.__setattr__(self, name, u)


def identity_basis(m: int, n: int) -> LocalBasisPair:
    return LocalBasisPair(np.eye(m, dtype=complex), np.eye(n, dtype=complex))


@dataclass(frozen=True)
class ClassContributions:
    """Squared-modulus sums per index family for one state and basis."""

    class1: float
    class2: float
    class3: float
    tilde_total: float
    total: float

    def __post_init__(self):
        for name in ("class1", "class2", "class3", "tilde_total", "total"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ConsistencyError(f"{name} = {v!r} is not a nonnegative real")
        if abs(self.total - (self.class1 + self.class2)) > 1e-12:
            raise ConsistencyError("total must equal class1 + class2")
        if self.tilde_total > self.total + 1e-12:
            raise ConsistencyError("tilde_total exceeds class1 + class2")


@lru_cache(maxsize=None)
def _index_masks(m: int, n: int) -> dict:
    """Flat float masks selecting each index family of an (mn)^2 entry grid."""
    comp = np.arange(m * n)
    ka, kb = np.divmod(comp, n)
    a_row, a_col = ka[:, None], ka[None, :]
    b_row, b_col = kb[:, None], kb[None, :]
    class1 = a_row != a_col
    class2 = b_row != b_col
    class3 = ((a_row + a_col) == m - 1) & ((b_row + b_col) == n - 1)
    off = class1 | class2
    return {
        "class1": class1.astype(float).ravel(),
        "class2": class2.astype(float).ravel(),
        "class3": class3.astype(float).ravel(),
        "tilde_total": off.astype(float).ravel(),
        "total": (class1.astype(float) + class2.astype(float)).ravel(),
    }


def contributions(rho: DensityMatrix, basis: LocalBasisPair | None = None) -> ClassContributions:
    """All class sums of rho in the given product basis (default computational)."""
    m, n = rho.dims
    if basis is None:
        basis = identity_basis(m, n)
    if basis.u_a.shape != (m, m) or basis.u_b.shape != (n, n):
        raise ShapeError(
            f"basis shapes {basis.u_a.shape} / {basis.u_b.shape} do not match dims {rho.dims}"
        )
    w = np.kron(basis.u_a, basis.u_b)
    rot = w @ rho.mat @ w.conj().T
    p2 = (rot.real**2 + rot.imag**2).ravel()
    masks = _index_masks(m, n)
    c1 = float(p2 @ masks["class1"])
    c2 = float(p2 @ masks["class2"])
    return ClassContributions(
        class1=c1,
        class2=c2,
        class3=float(p2 @ masks["class3"]),
        tilde_total=float(p2 @ masks["tilde_total"]),
        total=c1 + c2,
    )


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start simplex search settings.

    Each restart draws its starting point from a generator seeded with
    seed + restart index, so runs are reproducible bit for bit and restarts
    can be evaluated in any order (the reduction takes the minimum, ties
    resolved toward the lowest restart index).
    """

    restarts: int = 32
    max_iterations: int = 2000
    objective_tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise DiscohError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise DiscohError("max_iterations must be at least 1")
        if not self.objective_tolerance > 0.0:
            raise DiscohError("objective_tolerance must be positive")


@dataclass(frozen=True)
class BasisOptimum:
    """Result of one basis search: extremal value and where it was found."""

    value: float
    basis: LocalBasisPair
    converged: bool
    iterations: int
    evaluations: int
    restart_index: int
    objective: str
    restarts_at_best: int  # restarts that ended within objective_tolerance of the best


@lru_cache(maxsize=None)
def _pair_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(d, k=1)
    return rows, cols


def unitaries_from_params(theta: np.ndarray, d: int) -> np.ndarray:
    """Map rows of d^2 - d real coefficients to unitaries U = exp(i H).

    H is Hermitian with a zero diagonal; the coefficients are the real and
    imaginary parts of its upper triangle in row-major order.  A diagonal of
    H would only multiply U by phases, which no class sum sees, so it is left
    out.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    bsz = theta.shape[0]
    if theta.shape[1] != d * d - d:
        raise ShapeError(f"need {d * d - d} coefficients per row, got {theta.shape[1]}")
    if d == 2:
        # closed form: H = b1 sigma_x + b2 sigma_y, exp(i H) = cos r + i sin(r)/r H
        b1 = theta[:, 0]
        b2 = theta[:, 1]
        r = np.sqrt(b1 * b1 + b2 * b2)
        y = np.where(r, r, _EPS)  # sin(r) / r, exact at r = 0
        f = np.sin(y) / y
        c = np.cos(r)
        jfb1 = 1j * f * b1
        fb2 = f * b2
        u = np.empty((bsz, 2, 2), dtype=complex)
        u[:, 0, 0] = c
        u[:, 0, 1] = fb2 + jfb1
        u[:, 1, 0] = -fb2 + jfb1
        u[:, 1, 1] = c
        return u
    h = np.zeros((bsz, d, d), dtype=complex)
    rows, cols = _pair_indices(d)
    re = theta[:, 0::2]
    im = theta[:, 1::2]
    h[:, rows, cols] = re - 1j * im
    h[:, cols, rows] = re + 1j * im
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[:, None, :]) @ v.conj().swapaxes(-2, -1)


def _basis_objective(rho: DensityMatrix, objective: str, maximize: bool):
    """Batch objective over coefficient rows, the row length, and rows -> (u_a, u_b)."""
    m, n = rho.dims
    flat = _index_masks(m, n)[objective]
    weights = -flat if maximize else flat  # a maximum is the minimum of the negated sum
    vary_a, vary_b = _VARIED_SIDES[objective]
    na = m * m - m if vary_a else 0
    nb = n * n - n if vary_b else 0
    mat = rho.mat
    eye_a = np.eye(m, dtype=complex)
    eye_b = np.eye(n, dtype=complex)

    def side_unitaries(theta):
        bsz = theta.shape[0]
        if vary_a and vary_b and m == n:
            # both sides in one call: rows alternate a, b
            u = unitaries_from_params(theta.reshape(2 * bsz, na), m)
            return u[0::2], u[1::2]
        ua = (
            unitaries_from_params(theta[:, :na], m)
            if vary_a
            else np.broadcast_to(eye_a, (bsz, m, m))
        )
        ub = (
            unitaries_from_params(theta[:, na:], n)
            if vary_b
            else np.broadcast_to(eye_b, (bsz, n, n))
        )
        return ua, ub

    def fn(theta):  # theta is (rows, na + nb), as minimize_batch passes it
        bsz = theta.shape[0]
        ua, ub = side_unitaries(theta)
        w = (ua[:, :, None, :, None] * ub[:, None, :, None, :]).reshape(bsz, m * n, m * n)
        rot = (w @ mat) @ w.conj().swapaxes(-2, -1)
        p2 = (rot.real**2 + rot.imag**2).reshape(bsz, -1)
        return p2 @ weights

    return fn, na + nb, side_unitaries


def _search(rho: DensityMatrix, objective: str, config, maximize: bool) -> BasisOptimum:
    if objective not in OBJECTIVES:
        raise DiscohError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    cfg = config if config is not None else OptimizerConfig()
    fn, nparams, side_unitaries = _basis_objective(rho, objective, maximize)
    starts = np.stack(
        [
            np.random.default_rng(cfg.seed + i).uniform(-np.pi, np.pi, nparams)
            for i in range(cfg.restarts)
        ]
    )
    res = minimize_batch(
        fn,
        starts,
        step=0.5,
        tol=cfg.objective_tolerance,
        max_iter=cfg.max_iterations,
    )
    best = int(np.argmin(res.value))
    value = float(res.value[best])
    ua, ub = side_unitaries(res.x[best : best + 1])
    return BasisOptimum(
        value=-value if maximize else value,
        basis=LocalBasisPair(ua[0].copy(), ub[0].copy()),
        converged=bool(res.converged[best]),
        iterations=res.iterations,
        evaluations=res.evaluations,
        restart_index=best,
        objective=objective,
        restarts_at_best=int(np.sum(res.value <= value + cfg.objective_tolerance)),
    )


def minimize_over_bases(
    rho: DensityMatrix, objective: str, config: OptimizerConfig | None = None
) -> BasisOptimum:
    """Smallest value of the chosen class sum over all product bases."""
    return _search(rho, objective, config, maximize=False)


def maximize_over_bases(
    rho: DensityMatrix, objective: str = "class3", config: OptimizerConfig | None = None
) -> BasisOptimum:
    """Largest value of the chosen class sum over all product bases."""
    return _search(rho, objective, config, maximize=True)
