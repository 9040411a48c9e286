"""Coherence contributions of a bipartite state, split by index class.

For a product basis rotation rho -> (U_A x U_B) rho (U_A x U_B)^dag, the
squared moduli of the rotated entries <k k'| . |l l'> are summed over four
index families:

  class1       A-side off-diagonal pairs (k != l, any k', l')
  class2       B-side off-diagonal pairs (k' != l', any k, l)
  class3       anti-diagonal pairs (k + l = m - 1 and k' + l' = n - 1)
  tilde_total  every off-diagonal entry (k, k') != (l, l') counted once

`total` is class1 + class2, which counts entries off-diagonal in both
indices twice.  One row-wise kernel rotates a state; contributions and the
basis search both sum its squared moduli.

Extremizing a family over all product bases is a seeded multi-start search.
search_bases takes a list of jobs, each a (state, objective, sense), and
runs every restart of every job on the same dims and objective as rows of
one batch.  Every step computes each row on its own, so batching changes
no row's path: a job's result is bit for bit the one it gives when
searched alone.  One lockstep loop runs every batch; an iteration is one
sweep on each searched side:

  one-sided (class1, class2)        a sweep on side A
  two-sided (tilde_total, total, class3)
                                    a sweep on side A, then one on side B

class2 of a state is class1 of the state with its parties exchanged, so a
class2 job is searched as a class1 job on the swapped state (the same
seeded starts) and its basis is swapped back.  A one-sided search
therefore only ever rotates side A and holds U_B at the identity; the sum
over the other, complete local index is basis independent.

Starts.  Every family is a sum of squared moduli, and a diagonal phase
matrix D only rephases the rotated entries: U_A -> D_A U_A and U_B -> D_B U_B
leave all sums unchanged.  So a restart starts on the quotient by diagonal
phases: each varied side from U = exp(i H) with an off-diagonal Hermitian
H, whose d^2 - d real coefficients (not d^2) the restart's seed draws.  The
curves t -> exp(i t X) with off-diagonal X project to the geodesics through
the identity class of the compact quotient, so by Hopf-Rinow they reach
every class: a start can fall on any product basis up to phases.

One-sided.  Write rho = sum A_jj' x |j><j'|.  Then class1 after U_A is
|rho|^2 - sum_r sum_k (U_A H_r U_A^dag)_kk^2, where the n^2 Hermitian m x m
matrices H_r are the blocks A_jj and, for j < j', the Hermitian and
anti-Hermitian parts of sqrt(2) A_jj'.  So min class1 is joint approximate
diagonalization, and for each pair of levels (p, q) the best Givens
rotation has a closed form (Cardoso & Souloumiac, SIAM J. Matrix Anal.
Appl. 17, 161 (1996)): the top eigenvector of a real 3 x 3 matrix for the
minimum, the bottom one for the maximum.  Each step is the exact optimum
over its pair, so no step moves the objective the wrong way.  A sweep
takes one Givens step on each of the m(m - 1)/2 pairs, and an evaluation
is one Givens step.

Two-sided.  With U_B held, the blocks A_jj' are those of
(1 x U_B) rho (1 x U_B)^dag, and each two-sided family below is a constant
less the diagonal mass of a stack of Hermitian matrices under U_A, so a
side's sweep is the one-sided search's (_jacobi_sweep):

  tilde_total     the n diagonal blocks A_jj
  total           the class1 stack above (class2 does not see U_A)
  class3 (2 x 2)  P and Q of A_01 = P + i Q: class3 is 2|A_01|^2 less
                  twice their diagonal mass

class3 on other dims is no diagonal-mass problem: with U_B held it is
sum_j sum_k |(U_A A_j,n-1-j U_A^dag)_k,m-1-k|^2.  A side's sweep then takes
two line steps on each pair (p, q), along the real and the imaginary
Givens curve (_line_sweep).  Along either curve the sum is a trigonometric
polynomial of degree 4 in the angle, which five samples fix, and the step
goes to its minimum.  The same holds for U_B on the party-swapped state.
So no step moves the objective the wrong way; an evaluation is one Givens
step, or one line step (two per pair) for class3 off two qubits.

Each sweep starts from a stack rebuilt from the state rotated by the
current unitaries.  The loop stops a row once _settled finds its objective
settled: this iteration's move, and the tail that the ratio of its last
two moves predicts, are both at most the tolerance.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DiscohError, ShapeError, UnitarityError
# No search runs the simplex; the name stays only because bench/tracing.py wraps it.
from .simplex import minimize_batch  # noqa: F401
from .states import DensityMatrix, _check_finite, _swap_parties, swap_subsystems

UNITARITY_TOL = 1e-9
_EPS = np.finfo(float).eps

OBJECTIVES = ("class1", "class2", "class3", "tilde_total", "total")

MIN = "min"
MAX = "max"

# Rows of one search call at most; a larger group runs in consecutive chunks
# of whole jobs, which changes no result, as rows do not see each other.
MAX_ROWS = 4096


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


def _rotate(u_a: np.ndarray, u_b: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """(u_a x u_b) rho (u_a x u_b)^dag, one row per rho.

    u_a (rows, m, m), u_b (rows, n, n) and mats (rows, mn, mn), where an
    operand with one row broadcasts.  Each row is computed on its own, so
    its result never depends on the rows beside it.
    """
    m, n = u_a.shape[-1], u_b.shape[-1]
    w = (u_a[:, :, None, :, None] * u_b[:, None, :, None, :]).reshape(-1, m * n, m * n)
    return (w @ mats) @ w.conj().swapaxes(-2, -1)


def _class_sums(rot: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's squared moduli of rot (rows, mn, mn), summed with its weights row by row."""
    return ((rot.real**2 + rot.imag**2).reshape(len(rot), -1) * weights).sum(axis=1)


def contributions(rho: DensityMatrix, basis: LocalBasisPair | None = None) -> ClassContributions:
    """All class sums of rho in the given product basis (default computational)."""
    m, n = rho.dims
    if basis is None:
        basis = identity_basis(m, n)
    if basis.u_a.shape != (m, m) or basis.u_b.shape != (n, n):
        raise ShapeError(
            f"basis shapes {basis.u_a.shape} / {basis.u_b.shape} do not match dims {rho.dims}"
        )
    rot = _rotate(basis.u_a[None], basis.u_b[None], rho.mat[None])
    masks = _index_masks(m, n)
    names = ("class1", "class2", "class3", "tilde_total")
    c1, c2, c3, tilde = map(float, _class_sums(rot, np.stack([masks[name] for name in names])))
    return ClassContributions(class1=c1, class2=c2, class3=c3, tilde_total=tilde, total=c1 + c2)


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start basis search settings.

    Each restart draws its starting point from a generator seeded with
    seed + restart index, so runs are reproducible bit for bit and restarts
    can be evaluated in any order (the reduction takes the minimum, ties
    resolved toward the lowest restart index).

    max_iterations caps each restart's iterations.  An iteration is one
    sweep on each searched side: side A for class1 and class2 (class2 as
    class1 of the swapped state), side A and then side B for tilde_total,
    total and class3.  A restart stops once its objective has settled: its
    last iteration moved it by at most objective_tolerance, and so does the
    rest of the way as the ratio r of its last two moves predicts it
    (move * r / (1 - r), r capped at RATIO_CAP).  Such a restart counts as
    converged.  BasisOptimum.evaluations counts steps:
    Givens steps, one per pair of levels in a sweep, or for class3 off two
    qubits line steps, two per pair.
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
        if self.seed < 0:  # numpy's generators take no negative seed
            raise DiscohError(f"seed must be at least 0, got {self.seed}")
        if not (math.isfinite(self.objective_tolerance) and self.objective_tolerance > 0.0):
            # an infinite tolerance counts every restart converged before it moves
            raise DiscohError(
                f"objective_tolerance must be finite and positive, got {self.objective_tolerance}"
            )


@dataclass(frozen=True)
class BasisOptimum:
    """Result of one basis search: extremal value and where it was found."""

    value: float
    basis: LocalBasisPair
    converged: bool
    iterations: int
    evaluations: int
    restart_index: int  # the best restart: one of the restarts_at_best, often tied to roundoff
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


@lru_cache(maxsize=64)
def _starts(count: int, cfg: OptimizerConfig) -> np.ndarray:
    """Restart i's start: count coefficients drawn from a generator seeded seed + i.

    Read-only, as every search on the same coefficient count and config shares it.
    """
    starts = np.stack(
        [
            np.random.default_rng(cfg.seed + i).uniform(-np.pi, np.pi, count)
            for i in range(cfg.restarts)
        ]
    )
    starts.flags.writeable = False
    return starts


def _optima(jobs, values, ua, ub, converged, row_iterations, row_evaluations, tol):
    """One BasisOptimum per job from the rows of its restarts.

    values (jobs, restarts) is the minimized objective (a maximum's sum
    negated) and the rest per-row arrays; job j's restarts are rows
    j * restarts onward.
    """
    restarts = values.shape[1]
    best = np.argmin(values, axis=1)
    first = np.arange(len(jobs)) * restarts
    optima = []
    for j, (_, objective, sense) in enumerate(jobs):
        rows = slice(first[j], first[j] + restarts)
        row = first[j] + best[j]
        value = float(values[j, best[j]])
        optima.append(
            BasisOptimum(
                value=-value if sense == MAX else value,
                basis=LocalBasisPair(ua[row].copy(), ub[row].copy()),
                converged=bool(converged[row]),
                iterations=int(row_iterations[rows].max()),
                evaluations=int(row_evaluations[rows].sum()),
                restart_index=int(best[j]),
                objective=objective,
                restarts_at_best=int(np.sum(values[j] <= value + tol)),
            )
        )
    return optima


def _weights(jobs, m: int, n: int) -> np.ndarray:
    """Each job's class mask, negated for a maximum (the minimum of the negated sum)."""
    masks = _index_masks(m, n)
    return np.stack([-masks[obj] if sense == MAX else masks[obj] for _, obj, sense in jobs])


def _blocks(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """blocks[:, j, j'] = A_jj', the m x m blocks of each rho = sum A_jj' x |j><j'|."""
    return mats.reshape(-1, m, n, m, n).transpose(0, 2, 4, 1, 3)


def _hermitian_stack(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """The n^2 Hermitian m x m matrices H_r of each rho with
    class1(U) = |rho|^2 - sum_r sum_k (U H_r U^dag)_kk^2.

    They are the blocks A_jj and, for each j < j', the Hermitian and
    anti-Hermitian parts of sqrt(2) A_jj': the pair (j, j') and (j', j) of
    off-diagonal blocks counts twice.
    """
    blocks = _blocks(mats, m, n)
    j, jp = _pair_indices(n)
    off = blocks[:, j, jp] * math.sqrt(0.5)
    off_dag = off.conj().swapaxes(-2, -1)
    diag = np.arange(n)
    return np.concatenate((blocks[:, diag, diag], off + off_dag, -1j * (off - off_dag)), axis=1)


def _diagonal_blocks(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """The n blocks A_jj of each rho, with
    tilde_total(U x 1) = |rho|^2 - sum_j sum_k (U A_jj U^dag)_kk^2."""
    diag = np.arange(n)
    return _blocks(mats, m, n)[:, diag, diag]


def _anti_diagonal_parts(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """P and Q of A_01 = P + i Q of each two-qubit rho, with
    class3(U x 1) = 2 |A_01|^2 - 2 sum_{H = P, Q} sum_k (U H U^dag)_kk^2."""
    a = _blocks(mats, m, n)[:, 0, 1]
    a_dag = a.conj().swapaxes(-2, -1)
    return np.stack((0.5 * (a + a_dag), -0.5j * (a - a_dag)), axis=1)


def _anti_diagonal_blocks(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """The n blocks A_j,n-1-j of each rho, with
    class3(U x 1) = sum_j sum_k |(U A_j,n-1-j U^dag)_k,m-1-k|^2."""
    j = np.arange(n)
    return _blocks(mats, m, n)[:, j, j[::-1]]


# Per objective: the stack whose diagonal mass under U_A, with U_B held, the
# objective is a constant less, and whether side B is searched too, on the
# party-swapped state's stack.  class2 runs as class1 of the swapped state.
_SEARCHES = {
    "class1": (_hermitian_stack, False),
    "total": (_hermitian_stack, True),  # class2 does not see side A
    "tilde_total": (_diagonal_blocks, True),
    "class3": (_anti_diagonal_parts, True),  # two qubits; line sweeps elsewhere
}


def _jacobi_sweep(x: np.ndarray, u: np.ndarray, top: np.ndarray) -> None:
    """One cyclic sweep of exact Givens steps over every pair of levels, in place.

    x (rows, R, m, m) holds U H_r U^dag of each row and u (rows, m, m) its
    U.  A step on (p, q) changes only a_pp - a_qq of the diagonals, to
    h_r . v for a unit vector v, so it takes the top eigenvector v of
    G = sum_r h_r h_r^T where top is set (raising the diagonal mass: a
    minimum of the objective) and the bottom one elsewhere.
    """
    rows = np.arange(len(x))
    pick = np.where(top, 2, 0)  # eigh sorts ascending
    for p, q in zip(*_pair_indices(x.shape[-1])):
        app, aqq = x[:, :, p, p].real, x[:, :, q, q].real
        apq, aqp = x[:, :, p, q], x[:, :, q, p]
        h = np.stack((app - aqq, apq.real + aqp.real, apq.imag - aqp.imag), axis=1)
        g = (h[:, :, None, :] * h[:, None, :, :]).sum(axis=-1)  # row-wise, no shared GEMM
        v = np.linalg.eigh(g)[1][rows, :, pick]
        v *= np.where(v[:, :1] < 0.0, -1.0, 1.0)  # x >= 0 keeps c away from zero
        c = np.sqrt(0.5 * (1.0 + v[:, 0]))
        s = (v[:, 1] - 1j * v[:, 2]) / (2.0 * c)
        # x -> R^dag x R and u -> R^dag u with R = [[c, -conj(s)], [s, c]] on (p, q)
        c3, s3 = c[:, None, None], s[:, None, None]
        xp, xq = x[:, :, p, :], x[:, :, q, :]
        x[:, :, p, :], x[:, :, q, :] = c3 * xp + s3.conj() * xq, c3 * xq - s3 * xp
        xp, xq = x[:, :, :, p], x[:, :, :, q]
        x[:, :, :, p], x[:, :, :, q] = c3 * xp + s3 * xq, c3 * xq - s3.conj() * xp
        up, uq = u[:, p, :], u[:, q, :]
        c2, s2 = c[:, None], s[:, None]
        u[:, p, :], u[:, q, :] = c2 * up + s2.conj() * uq, c2 * uq - s2 * up


# The two Givens curves of a line step on levels (p, q), as (G_pq, G_qp) per
# unit sin t: the real [[cos t, -sin t], [sin t, cos t]] and the imaginary
# [[cos t, i sin t], [i sin t, cos t]].
_CURVES = ((-1.0, 1.0), (1j, 1j))

# Along a curve the signed class3 sum is a0 + Re(C1 z + C2 z^2) with
# z = exp(2 i t).  A line step samples it at t = j pi / 5, and the five
# values give the fit less a0 on a grid of 2t that holds 0, and C1 and C2.
_SAMPLE_T = np.pi * np.arange(5) / 5
_GRID_PHI = 2.0 * np.pi * np.arange(32) / 32  # 2t
_NEWTON_STEPS = 2


def _fit_weights() -> np.ndarray:
    """(5, 36, 1) weights taking the samples to the fit less a0 on the grid,
    then the real and imaginary parts of C1 and C2."""
    coef = 0.4 * np.exp(-2j * np.outer((1, 2), _SAMPLE_T))
    z = np.exp(1j * _GRID_PHI)
    grid = (coef[0][:, None] * z + coef[1][:, None] * z * z).real
    parts = np.stack((coef[0].real, coef[0].imag, coef[1].real, coef[1].imag), axis=1)
    return np.concatenate((grid, parts), axis=1)[:, :, None]


_FIT = _fit_weights()


def _weighted_sum(values, weights) -> np.ndarray:
    """sum_i values[i] * weights[i], added in index order over whole arrays."""
    total = values[0] * weights[0]
    for value, weight in zip(values[1:], weights[1:]):
        total += value * weight
    return total


@lru_cache(maxsize=None)
def _line_terms(m: int, p: int, q: int, curve: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How the anti-diagonal entries of G x G^dag that a step on (p, q) moves
    draw on x, at the five sample angles of a curve.

    The moved entries are (k, m - 1 - k) for the E levels k in {p, q,
    m - 1 - p, m - 1 - q}.  Entry e at sample j is sum_t weights[t, j, e]
    x[a[t, e], b[t, e]], over at most four terms t (the rest weigh 0);
    weights has shape (4, 5, E, 1, 1).
    """
    g_pq, g_qp = _CURVES[curve]
    c, s = np.cos(_SAMPLE_T), np.sin(_SAMPLE_T)
    g = np.tile(np.eye(m, dtype=complex), (5, 1, 1))
    g[:, p, p] = g[:, q, q] = c
    g[:, p, q], g[:, q, p] = g_pq * s, g_qp * s
    levels = sorted({p, q, m - 1 - p, m - 1 - q})
    a, b = np.zeros((2, 4, len(levels)), dtype=np.intp)
    weights = np.zeros((4, 5, len(levels), 1, 1), dtype=complex)
    for e, k in enumerate(levels):
        sources = [(p, q) if i in (p, q) else (i,) for i in (k, m - 1 - k)]
        for t, (i, j) in enumerate((i, j) for i in sources[0] for j in sources[1]):
            a[t, e], b[t, e] = i, j
            weights[t, :, e, 0, 0] = g[:, k, i] * g[:, m - 1 - k, j].conj()
    return a, b, weights


def _line_sweep(x: np.ndarray, u: np.ndarray, top: np.ndarray) -> None:
    """One sweep of line steps over every pair of levels, applied to u in place.

    x (rows, R, m, m) holds U B_r U^dag of each row's anti-diagonal blocks
    B_r (_anti_diagonal_blocks) and u (rows, m, m) its U.  x is read, not
    written: the caller rebuilds the stack from the new u.  A row minimizes
    its signed class3 sum, sign * sum_r sum_k |(x_r)_k,m-1-k|^2 with sign
    +1 where top is set (a minimum) and -1 elsewhere.  On each pair (p, q)
    it steps along the real Givens curve and then the imaginary one.  Every
    rotated entry is bilinear in (cos t, sin t), and t -> t + pi only
    rephases rows p and q, so along a curve the sum is exactly a0 +
    a1 cos 2t + b1 sin 2t + a2 cos 4t + b2 sin 4t: its values at
    t = j pi / 5 fix it.  Entries that no step on (p, q) moves only add to
    a0, so they are left out.  The step goes to the fit's best grid angle,
    polished by Newton steps where that is no higher.  The grid holds
    t = 0, so no step raises the fitted sum.

    The sweep works on a copy with the rows last, so elementwise operations
    run along rows, and every sum adds in a fixed order, over whole arrays
    or along a last axis of fixed length: no result of a row depends on the
    rows beside it.
    """
    rows = np.arange(len(x))
    sign = np.where(top, 1.0, -1.0)
    xt, ut = x.transpose(2, 3, 1, 0).copy(), u.transpose(1, 2, 0).copy()
    for p, q in zip(*_pair_indices(x.shape[-1])):
        for curve, (g_pq, g_qp) in enumerate(_CURVES):
            a, b, weights = _line_terms(x.shape[-1], p, q, curve)
            e = _weighted_sum(xt[a, b][:, None], weights)  # (5, E, R, rows)
            moduli = (e.real * e.real + e.imag * e.imag).reshape(5, -1, len(x))
            samples = sign * np.ascontiguousarray(moduli.swapaxes(1, 2)).sum(axis=-1)
            fitted = _weighted_sum(samples, _FIT)
            fit, c1, c2 = fitted[:-4], fitted[-4] + 1j * fitted[-3], fitted[-2] + 1j * fitted[-1]
            best = np.argmin(fit, axis=0)
            phi, low = _GRID_PHI[best], fit[best, rows]
            polished = phi
            for _ in range(_NEWTON_STEPS):
                z = np.exp(1j * polished)
                w1, w2 = c1 * z, c2 * z * z
                slope = -(w1.imag + 2.0 * w2.imag)
                curvature = -(w1.real + 4.0 * w2.real)
                step = np.divide(slope, curvature, out=np.zeros_like(slope), where=curvature > 0.0)
                polished = polished - step
            z = np.exp(1j * polished)
            half = 0.5 * np.where((c1 * z + c2 * z * z).real <= low, polished, phi)
            c, s = np.cos(half), np.sin(half)
            # x -> G x G^dag and u -> G u with G = [[c, g_pq s], [g_qp s, c]] on (p, q)
            pq, qp = g_pq * s, g_qp * s
            xp, xq = xt[p], xt[q]
            xt[p], xt[q] = c * xp + pq * xq, qp * xp + c * xq
            xp, xq = xt[:, p], xt[:, q]
            xt[:, p], xt[:, q] = c * xp + np.conj(pq) * xq, np.conj(qp) * xp + c * xq
            up, uq = ut[p], ut[q]
            ut[p], ut[q] = c * up + pq * uq, qp * up + c * uq
    u[...] = ut.transpose(2, 0, 1)


# The slowest per-iteration contraction the stop rule's tail estimate assumes.
RATIO_CAP = 0.99


def _settled(move: np.ndarray, last: np.ndarray, tol: float) -> np.ndarray:
    """Rows whose objective has settled, from this iteration's move and the last one.

    If the moves shrink by r = move / last an iteration, the objective
    still has move * r / (1 - r) to go.  A row settles once this move and
    that tail are both at most tol.  r is capped at RATIO_CAP: moves at the
    level of rounding have a ratio that means nothing, and the cap still
    lets such a row stop (its tail counts as at most 99 moves).  Before a
    row's first move, last is infinite, so only the move counts.
    """
    r = np.minimum(move / last, RATIO_CAP)
    return move * np.maximum(1.0, r / (1.0 - r)) <= tol


def _search_group(jobs, dims, cfg: OptimizerConfig) -> list[BasisOptimum]:
    """Every restart of every job in the group, as rows of one lockstep search.

    The jobs share dims and objective.  An iteration is one sweep on side
    A, on the stack of the state rotated by both current unitaries, and for
    a two-sided objective then one on side B, on the stack of the
    party-swapped state rotated by the new ones: Jacobi sweeps, or line
    sweeps for class3 off two qubits.  Restart i starts from
    unitaries_from_params of its seeded coefficients, side A's first; an
    unsearched side B stays the identity.  A row stops once its class sum
    has settled (converged), or after max_iterations iterations; its value
    is the class sum of its final basis.
    """
    m, n = dims
    if jobs[0][1] == "class3" and dims != (2, 2):
        stack, two_sided, sweep, steps = _anti_diagonal_blocks, True, _line_sweep, 2
    else:
        (stack, two_sided), sweep, steps = _SEARCHES[jobs[0][1]], _jacobi_sweep, 1
    job = np.repeat(np.arange(len(jobs)), cfg.restarts)
    top = np.repeat([sense == MIN for _, _, sense in jobs], cfg.restarts)  # a minimum
    na = m * m - m
    theta = _starts(na + (n * n - n if two_sided else 0), cfg)
    ua = unitaries_from_params(theta[:, :na], m)
    if two_sided:
        ub = unitaries_from_params(theta[:, na:], n)
    else:
        ub = np.broadcast_to(np.eye(n, dtype=complex), (cfg.restarts, n, n))
    ua, ub = np.tile(ua, (len(jobs), 1, 1)), np.tile(ub, (len(jobs), 1, 1))
    mats = np.stack([rho.mat for rho, _, _ in jobs])[job]
    weights = _weights(jobs, m, n)[job]
    rot = _rotate(ua, ub, mats)
    values = _class_sums(rot, weights)
    iterations = np.zeros(len(job), dtype=np.int64)
    converged = np.full(len(job), m < 2 and (n < 2 or not two_sided))  # nothing to rotate
    # The rows still running, compacted; a row is written back once it stops.
    live = np.flatnonzero(~converged)
    full = (ua, ub, mats, top, weights, rot, values, np.full(len(job), np.inf))
    a, b, rows, t, w, r, v, last = (x[live] for x in full)
    count = 0
    while live.size:
        # C order: numpy's elementwise kernels round by memory layout, and a
        # stack's layout would otherwise depend on how many rows it has
        sweep(np.ascontiguousarray(stack(r, m, n)), a, t)
        if two_sided:
            swapped = _swap_parties(_rotate(a, b, rows), m, n)
            sweep(np.ascontiguousarray(stack(swapped, n, m)), b, t)
        r = _rotate(a, b, rows)
        moved = _class_sums(r, w)
        move = np.abs(moved - v)
        settled = _settled(move, last, cfg.objective_tolerance)
        v, last = moved, move
        count += 1
        stop = settled | (count >= cfg.max_iterations)
        if stop.any():
            done = live[stop]
            ua[done], ub[done], values[done] = a[stop], b[stop], v[stop]
            converged[done], iterations[done] = settled[stop], count
            keep = ~stop
            live, a, b, rows, t, w, r, v, last = (
                x[keep] for x in (live, a, b, rows, t, w, r, v, last)
            )
    pairs = m * (m - 1) // 2 + (n * (n - 1) // 2 if two_sided else 0)
    return _optima(
        jobs,
        values.reshape(len(jobs), cfg.restarts),
        ua,
        ub,
        converged,
        iterations,
        iterations * steps * pairs,  # Givens or line steps
        cfg.objective_tolerance,
    )


def _groups(jobs) -> dict:
    """Jobs by (dims, objective) of the batch that runs them, as (index, job).

    A class2 job is listed as class1 of the party-swapped state.
    """
    groups = {}
    for index, (rho, objective, sense) in enumerate(jobs):
        if objective not in OBJECTIVES:
            raise DiscohError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        if sense not in (MIN, MAX):
            raise DiscohError(f"sense must be {MIN!r} or {MAX!r}, got {sense!r}")
        if objective == "class2":
            rho, objective = swap_subsystems(rho), "class1"
        groups.setdefault((rho.dims, objective), []).append((index, (rho, objective, sense)))
    return groups


def search_bases(jobs, config: OptimizerConfig | None = None) -> list[BasisOptimum]:
    """Optimum of each (state, objective, sense) job over product bases, in job order.

    Jobs on the same dims with the same objective run as rows of one batch,
    config.restarts rows per job and at most MAX_ROWS rows a call.  A class2
    job runs as class1 of the swapped state, so it shares a batch with the
    class1 jobs on the swapped dims.  Each job's BasisOptimum equals, bit for
    bit, the one it gives when searched alone.
    """
    cfg = config if config is not None else OptimizerConfig()
    per_call = max(1, MAX_ROWS // cfg.restarts)
    optima = [None] * len(jobs)
    for (dims, _), members in _groups(jobs).items():
        for start in range(0, len(members), per_call):
            chunk = members[start : start + per_call]
            found = _search_group([job for _, job in chunk], dims, cfg)
            for (index, _), optimum in zip(chunk, found):
                if jobs[index][1] == "class2":  # swap the basis back to the job's parties
                    basis = LocalBasisPair(optimum.basis.u_b, optimum.basis.u_a)
                    optimum = replace(optimum, basis=basis, objective="class2")
                optima[index] = optimum
    return optima


def minimize_over_bases(
    rho: DensityMatrix, objective: str, config: OptimizerConfig | None = None
) -> BasisOptimum:
    """Smallest value of the chosen class sum over all product bases."""
    return search_bases([(rho, objective, MIN)], config)[0]


def maximize_over_bases(
    rho: DensityMatrix, objective: str = "class3", config: OptimizerConfig | None = None
) -> BasisOptimum:
    """Largest value of the chosen class sum over all product bases."""
    return search_bases([(rho, objective, MAX)], config)[0]
