"""Coherence contributions of a bipartite state, split by index class.

For a product basis rotation rho -> (U_A x U_B) rho (U_A x U_B)^dag, the
squared moduli of the rotated entries <k k'| . |l l'> are summed over four
index families:

  class1       A-side off-diagonal pairs (k != l, any k', l')
  class2       B-side off-diagonal pairs (k' != l', any k, l)
  class3       anti-diagonal pairs (k + l = m - 1 and k' + l' = n - 1)
  tilde_total  every off-diagonal entry (k, k') != (l, l') counted once

`total` is class1 + class2, which counts entries off-diagonal in both
indices twice.  One row-wise kernel rotates a state and squares the moduli;
contributions and the basis search both go through it.

Extremizing a family over all product bases is a seeded multi-start search.
search_bases takes a list of jobs, each a (state, objective, sense), and
runs every restart of every job on the same dims and the same sides as
rows of one batch.  Every step computes each row on its own, so batching
changes no row's path: a job's result is bit for bit the one it gives when
searched alone.  Two engines run the batches:

  one-sided (class1, class2)   a cyclic Jacobi sweep of exact Givens steps
  two-sided (class3, tilde_total, total)   a lockstep Nelder-Mead simplex

class2 of a state is class1 of the state with its parties exchanged, so a
class2 job is searched as a class1 job on the swapped state (the same
seeded starts) and its basis is swapped back.  A one-sided search
therefore only ever rotates side A; the sum over the other, complete local
index is basis independent.

One-sided.  Write rho = sum A_jj' x |j><j'|.  Then class1 after U_A is
|rho|^2 - sum_r sum_k (U_A H_r U_A^dag)_kk^2, where the n^2 Hermitian m x m
matrices H_r are the blocks A_jj and, for j < j', the Hermitian and
anti-Hermitian parts of sqrt(2) A_jj'.  So min class1 is joint approximate
diagonalization, and for each pair of levels (p, q) the best Givens
rotation has a closed form (Cardoso & Souloumiac, SIAM J. Matrix Anal.
Appl. 17, 161 (1996)): the top eigenvector of a real 3 x 3 matrix for the
minimum, the bottom one for the maximum.  Each step is the exact optimum
over its pair, so no step moves the objective the wrong way.  A restart
starts from exp(i H) with seeded off-diagonal H, as below; an iteration is
one sweep over all m(m - 1)/2 pairs and an evaluation one Givens step.

Two-sided.  Every family is a sum of squared moduli, and a diagonal phase
matrix D only rephases the rotated entries: U_A -> D_A U_A and U_B -> D_B U_B
leave all sums unchanged.  So the simplex runs on the quotient by diagonal
phases: each varied side is U = exp(i H) with an off-diagonal Hermitian H,
d^2 - d real coefficients instead of d^2.  The curves t -> exp(i t X) with
off-diagonal X project to the geodesics through the identity class of the
compact quotient, so by Hopf-Rinow they reach every class: the search still
covers every product basis up to phases.  An iteration is one lockstep
simplex iteration and an evaluation one objective value of one row.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DiscohError, ShapeError, UnitarityError
from .simplex import minimize_batch
from .states import DensityMatrix, _check_finite, swap_subsystems

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


def _rotated_moduli(u_a: np.ndarray, u_b: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Squared moduli of (u_a x u_b) rho (u_a x u_b)^dag, one flat row per rho.

    u_a (rows, m, m), u_b (rows, n, n) and mats (rows, mn, mn), where an
    operand with one row broadcasts.  Each row is computed on its own, so
    its result never depends on the rows beside it.
    """
    m, n = u_a.shape[-1], u_b.shape[-1]
    w = (u_a[:, :, None, :, None] * u_b[:, None, :, None, :]).reshape(-1, m * n, m * n)
    rot = (w @ mats) @ w.conj().swapaxes(-2, -1)
    return (rot.real**2 + rot.imag**2).reshape(len(rot), -1)


def contributions(rho: DensityMatrix, basis: LocalBasisPair | None = None) -> ClassContributions:
    """All class sums of rho in the given product basis (default computational)."""
    m, n = rho.dims
    if basis is None:
        basis = identity_basis(m, n)
    if basis.u_a.shape != (m, m) or basis.u_b.shape != (n, n):
        raise ShapeError(
            f"basis shapes {basis.u_a.shape} / {basis.u_b.shape} do not match dims {rho.dims}"
        )
    p2 = _rotated_moduli(basis.u_a[None], basis.u_b[None], rho.mat[None])
    masks = _index_masks(m, n)
    c1, c2, c3, tilde = (
        float((p2 * masks[name]).sum()) for name in ("class1", "class2", "class3", "tilde_total")
    )
    return ClassContributions(class1=c1, class2=c2, class3=c3, tilde_total=tilde, total=c1 + c2)


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start basis search settings.

    Each restart draws its starting point from a generator seeded with
    seed + restart index, so runs are reproducible bit for bit and restarts
    can be evaluated in any order (the reduction takes the minimum, ties
    resolved toward the lowest restart index).

    max_iterations caps each restart's iterations: Jacobi sweeps for a
    one-sided objective (class1, class2), simplex iterations for a two-sided
    one.  objective_tolerance stops a restart when one sweep moves its
    objective by at most this much (one-sided), or when the objective's
    spread over its simplex drops to this much (two-sided).  A restart that
    stopped by the tolerance counts as converged.
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


def _starts(count: int, cfg: OptimizerConfig) -> np.ndarray:
    """Restart i's start: count coefficients drawn from a generator seeded seed + i."""
    return np.stack(
        [
            np.random.default_rng(cfg.seed + i).uniform(-np.pi, np.pi, count)
            for i in range(cfg.restarts)
        ]
    )


def _optima(jobs, values, bases, converged, row_iterations, row_evaluations, tol):
    """One BasisOptimum per job from the rows of its restarts.

    values (jobs, restarts) is the minimized objective (a maximum's sum
    negated), bases(rows) the (u_a, u_b) of the given rows, and the rest
    per-row arrays; job j's restarts are rows j * restarts onward.
    """
    restarts = values.shape[1]
    best = np.argmin(values, axis=1)
    first = np.arange(len(jobs)) * restarts
    ua, ub = bases(first + best)
    optima = []
    for j, (_, objective, sense) in enumerate(jobs):
        rows = slice(first[j], first[j] + restarts)
        value = float(values[j, best[j]])
        optima.append(
            BasisOptimum(
                value=-value if sense == MAX else value,
                basis=LocalBasisPair(ua[j].copy(), ub[j].copy()),
                converged=bool(converged[first[j] + best[j]]),
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


def _hermitian_stack(rho: DensityMatrix) -> np.ndarray:
    """The n^2 Hermitian m x m matrices H_r with
    class1(U) = |rho|^2 - sum_r sum_k (U H_r U^dag)_kk^2.

    With rho = sum A_jj' x |j><j'|, they are the blocks A_jj and, for each
    j < j', the Hermitian and anti-Hermitian parts of sqrt(2) A_jj': the
    pair (j, j') and (j', j) of off-diagonal blocks counts twice.
    """
    m, n = rho.dims
    blocks = rho.mat.reshape(m, n, m, n).transpose(1, 3, 0, 2)  # blocks[j, j'] = A_jj'
    j, jp = _pair_indices(n)
    off = blocks[j, jp] * math.sqrt(0.5)
    off_dag = off.conj().swapaxes(-2, -1)
    diag = np.arange(n)
    return np.concatenate((blocks[diag, diag], off + off_dag, -1j * (off - off_dag)))


def _diagonal_mass(x: np.ndarray) -> np.ndarray:
    """sum_r sum_k (x_r)_kk^2 of each row of x (rows, R, m, m), row by row."""
    d = np.diagonal(x, axis1=-2, axis2=-1).real
    return (d * d).reshape(len(x), -1).sum(axis=1)


def _jacobi_sweep(x: np.ndarray, u: np.ndarray, top: np.ndarray) -> None:
    """One cyclic sweep of exact Givens steps over every pair of levels, in place.

    x (rows, R, m, m) holds U H_r U^dag of each row and u (rows, m, m) its
    U.  A step on (p, q) changes only a_pp - a_qq of the diagonals, to
    h_r . v for a unit vector v, so it takes the top eigenvector v of
    G = sum_r h_r h_r^T where top is set (raising the diagonal mass: a
    minimum of class1) and the bottom one elsewhere.
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


def _jacobi_group(jobs, dims, cfg: OptimizerConfig) -> list[BasisOptimum]:
    """Every restart of every class1 job in the group, as rows of one Jacobi search.

    Restart i starts from unitaries_from_params of its seeded coefficients.
    A row stops once a sweep moves its diagonal mass by at most the
    tolerance (converged), or after max_iterations sweeps; its value is the
    class sum of its final basis, from the kernel contributions uses.
    """
    m, n = dims
    restarts = cfg.restarts
    job = np.repeat(np.arange(len(jobs)), restarts)
    u = np.tile(unitaries_from_params(_starts(m * m - m, cfg), m), (len(jobs), 1, 1))
    stacks = np.stack([_hermitian_stack(rho) for rho, _, _ in jobs])
    x = (u[:, None] @ stacks[job]) @ u.conj().swapaxes(-2, -1)[:, None]
    top = np.repeat([sense == MIN for _, _, sense in jobs], restarts)
    mass = _diagonal_mass(x)
    sweeps = np.zeros(len(u), dtype=np.int64)
    converged = np.full(len(u), m < 2)  # a one-level side has nothing to rotate
    active = np.flatnonzero(~converged)
    while active.size:
        xa, ua = x[active], u[active]
        _jacobi_sweep(xa, ua, top[active])
        moved = _diagonal_mass(xa)
        sweeps[active] += 1
        converged[active] = np.abs(moved - mass[active]) <= cfg.objective_tolerance
        x[active], u[active], mass[active] = xa, ua, moved
        active = active[~converged[active] & (sweeps[active] < cfg.max_iterations)]
    eye_b = np.eye(n, dtype=complex)[None]
    mats = np.stack([rho.mat for rho, _, _ in jobs])
    values = (_rotated_moduli(u, eye_b, mats[job]) * _weights(jobs, m, n)[job]).sum(axis=1)
    return _optima(
        jobs,
        values.reshape(len(jobs), restarts),
        lambda rows: (u[rows], np.broadcast_to(eye_b, (len(rows), n, n))),
        converged,
        sweeps,
        sweeps * (m * (m - 1) // 2),  # Givens steps
        cfg.objective_tolerance,
    )


def _group_objective(jobs, dims, restarts: int):
    """Objective over the rows of one two-sided group, and rows -> (u_a, u_b).

    A row's first m^2 - m coefficients rotate side A and the rest side B.
    Row r of the batch searches job r // restarts; minimize_batch passes r
    as the last column of each row.  Every step works row by row (the class
    sum too: a matrix-vector product would round each row differently
    depending on the rows beside it), so a row's value never depends on
    which other rows share the call.
    """
    m, n = dims
    mats = np.stack([rho.mat for rho, _, _ in jobs])
    weights = _weights(jobs, m, n)
    na = m * m - m

    def side_unitaries(theta):
        if m == n:  # both sides in one call: rows alternate a, b
            u = unitaries_from_params(theta.reshape(2 * len(theta), na), m)
            return u[0::2], u[1::2]
        return unitaries_from_params(theta[:, :na], m), unitaries_from_params(theta[:, na:], n)

    def fn(block):
        job = block[:, -1].astype(np.intp) // restarts
        ua, ub = side_unitaries(block[:, :-1])
        return (_rotated_moduli(ua, ub, mats[job]) * weights[job]).sum(axis=1)

    return fn, side_unitaries


def _simplex_group(jobs, dims, cfg: OptimizerConfig) -> list[BasisOptimum]:
    """One lockstep simplex over every restart of every two-sided job in the group."""
    m, n = dims
    fn, side_unitaries = _group_objective(jobs, dims, cfg.restarts)
    res = minimize_batch(
        fn,
        np.tile(_starts(m * m - m + n * n - n, cfg), (len(jobs), 1)),
        step=0.5,
        tol=cfg.objective_tolerance,
        max_iter=cfg.max_iterations,
    )
    return _optima(
        jobs,
        res.value.reshape(len(jobs), cfg.restarts),
        lambda rows: side_unitaries(res.x[rows]),
        res.converged,
        res.row_iterations,
        res.row_evaluations,
        cfg.objective_tolerance,
    )


def _groups(jobs) -> dict:
    """Jobs by (dims, one-sided) of the batch that runs them, as (index, job).

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
        key = (rho.dims, objective == "class1")
        groups.setdefault(key, []).append((index, (rho, objective, sense)))
    return groups


def search_bases(jobs, config: OptimizerConfig | None = None) -> list[BasisOptimum]:
    """Optimum of each (state, objective, sense) job over product bases, in job order.

    Jobs on the same dims that rotate the same sides run as rows of one
    batch, config.restarts rows per job and at most MAX_ROWS rows a call:
    one Jacobi search for the one-sided jobs, one lockstep simplex for the
    two-sided ones.  A class2 job runs as class1 of the swapped state, so it
    shares a batch with the class1 jobs on the swapped dims.  Each job's
    BasisOptimum equals, bit for bit, the one it gives when searched alone.
    """
    cfg = config if config is not None else OptimizerConfig()
    per_call = max(1, MAX_ROWS // cfg.restarts)
    optima = [None] * len(jobs)
    for (dims, one_sided), members in _groups(jobs).items():
        search = _jacobi_group if one_sided else _simplex_group
        for start in range(0, len(members), per_call):
            chunk = members[start : start + per_call]
            found = search([job for _, job in chunk], dims, cfg)
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
