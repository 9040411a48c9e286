"""Concurrence and the unminimized-coherence monogamy balance.

script_d is the raw computational-basis off-diagonal weight: on a bipartite
state it is the double-count sum class1 + class2, on a reduced (single
system) matrix the plain off-diagonal sum.  For a pure bipartite state the
squared concurrence equals script_d of the joint state minus both local
parts; monogamy_check evaluates that balance.  For mixed two-qubit states
the same quantity bounds every convex decomposition from below;
corollary1_check probes that bound decomposition by decomposition.
"""

from dataclasses import dataclass

import numpy as np

from .coherence import contributions
from .errors import ConsistencyError, DiscohError, ShapeError, UnsupportedDimensionError
from .linalg import frobenius_sq, hermitian_eigen, sigma_y
from .states import DensityMatrix, PureState, haar_unitary

MONOGAMY_TOL = 1e-10

_FLIP = np.kron(sigma_y, sigma_y).real  # real 4x4 anti-diagonal sign pattern


def concurrence_pure(psi: PureState) -> float:
    """Pure-state concurrence from the 2x2 minors of the coefficient matrix.

    C = 2 sqrt(sum over i<j, k<l of |a_ik a_jl - a_il a_jk|^2); summing over
    all index pairs counts each minor four times, hence the plain square root.
    """
    a = psi.matrix()
    outer = np.einsum("ik,jl->ijkl", a, a)
    minors = outer - outer.transpose(0, 1, 3, 2)
    return float(np.sqrt(np.sum(minors.real**2 + minors.imag**2)))


def concurrence_mixed_2q(rho: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) for two qubits.

    The spectrum comes from the Hermitian product
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), which shares eigenvalues
    with the usual non-Hermitian form.
    """
    if rho.dims != (2, 2):
        raise UnsupportedDimensionError(f"Wootters concurrence needs dims (2, 2), got {rho.dims}")
    w, v = hermitian_eigen(rho.mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[None, :]) @ v.conj().T
    flipped = _FLIP @ rho.mat.conj() @ _FLIP
    prod = root @ flipped @ root
    spectrum, _ = hermitian_eigen(0.5 * (prod + prod.conj().T))
    lam = np.sqrt(np.clip(spectrum, 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def script_d(obj) -> float:
    """Unminimized computational-basis coherence weight.

    DensityMatrix input: the double-count sum class1 + class2 of the joint
    state.  Plain square array input: the off-diagonal sum of a reduced
    single-system matrix.
    """
    if isinstance(obj, DensityMatrix):
        return contributions(obj).total
    mat = np.asarray(obj, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got {mat.shape}")
    diag = np.diagonal(mat)
    return frobenius_sq(mat) - float(np.vdot(diag, diag).real)


@dataclass(frozen=True)
class MonogamyReport:
    """Terms of the pure-state balance c^2 = d_total - d_local_a - d_local_b."""

    c_squared: float
    d_total: float
    d_local_a: float
    d_local_b: float
    residual: float


def monogamy_check(psi: PureState, check: bool = True) -> MonogamyReport:
    """Evaluate the pure-state balance; by default asserts it holds to 1e-10."""
    rho = psi.to_density()
    c2 = concurrence_pure(psi) ** 2
    d_total = script_d(rho)
    d_a = script_d(rho.reduced("A"))
    d_b = script_d(rho.reduced("B"))
    residual = c2 - (d_total - d_a - d_b)
    report = MonogamyReport(c2, d_total, d_a, d_b, residual)
    if check and abs(residual) > MONOGAMY_TOL:
        raise ConsistencyError(f"monogamy residual {residual:.3e} exceeds {MONOGAMY_TOL:g}")
    return report


def corollary1_check(
    rho: DensityMatrix, decomposition_samples: int = 64, seed: int = 0
) -> tuple[float, list[float], bool]:
    """Probe c^2 + d_local_a + d_local_b <= sum_i p_i d_total(phi_i) per decomposition.

    The first sampled decomposition is the eigendecomposition itself; the
    rest mix it with Haar-random unitaries acting on the probability-weighted
    eigenvectors (the standard decomposition freedom).  Returns the left side,
    the per-decomposition right sides, and whether the bound held for all of
    them (with 1e-9 slack).
    """
    if rho.dims != (2, 2):
        raise UnsupportedDimensionError(f"mixed-state bound needs dims (2, 2), got {rho.dims}")
    if decomposition_samples < 1:
        raise DiscohError("need at least one decomposition sample")
    lhs = (
        concurrence_mixed_2q(rho) ** 2
        + script_d(rho.reduced("A"))
        + script_d(rho.reduced("B"))
    )
    w, v = hermitian_eigen(rho.mat)
    keep = w > 1e-12
    weighted = v[:, keep] * np.sqrt(w[keep])[None, :]
    rank = weighted.shape[1]
    rng = np.random.default_rng(seed)
    mixes = np.stack(
        [
            np.eye(rank, dtype=complex) if sample == 0 else haar_unitary(rank, rng)
            for sample in range(decomposition_samples)
        ]
    )
    # member j of decomposition s is column j of weighted @ mix.T, weight q its squared norm
    probs = np.abs(weighted[None] @ mixes.swapaxes(1, 2)) ** 2  # (samples, 4, rank)
    q = probs.sum(axis=1)
    members = q >= 1e-14
    p = (probs / np.where(members, q, 1.0)[:, None, :]).reshape(-1, 2, 2, rank)
    # d_total of a pure member: 2 - sum p_A^2 - sum p_B^2, from its marginals
    d_total = 2.0 - (p.sum(axis=2) ** 2).sum(axis=1) - (p.sum(axis=1) ** 2).sum(axis=1)
    rhs_samples = np.where(members, q * d_total, 0.0).sum(axis=1).tolist()
    holds = all(lhs <= rhs + 1e-9 for rhs in rhs_samples)
    return lhs, rhs_samples, holds
