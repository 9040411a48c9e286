"""Bipartite quantum states: validation, Bloch form, generators, channels, files.

Density matrices are validated on construction (Hermitian, unit trace,
positive semidefinite, purity at most 1) so downstream measures can assume
physical input.  All random generators are deterministic functions of an
integer seed.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelError,
    DiscohError,
    HermiticityError,
    NormalizationError,
    PositivityError,
    PurityError,
    ShapeError,
    StateFormatError,
    TraceError,
    UnsupportedDimensionError,
)
from .linalg import PAULI, frobenius_sq, hermiticity_defect, partial_trace

TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9
PURITY_TOL = 1e-9
NORM_TOL = 1e-10
CHANNEL_TOL = 1e-10

# Operator sets for two-qubit Bloch components, built once.
_BLOCH_A = np.stack([np.kron(PAULI[i], np.eye(2, dtype=complex)) for i in range(3)])
_BLOCH_B = np.stack([np.kron(np.eye(2, dtype=complex), PAULI[j]) for j in range(3)])
_BLOCH_T = np.stack([[np.kron(PAULI[i], PAULI[j]) for j in range(3)] for i in range(3)])


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise StateFormatError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix of an m x n bipartite system."""

    dims: tuple[int, int]
    mat: np.ndarray

    def __post_init__(self):
        m, n = self.dims
        if m < 1 or n < 1:
            raise ShapeError(f"dims must be positive, got {self.dims}")
        mat = np.asarray(self.mat, dtype=complex)
        d = m * n
        if mat.shape != (d, d):
            raise ShapeError(f"matrix shape {mat.shape} does not match dims {self.dims}")
        _check_finite(mat, "density matrix")
        defect = hermiticity_defect(mat)
        if defect > 1e-10:
            raise HermiticityError(f"not hermitian: max |m - m^dag| = {defect:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceError(f"trace = {tr.real:.12f}, must be 1 within {TRACE_TOL:g}")
        low = float(np.min(np.linalg.eigvalsh(mat)))
        if low < PSD_FLOOR:
            raise PositivityError(f"eigenvalue {low:.3e} below floor {PSD_FLOOR:g}")
        pur = frobenius_sq(mat)
        if pur > 1.0 + PURITY_TOL:
            raise PurityError(f"tr(rho^2) = {pur:.12f} exceeds 1")
        object.__setattr__(self, "dims", (int(m), int(n)))
        object.__setattr__(self, "mat", mat)

    @property
    def m(self) -> int:
        return self.dims[0]

    @property
    def n(self) -> int:
        return self.dims[1]

    def purity(self) -> float:
        return frobenius_sq(self.mat)

    def reduced(self, keep: str) -> np.ndarray:
        return partial_trace(self.mat, self.dims, keep)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of an m x n bipartite system."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        m, n = self.dims
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (m * n,):
            raise ShapeError(f"amplitude length {amp.shape[0]} does not match dims {self.dims}")
        _check_finite(amp, "state vector")
        nrm = float(np.vdot(amp, amp).real)
        if abs(nrm - 1.0) > NORM_TOL:
            raise NormalizationError(f"norm^2 = {nrm:.12f}, must be 1 within {NORM_TOL:g}")
        object.__setattr__(self, "dims", (int(m), int(n)))
        object.__setattr__(self, "amplitudes", amp)

    def matrix(self) -> np.ndarray:
        """Amplitudes as the m x n coefficient matrix a[i, j] = <ij|psi>."""
        return self.amplitudes.reshape(self.dims)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class BlochRep:
    """Two-qubit Bloch data: local vectors x, y and 3x3 correlation matrix T."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(-1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        T = np.asarray(self.T, dtype=float)
        if x.shape != (3,) or y.shape != (3,) or T.shape != (3, 3):
            raise ShapeError("Bloch data must be two 3-vectors and a 3x3 matrix")
        for name, v in (("x", x), ("y", y)):
            if np.dot(v, v) > 1.0 + 1e-9:
                raise NormalizationError(f"|{name}| = {np.linalg.norm(v):.6f} exceeds 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "T", T)


def bloch_decompose(rho: DensityMatrix) -> BlochRep:
    """Pauli components of a two-qubit state.

    x_i = tr[rho (sigma_i x 1)], y_j = tr[rho (1 x sigma_j)],
    T_ij = tr[rho (sigma_i x sigma_j)].
    """
    if rho.dims != (2, 2):
        raise UnsupportedDimensionError(f"Bloch form needs dims (2, 2), got {rho.dims}")
    x = np.einsum("ab,iba->i", rho.mat, _BLOCH_A)
    y = np.einsum("ab,jba->j", rho.mat, _BLOCH_B)
    T = np.einsum("ab,ijba->ij", rho.mat, _BLOCH_T)
    worst = max(np.max(np.abs(x.imag)), np.max(np.abs(y.imag)), np.max(np.abs(T.imag)))
    if worst > 1e-10:
        raise HermiticityError(f"Bloch components have imaginary part {worst:.3e}")
    return BlochRep(x.real, y.real, T.real)


def bloch_compose(rep: BlochRep) -> DensityMatrix:
    """Rebuild the two-qubit matrix from Bloch data; rejects unphysical input."""
    mat = np.eye(4, dtype=complex)
    mat += np.einsum("i,iab->ab", rep.x, _BLOCH_A)
    mat += np.einsum("j,jab->ab", rep.y, _BLOCH_B)
    mat += np.einsum("ij,ijab->ab", rep.T, _BLOCH_T)
    return DensityMatrix((2, 2), mat / 4.0)


_BELL = {
    "phi+": (0, 3, 1.0),
    "phi-": (0, 3, -1.0),
    "psi+": (1, 2, 1.0),
    "psi-": (1, 2, -1.0),
}


def make_bell(which: str = "phi+") -> PureState:
    """One of the four Bell states on dims (2, 2)."""
    key = which.lower()
    if key not in _BELL:
        raise DiscohError(f"unknown Bell state {which!r}; choose from {sorted(_BELL)}")
    i, j, sign = _BELL[key]
    amp = np.zeros(4, dtype=complex)
    amp[i] = 1.0 / np.sqrt(2.0)
    amp[j] = sign / np.sqrt(2.0)
    return PureState((2, 2), amp)


def make_werner(p: float) -> DensityMatrix:
    """Werner mixture p |phi+><phi+| + (1 - p) 1/4."""
    if not 0.0 <= p <= 1.0:
        raise DiscohError(f"werner parameter must lie in [0, 1], got {p}")
    proj = make_bell("phi+").to_density().mat
    return DensityMatrix((2, 2), p * proj + (1.0 - p) * np.eye(4, dtype=complex) / 4.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    ph = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * ph[None, :]


def random_unitary(d: int, seed: int) -> np.ndarray:
    return haar_unitary(d, np.random.default_rng(seed))


def random_pure(dims: tuple[int, int], seed: int) -> PureState:
    """Haar-random pure state: normalized vector of complex Gaussians."""
    m, n = dims
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    return PureState((m, n), amp / np.linalg.norm(amp))


def random_mixed(dims: tuple[int, int], rank: int, seed: int) -> DensityMatrix:
    """Hilbert-Schmidt random mixed state of the given rank (G G^dag / tr)."""
    m, n = dims
    d = m * n
    if not 1 <= rank <= d:
        raise DiscohError(f"rank must lie in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return DensityMatrix((m, n), mat / mat.trace())


def random_classical(dims: tuple[int, int], seed: int) -> DensityMatrix:
    """Classically correlated state sum_ij p_ij |a_i b_j><a_i b_j|.

    The two local bases are Haar-random, the joint distribution p_ij uniform
    up to normalization.
    """
    m, n = dims
    rng = np.random.default_rng(seed)
    p = rng.random((m, n))
    p /= p.sum()
    ua = haar_unitary(m, rng)
    ub = haar_unitary(n, rng)
    mat = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        pa = np.outer(ua[:, i], ua[:, i].conj())
        for j in range(n):
            pb = np.outer(ub[:, j], ub[:, j].conj())
            mat += p[i, j] * np.kron(pa, pb)
    return DensityMatrix((m, n), mat)


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators acting on one side of a bipartite state."""

    operators: tuple
    side: str
    gamma: float

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ChannelError(f"side must be 'A' or 'B', got {self.side!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ChannelError(f"gamma must lie in [0, 1], got {self.gamma}")
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        if not ops:
            raise ChannelError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for op in ops:
            if op.shape != (d, d):
                raise ShapeError("Kraus operators must be square and equally sized")
            _check_finite(op, "Kraus operator")
        total = sum(op.conj().T @ op for op in ops)
        defect = float(np.max(np.abs(total - np.eye(d, dtype=complex))))
        if defect > CHANNEL_TOL:
            raise ChannelError(f"sum E^dag E deviates from 1 by {defect:.3e}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def phase_damping(gamma: float, side: str = "A") -> KrausChannel:
    """Qubit phase damping: E0 = diag(1, sqrt(1-gamma)), E1 = diag(0, sqrt(gamma))."""
    if not 0.0 <= gamma <= 1.0:
        raise ChannelError(f"gamma must lie in [0, 1], got {gamma}")
    e0 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    e1 = np.diag([0.0, np.sqrt(gamma)]).astype(complex)
    return KrausChannel((e0, e1), side, gamma)


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply a one-sided channel, embedding each E_k as E_k x 1 or 1 x E_k."""
    m, n = rho.dims
    local = m if channel.side == "A" else n
    if channel.dim != local:
        raise ShapeError(
            f"channel acts on dimension {channel.dim}, side {channel.side} has {local}"
        )
    out = np.zeros_like(rho.mat)
    eye = np.eye(n if channel.side == "A" else m, dtype=complex)
    for op in channel.operators:
        full = np.kron(op, eye) if channel.side == "A" else np.kron(eye, op)
        out += full @ rho.mat @ full.conj().T
    return DensityMatrix(rho.dims, out)


def schmidt_decompose(psi: PureState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt data (coefficients descending, local bases u_a, u_b).

    The coefficient matrix factors as a = u_a diag(s) u_b^dag.
    """
    a = psi.matrix()
    u, s, vh = np.linalg.svd(a)
    return s, u, vh.conj().T


def _swap_parties(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """Operators on dims (m, n), over any leading axes, with the parties exchanged."""
    lead = mats.shape[:-2]
    t = mats.reshape(*lead, m, n, m, n).swapaxes(-4, -3).swapaxes(-2, -1)
    return t.reshape(*lead, m * n, m * n)


def swap_subsystems(rho: DensityMatrix) -> DensityMatrix:
    """Exchange the two subsystems; dims (m, n) become (n, m)."""
    m, n = rho.dims
    return DensityMatrix((n, m), _swap_parties(rho.mat, m, n))


def save_state(rho: DensityMatrix, path) -> None:
    """Write a density matrix as JSON: dims plus real and imaginary parts."""
    payload = {
        "dims": [rho.m, rho.n],
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }
    with open(path, "w", encoding="ascii", newline="") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _reject_constant(token: str):
    raise StateFormatError(f"non-finite JSON token {token!r}")


def load_state(path) -> DensityMatrix:
    """Read a density matrix written by save_state, validating everything."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StateFormatError(f"cannot parse state file: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateFormatError("state file must hold a JSON object")
    for key in ("dims", "re", "im"):
        if key not in payload:
            raise StateFormatError(f"state file is missing key {key!r}")
    dims = payload["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise StateFormatError(f"dims must be two positive integers, got {dims!r}")
    m, n = dims
    d = m * n
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"matrix entries are not numeric: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise StateFormatError(
            f"matrix blocks must be {d} x {d} for dims {dims}, got {re.shape} and {im.shape}"
        )
    mat = re + 1j * im
    _check_finite(mat, "state file matrix")
    return DensityMatrix((m, n), mat)
