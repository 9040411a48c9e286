"""Numpy-only reference values for the benchmark's output checks.

Nothing here imports discoh: every value is recomputed from the density
matrix with plain numpy, by formulas taken from the paper, so a fault in the
program's own closed forms cannot hide behind a check that reuses them.

Two-qubit Bloch data: x_i = tr[rho (s_i x 1)], y_j = tr[rho (1 x s_j)],
T_ij = tr[rho (s_i x s_j)].
"""

import numpy as np

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
EYE2 = np.eye(2, dtype=complex)


def bloch(rho):
    """Bloch vectors x, y and correlation matrix T of a 4x4 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    x = np.array([np.trace(rho @ np.kron(s, EYE2)).real for s in PAULI])
    y = np.array([np.trace(rho @ np.kron(EYE2, s)).real for s in PAULI])
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULI] for a in PAULI])
    return x, y, t


def _one_sided(local, t):
    lam = np.linalg.eigvalsh(np.outer(local, local) + t @ t.T)[-1]
    return (local @ local + np.sum(t * t) - lam) / 4.0


def d_ab(rho):
    """(|x|^2 + |T|^2 - lambda_max(x x^t + T T^t)) / 4."""
    x, _, t = bloch(rho)
    return _one_sided(x, t)


def d_ba(rho):
    """(|y|^2 + |T|^2 - lambda_max(y y^t + T^t T)) / 4."""
    _, y, t = bloch(rho)
    return _one_sided(y, t.T)


def correlation_singular_values(rho):
    """Singular values s1 >= s2 >= s3 of T."""
    return np.linalg.svd(bloch(rho)[2], compute_uv=False)


def v_pair(rho):
    """(v, v_tilde) = (s3^2 / 4, (s1^2 + s2^2) / 4)."""
    s = correlation_singular_values(rho)
    return s[2] ** 2 / 4.0, (s[0] ** 2 + s[1] ** 2) / 4.0


def horodecki_m(rho):
    """m = s1^2 + s2^2; CHSH is violated exactly when m > 1."""
    s = correlation_singular_values(rho)
    return s[0] ** 2 + s[1] ** 2


def t_norm_sq(rho):
    return float(np.sum(bloch(rho)[2] ** 2))


def concurrence_2q(rho):
    """Wootters concurrence from the square roots of the eigenvalues of rho rho~."""
    rho = np.asarray(rho, dtype=complex)
    yy = np.kron(PAULI[1], PAULI[1])
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real, 0, None)))
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])


def werner_values(p):
    """Closed forms of p |phi+><phi+| + (1 - p) 1/4 worked out by hand."""
    return {
        "d_ab": p * p / 2.0,
        "d_ba": p * p / 2.0,
        "d_sym": p * p,
        "v": p * p / 4.0,
        "v_tilde": p * p / 2.0,
        "horodecki_m": 2.0 * p * p,
        "concurrence": max(0.0, (3.0 * p - 1.0) / 2.0),
    }


def werner_matrix(p):
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return p * np.outer(phi, phi).astype(complex) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def schmidt_coefficients(amplitudes, dims):
    return np.linalg.svd(np.asarray(amplitudes).reshape(dims), compute_uv=False)


def pure_c_squared(amplitudes, dims):
    """Squared concurrence 2 (1 - sum s^4) of a pure state, s its Schmidt coefficients."""
    s = schmidt_coefficients(amplitudes, dims)
    return 2.0 * (1.0 - float(np.sum(s**4)))


def dominant_vector(rho):
    """Eigenvector of the largest eigenvalue: the state vector of a pure rho."""
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    return v[:, -1]


def purity(rho):
    rho = np.asarray(rho)
    return float(np.vdot(rho, rho).real)


def physical_defects(rho):
    """Largest violation of hermiticity, unit trace and positivity."""
    rho = np.asarray(rho, dtype=complex)
    return max(
        float(np.max(np.abs(rho - rho.conj().T))),
        abs(complex(np.trace(rho)) - 1.0),
        max(0.0, -float(np.linalg.eigvalsh(rho)[0])),
    )


def random_pure(rng, dims):
    """Haar-random state vector, drawn by the benchmark, not by the program."""
    d = dims[0] * dims[1]
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return amp / np.linalg.norm(amp)


def random_mixed(rng, d, rank):
    """Hilbert-Schmidt random density matrix of the given rank."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _top_vectors(mats):
    return np.linalg.eigh(mats)[1][..., -1]


def d_tilde(rho, grid=12, sweeps=100):
    """Two-sided measure: minimum over product bases of all off-diagonal weight.

    In the basis measuring A along a and B along b the diagonal holds the joint
    outcome probabilities (1 + s a.x + t b.y + s t a.T b) / 4, so

      d_tilde = (|x|^2 + |y|^2 + |T|^2 - max_{a,b} [(a.x)^2 + (b.y)^2 + (a.T b)^2]) / 4.

    The maximum is found by alternating exact maximisation (for fixed b the
    best a is the top eigenvector of x x^t + T b b^t T^t, and symmetrically)
    from every point of a grid over the sphere of b.  Each sweep cannot
    decrease the objective.
    """
    x, y, t = bloch(rho)
    th, ph = np.meshgrid(
        np.linspace(0.0, np.pi, grid), np.linspace(0.0, 2.0 * np.pi, 2 * grid, endpoint=False)
    )
    b = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1).reshape(-1, 3)
    xx, yy = np.outer(x, x), np.outer(y, y)
    for _ in range(sweeps):
        tb = b @ t.T
        a = _top_vectors(xx + tb[:, :, None] * tb[:, None, :])
        ta = a @ t
        b = _top_vectors(yy + ta[:, :, None] * ta[:, None, :])
    best = np.max((a @ x) ** 2 + (b @ y) ** 2 + np.einsum("ki,ij,kj->k", a, t, b) ** 2)
    return (x @ x + y @ y + np.sum(t * t) - best) / 4.0
