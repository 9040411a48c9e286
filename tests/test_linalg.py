"""Matrix-core tests: Pauli products, partial trace, eigensolver, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoh.errors import HermiticityError, ShapeError
from discoh.linalg import (
    PAULI,
    frobenius_sq,
    hermitian_eigen,
    partial_trace,
    sigma_x,
    sigma_y,
    sigma_z,
)


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_density(dims, seed):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def partial_trace_loops(mat, dims, keep):
    # independent oracle: index arithmetic instead of reshape tricks
    m, n = dims
    if keep == "A":
        out = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                for k in range(n):
                    out[i, j] += mat[i * n + k, j * n + k]
    else:
        out = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for k in range(m):
                    out[i, j] += mat[k * n + i, k * n + j]
    return out


class TestMultiply:
    """Products of the Pauli constants."""

    def test_pauli_involution(self):
        assert np.allclose(sigma_x @ sigma_x, np.eye(2))

    def test_pauli_algebra(self):
        assert np.allclose(sigma_x @ sigma_y, 1j * sigma_z)


class TestPartialTrace:
    def test_bell_reduction(self):
        a = np.zeros(4, dtype=complex)
        a[0] = a[3] = 1 / np.sqrt(2)
        rho = np.outer(a, a.conj())
        assert np.allclose(partial_trace(rho, (2, 2), "A"), np.eye(2) / 2)
        assert np.allclose(partial_trace(rho, (2, 2), "B"), np.eye(2) / 2)

    def test_product_factorization(self):
        rho_a = random_density((1, 2), 5)
        rho_b = random_density((1, 3), 6)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 3), "A"), rho_a)
        assert np.allclose(partial_trace(joint, (2, 3), "B"), rho_b)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=25)
    def test_trace_preserved(self, seed):
        rho = random_density((2, 3), seed)
        for keep in ("A", "B"):
            red = partial_trace(rho, (2, 3), keep)
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12

    @given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    @settings(deadline=None, max_examples=40)
    def test_against_loop_oracle(self, seed, dims):
        rho = random_density(dims, seed)
        for keep in ("A", "B"):
            got = partial_trace(rho, dims, keep)
            want = partial_trace_loops(rho, dims, keep)
            assert np.allclose(got, want, atol=1e-13)

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(5), (2, 3), "A")


class TestHermitianEigen:
    def test_diagonal_sorted_descending(self):
        w, _ = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0])

    def test_sigma_x_spectrum(self):
        w, v = hermitian_eigen(sigma_x)
        assert np.allclose(w, [1.0, -1.0])
        # columns are eigenvectors
        for k in range(2):
            assert np.allclose(sigma_x @ v[:, k], w[k] * v[:, k])

    def test_werner_direction_matrix_triple_eigenvalue(self):
        # x = 0, T = p diag(1,-1,1) gives x x^t + T T^t = p^2 identity
        p = 0.37
        t = p * np.diag([1.0, -1.0, 1.0])
        w, _ = hermitian_eigen(t @ t.T)
        assert np.allclose(w, [p**2] * 3)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(0, 10**6), st.integers(2, 6))
    @settings(deadline=None, max_examples=40)
    def test_reconstruction(self, seed, d):
        h = random_hermitian(d, seed)
        w, v = hermitian_eigen(h)
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
        assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-10)


class TestFrobenius:
    def test_identity(self):
        assert frobenius_sq(np.eye(2)) == pytest.approx(2.0)

    def test_zero(self):
        assert frobenius_sq(np.zeros((3, 3))) == 0.0

    def test_pure_state_purity(self):
        a = np.zeros(4, dtype=complex)
        a[0] = a[3] = 1 / np.sqrt(2)
        assert frobenius_sq(np.outer(a, a.conj())) == pytest.approx(1.0)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=25)
    def test_matches_vdot(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert frobenius_sq(mat) == pytest.approx(np.sum(np.abs(mat) ** 2))


def test_pauli_stack_layout():
    assert np.array_equal(PAULI[0], sigma_x)
    assert np.array_equal(PAULI[1], sigma_y)
    assert np.array_equal(PAULI[2], sigma_z)
