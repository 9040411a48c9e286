"""Concurrence, fixed-basis coherence budget, and decomposition bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoh.entanglement import (
    MonogamyReport,
    concurrence_mixed_2q,
    concurrence_pure,
    corollary1_check,
    monogamy_check,
    script_d,
)
from discoh.errors import UnsupportedDimensionError
from discoh.linalg import hermitian_eigen, partial_trace
from discoh.states import (
    DensityMatrix,
    PureState,
    haar_unitary,
    make_bell,
    make_werner,
    random_mixed,
    random_pure,
)


def amplitudes(*entries):
    amp = np.zeros(4, dtype=complex)
    for i, val in entries:
        amp[i] = val
    return PureState((2, 2), amp)


class TestConcurrencePure:
    def test_product_state(self):
        assert concurrence_pure(amplitudes((0, 1.0))) == 0.0

    def test_bell(self):
        assert concurrence_pure(make_bell("phi+")) == pytest.approx(1.0, abs=1e-12)

    def test_skewed_superposition(self):
        psi = amplitudes((0, np.sqrt(0.2)), (3, np.sqrt(0.8)))
        assert concurrence_pure(psi) == pytest.approx(0.8, abs=1e-12)

    @given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 4)]))
    @settings(deadline=None, max_examples=40)
    def test_against_purity_oracle(self, seed, dims):
        # independent route: C^2 = 2 (1 - tr rho_A^2) for pure states
        psi = random_pure(dims, seed)
        rho_a = partial_trace(psi.to_density().mat, dims, "A")
        expected = np.sqrt(max(0.0, 2.0 * (1.0 - np.trace(rho_a @ rho_a).real)))
        assert concurrence_pure(psi) == pytest.approx(expected, abs=1e-10)


class TestConcurrenceMixed:
    def test_werner_limits(self):
        assert concurrence_mixed_2q(make_werner(1.0)) == pytest.approx(1.0, abs=1e-8)
        assert concurrence_mixed_2q(make_werner(0.0)) == 0.0

    def test_werner_half(self):
        assert concurrence_mixed_2q(make_werner(0.5)) == pytest.approx(0.25, abs=1e-10)

    @given(st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=25)
    def test_werner_formula(self, p):
        expected = max(0.0, (3 * p - 1) / 2)
        assert concurrence_mixed_2q(make_werner(p)) == pytest.approx(expected, abs=1e-8)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=25)
    def test_pure_projector_matches_pure_route(self, seed):
        psi = random_pure((2, 2), seed)
        assert concurrence_mixed_2q(psi.to_density()) == pytest.approx(
            concurrence_pure(psi), abs=1e-7
        )

    def test_rejects_wrong_dims(self):
        with pytest.raises(UnsupportedDimensionError):
            concurrence_mixed_2q(random_pure((2, 3), seed=1).to_density())


class TestScriptD:
    def test_diagonal_matrix(self):
        assert script_d(np.diag([0.25, 0.75]).astype(complex)) == 0.0

    def test_plus_projector(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert script_d(plus) == pytest.approx(0.5, abs=1e-12)

    def test_bell_bipartite(self):
        assert script_d(make_bell("phi+").to_density()) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_input(self):
        rho = make_bell("phi+").to_density()
        assert script_d(rho.reduced("A")) == pytest.approx(0.0, abs=1e-12)


class TestMonogamy:
    def test_bell(self):
        rep = monogamy_check(make_bell("phi+"))
        assert rep.c_squared == pytest.approx(1.0, abs=1e-12)
        assert rep.d_total == pytest.approx(1.0, abs=1e-12)
        assert rep.d_local_a == pytest.approx(0.0, abs=1e-12)
        assert rep.d_local_b == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_product_with_local_coherence(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[1] = 1 / np.sqrt(2)  # |0> x |+>
        rep = monogamy_check(PureState((2, 2), amp))
        assert rep.c_squared == pytest.approx(0.0, abs=1e-12)
        assert rep.d_total == pytest.approx(0.5, abs=1e-12)
        assert rep.d_local_a == pytest.approx(0.0, abs=1e-12)
        assert rep.d_local_b == pytest.approx(0.5, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_random_3x3(self):
        rep = monogamy_check(random_pure((3, 3), seed=14))
        assert abs(rep.residual) <= 1e-10

    @given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 4)]))
    @settings(deadline=None, max_examples=40)
    def test_residual_vanishes(self, seed, dims):
        rep = monogamy_check(random_pure(dims, seed))
        assert abs(rep.residual) <= 1e-10

    def test_report_fields_are_plain_floats(self):
        rep = monogamy_check(make_bell("psi-"))
        assert isinstance(rep, MonogamyReport)
        for value in (rep.c_squared, rep.d_total, rep.d_local_a, rep.d_local_b, rep.residual):
            assert isinstance(value, float)


class TestDecompositionBound:
    def test_pure_projector_reduces_to_equality(self):
        rho = make_bell("phi+").to_density()
        lhs, rhs_samples, holds = corollary1_check(rho, decomposition_samples=4, seed=0)
        assert holds
        # eigendecomposition of a pure projector has a single term
        assert lhs == pytest.approx(rhs_samples[0], abs=1e-9)

    def test_maximally_mixed(self):
        lhs, rhs_samples, holds = corollary1_check(make_werner(0.0), decomposition_samples=8, seed=1)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_werner_point_eight(self):
        lhs, rhs_samples, holds = corollary1_check(make_werner(0.8), decomposition_samples=64, seed=2)
        assert holds
        assert len(rhs_samples) == 64
        assert min(rhs_samples) + 1e-9 >= lhs

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=10)
    def test_random_mixed_states(self, seed):
        rho = random_mixed((2, 2), 4, seed)
        lhs, rhs_samples, holds = corollary1_check(rho, decomposition_samples=16, seed=seed)
        assert holds

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(deadline=None, max_examples=20)
    def test_right_sides_match_a_state_per_member(self, seed, rank):
        # reference: build each member as a state and take its d_total
        rho = random_mixed((2, 2), rank, seed)
        _, rhs_samples, _ = corollary1_check(rho, decomposition_samples=8, seed=seed)
        w, v = hermitian_eigen(rho.mat)
        keep = w > 1e-12
        weighted = v[:, keep] * np.sqrt(w[keep])[None, :]
        k = weighted.shape[1]
        rng = np.random.default_rng(seed)
        want = []
        for sample in range(8):
            mix = np.eye(k, dtype=complex) if sample == 0 else haar_unitary(k, rng)
            vectors = weighted @ mix.T
            rhs = 0.0
            for j in range(k):
                q = float(np.vdot(vectors[:, j], vectors[:, j]).real)
                if q < 1e-14:
                    continue
                phi = PureState(rho.dims, vectors[:, j] / np.sqrt(q))
                rhs += q * script_d(phi.to_density())
            want.append(rhs)
        assert np.allclose(rhs_samples, want, rtol=0.0, atol=1e-12)
