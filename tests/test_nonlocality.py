"""Correlation spectrum, directional quartic objective, CHSH criterion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoh.coherence import MAX, MIN, OptimizerConfig, contributions, search_bases
from discoh.errors import NormalizationError, UnsupportedDimensionError
from discoh.nonlocality import (
    basis_pair_from_directions,
    chsh_violation,
    correlation_spectrum,
    direction_basis,
    v_measures_analytic,
    v_objective_bloch,
)
from discoh.states import (
    DensityMatrix,
    PureState,
    bloch_decompose,
    make_bell,
    make_werner,
    random_mixed,
)

EZ = np.array([0.0, 0.0, 1.0])


def bell_dm():
    return make_bell("phi+").to_density()


def ket00():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    return PureState((2, 2), amp).to_density()


class TestCorrelationSpectrum:
    def test_bell(self):
        corr = correlation_spectrum(bell_dm())
        assert np.allclose(corr.singular_values, [1.0, 1.0, 1.0], atol=1e-12)
        assert corr.t_norm_sq == pytest.approx(3.0, abs=1e-12)

    def test_maximally_mixed(self):
        corr = correlation_spectrum(DensityMatrix((2, 2), np.eye(4) / 4))
        assert np.allclose(corr.singular_values, 0.0, atol=1e-12)

    def test_werner_linear(self):
        corr = correlation_spectrum(make_werner(0.35))
        assert np.allclose(corr.singular_values, [0.35] * 3, atol=1e-12)

    def test_rejects_non_two_qubit(self):
        rho = random_mixed((2, 3), 6, seed=0)
        with pytest.raises(UnsupportedDimensionError):
            correlation_spectrum(rho)


class TestAnalyticMeasures:
    def test_bell(self):
        v, vt = v_measures_analytic(bell_dm())
        assert v == pytest.approx(0.25, abs=1e-12)
        assert vt == pytest.approx(0.5, abs=1e-12)

    def test_ket00(self):
        v, vt = v_measures_analytic(ket00())
        assert v == pytest.approx(0.0, abs=1e-12)
        assert vt == pytest.approx(0.25, abs=1e-12)

    def test_werner(self):
        for p in (0.2, 0.7):
            v, vt = v_measures_analytic(make_werner(p))
            assert v == pytest.approx(p**2 / 4, abs=1e-12)
            assert vt == pytest.approx(p**2 / 2, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_sum_rule(self, seed):
        rho = random_mixed((2, 2), 4, seed)
        v, vt = v_measures_analytic(rho)
        t = bloch_decompose(rho).T
        assert v + vt == pytest.approx(np.sum(t * t) / 4, abs=1e-12)


class TestDirectionalObjective:
    def test_zero_correlation(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        for p in (EZ, np.array([1.0, 0.0, 0.0])):
            assert v_objective_bloch(rho, p, p) == pytest.approx(0.0, abs=1e-12)

    def test_bell_z_directions(self):
        # T = diag(1,-1,1): |T|^2 - p1 T T^t p1 - p2 T^t T p2 + (p1 T p2)^2
        # at p1 = p2 = z gives 3 - 1 - 1 + 1 = 2, so the objective is 1/2,
        # matching the anti-diagonal sum in the induced basis
        value = v_objective_bloch(bell_dm(), EZ, EZ)
        assert value == pytest.approx(0.5, abs=1e-12)
        basis = basis_pair_from_directions(EZ, EZ)
        assert contributions(bell_dm(), basis).class3 == pytest.approx(value, abs=1e-12)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(NormalizationError):
            v_objective_bloch(bell_dm(), 2 * EZ, EZ)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_matches_induced_basis_class3(self, seed):
        # dual route: quartic form in Bloch data vs literal entry sum in the
        # measured product basis built from the same directions
        rng = np.random.default_rng(seed)
        rho = random_mixed((2, 2), 4, seed)
        p1 = rng.standard_normal(3)
        p2 = rng.standard_normal(3)
        p1 /= np.linalg.norm(p1)
        p2 /= np.linalg.norm(p2)
        value = v_objective_bloch(rho, p1, p2)
        basis = basis_pair_from_directions(p1, p2)
        assert contributions(rho, basis).class3 == pytest.approx(value, abs=1e-11)


class TestDirectionBasis:
    def test_z_direction_is_computational(self):
        u = direction_basis(EZ)
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_measured_vector_has_requested_bloch_direction(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        u = direction_basis(p)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        # first measured vector is the +p eigenstate: rows of u are the
        # measured bras, so the projector is u[0]^dag u[0]
        vec = u.conj().T[:, 0]
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        bloch = [np.vdot(vec, s @ vec).real for s in (sx, sy, sz)]
        assert np.allclose(bloch, p, atol=1e-10)


def v_searched(rho, cfg):
    return search_bases([(rho, "class3", MIN), (rho, "class3", MAX)], cfg)


class TestNumericMeasures:
    def test_matches_analytic(self):
        cfg = OptimizerConfig(restarts=8, seed=0)
        rho = random_mixed((2, 2), 4, seed=3)
        v_an, vt_an = v_measures_analytic(rho)
        low, high = v_searched(rho, cfg)
        assert low.value == pytest.approx(v_an, abs=1e-6)
        assert high.value == pytest.approx(vt_an, abs=1e-6)

    def test_maximally_mixed(self):
        cfg = OptimizerConfig(restarts=4, seed=0)
        low, high = v_searched(DensityMatrix((2, 2), np.eye(4) / 4), cfg)
        assert low.value == pytest.approx(0.0, abs=1e-9)
        assert high.value == pytest.approx(0.0, abs=1e-9)


class TestChsh:
    def test_bell_maximal(self):
        violates, m = chsh_violation(bell_dm())
        assert violates
        assert m == pytest.approx(2.0, abs=1e-12)

    def test_ket00_boundary(self):
        violates, m = chsh_violation(ket00())
        assert not violates  # strict inequality at m = 1
        assert m == pytest.approx(1.0, abs=1e-12)

    def test_werner_threshold(self):
        assert not chsh_violation(make_werner(0.7071))[0]
        assert chsh_violation(make_werner(0.7072))[0]

    @given(st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=30)
    def test_werner_criterion_formula(self, p):
        violates, m = chsh_violation(make_werner(p))
        assert m == pytest.approx(2 * p**2, abs=1e-10)
        assert violates == (m > 1.0)
