"""State layer tests: validation, Bloch maps, families, channels, file IO."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoh.errors import (
    ChannelError,
    DiscohError,
    HermiticityError,
    NormalizationError,
    PositivityError,
    ShapeError,
    StateFormatError,
    TraceError,
)
from discoh.linalg import partial_trace
from discoh.states import (
    BlochRep,
    DensityMatrix,
    KrausChannel,
    PureState,
    apply_channel,
    bloch_compose,
    bloch_decompose,
    load_state,
    make_bell,
    make_werner,
    phase_damping,
    random_classical,
    random_mixed,
    random_pure,
    random_unitary,
    save_state,
    schmidt_decompose,
    swap_subsystems,
)

INV_SQRT2 = 1 / np.sqrt(2)


def bell_dm():
    return make_bell("phi+").to_density()


class TestDensityMatrixValidation:
    def test_maximally_mixed_accepted(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert rho.purity() == pytest.approx(0.25)

    def test_trace_error(self):
        with pytest.raises(TraceError):
            DensityMatrix((2, 2), np.eye(4) / 2)

    def test_psd_error(self):
        with pytest.raises(PositivityError):
            DensityMatrix((2, 2), np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            DensityMatrix((2, 2), np.eye(3) / 3)

    def test_hermiticity_error(self):
        mat = np.eye(4) / 4
        mat = mat.astype(complex)
        mat[0, 1] = 0.1
        with pytest.raises(HermiticityError):
            DensityMatrix((2, 2), mat)

    def test_non_finite_rejected(self):
        mat = np.eye(4) / 4
        mat[0, 0] = np.nan
        with pytest.raises(StateFormatError):
            DensityMatrix((2, 2), mat)

    def test_reduced_matches_partial_trace(self):
        rho = random_mixed((2, 3), 6, seed=3)
        assert np.allclose(rho.reduced("A"), partial_trace(rho.mat, (2, 3), "A"))
        assert np.allclose(rho.reduced("B"), partial_trace(rho.mat, (2, 3), "B"))


class TestBloch:
    def test_bell_decomposition(self):
        rep = bloch_decompose(bell_dm())
        assert np.allclose(rep.x, 0, atol=1e-12)
        assert np.allclose(rep.y, 0, atol=1e-12)
        assert np.allclose(rep.T, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_maximally_mixed_decomposition(self):
        rep = bloch_decompose(DensityMatrix((2, 2), np.eye(4) / 4))
        assert np.allclose(rep.x, 0) and np.allclose(rep.y, 0) and np.allclose(rep.T, 0)

    def test_product_of_z_eigenstates(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = 1.0
        rep = bloch_decompose(PureState((2, 2), amp).to_density())
        assert np.allclose(rep.x, [0, 0, 1], atol=1e-12)
        assert np.allclose(rep.y, [0, 0, 1], atol=1e-12)
        assert np.allclose(rep.T, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_compose_zero_is_maximally_mixed(self):
        rho = bloch_compose(BlochRep(np.zeros(3), np.zeros(3), np.zeros((3, 3))))
        assert np.allclose(rho.mat, np.eye(4) / 4)

    def test_compose_bell(self):
        rep = BlochRep(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        assert np.allclose(bloch_compose(rep).mat, bell_dm().mat, atol=1e-12)

    def test_compose_rejects_unphysical(self):
        rep = BlochRep(np.zeros(3), np.zeros(3), np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(PositivityError):
            bloch_compose(rep)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_round_trip(self, seed):
        rho = random_mixed((2, 2), 4, seed)
        back = bloch_compose(bloch_decompose(rho))
        assert np.allclose(back.mat, rho.mat, atol=1e-12)


class TestFamilies:
    def test_bell_amplitudes(self):
        assert np.allclose(make_bell("phi+").amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2])
        assert np.allclose(make_bell("psi-").amplitudes, [0, INV_SQRT2, -INV_SQRT2, 0])

    def test_bell_flavors_orthogonal(self):
        amps = [make_bell(w).amplitudes for w in ("phi+", "phi-", "psi+", "psi-")]
        gram = np.array([[np.vdot(a, b) for b in amps] for a in amps])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_bell_unknown_flavor(self):
        with pytest.raises(DiscohError):
            make_bell("phi*")

    def test_werner_endpoints(self):
        assert np.allclose(make_werner(0.0).mat, np.eye(4) / 4)
        assert np.allclose(make_werner(1.0).mat, bell_dm().mat)

    def test_werner_half_bloch(self):
        rep = bloch_decompose(make_werner(0.5))
        assert np.allclose(rep.T, np.diag([0.5, -0.5, 0.5]), atol=1e-12)

    def test_werner_out_of_range(self):
        with pytest.raises(DiscohError):
            make_werner(1.5)


class TestRandomEnsembles:
    def test_pure_norm(self):
        psi = random_pure((2, 2), seed=0)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_mixed_validates(self):
        random_mixed((2, 2), 4, seed=0)  # constructor runs the checks

    def test_determinism(self):
        assert np.array_equal(random_pure((2, 3), 9).amplitudes, random_pure((2, 3), 9).amplitudes)
        assert np.array_equal(random_mixed((2, 2), 4, 9).mat, random_mixed((2, 2), 4, 9).mat)
        assert np.array_equal(random_unitary(3, 9), random_unitary(3, 9))

    def test_unitary_is_unitary(self):
        u = random_unitary(4, seed=2)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_rank_control(self):
        rho = random_mixed((2, 2), 1, seed=5)
        w = np.linalg.eigvalsh(rho.mat)
        assert np.sum(w > 1e-10) == 1

    def test_classical_state_is_valid_and_deterministic(self):
        rho = random_classical((2, 2), seed=4)
        assert isinstance(rho, DensityMatrix)
        assert np.array_equal(rho.mat, random_classical((2, 2), seed=4).mat)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=20)
    def test_classical_structure(self, seed):
        # eigenbasis is a product basis, so both reduced states commute with
        # the corresponding local projectors; checked downstream via discord,
        # here just confirm spectrum matches the mixing weights (all real, sum 1)
        rho = random_classical((2, 2), seed)
        w = np.linalg.eigvalsh(rho.mat)
        assert np.all(w > -1e-12)
        assert np.sum(w) == pytest.approx(1.0)


class TestChannels:
    def test_gamma_zero_identity(self):
        rho = bell_dm()
        out = apply_channel(rho, phase_damping(0.0, "A"))
        assert np.allclose(out.mat, rho.mat, atol=1e-14)

    def test_full_damp_kills_a_off_diagonals(self):
        out = apply_channel(bell_dm(), phase_damping(1.0, "A"))
        assert np.allclose(out.mat, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_entrywise_scaling(self):
        gamma = 0.3
        rho = random_mixed((2, 2), 4, seed=11)
        out = apply_channel(rho, phase_damping(gamma, "A"))
        scale = np.sqrt(1 - gamma)
        for row in range(4):
            for col in range(4):
                k, kp = divmod(row, 2)
                l, lp = divmod(col, 2)
                expect = rho.mat[row, col] * (scale if k != l else 1.0)
                assert abs(out.mat[row, col] - expect) < 1e-12

    def test_damping_on_b(self):
        gamma = 0.4
        rho = random_mixed((2, 2), 4, seed=12)
        out = apply_channel(rho, phase_damping(gamma, "B"))
        swapped = apply_channel(swap_subsystems(rho), phase_damping(gamma, "A"))
        assert np.allclose(out.mat, swap_subsystems(swapped).mat, atol=1e-13)

    def test_gamma_out_of_range(self):
        with pytest.raises(ChannelError):
            phase_damping(1.2, "A")

    def test_incomplete_kraus_rejected(self):
        e0 = np.diag([1.0, 0.5])
        with pytest.raises(ChannelError):
            KrausChannel((e0,), "A", 0.0)


class TestSchmidt:
    def test_product_state(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = 1.0
        s, _, _ = schmidt_decompose(PureState((2, 2), amp))
        assert s[0] == pytest.approx(1.0)
        assert np.allclose(s[1:], 0.0, atol=1e-12)

    def test_bell(self):
        s, _, _ = schmidt_decompose(make_bell("phi+"))
        assert np.allclose(s, [INV_SQRT2, INV_SQRT2])

    def test_skewed_superposition(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = np.sqrt(0.2)
        amp[3] = np.sqrt(0.8)
        s, _, _ = schmidt_decompose(PureState((2, 2), amp))
        assert np.allclose(s, [np.sqrt(0.8), np.sqrt(0.2)])

    @given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    @settings(deadline=None, max_examples=30)
    def test_reconstruction(self, seed, dims):
        psi = random_pure(dims, seed)
        s, u_a, u_b = schmidt_decompose(psi)
        k = len(s)
        a = (u_a[:, :k] * s) @ u_b[:, :k].conj().T
        assert np.allclose(a.reshape(-1), psi.amplitudes, atol=1e-12)
        assert np.all(np.diff(s) <= 1e-12)


class TestSwap:
    def test_involution(self):
        rho = random_mixed((2, 3), 6, seed=8)
        assert np.allclose(swap_subsystems(swap_subsystems(rho)).mat, rho.mat)

    def test_product_state(self):
        rho_a = random_mixed((1, 2), 2, seed=1).mat
        rho_b = random_mixed((1, 3), 3, seed=2).mat
        joint = DensityMatrix((2, 3), np.kron(rho_a, rho_b))
        assert np.allclose(swap_subsystems(joint).mat, np.kron(rho_b, rho_a), atol=1e-13)


class TestStateFiles:
    def test_round_trip_bitexact(self, tmp_path):
        rho = random_mixed((2, 3), 6, seed=21)
        path = tmp_path / "state.json"
        save_state(rho, path)
        back = load_state(path)
        assert back.dims == rho.dims
        assert np.array_equal(back.mat, rho.mat)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2], "re": np.eye(4).tolist()}))
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        body = {
            "dims": [2, 2],
            "re": [[0.25] + [0.0] * 3] + [[0.0] * 4] * 3,
            "im": [[0.0] * 4] * 4,
        }
        text = json.dumps(body).replace("0.25", "NaN")
        path.write_text(text)
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_dims_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(
            json.dumps({"dims": [2, 3], "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()})
        )
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_invalid_trace_named(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps({"dims": [2, 2], "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()})
        )
        with pytest.raises(TraceError, match="trace"):
            load_state(path)


class TestPureState:
    def test_norm_check(self):
        with pytest.raises(NormalizationError):
            PureState((2, 2), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_to_density(self):
        psi = make_bell("phi+")
        rho = psi.to_density()
        assert rho.purity() == pytest.approx(1.0)
        assert np.allclose(rho.mat, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_matrix_shape(self):
        psi = random_pure((2, 3), seed=1)
        assert psi.matrix().shape == (2, 3)
