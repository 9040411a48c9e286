"""Coherence accounting tests: fixed-basis sums, rotations, basis search."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoh.coherence import (
    MAX,
    MIN,
    OBJECTIVES,
    BasisOptimum,
    ClassContributions,
    LocalBasisPair,
    OptimizerConfig,
    contributions,
    identity_basis,
    maximize_over_bases,
    minimize_over_bases,
    search_bases,
    unitaries_from_params,
)
from discoh import coherence
from discoh.coherence import _anti_diagonal_blocks, _groups, _line_sweep, _rotate, _settled
from discoh.errors import ConsistencyError, DiscohError, ShapeError, UnitarityError
from discoh.nonlocality import direction_basis, v_measures_analytic
from discoh.states import (
    DensityMatrix,
    PureState,
    _swap_parties,
    make_bell,
    make_werner,
    random_mixed,
    random_pure,
    random_unitary,
    schmidt_decompose,
)

FAST = OptimizerConfig(restarts=8, seed=0)


def contributions_loops(rho, u_a, u_b):
    # oracle: literal quadruple loop over the class definitions
    m, n = rho.dims
    big = np.kron(u_a, u_b)
    rot = big @ rho.mat @ big.conj().T
    c1 = c2 = c3 = tilde = total = 0.0
    for k in range(m):
        for kp in range(n):
            for l in range(m):
                for lp in range(n):
                    w = abs(rot[k * n + kp, l * n + lp]) ** 2
                    if k != l:
                        c1 += w
                    if kp != lp:
                        c2 += w
                    # anti-diagonal condition taken literally, center included
                    if k + l == m - 1 and kp + lp == n - 1:
                        c3 += w
                    if (k, kp) != (l, lp):
                        tilde += w
                    if k != l or kp != lp:
                        total += w
                        if k != l and kp != lp:
                            total += w
    return c1, c2, c3, tilde, total


def product_plus_state():
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[1] = 1 / np.sqrt(2)  # |0> x |+>
    return PureState((2, 2), amp).to_density()


class TestContributions:
    def test_maximally_mixed_all_zero(self):
        c = contributions(DensityMatrix((2, 2), np.eye(4) / 4))
        assert (c.class1, c.class2, c.class3, c.tilde_total, c.total) == (0, 0, 0, 0, 0)

    def test_bell_computational(self):
        c = contributions(make_bell("phi+").to_density())
        assert c.class1 == pytest.approx(0.5, abs=1e-12)
        assert c.class2 == pytest.approx(0.5, abs=1e-12)
        assert c.class3 == pytest.approx(0.5, abs=1e-12)
        assert c.tilde_total == pytest.approx(0.5, abs=1e-12)
        assert c.total == pytest.approx(1.0, abs=1e-12)

    def test_product_plus(self):
        c = contributions(product_plus_state())
        assert c.class1 == pytest.approx(0.0, abs=1e-12)
        assert c.class2 == pytest.approx(0.5, abs=1e-12)
        assert c.class3 == pytest.approx(0.0, abs=1e-12)
        assert c.tilde_total == pytest.approx(0.5, abs=1e-12)
        assert c.total == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    @settings(deadline=None, max_examples=30)
    def test_against_loop_oracle(self, seed, dims):
        rho = random_mixed(dims, dims[0] * dims[1], seed)
        u_a = random_unitary(dims[0], seed + 1)
        u_b = random_unitary(dims[1], seed + 2)
        got = contributions(rho, LocalBasisPair(u_a, u_b))
        want = contributions_loops(rho, u_a, u_b)
        for a, b in zip((got.class1, got.class2, got.class3, got.tilde_total, got.total), want):
            assert a == pytest.approx(b, abs=1e-11)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=20)
    def test_class1_ignores_b_side_rotation(self, seed):
        rho = random_mixed((2, 3), 6, seed)
        u_a = random_unitary(2, seed + 1)
        base = contributions(rho, LocalBasisPair(u_a, np.eye(3)))
        rotated = contributions(rho, LocalBasisPair(u_a, random_unitary(3, seed + 2)))
        assert base.class1 == pytest.approx(rotated.class1, abs=1e-11)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=20)
    def test_class2_ignores_a_side_rotation(self, seed):
        rho = random_mixed((3, 2), 6, seed)
        u_b = random_unitary(2, seed + 1)
        base = contributions(rho, LocalBasisPair(np.eye(3), u_b))
        rotated = contributions(rho, LocalBasisPair(random_unitary(3, seed + 2), u_b))
        assert base.class2 == pytest.approx(rotated.class2, abs=1e-11)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=25)
    def test_internal_orderings(self, seed):
        rho = random_mixed((2, 2), 4, seed)
        basis = LocalBasisPair(random_unitary(2, seed + 1), random_unitary(2, seed + 2))
        c = contributions(rho, basis)
        assert c.total == pytest.approx(c.class1 + c.class2, abs=1e-12)
        assert c.tilde_total <= c.total + 1e-12
        # anti-diagonal entries sit in both off-index sets for two qubits
        assert c.class3 <= min(c.class1, c.class2) + 1e-12

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=15)
    def test_row_permutation_invariance(self, seed):
        # the rotated state is U rho U^dag, so the measured vectors are the
        # conjugated rows; permuting rows relabels them, which moves entries
        # around but keeps the index sets of class1/class2/tilde/total.
        # class3 is anchored to positions and may change.
        rho = random_mixed((2, 3), 6, seed)
        u_a = random_unitary(2, seed + 1)
        u_b = random_unitary(3, seed + 2)
        base = contributions(rho, LocalBasisPair(u_a, u_b))
        permuted = contributions(rho, LocalBasisPair(u_a[::-1, :], u_b[[2, 0, 1], :]))
        for name in ("class1", "class2", "tilde_total", "total"):
            assert getattr(base, name) == pytest.approx(getattr(permuted, name), abs=1e-11)

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(UnitarityError):
            LocalBasisPair(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_bad_total_rejected(self):
        with pytest.raises(ConsistencyError):
            ClassContributions(0.1, 0.1, 0.0, 0.1, 0.5)


def random_phases(d, rng):
    return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d)))


class TestUnitaryParameterization:
    @given(st.integers(0, 10**6), st.integers(2, 4))
    @settings(deadline=None, max_examples=30)
    def test_outputs_unitary(self, seed, d):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, size=(5, d * d - d))
        us = unitaries_from_params(theta, d)
        assert us.shape == (5, d, d)
        eye = np.eye(d)
        for u in us:
            assert np.allclose(u @ u.conj().T, eye, atol=1e-10)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_qubit_closed_form_matches_general_path(self, seed):
        # d = 2 goes through an explicit 2x2 exponential; compare against
        # the eigendecomposition route on the same off-diagonal H
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, size=(1, 2))
        u = unitaries_from_params(theta, 2)[0]
        h = np.array(
            [
                [0.0, theta[0, 0] - 1j * theta[0, 1]],
                [theta[0, 0] + 1j * theta[0, 1], 0.0],
            ]
        )
        w, v = np.linalg.eigh(h)
        expected = (v * np.exp(1j * w)) @ v.conj().T
        assert np.allclose(u, expected, atol=1e-10)

    def test_zero_parameters_give_identity(self):
        for d in (2, 3, 4):
            u = unitaries_from_params(np.zeros((1, d * d - d)), d)[0]
            assert np.allclose(u, np.eye(d), atol=1e-12)

    def test_rejects_a_diagonal(self):
        with pytest.raises(ShapeError):
            unitaries_from_params(np.zeros((1, 4)), 2)

    @given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    @settings(deadline=None, max_examples=30)
    def test_class_sums_ignore_diagonal_phases(self, seed, dims):
        # the reason the search can drop the diagonal of H: U -> D U only
        # rephases the rotated entries
        rng = np.random.default_rng(seed)
        rho = random_mixed(dims, dims[0] * dims[1], seed)
        u_a = random_unitary(dims[0], seed + 1)
        u_b = random_unitary(dims[1], seed + 2)
        base = contributions(rho, LocalBasisPair(u_a, u_b))
        phased = contributions(
            rho,
            LocalBasisPair(random_phases(dims[0], rng) @ u_a, random_phases(dims[1], rng) @ u_b),
        )
        for name in OBJECTIVES:
            assert getattr(phased, name) == pytest.approx(getattr(base, name), abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_two_coefficients_reach_every_qubit_direction(self, seed):
        # direction_basis(p) for p at polar angle t and azimuth f has rows
        # (cos t/2, sin t/2 e^{-if}) and (-sin t/2 e^{if}, cos t/2); with
        # b2 + i b1 = r e^{ia}, exp(i(b1 sx + b2 sy)) has rows
        # (cos r, sin r e^{ia}) and (-sin r e^{-ia}, cos r), so r = t/2, a = -f
        rng = np.random.default_rng(seed)
        rho = random_mixed((2, 2), 4, seed)

        def params(p):
            t = np.arccos(np.clip(p[2], -1.0, 1.0))
            f = np.arctan2(p[1], p[0])
            return np.array([-0.5 * t * np.sin(f), 0.5 * t * np.cos(f)])

        p1, p2 = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)))
        want = contributions(rho, LocalBasisPair(direction_basis(p1), direction_basis(p2)))
        u = unitaries_from_params(np.stack([params(p1), params(p2)]), 2)
        got = contributions(rho, LocalBasisPair(u[0], u[1]))
        for name in OBJECTIVES:
            assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)


class TestBasisSearch:
    def test_product_state_class1_vanishes(self):
        rho = product_plus_state()
        opt = minimize_over_bases(rho, "class1", FAST)
        assert opt.value < 1e-9
        assert opt.objective == "class1"

    def test_bell_class1_half(self):
        opt = minimize_over_bases(make_bell("phi+").to_density(), "class1", FAST)
        assert opt.value == pytest.approx(0.5, abs=1e-7)

    def test_werner_class3_extrema(self):
        rho = make_werner(0.6)
        low = minimize_over_bases(rho, "class3", FAST)
        high = maximize_over_bases(rho, "class3", FAST)
        assert low.value == pytest.approx(0.6**2 / 4, abs=1e-7)
        assert high.value == pytest.approx(0.6**2 / 2, abs=1e-7)

    def test_bell_tilde_total_half(self):
        opt = minimize_over_bases(make_bell("phi+").to_density(), "tilde_total", FAST)
        assert opt.value == pytest.approx(0.5, abs=1e-7)

    def test_optimum_attained_by_reported_basis(self):
        # a class2 basis is found on the swapped state and must be swapped back
        jobs = [
            (random_mixed(dims, 4, seed=23), objective, sense)
            for dims in ((2, 2), (2, 3), (3, 2), (3, 3))
            for objective in OBJECTIVES
            for sense in (MIN, MAX)
        ]
        config = OptimizerConfig(restarts=4, seed=0, max_iterations=300)
        for (rho, objective, sense), opt in zip(jobs, search_bases(jobs, config)):
            assert opt.objective == objective
            here = getattr(contributions(rho, opt.basis), objective)
            assert here == pytest.approx(opt.value, abs=1e-12), (rho.dims, objective, sense)

    def test_every_restart_reaches_werner_optimum(self):
        # the Werner class sums are the same along every local direction
        opt = minimize_over_bases(make_werner(0.6), "class1", FAST)
        assert opt.restarts_at_best == FAST.restarts

    def test_deterministic(self):
        # a one-sided search, and a two-sided one on unequal dims
        for dims, objective in (((2, 2), "class1"), ((2, 3), "tilde_total")):
            rho = random_mixed(dims, 4, seed=31)
            a = minimize_over_bases(rho, objective, OptimizerConfig(restarts=4, seed=5))
            b = minimize_over_bases(rho, objective, OptimizerConfig(restarts=4, seed=5))
            assert np.array_equal(a.basis.u_a, b.basis.u_a)
            assert np.array_equal(a.basis.u_b, b.basis.u_b)
            assert replace(a, basis=None) == replace(b, basis=None)

    def test_seed_changes_search_path(self):
        rho = random_mixed((2, 2), 4, seed=31)
        a = minimize_over_bases(rho, "class1", OptimizerConfig(restarts=2, seed=5))
        b = minimize_over_bases(rho, "class1", OptimizerConfig(restarts=2, seed=6))
        # same optimum, generally different evaluation counts
        assert a.value == pytest.approx(b.value, abs=1e-7)

    def test_one_level_sides_leave_nothing_to_search(self):
        # a one-level side has no off-diagonal generator, so these searches
        # have no coefficients and return the computational-basis value
        for dims, objective in (((1, 2), "class1"), ((2, 1), "class2"), ((1, 1), "class3")):
            rho = random_pure(dims, seed=4).to_density()
            opt = maximize_over_bases(rho, objective, FAST)
            assert opt.value == getattr(contributions(rho), objective)
            assert opt.converged and opt.iterations == 0

    def test_unknown_objective(self):
        with pytest.raises(DiscohError):
            minimize_over_bases(make_werner(0.3), "class7", FAST)

    def test_config_validation(self):
        with pytest.raises(DiscohError):
            OptimizerConfig(restarts=0)
        with pytest.raises(DiscohError):
            OptimizerConfig(objective_tolerance=-1.0)
        with pytest.raises(DiscohError, match="seed"):
            OptimizerConfig(seed=-1)  # numpy's generators take no negative seed

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan")])
    def test_config_rejects_non_finite_tolerance(self, tolerance):
        # an infinite tolerance would count every restart converged at its start
        with pytest.raises(DiscohError, match="finite"):
            OptimizerConfig(objective_tolerance=tolerance)

    def test_non_square_dims_search(self):
        rho = random_pure((2, 3), seed=2).to_density()
        opt = minimize_over_bases(rho, "class1", FAST)
        assert isinstance(opt, BasisOptimum)
        assert 0.0 <= opt.value <= contributions(rho).class1 + 1e-9


BATCH_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (1, 2))


def every_job(seed):
    """Every objective and sense on a random mixed state of each of BATCH_DIMS."""
    jobs = []
    for k, dims in enumerate(BATCH_DIMS):
        rho = random_mixed(dims, dims[0] * dims[1], seed + k)
        jobs += [(rho, objective, sense) for objective in OBJECTIVES for sense in (MIN, MAX)]
    return jobs


def assert_same_optimum(a, b):
    assert np.array_equal(a.basis.u_a, b.basis.u_a)
    assert np.array_equal(a.basis.u_b, b.basis.u_b)
    assert replace(a, basis=None) == replace(b, basis=None)


def count_search_calls(monkeypatch):
    """Jobs of each call of the search loop, as a list filled in later."""
    calls = []
    search = coherence._search_group

    def run(jobs, *args):
        calls.append(len(jobs))
        return search(jobs, *args)

    monkeypatch.setattr(coherence, "_search_group", run)
    return calls


def line_swept(objective, dims):
    """Whether a job is class3 off two qubits, which line sweeps search."""
    return objective == "class3" and dims != (2, 2)


class TestBatchedSearch:
    @pytest.mark.parametrize(
        "config",
        [
            OptimizerConfig(restarts=1, seed=2),
            OptimizerConfig(restarts=8, seed=0, max_iterations=150),
            OptimizerConfig(restarts=8, seed=0, max_iterations=10),
        ],
    )
    def test_batched_equals_alone(self, config):
        jobs = every_job(40)
        order = np.random.default_rng(1).permutation(len(jobs))  # groups interleave
        jobs = [jobs[i] for i in order]
        batched = search_bases(jobs, config)
        for job, got in zip(jobs, batched):
            assert got.objective == job[1]
            assert_same_optimum(got, search_bases([job], config)[0])
        if config.max_iterations == 10:
            assert any(opt.iterations == 10 and not opt.converged for opt in batched)

    def test_one_search_call_per_dims_and_objective(self, monkeypatch):
        # class1 and class2 share a batch on square dims, whatever their sense;
        # the two-sided jobs batch by dims and objective, class3 off two qubits
        # included
        calls = count_search_calls(monkeypatch)
        qubits, qutrits = random_mixed((2, 2), 4, seed=3), random_mixed((3, 3), 9, seed=3)
        jobs = [(qubits, "class1", MIN), (qutrits, "class2", MIN), (qubits, "class2", MAX)]
        jobs += [(qutrits, "class1", MIN), (qubits, "class3", MIN), (qubits, "tilde_total", MIN)]
        jobs += [(qutrits, "class3", MAX), (qubits, "class3", MAX), (qutrits, "tilde_total", MIN)]
        search_bases(jobs, OptimizerConfig(restarts=2, max_iterations=5))
        assert calls == [2, 2, 2, 1, 1, 1]

    def test_row_cap_splits_a_group_without_changing_results(self, monkeypatch):
        jobs = every_job(70)
        config = OptimizerConfig(restarts=3, seed=1, max_iterations=100)
        whole = search_bases(jobs, config)
        calls = count_search_calls(monkeypatch)
        monkeypatch.setattr(coherence, "MAX_ROWS", config.restarts)  # one job a call
        for a, b in zip(whole, search_bases(jobs, config)):
            assert_same_optimum(a, b)
        assert any(line_swept(objective, rho.dims) for rho, objective, _ in jobs)
        assert calls == [1] * len(jobs)

    def test_unknown_sense(self):
        with pytest.raises(DiscohError):
            search_bases([(make_werner(0.3), "class1", "sideways")], FAST)

    def test_objective_values_do_not_depend_on_the_rest_of_the_block(self):
        # a line sweep of a class3 group off two qubits, on either side, gives
        # each row the unitary it gets in any split of the block
        rng = np.random.default_rng(5)
        groups = _groups(every_job(60))
        assert sum(line_swept(objective, dims) for dims, objective in groups) == 4
        for (dims, objective), members in groups.items():
            if not line_swept(objective, dims):
                continue
            m, n = dims
            mats = np.stack([rho.mat for _, (rho, _, _) in members])
            rows = rng.permutation(np.repeat(np.arange(len(mats)), 12))
            ua = np.stack([random_unitary(m, 400 + k) for k in range(rows.size)])
            ub = np.stack([random_unitary(n, 500 + k) for k in range(rows.size)])
            rot = _rotate(ua, ub, mats[rows])
            top = rng.random(rows.size) < 0.5
            cuts = np.sort(rng.choice(np.arange(1, rows.size), size=6, replace=False))
            for x, u in (
                (_anti_diagonal_blocks(rot, m, n), ua),
                (_anti_diagonal_blocks(_swap_parties(rot, m, n), n, m), ub),
            ):
                x = np.ascontiguousarray(x)
                whole, before = u.copy(), x.copy()
                _line_sweep(x, whole, top)
                assert np.array_equal(x, before), dims  # x is only read
                for parts in (np.split(np.arange(rows.size), cuts), np.arange(rows.size)[:, None]):
                    for part in parts:
                        split = u[part]
                        _line_sweep(x[part], split, top[part])
                        assert np.array_equal(split, whole[part]), dims


def gell_mann(d):
    """Generalized Gell-Mann matrices of dimension d, normalized tr(l_i l_j) = 2 delta_ij."""
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            mats += [sym, anti]
    for level in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.arange(level), np.arange(level)] = 1.0
        diag[level, level] = -level
        mats.append(diag * np.sqrt(2.0 / (level * (level + 1))))
    return mats


def class1_bound(rho):
    """Closed-form lower bound on min class1, exact when side A is a qubit.

    With x_i = (m/2) tr(rho l_i x I) and T_ij = (mn/4) tr(rho l_i x l_j):
    d >= 2/(m^2 n) (|x|^2 + (2/n)|T|^2 - the m - 1 largest eigenvalues of
    x x^T + (2/n) T T^T) (Luo & Fu, PRA 82, 034302 (2010), for m = 2).
    """
    m, n = rho.dims
    side_a, side_b = gell_mann(m), gell_mann(n)
    x = np.array([m / 2 * np.trace(rho.mat @ np.kron(a, np.eye(n))).real for a in side_a])
    t = np.array(
        [[m * n / 4 * np.trace(rho.mat @ np.kron(a, b)).real for b in side_b] for a in side_a]
    )
    eta = np.linalg.eigvalsh(np.outer(x, x) + 2 / n * t @ t.T)  # ascending
    return 2 / (m * m * n) * (x @ x + 2 / n * np.sum(t * t) - eta[len(eta) - (m - 1) :].sum())


class TestExactOneSidedOptima:
    """Checks of the one-sided minima that do not run the search under test."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (4, 4)])
    def test_pure_state_minima_follow_the_schmidt_coefficients(self, dims):
        for seed in range(3):
            psi = random_pure(dims, seed=50 + seed)
            s = schmidt_decompose(psi)[0]
            want = 1.0 - float(np.sum(s**4))
            rho = psi.to_density()
            low_a, low_b = search_bases([(rho, "class1", MIN), (rho, "class2", MIN)])
            assert low_a.value == pytest.approx(want, abs=1e-12), (dims, seed)
            assert low_b.value == pytest.approx(want, abs=1e-12), (dims, seed)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4)])
    def test_qubit_side_minimum_equals_the_gell_mann_closed_form(self, dims):
        for seed in range(4):
            rho = random_mixed(dims, 3, seed=60 + seed)
            opt = minimize_over_bases(rho, "class1")
            assert opt.value == pytest.approx(class1_bound(rho), abs=1e-10), (dims, seed)

    @pytest.mark.parametrize("dims", [(3, 2), (3, 3)])
    def test_qudit_side_minimum_respects_the_gell_mann_bound(self, dims):
        for seed in range(4):
            rho = random_mixed(dims, 3, seed=70 + seed)
            assert minimize_over_bases(rho, "class1").value >= class1_bound(rho) - 1e-12

    def test_bound_is_the_two_qubit_closed_form(self):
        from discoh.discord import discord_ab_analytic

        rho = random_mixed((2, 2), 3, seed=80)
        assert class1_bound(rho) == pytest.approx(discord_ab_analytic(rho)[0], abs=1e-12)


class TestJacobiSteps:
    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
    def test_more_sweeps_never_move_the_optimum_back(self, dims):
        for seed in range(3):
            rho = random_mixed(dims, 4, seed=90 + seed)
            low, high = [], []
            for sweeps in range(1, 7):
                config = OptimizerConfig(restarts=1, max_iterations=sweeps)
                a, b = search_bases([(rho, "class1", MIN), (rho, "class1", MAX)], config)
                assert a.iterations <= sweeps and b.iterations <= sweeps
                low.append(a.value)
                high.append(b.value)
            assert all(later <= earlier for earlier, later in zip(low, low[1:])), low
            assert all(later >= earlier for earlier, later in zip(high, high[1:])), high

    def test_cap_before_the_tolerance_is_not_converged(self):
        rho = random_mixed((3, 3), 4, seed=93)
        config = OptimizerConfig(restarts=1, max_iterations=1, objective_tolerance=1e-300)
        for sense in (MIN, MAX):
            opt = search_bases([(rho, "class1", sense)], config)[0]
            assert not opt.converged
            assert (opt.iterations, opt.evaluations) == (1, 3)  # one sweep of three pairs


class TestExactTwoSidedOptima:
    """Checks of the two-sided optima that do not run the search under test."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (4, 4)])
    def test_pure_state_tilde_total_minimum_is_half_the_squared_concurrence(self, dims):
        # the Schmidt basis reaches the lower bound max(d_ab, d_ba) = c^2 / 2 =
        # 1 - sum s^4; a Jacobi row stops within about its tolerance of its limit
        config = OptimizerConfig(objective_tolerance=1e-12)
        for seed in range(3):
            psi = random_pure(dims, seed=50 + seed)
            want = 1.0 - float(np.sum(schmidt_decompose(psi)[0] ** 4))
            opt = minimize_over_bases(psi.to_density(), "tilde_total", config)
            assert opt.value == pytest.approx(want, abs=1e-10), (dims, seed)

    def test_two_qubit_class3_extrema_equal_the_closed_forms(self):
        states = [random_mixed((2, 2), 4, seed=300 + k) for k in range(40)]
        optima = search_bases([(rho, "class3", sense) for rho in states for sense in (MIN, MAX)])
        for k, rho in enumerate(states):
            v, v_tilde = v_measures_analytic(rho)
            assert optima[2 * k].value == pytest.approx(v, abs=1e-8), k
            assert optima[2 * k + 1].value == pytest.approx(v_tilde, abs=1e-8), k

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_tilde_total_minimum_sits_between_the_one_sided_minima(self, dims):
        for seed in range(3):
            rho = random_mixed(dims, 3, seed=310 + seed)
            jobs = [(rho, objective, MIN) for objective in ("class1", "class2", "tilde_total")]
            d_ab, d_ba, d_tilde = (opt.value for opt in search_bases(jobs))
            assert max(d_ab, d_ba) - 1e-12 <= d_tilde <= d_ab + d_ba + 1e-12, (dims, seed)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_total_extrema_are_the_sums_of_the_one_sided_extrema(dims):
    # total(U_A, U_B) = class1(U_A) + class2(U_B): the two-sided search of
    # total and the one-sided searches of class1 and class2 meet
    states = [random_mixed(dims, 3, 110 + k) for k in range(3)]
    states += [random_pure(dims, 210 + k).to_density() for k in range(3)]
    tol = OptimizerConfig().objective_tolerance
    for sense in (MIN, MAX):
        jobs = [(rho, obj, sense) for rho in states for obj in ("class1", "class2", "total")]
        optima = search_bases(jobs)
        for k in range(len(states)):
            class1, class2, total = (opt.value for opt in optima[3 * k : 3 * k + 3])
            assert total == pytest.approx(class1 + class2, abs=tol), (sense, k)


def schmidt_basis(psi, relabel=None):
    """The product basis that writes psi as sum_i s_i |i>|relabel^-1(i)>.

    With a = u_a diag(s) u_b^dag from schmidt_decompose, U_A = u_a^dag and
    U_B = P u_b^T turn the coefficient matrix into diag(s) P^T, P being the
    permutation that takes row relabel[r] to row r.
    """
    _, u_a, u_b = schmidt_decompose(psi)
    u_b = u_b.T if relabel is None else u_b.T[list(relabel)]
    return LocalBasisPair(u_a.conj().T, u_b)


class TestExactClass3Minima:
    """min class3 of a pure state is 0: a basis that no search found shows it."""

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 2), (4, 2)])
    def test_the_schmidt_basis_of_a_qubit_qudit_state_has_no_class3(self, dims):
        # the nonzero entries have k' = k and l' = l, so k + l = k' + l', while
        # the anti-diagonals need 1 on the qubit side and at least 2 on the other
        for seed in range(3):
            psi = random_pure(dims, seed=340 + seed)
            assert contributions(psi.to_density(), schmidt_basis(psi)).class3 < 1e-15

    def test_a_relabelled_schmidt_basis_of_a_qutrit_pair_has_no_class3(self):
        # sum_i s_i |i>|pi(i)> with pi = (1 0 2): no (k, l) with k + l = 2 has
        # pi(k) + pi(l) = 2, so no nonzero entry is on both anti-diagonals
        for seed in range(3):
            psi = random_pure((3, 3), seed=350 + seed)
            plain = contributions(psi.to_density(), schmidt_basis(psi)).class3
            relabelled = contributions(psi.to_density(), schmidt_basis(psi, (1, 0, 2))).class3
            assert plain > 1e-3 and relabelled < 1e-15

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 2)])
    def test_the_search_reaches_zero_on_qubit_qudit_pure_states(self, dims):
        for seed in range(3):
            rho = random_pure(dims, seed=340 + seed).to_density()
            assert minimize_over_bases(rho, "class3").value <= 1e-9, (dims, seed)


class TestAlternatingSteps:
    @pytest.mark.parametrize(
        "dims, objective, senses",
        [
            ((2, 2), "class3", (MIN, MAX)),
            ((3, 3), "tilde_total", (MIN,)),
            ((2, 3), "class3", (MIN, MAX)),
            ((3, 3), "class3", (MIN, MAX)),
        ],
    )
    def test_more_alternations_never_move_the_optimum_back(self, dims, objective, senses):
        for seed in range(3):
            rho = random_mixed(dims, 4, seed=320 + seed)
            values = {sense: [] for sense in senses}
            for alternations in range(1, 7):
                config = OptimizerConfig(restarts=1, max_iterations=alternations)
                for sense in senses:
                    opt = search_bases([(rho, objective, sense)], config)[0]
                    assert opt.iterations <= alternations
                    values[sense].append(opt.value)
            for sense, seen in values.items():
                step = 1.0 if sense == MIN else -1.0
                assert all(step * (later - earlier) <= 0.0 for earlier, later in zip(seen, seen[1:]))

    @pytest.mark.parametrize(
        "dims, objective, steps",
        [
            ((2, 2), "class3", 2),
            ((3, 3), "tilde_total", 6),
            ((2, 3), "class3", 8),  # two line steps on each of 1 + 3 pairs
            ((3, 3), "class3", 12),
        ],
    )
    def test_cap_before_the_tolerance_is_not_converged(self, dims, objective, steps):
        rho = random_mixed(dims, 4, seed=330)
        config = OptimizerConfig(restarts=1, max_iterations=1, objective_tolerance=1e-300)
        for sense in (MIN, MAX):
            opt = search_bases([(rho, objective, sense)], config)[0]
            assert not opt.converged
            assert (opt.iterations, opt.evaluations) == (1, steps)  # a sweep on each side


class TestStopRule:
    def test_a_slow_row_waits_for_its_tail(self):
        # moves shrinking by 0.9 leave nine times the last move to go
        last = np.array([2e-10, 1e-10]) / 0.9
        assert list(_settled(np.array([2e-10, 1e-10]), last, 1e-9)) == [False, True]

    def test_a_fast_row_still_waits_for_a_small_move(self):
        assert list(_settled(np.array([2e-9, 1e-9]), np.array([1.0, 1.0]), 1e-9)) == [False, True]

    def test_first_move_and_rounding_level_moves(self):
        # before any move only the move counts; growing moves at the level of
        # rounding still settle, as their ratio is capped
        assert _settled(np.array([1e-9]), np.array([np.inf]), 1e-9)[0]
        assert _settled(np.array([1e-17]), np.array([1e-18]), 1e-9)[0]

    def test_slowly_contracting_maximum_stops_within_the_tolerance(self):
        # a row that contracts slowly stopped 2.3e-9 short when one sweep's
        # move alone decided
        rho = random_mixed((3, 3), 3, 101)
        loose = maximize_over_bases(rho, "class2")
        tight = maximize_over_bases(rho, "class2", OptimizerConfig(objective_tolerance=1e-12))
        assert tight.value - 1e-9 <= loose.value <= tight.value + 1e-12


def test_objectives_tuple_is_public_contract():
    assert OBJECTIVES == ("class1", "class2", "class3", "tilde_total", "total")


def test_identity_basis_shapes():
    basis = identity_basis(2, 3)
    assert basis.u_a.shape == (2, 2)
    assert basis.u_b.shape == (3, 3)
