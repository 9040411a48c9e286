"""Discord measure tests: closed forms, numeric routes, combined report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoh import measures
from discoh.coherence import MIN, OptimizerConfig, minimize_over_bases, search_bases
from discoh.discord import (
    DiscordReport,
    MeasurementDirection,
    discord_ab_analytic,
    discord_ba_analytic,
)
from discoh.entanglement import concurrence_pure
from discoh.errors import ConsistencyError, DiscohError, NormalizationError, UnsupportedDimensionError
from discoh.measures import discord_report, evaluate
from discoh.states import (
    DensityMatrix,
    PureState,
    bloch_decompose,
    make_bell,
    make_werner,
    random_classical,
    random_mixed,
    random_pure,
    random_unitary,
)

FAST = OptimizerConfig(restarts=8, seed=0)


def d_sym(rho, method="analytic", config=None):
    (record,) = evaluate(rho, ["d_sym"], method, config)
    return record["value"]


def product_plus_state():
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[1] = 1 / np.sqrt(2)
    return PureState((2, 2), amp).to_density()


class TestAnalytic:
    def test_bell(self):
        value, direction = discord_ab_analytic(make_bell("phi+").to_density())
        assert value == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(direction.p) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert discord_ab_analytic(DensityMatrix((2, 2), np.eye(4) / 4))[0] == 0.0

    def test_werner_family(self):
        for p in (0.1, 0.5, 0.9):
            rho = make_werner(p)
            assert discord_ab_analytic(rho)[0] == pytest.approx(p**2 / 2, abs=1e-12)
            assert discord_ba_analytic(rho)[0] == pytest.approx(p**2 / 2, abs=1e-12)

    def test_product_state_zero_both_ways(self):
        rho = product_plus_state()
        assert discord_ab_analytic(rho)[0] == pytest.approx(0.0, abs=1e-12)
        assert discord_ba_analytic(rho)[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_two_qubit(self):
        rho = random_pure((2, 3), seed=1).to_density()
        with pytest.raises(UnsupportedDimensionError):
            discord_ab_analytic(rho)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_nonnegative_and_bounded(self, seed):
        rho = random_mixed((2, 2), 4, seed)
        d_ab = discord_ab_analytic(rho)[0]
        d_ba = discord_ba_analytic(rho)[0]
        assert 0.0 <= d_ab <= 1.0
        assert 0.0 <= d_ba <= 1.0


class TestNumeric:
    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=8)
    def test_matches_analytic(self, seed):
        rho = random_mixed((2, 2), 4, seed)
        got_ab = minimize_over_bases(rho, "class1", FAST)
        got_ba = minimize_over_bases(rho, "class2", FAST)
        assert got_ab.value == pytest.approx(discord_ab_analytic(rho)[0], abs=1e-6)
        assert got_ba.value == pytest.approx(discord_ba_analytic(rho)[0], abs=1e-6)

    def test_works_beyond_two_qubits(self):
        rho = random_pure((2, 3), seed=4).to_density()
        opt = minimize_over_bases(rho, "class1", FAST)
        assert opt.value >= 0.0


class TestSymmetric:
    def test_bell(self):
        assert d_sym(make_bell("phi+").to_density()) == pytest.approx(1.0, abs=1e-12)

    def test_classical_zero(self):
        rho = random_classical((2, 2), seed=6)
        assert d_sym(rho) == pytest.approx(0.0, abs=1e-9)

    def test_werner(self):
        assert d_sym(make_werner(0.4)) == pytest.approx(0.16, abs=1e-12)

    def test_numeric_method(self):
        rho = make_werner(0.4)
        value = d_sym(rho, method="numeric", config=FAST)
        assert value == pytest.approx(0.16, abs=1e-6)

    def test_unknown_method(self):
        with pytest.raises(DiscohError):
            d_sym(make_werner(0.4), method="magic")


class TestTwoSide:
    def test_bell_half(self):
        opt = minimize_over_bases(make_bell("phi+").to_density(), "tilde_total", FAST)
        assert opt.value == pytest.approx(0.5, abs=1e-6)

    def test_maximally_mixed_zero(self):
        opt = minimize_over_bases(DensityMatrix((2, 2), np.eye(4) / 4), "tilde_total", FAST)
        assert opt.value == pytest.approx(0.0, abs=1e-9)

    def test_product_state_zero(self):
        opt = minimize_over_bases(product_plus_state(), "tilde_total", FAST)
        assert opt.value == pytest.approx(0.0, abs=1e-9)

    def test_pure_states_give_half_the_squared_concurrence(self):
        # on a pure state d_tilde = c^2 / 2 on any dims, as d_ab and d_ba are
        psis = [
            random_pure(dims, seed)
            for dims in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))
            for seed in (600, 601, 602)
        ]
        optima = search_bases([(psi.to_density(), "tilde_total", MIN) for psi in psis])
        for psi, opt in zip(psis, optima):
            assert opt.value == pytest.approx(concurrence_pure(psi) ** 2 / 2, abs=1e-8), psi.dims

    @pytest.mark.parametrize("seed", range(8))
    def test_no_local_bloch_vectors_close_the_bracket(self, seed):
        # with x = y = 0 both one-sided measures are (|T|^2 - s_max(T)^2) / 4,
        # and the bracket max(d_ab, d_ba) <= d_tilde <= d_ab + d_ba closes on it
        rng = np.random.default_rng(700 + seed)
        bells = [make_bell(which).amplitudes for which in ("phi+", "phi-", "psi+", "psi-")]
        mat = sum(w * np.outer(b, b.conj()) for w, b in zip(rng.dirichlet(np.ones(4)), bells))
        u = np.kron(random_unitary(2, 2 * seed), random_unitary(2, 2 * seed + 1))
        rho = DensityMatrix((2, 2), u @ mat @ u.conj().T)
        rep = bloch_decompose(rho)
        assert np.abs(rep.x).max() < 1e-12 and np.abs(rep.y).max() < 1e-12
        d_tilde = minimize_over_bases(rho, "tilde_total").value
        assert d_tilde == pytest.approx(discord_ab_analytic(rho)[0], abs=1e-8)
        assert d_tilde == pytest.approx(discord_ba_analytic(rho)[0], abs=1e-8)


class TestReport:
    def test_auto_on_two_qubits_is_analytic(self):
        rep = discord_report(make_werner(0.6), config=FAST)
        assert rep.method == "analytic"
        assert rep.d_sym == pytest.approx(rep.d_ab + rep.d_ba, abs=1e-12)
        assert rep.d_tilde is not None
        assert max(rep.d_ab, rep.d_ba) <= rep.d_tilde + 1e-9

    def test_without_two_side(self):
        rep = discord_report(make_werner(0.6), config=FAST, include_two_side=False)
        assert rep.d_tilde is None

    def test_numeric_method_requested(self):
        rep = discord_report(make_werner(0.3), method="numeric", config=FAST)
        assert rep.method == "numeric"
        assert rep.d_ab == pytest.approx(0.045, abs=1e-6)

    def test_analytic_beyond_two_qubits_fails_before_searching(self, monkeypatch):
        monkeypatch.setattr(measures, "search_bases", lambda *a: pytest.fail("searched"))
        rho = random_pure((2, 3), seed=9).to_density()
        with pytest.raises(UnsupportedDimensionError, match="d_ab closed form"):
            discord_report(rho, method="analytic", config=FAST)

    def test_numeric_report_runs_one_batched_search(self, monkeypatch):
        calls = []
        search = measures.search_bases

        def counted(jobs, config):
            calls.append([objective for _, objective, _ in jobs])
            return search(jobs, config)

        monkeypatch.setattr(measures, "search_bases", counted)
        rep = discord_report(make_werner(0.3), method="numeric", config=FAST)
        assert calls == [["class1", "class2", "tilde_total"]]
        assert rep.d_sym == rep.d_ab + rep.d_ba

    def test_auto_beyond_two_qubits_goes_numeric(self):
        rho = random_pure((2, 3), seed=9).to_density()
        rep = discord_report(rho, config=FAST, include_two_side=False)
        assert rep.method == "numeric"

    def test_sandwich_enforced_at_construction(self):
        with pytest.raises(ConsistencyError):
            DiscordReport(d_ab=0.4, d_ba=0.3, d_sym=0.7, d_tilde=0.1, method="numeric")

    def test_sandwich_allows_search_tolerance(self):
        # a numeric d_tilde and d_ba both stop within 1e-9 of their optima, so
        # on a pure state, where they are equal, d_tilde may land just below
        d_ba = 0.25713304521
        report = DiscordReport(
            d_ab=d_ba, d_ba=d_ba, d_sym=2 * d_ba, d_tilde=d_ba - 4e-10, method="numeric"
        )
        assert report.d_tilde < max(report.d_ab, report.d_ba)

    def test_sum_enforced_at_construction(self):
        with pytest.raises(ConsistencyError):
            DiscordReport(d_ab=0.4, d_ba=0.3, d_sym=0.5, d_tilde=None, method="analytic")


class TestMeasureTable:
    def test_analytic_evaluate_runs_each_closed_form_once(self, monkeypatch):
        # d_sym reuses the d_ab and d_ba values, v_tilde the call that gave v
        closed_forms = ("discord_ab_analytic", "discord_ba_analytic")
        closed_forms += ("v_measures_analytic", "chsh_violation")
        calls = []

        def counted(name, closed):
            return lambda rho: calls.append(name) or closed(rho)

        for name in closed_forms:
            monkeypatch.setattr(measures, name, counted(name, getattr(measures, name)))
        records = evaluate(random_mixed((2, 2), 3, 5), ["all"], "analytic")
        names = [record["measure"] for record in records]
        assert names == ["d_ab", "d_ba", "d_sym", "v", "v_tilde", "chsh", "concurrence"]
        assert sorted(calls) == sorted(closed_forms)

    def test_records_of_many_states_run_one_search_state_by_state(self, monkeypatch):
        calls = []
        search = measures.search_bases

        def counted(jobs, config):
            calls.append([(rho.dims, objective, sense) for rho, objective, sense in jobs])
            return search(jobs, config)

        monkeypatch.setattr(measures, "search_bases", counted)
        states = [make_werner(0.4), random_mixed((2, 3), 3, 8)]
        requests = [("d_sym", "numeric"), ("v", "numeric"), ("d_ab", "numeric")]
        together = measures.records([measures.Evaluation(rho) for rho in states], requests, FAST)
        keys = [("class1", "min"), ("class2", "min"), ("class3", "min")]
        assert calls == [[(rho.dims, *key) for rho in states for key in keys]]
        alone = [measures.records([measures.Evaluation(rho)], requests, FAST)[0] for rho in states]
        assert together == alone


class TestMeasurementDirection:
    def test_unit_ok(self):
        d = MeasurementDirection(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(d.p, [0, 0, 1])

    def test_rejects_non_unit(self):
        with pytest.raises(NormalizationError):
            MeasurementDirection(np.array([0.0, 0.0, 2.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(DiscohError):
            MeasurementDirection(np.array([1.0, 0.0]))
