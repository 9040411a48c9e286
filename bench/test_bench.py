"""Tests of the benchmark itself: the reference, the output checks and the tracer.

    python3 -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
from checks import CheckFailed, StateFacts

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
BELL_RHO = np.outer(BELL, BELL).astype(complex)
ZERO_ZERO = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
PLUS_ZERO = np.kron(np.full((2, 2), 0.5), np.diag([1.0, 0.0])).astype(complex)


# -- the reference on states worked out by hand ------------------------------


def test_bell_state_by_hand():
    x, y, t = ref.bloch(BELL_RHO)
    assert np.allclose(x, 0) and np.allclose(y, 0)
    assert np.allclose(t, np.diag([1.0, -1.0, 1.0]))
    assert ref.d_ab(BELL_RHO) == pytest.approx(0.5, abs=1e-15)
    assert ref.d_ba(BELL_RHO) == pytest.approx(0.5, abs=1e-15)
    assert ref.v_pair(BELL_RHO) == pytest.approx((0.25, 0.5), abs=1e-15)
    assert ref.horodecki_m(BELL_RHO) == pytest.approx(2.0, abs=1e-15)
    assert ref.concurrence_2q(BELL_RHO) == pytest.approx(1.0, abs=1e-12)
    assert ref.pure_c_squared(BELL, (2, 2)) == pytest.approx(1.0, abs=1e-15)
    assert ref.d_tilde(BELL_RHO) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("rho", [ZERO_ZERO, PLUS_ZERO])
def test_product_states_by_hand(rho):
    x, y, t = ref.bloch(rho)
    assert np.allclose(t, np.outer(x, y))
    for value in (ref.d_ab(rho), ref.d_ba(rho), ref.d_tilde(rho), ref.concurrence_2q(rho)):
        assert value == pytest.approx(0.0, abs=1e-12)
    # T = x y^t has the single singular value |x||y| = 1
    assert ref.v_pair(rho) == pytest.approx((0.0, 0.25), abs=1e-15)
    assert ref.horodecki_m(rho) == pytest.approx(1.0, abs=1e-15)
    assert ref.pure_c_squared(ref.dominant_vector(rho), (2, 2)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 1.0 / math.sqrt(2.0), 0.9, 1.0])
def test_werner_values_match_the_general_formulas(p):
    rho = ref.werner_matrix(p)
    want = ref.werner_values(p)
    assert ref.d_ab(rho) == pytest.approx(want["d_ab"], abs=1e-14)
    assert ref.d_ba(rho) == pytest.approx(want["d_ba"], abs=1e-14)
    assert ref.v_pair(rho) == pytest.approx((want["v"], want["v_tilde"]), abs=1e-14)
    assert ref.horodecki_m(rho) == pytest.approx(want["horodecki_m"], abs=1e-14)
    assert ref.concurrence_2q(rho) == pytest.approx(want["concurrence"], abs=1e-7)
    assert ref.d_tilde(rho) == pytest.approx(want["d_ab"], abs=1e-14)


def test_pure_c_squared_is_twice_the_linear_entropy():
    amp = ref.random_pure(np.random.default_rng(3), (3, 3))
    rho_a = np.einsum("ij,kj->ik", amp.reshape(3, 3), amp.reshape(3, 3).conj())
    assert ref.pure_c_squared(amp, (3, 3)) == pytest.approx(2.0 * (1.0 - ref.purity(rho_a)), abs=1e-14)


# -- every check passes on reference outputs and fails on a 1e-4 change ------

PERTURB = 1e-4


def _mixed_state():
    return ref.random_mixed(np.random.default_rng(11), 4, 4)


def _records_2q(rho, expected):
    facts = StateFacts(rho, (2, 2))
    x, _, t = ref.bloch(rho)
    exact = facts.exact
    records = []
    for measure, method in expected:
        detail = {}
        if measure in exact:
            value = exact[measure]
            if method == "numeric":  # a search lands just inside the exact extremum
                value += -1e-9 if measure == "v_tilde" else 1e-9
            if method == "analytic" and measure in ("d_ab", "d_ba"):
                local, corr = (x, t) if measure == "d_ab" else (ref.bloch(rho)[1], t.T)
                w, v = np.linalg.eigh(np.outer(local, local) + corr @ corr.T)
                detail["direction"] = v[:, -1].tolist()
        elif measure == "chsh":
            value = ref.horodecki_m(rho)
            detail["violated"] = bool(value > 1.0)
        elif measure == "concurrence":
            value = math.sqrt(facts.c_squared) if facts.pure else ref.concurrence_2q(rho)
        else:  # monogamy
            value = 0.0
            detail = {"c_squared": facts.c_squared, "d_total": facts.c_squared, "d_local_a": 0.0, "d_local_b": 0.0}
        records.append({"measure": measure, "value": value, "method": method, "detail": detail})
    return facts, {"dims": [2, 2], "records": records}


def _both(extra=()):
    from workloads import ALL_BOTH

    return ALL_BOTH + list(extra)


@pytest.mark.parametrize(
    "rho, extra",
    [(_mixed_state(), ()), (BELL_RHO, [("monogamy", "analytic")]), (ref.werner_matrix(0.8), ())],
    ids=["mixed", "bell", "werner"],
)
def test_analyze_check_catches_each_perturbed_record(rho, extra):
    expected = _both(extra)
    facts, payload = _records_2q(rho, expected)
    checks.check_analyze(payload, facts, expected)
    for i in range(len(expected)):
        for sign in (1.0, -1.0):
            bad = {"dims": [2, 2], "records": [dict(r) for r in payload["records"]]}
            bad["records"][i]["value"] += sign * PERTURB
            with pytest.raises(CheckFailed):
                checks.check_analyze(bad, facts, expected)


def test_analyze_check_on_pure_qudits_catches_perturbed_records():
    from workloads import QUDIT_MEASURES

    amp = ref.random_pure(np.random.default_rng(5), (3, 3))
    facts = StateFacts(np.outer(amp, amp.conj()), (3, 3))
    c2 = facts.c_squared
    values = {"d_ab": c2 / 2, "d_ba": c2 / 2, "d_sym": c2, "d_tilde": 0.7 * c2, "v": 0.01, "v_tilde": 0.2}
    records = [{"measure": m, "value": values[m], "method": "numeric", "detail": {}} for m in values]
    records.append({"measure": "concurrence", "value": math.sqrt(c2), "method": "analytic", "detail": {}})
    detail = {"c_squared": c2, "d_total": c2 + 0.3, "d_local_a": 0.1, "d_local_b": 0.2}
    records.append({"measure": "monogamy", "value": 0.0, "method": "analytic", "detail": detail})
    expected = [(r["measure"], r["method"]) for r in records]
    assert [m for m, _ in expected] == QUDIT_MEASURES.split(",")
    payload = {"dims": [3, 3], "records": records}
    checks.check_analyze(payload, facts, expected)
    # v and v_tilde have no closed form beyond two qubits; every other record does
    for i, (measure, _) in enumerate(expected):
        if measure in ("v", "v_tilde", "d_tilde"):
            continue
        for sign in (1.0, -1.0):
            bad = {"dims": [3, 3], "records": [dict(r) for r in records]}
            bad["records"][i]["value"] += sign * PERTURB
            with pytest.raises(CheckFailed):
                checks.check_analyze(bad, facts, expected)
    # d_tilde is only bracketed by c^2/2 and c^2 here: leaving the bracket fails
    bad = {"dims": [3, 3], "records": [dict(r) for r in records]}
    bad["records"][3]["value"] = c2 / 2 - PERTURB
    with pytest.raises(CheckFailed):
        checks.check_analyze(bad, facts, expected)


def test_analyze_check_rejects_missing_or_extra_records():
    expected = _both()
    facts, payload = _records_2q(_mixed_state(), expected)
    payload["records"].pop()
    with pytest.raises(CheckFailed):
        checks.check_analyze(payload, facts, expected)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10])
def test_campaign_check(tol):
    good = {"suite": "eq64", "trials": 5, "failures": 0, "max_deviation": tol / 10, "tol": tol}
    checks.check_campaign(good, "eq64", 5, tol)
    with pytest.raises(CheckFailed):
        checks.check_campaign(dict(good, max_deviation=good["max_deviation"] + PERTURB), "eq64", 5, tol)
    for broken in ({"failures": 1}, {"trials": 4}, {"max_deviation": math.nan}, {"suite": "x"}):
        with pytest.raises(CheckFailed):
            checks.check_campaign(dict(good, **broken), "eq64", 5, tol)


def _sweep_text(steps):
    lines = [checks.SWEEP_COLUMNS]
    for i in range(steps):
        p = i / (steps - 1)
        want = ref.werner_values(p)
        cells = [format(p, ".12g")]
        cells += [format(want[c], ".12g") for c in checks.SWEEP_COLUMNS.split(",")[1:-1]]
        cells.append("true" if want["horodecki_m"] > 1.0 else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_sweep_check_catches_each_perturbed_column():
    text = _sweep_text(1001)
    checks.check_sweep(text, 1001)
    lines = text.split("\n")
    for col in range(1, 7):
        cells = lines[500].split(",")
        cells[col] = format(float(cells[col]) + PERTURB, ".12g")
        bad = "\n".join(lines[:500] + [",".join(cells)] + lines[501:])
        with pytest.raises(CheckFailed):
            checks.check_sweep(bad, 1001)
    onset = lines[709].split(",")  # p = 0.708, the first violating row
    assert onset[-1] == "true"
    flipped = "\n".join(lines[:709] + [",".join(onset[:-1] + ["false"])] + lines[710:])
    with pytest.raises(CheckFailed):
        checks.check_sweep(flipped, 1001)


def _payload(rho, dims):
    return {"dims": list(dims), "re": rho.real.tolist(), "im": rho.imag.tolist()}


def test_generated_state_checks_catch_a_perturbed_entry():
    rng = np.random.default_rng(2)
    amp = ref.random_pure(rng, (2, 3))
    prod = np.kron(ref.random_pure(rng, (1, 3)), ref.random_pure(rng, (1, 2)))
    cases = [
        (BELL_RHO, "bell", (2, 2), {"want": BELL_RHO}),
        (ref.werner_matrix(0.3), "werner", (2, 2), {"want": ref.werner_matrix(0.3)}),
        (np.outer(amp, amp.conj()), "random-pure", (2, 3), {}),
        (ref.random_mixed(rng, 9, 4), "random-mixed", (3, 3), {"rank": 4}),
        (np.outer(prod, prod.conj()), "product", (3, 2), {}),
    ]
    for rho, kind, dims, extra in cases:
        checks.check_generated(_payload(rho, dims), kind, dims, **extra)
        for i, j in ((0, 0), (0, 1)):
            bad = rho.copy()
            bad[i, j] += PERTURB
            with pytest.raises(CheckFailed):
                checks.check_generated(_payload(bad, dims), kind, dims, **extra)
    with pytest.raises(CheckFailed):
        checks.check_generated(_payload(ref.random_mixed(rng, 9, 4), (3, 3)), "random-mixed", (3, 3), rank=3)


# -- tracing leaves the program's results unchanged --------------------------


def _analyze_bytes(tmp_path, name):
    from discoh import cli

    state, out = tmp_path / "state.json", tmp_path / f"{name}.json"
    if not state.exists():
        from workloads import write_state

        write_state(state, _mixed_state(), (2, 2))
    argv = ["analyze", str(state), "--method", "both", "--format", "json", "--restarts", "4", "-o", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes()


def _campaign():
    from discoh import verify
    from discoh.coherence import OptimizerConfig

    res = verify.class3_extrema_campaign(trials=2, seed=9, config=OptimizerConfig(restarts=4))
    return res.max_deviation, res.failures


def _traced(fn, *args):
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        out = fn(*args)
    finally:
        tracer.uninstall()
    return out, tracer.metrics()


def test_tracing_leaves_outputs_unchanged(tmp_path):
    plain = _analyze_bytes(tmp_path, "plain")
    traced, layer = _traced(_analyze_bytes, tmp_path, "traced")
    assert traced == plain
    assert layer["coherence.searches"] == 9
    assert layer["cli.searches_per_analyze"] == 9
    assert layer["cli.distinct_searches_per_analyze"] == 5
    assert _traced(_campaign)[0] == _campaign()


def test_traced_counts_repeat_exactly(tmp_path):
    _, first = _traced(_campaign)
    _, second = _traced(_campaign)
    for name in ("simplex.iterations", "simplex.evaluations", "coherence.searches", "states.validations"):
        assert first[name] == second[name] > 0


def test_uninstall_restores_the_program():
    import discoh
    from discoh import cli, coherence, nonlocality, states, verify

    before = (coherence.minimize_batch, nonlocality.minimize_over_bases, states.DensityMatrix.__init__)
    before += (cli.main, verify._run, discoh.load_state)
    _traced(lambda: None)
    after = (coherence.minimize_batch, nonlocality.minimize_over_bases, states.DensityMatrix.__init__)
    after += (cli.main, verify._run, discoh.load_state)
    assert after == before


# -- timing ------------------------------------------------------------------


def _sampler(starts, seconds):
    from probe import Sampler

    sampler = Sampler(probe=None)
    sampler.starts, sampler.seconds = list(starts), list(seconds)
    return sampler


def test_probe_scaling_undoes_a_uniform_slowdown():
    import run
    from probe import REFERENCE_S
    from workloads import Op

    ops = [Op("c", "campaign", None, None, trials=4), Op("a", "analyze", None, None)]
    later = [10.0 + 0.2 * k for k in range(20)]
    fast = _sampler(later, [REFERENCE_S] * 20)
    slow = _sampler(later, [2 * REFERENCE_S] * 20)
    fast_plain, fast_scaled = run.op_seconds([[(0.0, 2.0), (2.0, 2.5)]] * 2, fast)
    slow_plain, slow_scaled = run.op_seconds([[(0.0, 4.0), (4.0, 5.0)]] * 2, slow)
    assert fast_plain == fast_scaled == slow_scaled == [[2.0, 0.5]] * 2
    values = run.summarize(ops, fast_scaled, 0.3)
    assert values == {"setup_s": 0.3, "wall_s": 2.5, "trials_per_s": 2.0, "analyze_s": 0.5}


def test_probes_inside_an_operation_are_not_its_time():
    from probe import REFERENCE_S

    sampler = _sampler([0.1 * k for k in range(1, 30)], [0.01] * 10 + [REFERENCE_S] * 19)
    inside, scale = sampler.span(1.95, 2.95)  # samples at 2.0, 2.1, ..., 2.9
    assert inside == pytest.approx(10 * REFERENCE_S)
    assert scale == 1.0
