"""Output checks for every benchmark operation.

Each check takes what the program produced (a campaign summary, the JSON an
`analyze` call wrote, the CSV of a sweep, a generated state file) and raises
CheckFailed when it disagrees with the numpy reference in reference.py or
with a property the method must have.  No check compares against a stored
copy of an earlier output.
"""

import math
from functools import cached_property

import numpy as np

import reference as ref

CLOSED_FORM_TOL = 1e-9  # analytic value against the reference
BELOW_TOL = 1e-9  # a searched minimum never below the exact one (maximum: never above)
SEARCH_TOL = 1e-6  # how close a converged search gets to the exact extremum
BRACKET_TOL = 1e-7  # max(d_ab, d_ba) <= d_tilde <= d_sym
MONOGAMY_TOL = 1e-10
# Wootters concurrence takes square roots of eigenvalues that vanish on a
# rank-deficient state, so roundoff of 1e-16 there shows as about 1e-8.
CONCURRENCE_TOL = 1e-7
SWEEP_TOL = 1e-11  # the sweep prints 12 significant digits
PURE_TOL = 1e-8  # purity defect below which a state counts as pure

SWEEP_COLUMNS = "p,d_ab,d_ba,d_sym,v,v_tilde,horodecki_m,chsh_violated"
MINIMIZED = ("d_ab", "d_ba", "d_sym", "v", "d_tilde")


class CheckFailed(Exception):
    """An output disagrees with the reference."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, tol, what):
    _require(
        math.isfinite(value) and abs(value - expected) <= tol,
        f"{what} = {value!r}, expected {expected!r} within {tol:g}",
    )


def check_campaign(summary, suite, trials, tol):
    """A campaign ran every trial, found no failure, and stayed inside its tolerance.

    summary holds suite, trials, failures, max_deviation and tol, as the
    program reports them.
    """
    _require(summary["suite"] == suite, f"suite {summary['suite']!r}, expected {suite!r}")
    _require(summary["trials"] == trials, f"{suite}: {summary['trials']} trials of {trials}")
    _require(summary["failures"] == 0, f"{suite}: {summary['failures']} failed trials")
    dev = summary["max_deviation"]
    _require(
        math.isfinite(dev) and 0.0 <= dev <= tol,
        f"{suite}: max_deviation {dev!r} outside [0, {tol:g}]",
    )


class StateFacts:
    """Reference values of one input state, computed once and only when asked."""

    def __init__(self, rho, dims):
        self.rho = np.asarray(rho, dtype=complex)
        self.dims = tuple(dims)
        self.two_qubit = self.dims == (2, 2)
        self.pure = abs(ref.purity(self.rho) - 1.0) < PURE_TOL

    @cached_property
    def c_squared(self):
        return ref.pure_c_squared(ref.dominant_vector(self.rho), self.dims)

    @cached_property
    def exact(self):
        """Exact extrema by measure name; a measure without one is absent."""
        out = {}
        if self.two_qubit:
            out["d_ab"] = ref.d_ab(self.rho)
            out["d_ba"] = ref.d_ba(self.rho)
            out["v"], out["v_tilde"] = ref.v_pair(self.rho)
            out["d_tilde"] = ref.d_tilde(self.rho)
        elif self.pure:
            out["d_ab"] = out["d_ba"] = self.c_squared / 2.0
        if "d_ab" in out:
            out["d_sym"] = out["d_ab"] + out["d_ba"]
        return out


def _check_extremum(rec, facts):
    measure, value = rec["measure"], rec["value"]
    exact = facts.exact.get(measure)
    if rec["method"] == "analytic":
        _require(exact is not None, f"analytic {measure} on dims {facts.dims}")
        _close(value, exact, CLOSED_FORM_TOL, f"analytic {measure}")
        return
    _require(math.isfinite(value) and value >= 0.0, f"numeric {measure} = {value!r}")
    if measure == "d_tilde":
        low = max(facts.exact.get("d_ab", 0.0), facts.exact.get("d_ba", 0.0))
        high = facts.exact.get("d_sym", math.inf)
        _require(
            low - BRACKET_TOL <= value <= high + BRACKET_TOL,
            f"d_tilde = {value!r} outside [{low!r}, {high!r}]",
        )
    if exact is None:
        return
    if measure in MINIMIZED:
        lo, hi = exact - BELOW_TOL, exact + SEARCH_TOL
    else:
        lo, hi = exact - SEARCH_TOL, exact + BELOW_TOL
    _require(lo <= value <= hi, f"numeric {measure} = {value!r} outside [{lo!r}, {hi!r}]")


def _check_direction(rec, facts):
    """The analytic measurement direction attains the closed-form minimum."""
    p = np.asarray(rec["detail"]["direction"], dtype=float)
    _close(float(p @ p), 1.0, 1e-12, f"{rec['measure']} |direction|^2")
    x, y, t = ref.bloch(facts.rho)
    local, corr = (x, t) if rec["measure"] == "d_ab" else (y, t.T)
    at_p = (local @ local + np.sum(t * t) - (p @ local) ** 2 - np.sum((p @ corr) ** 2)) / 4.0
    _close(at_p, facts.exact[rec["measure"]], CLOSED_FORM_TOL, f"{rec['measure']} at direction")


def _check_record(rec, facts):
    measure, value = rec["measure"], rec["value"]
    if measure in ("d_ab", "d_ba", "d_sym", "d_tilde", "v", "v_tilde"):
        _check_extremum(rec, facts)
        if measure in ("d_ab", "d_ba") and rec["method"] == "analytic":
            _check_direction(rec, facts)
    elif measure == "chsh":
        m = ref.horodecki_m(facts.rho)
        _close(value, m, CLOSED_FORM_TOL, "horodecki m")
        if abs(m - 1.0) > CLOSED_FORM_TOL:
            _require(rec["detail"]["violated"] == (m > 1.0), f"chsh flag wrong at m = {m!r}")
    elif measure == "concurrence":
        if facts.pure:
            _close(value * value, facts.c_squared, CLOSED_FORM_TOL, "concurrence^2")
        else:
            _close(value, ref.concurrence_2q(facts.rho), CONCURRENCE_TOL, "concurrence")
    elif measure == "monogamy":
        detail = rec["detail"]
        _require(abs(value) <= MONOGAMY_TOL, f"monogamy residual {value!r}")
        _close(detail["c_squared"], facts.c_squared, CLOSED_FORM_TOL, "monogamy c_squared")
        balance = detail["c_squared"] - detail["d_total"] + detail["d_local_a"] + detail["d_local_b"]
        _close(balance, value, 1e-12, "monogamy residual against its terms")
    else:
        raise CheckFailed(f"unexpected measure {measure!r}")


def check_analyze(payload, facts, expected):
    """JSON written by `discoh analyze --format json` for the state behind facts.

    expected lists the (measure, method) pairs the call must report, in order.
    """
    _require(payload["dims"] == list(facts.dims), f"dims {payload['dims']} != {facts.dims}")
    records = payload["records"]
    got = [(r["measure"], r["method"]) for r in records]
    _require(got == list(expected), f"records {got}, expected {list(expected)}")
    for rec in records:
        _check_record(rec, facts)
    by_method = {}
    for rec in records:
        by_method.setdefault(rec["method"], {})[rec["measure"]] = rec["value"]
    for method, values in by_method.items():
        if "v" not in values or "v_tilde" not in values:
            continue
        _require(values["v"] <= values["v_tilde"] + BELOW_TOL, f"{method} v above v_tilde")
        if facts.two_qubit:
            tol = 1e-12 if method == "analytic" else 2.0 * SEARCH_TOL
            _close(
                values["v"] + values["v_tilde"],
                ref.t_norm_sq(facts.rho) / 4.0,
                tol,
                f"{method} v + v_tilde against |T|^2/4",
            )


def check_sweep(text, steps):
    """CSV of `discoh sweep` over the Werner family on [0, 1]."""
    lines = text.split("\n")
    _require(lines[-1] == "", "sweep output must end with a newline")
    _require(lines[0] == SWEEP_COLUMNS, f"sweep header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(len(rows) == steps, f"sweep has {len(rows)} rows, expected {steps}")
    flags = []
    for i, cells in enumerate(rows):
        p = float(cells[0])
        _close(p, i / (steps - 1), SWEEP_TOL, f"sweep row {i} p")
        want = ref.werner_values(p)
        for col, cell in zip(SWEEP_COLUMNS.split(",")[1:-1], cells[1:-1]):
            _close(float(cell), want[col], SWEEP_TOL, f"sweep row {i} {col}")
        _require(cells[-1] in ("true", "false"), f"sweep row {i} flag {cells[-1]!r}")
        flags.append(cells[-1] == "true")
        _require(flags[-1] == (want["horodecki_m"] > 1.0), f"sweep row {i} chsh flag")
    onset = flags.index(True)
    _require(not any(flags[:onset]) and all(flags[onset:]), "chsh flags are not monotone")
    below, above = float(rows[onset - 1][0]), float(rows[onset][0])
    _require(below < 1.0 / math.sqrt(2.0) < above, f"chsh onset ({below}, {above}) misses 1/sqrt2")


def state_matrix(payload):
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)


def check_generated(payload, kind, dims, want=None, rank=None):
    """State file written by `discoh generate`.

    want is the exact matrix for the deterministic kinds (bell, werner);
    rank the requested rank of a random mixed state.
    """
    _require(payload["dims"] == list(dims), f"{kind}: dims {payload['dims']} != {dims}")
    rho = state_matrix(payload)
    _require(rho.shape == (dims[0] * dims[1],) * 2, f"{kind}: matrix shape {rho.shape}")
    defect = ref.physical_defects(rho)
    _require(defect <= 1e-10, f"{kind}: not a density matrix (defect {defect:.3e})")
    if want is not None:
        err = float(np.max(np.abs(rho - want)))
        _require(err <= 1e-15, f"{kind}: differs from the exact matrix by {err:.3e}")
    if kind in ("bell", "random-pure", "product"):
        _close(ref.purity(rho), 1.0, 1e-10, f"{kind} purity")
    if kind == "product":
        _close(ref.pure_c_squared(ref.dominant_vector(rho), dims), 0.0, 1e-10, "product C^2")
    if rank is not None:
        got = int(np.sum(np.linalg.eigvalsh(rho) > 1e-10))
        _require(got == rank, f"{kind}: rank {got}, expected {rank}")
