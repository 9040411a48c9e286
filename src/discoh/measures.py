"""The measure table: which measures apply to a state, and which route computes each.

Every measure is an extreme of coherence class sums over product bases, a
two-qubit closed form, or both:

  d_ab, d_ba    class1 / class2 minimum         closed form on two qubits
  d_sym         class1 + class2 minima          closed form on two qubits
  d_tilde       tilde_total minimum             no closed form
  v, v_tilde    class3 minimum / maximum        closed form on two qubits
  chsh, concurrence, monogamy                   closed form only

analyze, discord_report, the campaigns and the Werner sweep ask records()
for (measure, method) records of many states.  Each closed-form function
runs at most once per state, and one batched search finds every state's
distinct (objective, sense) optima.  Searches and closed forms are called
through this module's names at call time, so the table holds names, not
functions.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .coherence import MAX, MIN, OptimizerConfig, search_bases
from .discord import ANALYTIC, NUMERIC, DiscordReport, discord_ab_analytic, discord_ba_analytic
from .entanglement import concurrence_mixed_2q, concurrence_pure, monogamy_check
from .errors import DiscohError, MixedStateError, UnsupportedDimensionError
from .linalg import hermitian_eigen
from .nonlocality import chsh_violation, v_measures_analytic
from .states import DensityMatrix, PureState

AUTO = "auto"
BOTH = "both"
METHODS = (AUTO, ANALYTIC, NUMERIC, BOTH)

PURITY_PURE_TOL = 1e-8


@dataclass(frozen=True)
class Measure:
    """How one measure is computed and which states it applies to."""

    searches: tuple[tuple[str, str], ...] = ()  # (objective, sense) optima that add up to it
    closed_form: bool = False  # two-qubit closed form (the only route when there is no search)
    needs: tuple[str, ...] = ()  # state properties ("pure", "two_qubit"), any one suffices


MEASURES = {
    "d_ab": Measure((("class1", MIN),), closed_form=True),
    "d_ba": Measure((("class2", MIN),), closed_form=True),
    "d_sym": Measure((("class1", MIN), ("class2", MIN)), closed_form=True),
    "d_tilde": Measure((("tilde_total", MIN),)),
    "v": Measure((("class3", MIN),), closed_form=True),
    "v_tilde": Measure((("class3", MAX),), closed_form=True),
    "chsh": Measure(closed_form=True, needs=("two_qubit",)),
    "concurrence": Measure(closed_form=True, needs=("pure", "two_qubit")),
    "monogamy": Measure(closed_form=True, needs=("pure",)),
}


def _dominant_pure(rho: DensityMatrix) -> PureState:
    """The pure state of a projector, with its largest amplitude made real and positive."""
    _, vectors = hermitian_eigen(rho.mat)
    amp = vectors[:, 0]
    k = int(np.argmax(np.abs(amp)))
    amp = amp / (amp[k] / abs(amp[k]))
    amp = amp / np.linalg.norm(amp)
    return PureState(rho.dims, amp)


def _record(measure: str, method: str, value, detail: dict, converged) -> dict:
    return {
        "measure": measure,
        "value": float(value),
        "method": method,
        "converged": converged,
        "detail": detail,
    }


class Evaluation:
    """One state: which measures apply to it, and the closed forms run on it so far."""

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.two_qubit = rho.dims == (2, 2)
        self.purity = rho.purity()
        self.pure = self.purity >= 1.0 - PURITY_PURE_TOL
        self._done = {}  # function -> its value on rho, computed on the first call only

    def applies(self, measure: str) -> bool:
        needs = MEASURES[measure].needs
        return not needs or any(getattr(self, prop) for prop in needs)

    def require(self, measure: str) -> None:
        """Raise the error that names why the measure does not apply to this state."""
        if self.applies(measure):
            return
        needs = MEASURES[measure].needs
        if "two_qubit" not in needs:
            raise MixedStateError(f"purity = {self.purity:.6f}; this measure needs a pure state")
        qualifier = " for mixed states" if "pure" in needs else ""
        raise UnsupportedDimensionError(
            f"{measure}{qualifier} needs dims (2, 2), got {self.rho.dims}"
        )

    def routes(self, measure: str, method: str) -> list[str]:
        """Methods of the records a measure yields, in output order."""
        spec = MEASURES[measure]
        if not (spec.searches and spec.closed_form):
            return [NUMERIC if spec.searches else ANALYTIC]
        if method == AUTO:
            return [ANALYTIC if self.two_qubit else NUMERIC]
        return [ANALYTIC, NUMERIC] if method == BOTH else [method]

    def _once(self, fn):
        if fn not in self._done:
            self._done[fn] = fn(self.rho)
        return self._done[fn]

    def _closed_form(self, measure: str) -> tuple[float, dict]:
        if measure in ("d_ab", "d_ba"):
            closed = discord_ab_analytic if measure == "d_ab" else discord_ba_analytic
            value, direction = self._once(closed)
            return value, {"direction": direction.p.tolist()}
        if measure == "d_sym":
            return self._once(discord_ab_analytic)[0] + self._once(discord_ba_analytic)[0], {}
        if measure in ("v", "v_tilde"):
            return self._once(v_measures_analytic)[measure == "v_tilde"], {}
        if measure == "chsh":
            violated, m = self._once(chsh_violation)
            return m, {"violated": violated}
        if measure == "concurrence":
            if self.pure:
                return concurrence_pure(self._once(_dominant_pure)), {}
            return concurrence_mixed_2q(self.rho), {}
        terms = asdict(monogamy_check(self._once(_dominant_pure)))
        return terms.pop("residual"), terms

    def _searched(self, measure: str, found: dict) -> dict:
        """The numeric record: the sum of the measure's searched optima."""
        optima = [found[key] for key in MEASURES[measure].searches]
        value = sum((opt.value for opt in optima[1:]), optima[0].value)  # in table order
        detail = {} if self.two_qubit else {"note": "exploratory"}
        return _record(measure, NUMERIC, value, detail, all(opt.converged for opt in optima))


def records(evaluations, requests, config: OptimizerConfig | None = None) -> list[list[dict]]:
    """Each state's records of the (measure, method) requests, in request order.

    Every state's closed forms run first, so one that cannot run fails
    before any search; then one batched search finds the (objective, sense)
    optima the numeric records need, state by state.
    """
    out = [
        [
            None if method == NUMERIC else _record(name, method, *ev._closed_form(name), None)
            for name, method in requests
        ]
        for ev in evaluations
    ]
    numeric = [name for name, method in requests if method == NUMERIC]
    keys = list(dict.fromkeys(key for name in numeric for key in MEASURES[name].searches))
    optima = iter(search_bases([(ev.rho, *key) for ev in evaluations for key in keys], config))
    for ev, recs in zip(evaluations, out):
        found = {key: next(optima) for key in keys}
        recs[:] = [rec or ev._searched(name, found) for rec, (name, _) in zip(recs, requests)]
    return out


def evaluate(
    rho: DensityMatrix,
    measures=("all",),
    method: str = AUTO,
    config: OptimizerConfig | None = None,
) -> list[dict]:
    """Records of the requested measures, in request order; "all" is every
    measure that applies to the state and has a route under the method.

    auto takes the closed form on two qubits and the search otherwise;
    both gives a closed-form and a searched record where a measure has
    both.  Every request that cannot run fails before any search starts.
    """
    if method not in METHODS:
        raise DiscohError(f"method must be one of {', '.join(METHODS)}, got {method!r}")
    ev = Evaluation(rho)
    measures = list(measures)
    if measures == ["all"]:
        measures = [
            name
            for name, spec in MEASURES.items()
            if ev.applies(name) and (method != ANALYTIC or spec.closed_form)
        ]
    unknown = [name for name in measures if name not in MEASURES]
    if unknown:
        raise DiscohError(f"unknown measure {unknown[0]!r}; choose from {', '.join(MEASURES)}")
    searched = [name for name in measures if MEASURES[name].searches]
    if method in (ANALYTIC, BOTH) and not ev.two_qubit and searched:
        m, n = rho.dims
        raise UnsupportedDimensionError(
            f"analytic method needs dims (2, 2) for {', '.join(searched)}; this state is {m}x{n}"
        )
    if method == ANALYTIC:
        for name in measures:
            if not MEASURES[name].closed_form:
                raise UnsupportedDimensionError(
                    f"{name} has no analytic path; use --method numeric, both or auto"
                )
    for name in measures:
        ev.require(name)
    requests = [(name, route) for name in measures for route in ev.routes(name, method)]
    return records([ev], requests, config)[0]


def discord_report(
    rho: DensityMatrix,
    method: str = AUTO,
    config: OptimizerConfig | None = None,
    include_two_side: bool = True,
) -> DiscordReport:
    """Full set of discord measures with the bracket check applied."""
    if method not in (AUTO, ANALYTIC, NUMERIC):
        raise DiscohError(f"method must be auto, analytic or numeric, got {method!r}")
    ev = Evaluation(rho)
    (method,) = ev.routes("d_ab", method)
    requests = [(name, method) for name in ("d_ab", "d_ba", "d_sym")]
    if include_two_side:
        requests.append(("d_tilde", NUMERIC))
    d_ab, d_ba, d_sym, *two_side = records([ev], requests, config)[0]
    if method == ANALYTIC:
        diagnostics = {
            "direction_a": np.asarray(d_ab["detail"]["direction"]),
            "direction_b": np.asarray(d_ba["detail"]["direction"]),
        }
    else:
        diagnostics = {"converged_a": d_ab["converged"], "converged_b": d_ba["converged"]}
    d_tilde = None
    if include_two_side:
        d_tilde = two_side[0]["value"]
        diagnostics["converged_two_side"] = two_side[0]["converged"]
    return DiscordReport(
        d_ab=d_ab["value"],
        d_ba=d_ba["value"],
        d_sym=d_sym["value"],
        d_tilde=d_tilde,
        method=method,
        diagnostics=diagnostics,
    )
