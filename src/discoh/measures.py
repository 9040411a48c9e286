"""One table of the measures a state can be asked for, and one evaluator over it.

Every measure is an extreme of coherence class sums over product bases, a
two-qubit closed form, or both:

  d_ab, d_ba    class1 / class2 minimum         closed form on two qubits
  d_sym         class1 + class2 minima          closed form on two qubits
  d_tilde       tilde_total minimum             no closed form
  v, v_tilde    class3 minimum / maximum        closed form on two qubits
  chsh, concurrence, monogamy                   closed form only

An evaluation runs each (objective, sense) search at most once, however
many measures share it, and runs all of them in one batched search.
Searches and closed forms are called through this module's names at call
time, so the table holds names, not functions.
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


class Evaluation:
    """Measures of one state under one optimizer config; its searches run in one batch."""

    def __init__(self, rho: DensityMatrix, config: OptimizerConfig | None = None):
        self.rho = rho
        self.config = config
        self.two_qubit = rho.dims == (2, 2)
        self.purity = rho.purity()
        self.pure = self.purity >= 1.0 - PURITY_PURE_TOL

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

    def records(self, requests) -> list[dict]:
        """Records of (measure, method) requests, in request order.

        Closed forms run first, so one that cannot run fails before any
        search; then one batched search finds every (objective, sense)
        optimum the numeric records need.
        """
        closed = {
            i: self._record(name, method, *self._closed_form(name), None)
            for i, (name, method) in enumerate(requests)
            if method != NUMERIC
        }
        keys = dict.fromkeys(
            key for name, method in requests if method == NUMERIC for key in MEASURES[name].searches
        )
        found = dict(zip(keys, search_bases([(self.rho, *key) for key in keys], self.config)))
        return [
            closed[i] if i in closed else self._searched(name, found)
            for i, (name, _) in enumerate(requests)
        ]

    def _searched(self, measure: str, found: dict) -> dict:
        """The numeric record: the sum of the measure's searched optima."""
        optima = [found[key] for key in MEASURES[measure].searches]
        value = sum((opt.value for opt in optima[1:]), optima[0].value)  # in table order
        detail = {} if self.two_qubit else {"note": "exploratory"}
        return self._record(measure, NUMERIC, value, detail, all(opt.converged for opt in optima))

    @staticmethod
    def _record(measure: str, method: str, value, detail: dict, converged) -> dict:
        return {
            "measure": measure,
            "value": float(value),
            "method": method,
            "converged": converged,
            "detail": detail,
        }

    def _closed_form(self, measure: str) -> tuple[float, dict]:
        rho = self.rho
        if measure in ("d_ab", "d_ba"):
            closed = discord_ab_analytic if measure == "d_ab" else discord_ba_analytic
            value, direction = closed(rho)
            return value, {"direction": direction.p.tolist()}
        if measure == "d_sym":
            return discord_ab_analytic(rho)[0] + discord_ba_analytic(rho)[0], {}
        if measure in ("v", "v_tilde"):
            v, v_tilde = v_measures_analytic(rho)
            return (v if measure == "v" else v_tilde), {}
        if measure == "chsh":
            violated, m = chsh_violation(rho)
            return m, {"violated": violated}
        if measure == "concurrence":
            if self.pure:
                return concurrence_pure(_dominant_pure(rho)), {}
            return concurrence_mixed_2q(rho), {}
        terms = asdict(monogamy_check(_dominant_pure(rho)))
        return terms.pop("residual"), terms


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
    ev = Evaluation(rho, config)
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
    return ev.records([(name, route) for name in measures for route in ev.routes(name, method)])


def discord_report(
    rho: DensityMatrix,
    method: str = AUTO,
    config: OptimizerConfig | None = None,
    include_two_side: bool = True,
) -> DiscordReport:
    """Full set of discord measures with the bracket check applied."""
    if method == AUTO:
        method = ANALYTIC if rho.dims == (2, 2) else NUMERIC
    if method not in (ANALYTIC, NUMERIC):
        raise DiscohError(f"method must be auto, analytic or numeric, got {method!r}")
    requests = [(name, method) for name in ("d_ab", "d_ba", "d_sym")]
    if include_two_side:
        requests.append(("d_tilde", NUMERIC))
    d_ab, d_ba, d_sym, *two_side = Evaluation(rho, config).records(requests)
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
