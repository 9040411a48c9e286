"""One table of the measures a state can be asked for, and one evaluator over it.

Every measure is an extreme of coherence class sums over product bases, a
two-qubit closed form, or both:

  d_ab, d_ba    class1 / class2 minimum         closed form on two qubits
  d_sym         class1 + class2 minima          closed form on two qubits
  d_tilde       tilde_total minimum             no closed form
  v, v_tilde    class3 minimum / maximum        closed form on two qubits
  chsh, concurrence, monogamy                   closed form only

An evaluation runs each (objective, sense) search at most once, however
many measures share it.  Searches and closed forms are called through
this module's names at call time, so the table holds names, not functions.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .coherence import OptimizerConfig, maximize_over_bases, minimize_over_bases
from .discord import ANALYTIC, NUMERIC, DiscordReport, discord_ab_analytic, discord_ba_analytic
from .entanglement import concurrence_mixed_2q, concurrence_pure, monogamy_check
from .errors import DiscohError, MixedStateError, UnsupportedDimensionError
from .linalg import hermitian_eigen
from .nonlocality import chsh_violation, v_measures_analytic
from .states import DensityMatrix, PureState

AUTO = "auto"
BOTH = "both"
METHODS = (AUTO, ANALYTIC, NUMERIC, BOTH)

MIN = "min"
MAX = "max"

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
    """Measures of one state under one optimizer config; each search runs once."""

    def __init__(self, rho: DensityMatrix, config: OptimizerConfig | None = None):
        self.rho = rho
        self.config = config
        self.two_qubit = rho.dims == (2, 2)
        self.purity = rho.purity()
        self.pure = self.purity >= 1.0 - PURITY_PURE_TOL
        self._optima = {}

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

    def search(self, objective: str, sense: str):
        key = (objective, sense)
        if key not in self._optima:
            search = minimize_over_bases if sense == MIN else maximize_over_bases
            self._optima[key] = search(self.rho, objective, self.config)
        return self._optima[key]

    def record(self, measure: str, method: str) -> dict:
        """One output record: a closed form, or the sum of the measure's searched optima."""
        converged = None
        if method == NUMERIC:
            optima = [self.search(*key) for key in MEASURES[measure].searches]
            value = sum((opt.value for opt in optima[1:]), optima[0].value)  # in table order
            converged = all(opt.converged for opt in optima)
            detail = {} if self.two_qubit else {"note": "exploratory"}
        else:
            value, detail = self._closed_form(measure)
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
    return [ev.record(name, route) for name in measures for route in ev.routes(name, method)]


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
    ev = Evaluation(rho, config)
    d_ab, d_ba, d_sym = (ev.record(name, method) for name in ("d_ab", "d_ba", "d_sym"))
    if method == ANALYTIC:
        diagnostics = {
            "direction_a": np.asarray(d_ab["detail"]["direction"]),
            "direction_b": np.asarray(d_ba["detail"]["direction"]),
        }
    else:
        diagnostics = {"converged_a": d_ab["converged"], "converged_b": d_ba["converged"]}
    d_tilde = None
    if include_two_side:
        two_side = ev.record("d_tilde", NUMERIC)
        d_tilde = two_side["value"]
        diagnostics["converged_two_side"] = two_side["converged"]
    return DiscordReport(
        d_ab=d_ab["value"],
        d_ba=d_ba["value"],
        d_sym=d_sym["value"],
        d_tilde=d_tilde,
        method=method,
        diagnostics=diagnostics,
    )
