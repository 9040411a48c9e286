"""The measure table: which measures apply to a state, and which route computes each.

Every measure is an extreme of coherence class sums over product bases, a
two-qubit closed form, or both:

  d_ab, d_ba    class1 / class2 minimum         closed form on two qubits
  d_sym         class1 + class2 minima          closed form on two qubits
  d_tilde       tilde_total minimum             no closed form
  v, v_tilde    class3 minimum / maximum        closed form on two qubits
  chsh, concurrence, monogamy                   closed form only

analyze, discord_report, the campaigns and the Werner sweep ask records()
for (measure, method) records of many states.  The closed forms of Bloch
data (BLOCH_CLOSED_FORMS) run as stacked kernels over all the states at
once: one Bloch decomposition per state, one one-sided kernel call per
side, one spectrum call for v, v_tilde and chsh.  Concurrence and monogamy
run state by state.  Then one batched search finds every state's distinct
(objective, sense) optima.  Searches and kernels are called through this
module's names at call time, so the table holds names, not functions.
"""

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .coherence import MAX, MIN, OptimizerConfig, search_bases
from .discord import ANALYTIC, NUMERIC, DiscordReport, one_sided_closed_form
from .entanglement import concurrence_mixed_2q, concurrence_pure, monogamy_check
from .errors import DiscohError, MixedStateError, UnsupportedDimensionError
from .linalg import hermitian_eigen
from .nonlocality import spectrum_closed_forms
from .states import DensityMatrix, PureState, bloch_stack

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

# The closed forms that two-qubit Bloch data give; records computes them
# for a block of states at once, the others state by state.
BLOCH_CLOSED_FORMS = ("d_ab", "d_ba", "d_sym", "v", "v_tilde", "chsh")


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
    """One state: which measures apply to it, and its closed forms that are
    computed one state at a time (concurrence, monogamy)."""

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.two_qubit = rho.dims == (2, 2)
        self.purity = rho.purity()
        self.pure = self.purity >= 1.0 - PURITY_PURE_TOL

    @cached_property
    def _pure_state(self) -> PureState:
        """The state as a state vector, shared by concurrence and monogamy."""
        return _dominant_pure(self.rho)

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

    def _closed_form(self, measure: str) -> tuple[float, dict]:
        """Concurrence or monogamy: (value, detail)."""
        if measure == "concurrence":
            if self.pure:
                return concurrence_pure(self._pure_state), {}
            return concurrence_mixed_2q(self.rho), {}
        terms = asdict(monogamy_check(self._pure_state))
        return terms.pop("residual"), terms

    def _searched(self, measure: str, found: dict) -> dict:
        """The numeric record: the sum of the measure's searched optima."""
        optima = [found[key] for key in MEASURES[measure].searches]
        value = sum((opt.value for opt in optima[1:]), optima[0].value)  # in table order
        detail = {} if self.two_qubit else {"note": "exploratory"}
        return _record(measure, NUMERIC, value, detail, all(opt.converged for opt in optima))


def _bloch_closed_forms(evaluations, names) -> dict:
    """Every state's closed forms of the names that come from two-qubit Bloch
    data, as name -> (values, key, details): state i's record has the value
    values[i] and the detail {key: details[i]}, or {} where key is None.

    One Bloch decomposition per state, and one call of each stacked kernel
    the names need (one-sided discord per side, spectrum) for all of them.
    """
    names = [name for name in names if name in BLOCH_CLOSED_FORMS]
    if not (names and evaluations):
        return {}
    for ev in evaluations:
        if not ev.two_qubit:
            raise UnsupportedDimensionError(
                f"{names[0]} closed form needs dims (2, 2), got {ev.rho.dims}"
            )
    names = set(names)
    x, y, t = bloch_stack(np.stack([ev.rho.mat for ev in evaluations]))
    out = {}
    for name, local, corr in (("d_ab", x, t), ("d_ba", y, t.swapaxes(1, 2))):
        if names & {name, "d_sym"}:
            values, directions = one_sided_closed_form(local, corr)
            out[name] = (values.tolist(), "direction", directions.tolist())
    if "d_sym" in names:
        out["d_sym"] = ([a + b for a, b in zip(out["d_ab"][0], out["d_ba"][0])], None, None)
    if names & {"v", "v_tilde", "chsh"}:
        v, v_tilde, m, violated = spectrum_closed_forms(t)
        out["v"] = (v.tolist(), None, None)
        out["v_tilde"] = (v_tilde.tolist(), None, None)
        out["chsh"] = (m.tolist(), "violated", violated.tolist())
    return out


def records(evaluations, requests, config: OptimizerConfig | None = None) -> list[list[dict]]:
    """Each state's records of the (measure, method) requests, in request order.

    Every state's closed forms run first, so one that cannot run fails
    before any search: those of Bloch data as one stacked call per kernel
    for all the states, concurrence and monogamy state by state.  Then one
    batched search finds the (objective, sense) optima the numeric records
    need, state by state.
    """
    closed = [name for name, method in requests if method != NUMERIC]
    stacked = _bloch_closed_forms(evaluations, closed)
    out = []
    for i, ev in enumerate(evaluations):
        recs = []
        for name, method in requests:
            if method == NUMERIC:
                recs.append(None)
            elif name in stacked:
                values, key, details = stacked[name]
                detail = {key: details[i]} if key else {}
                recs.append(_record(name, method, values[i], detail, None))
            else:
                recs.append(_record(name, method, *ev._closed_form(name), None))
        out.append(recs)
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
