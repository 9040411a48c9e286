"""Randomized verification campaigns over the measure implementations.

Each campaign draws trial inputs deterministically (trial i uses base seed
plus i), measures a deviation per trial, and reports the failure count
against a tolerance.  A suite names the (measure, method) records a trial
needs; measures.records computes those of a block of trials, their basis
searches as one batched search whose results do not depend on what else
shares the batch.  A serial run is one block; with workers, each worker
takes a contiguous block of trials, and pooled and serial runs give
identical results, bit for bit.
"""

import math
from dataclasses import dataclass, replace
from multiprocessing import get_context
from time import perf_counter
from typing import Callable

import numpy as np

from .coherence import OptimizerConfig
from .discord import ANALYTIC, NUMERIC, bracket_violation
from .errors import DiscohError
from .entanglement import concurrence_pure, corollary1_check, monogamy_check
from .measures import Evaluation, records
from .states import (
    DensityMatrix,
    PureState,
    bloch_parts,
    make_werner,
    random_classical,
    random_mixed,
    random_pure,
)

TWO_QUBIT_DIMS = (2, 2)
MONOGAMY_DIMS = ((2, 2), (2, 3), (3, 3), (4, 4))
PURE_DISCORD_DIMS = ((2, 2), (2, 3), (3, 3))

# Werner rows per records call: one stacked call per block, and a block's
# states and records are all a sweep holds at once besides its rows.
_SWEEP_BLOCK = 50


@dataclass(frozen=True)
class CampaignResult:
    suite: str
    trials: int
    failures: int
    max_deviation: float
    tol: float
    seconds: float
    worst_trial: int  # index of the trial that gave max_deviation
    worst_seed: int = 0  # its seed: rerun it alone with trials=1, seed=worst_seed
    worst_dims: tuple | None = None  # its dims, for suites that cycle through dims

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        dims = "" if self.worst_dims is None else " worst_dims=%dx%d" % self.worst_dims
        return (
            f"suite={self.suite} trials={self.trials} failures={self.failures} "
            f"max_deviation={self.max_deviation:.3e} worst_trial={self.worst_trial} "
            f"worst_seed={self.worst_seed}{dims} tol={self.tol:g} "
            f"time={self.seconds:.1f}s : {status}"
        )


def _deviations(name: str, seed: int, options: dict, config, start: int, stop: int) -> list[float]:
    """Deviations of trials start..stop-1, all their searches run as one batch."""
    suite = SUITES[name]
    inputs = [suite.draw(i, seed, **options) for i in range(start, stop)]
    values = [{}] * len(inputs)
    if suite.requests:  # a pure input is measured as its density matrix
        states = [x.to_density() if isinstance(x, PureState) else x for x in inputs]
        values = records([Evaluation(rho) for rho in states], suite.requests, config)
        for k, recs in enumerate(values):  # in place: a block's records go as its values come
            values[k] = {(rec["measure"], rec["method"]): rec["value"] for rec in recs}
    return [suite.deviation(x, vals) for x, vals in zip(inputs, values)]


def _run(
    suite: str, trials: int, tol: float, seed: int, workers: int, options: dict, config
) -> CampaignResult:
    start = perf_counter()
    # contiguous blocks of trials, one per worker
    count = min(workers, trials)
    cuts = [trials * k // count for k in range(count + 1)]
    blocks = [(suite, seed, options, config, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    if len(blocks) == 1:
        parts = [_deviations(*blocks[0])]
    else:
        # imported here, so that a run without a pool does not pay for the import
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(len(blocks), mp_context=get_context("spawn")) as pool:
                parts = list(pool.map(_deviations, *zip(*blocks)))
        except BrokenProcessPool as exc:
            raise DiscohError(
                "a campaign worker process died; a script that runs campaigns with "
                "workers > 1 needs an `if __name__ == \"__main__\":` guard around its "
                "top-level code, since each worker imports the script again"
            ) from exc
    devs = np.asarray([dev for part in parts for dev in part], dtype=float)
    failures = int(np.sum(~(devs <= tol)))  # NaN counts as failure
    worst = int(np.argmax(devs))  # a NaN trial is the worst
    return CampaignResult(
        suite, trials, failures, float(np.max(devs)), tol, perf_counter() - start, worst
    )


# Trial i of every suite draws its input from seed + i; suites that take
# dims cycle through them by trial index.


def _pure(i: int, seed: int, dims) -> PureState:
    return random_pure(dims[i % len(dims)], seed + i)


def _mixed(i: int, seed: int) -> DensityMatrix:
    return random_mixed(TWO_QUBIT_DIMS, 4, seed + i)


def _classical(i: int, seed: int) -> DensityMatrix:
    return random_classical(TWO_QUBIT_DIMS, seed + i)


def _mixed_with_samples(i: int, seed: int, samples: int):
    """corollary1_check's arguments: the state, its sample count and sampling seed."""
    return _mixed(i, seed), samples, seed + i


# Deviations from the claim, from a trial's input and the values of the
# suite's records, keyed by (measure, method).


def _monogamy_deviation(psi, values) -> float:
    return abs(monogamy_check(psi, check=False).residual)


def _agreement_deviation(rho, values) -> float:
    """Largest |closed form - search| over the suite's measures."""
    return max(
        abs(values[name, ANALYTIC] - value)
        for (name, method), value in values.items()
        if method == NUMERIC
    )


def _pure_discord_deviation(psi, values) -> float:
    c2 = concurrence_pure(psi) ** 2
    d_ab, d_ba = values["d_ab", NUMERIC], values["d_ba", NUMERIC]
    return max(
        abs(d_ab + d_ba - c2),
        abs(d_ab - c2 / 2.0),
        abs(d_ba - c2 / 2.0),
    )


def _sum_rule_deviation(rho, values) -> float:
    _, _, t = bloch_parts(rho.mat[None])  # unchecked: records has checked this state
    return abs((values["v", ANALYTIC] + values["v_tilde", ANALYTIC]) * 4.0 - float(np.sum(t * t)))


def _mixed_bound_deviation(args, values) -> float:
    lhs, rhs_samples, _ = corollary1_check(*args)
    return max(0.0, lhs - min(rhs_samples))


def _classical_zero_deviation(rho, values) -> float:
    return values["d_sym", ANALYTIC]


def _sandwich_deviation(rho, values) -> float:
    return bracket_violation(
        values["d_ab", ANALYTIC], values["d_ba", ANALYTIC], values["d_tilde", NUMERIC]
    )


def _each(names, *methods) -> tuple[tuple[str, str], ...]:
    """(measure, method) requests of every name under every method."""
    return tuple((name, method) for name in names for method in methods)


@dataclass(frozen=True)
class Suite:
    """One campaign: how a trial draws its input, the records it needs, how it
    measures its deviation, its default size and tolerance, and its options."""

    draw: Callable[..., object]  # draw(i, seed, **options but config) -> trial i's input
    requests: tuple[tuple[str, str], ...]  # (measure, method) records of each input
    deviation: Callable[..., float]  # deviation(input, values) -> deviation from the claim
    trials: int
    tol: float
    options: dict  # option name ("dims", "samples" or "config") -> default


_SEARCH = {"config": OptimizerConfig()}
_SANDWICH = (*_each(("d_ab", "d_ba"), ANALYTIC), ("d_tilde", NUMERIC))

# Cheapest first, the order scripts/random_state_campaign.py runs them in.
SUITES = {
    "monogamy": Suite(_pure, (), _monogamy_deviation, 1000, 1e-10, {"dims": MONOGAMY_DIMS}),
    "eq64": Suite(_mixed, _each(("v", "v_tilde"), ANALYTIC), _sum_rule_deviation, 500, 1e-10, {}),
    "classical-zero": Suite(
        _classical, _each(("d_sym",), ANALYTIC), _classical_zero_deviation, 100, 1e-9, {}
    ),
    "analytic-vs-numeric": Suite(
        _mixed, _each(("d_ab", "d_ba"), ANALYTIC, NUMERIC), _agreement_deviation, 200, 1e-6, _SEARCH
    ),
    "corollary1": Suite(
        _mixed_with_samples, (), _mixed_bound_deviation, 200, 1e-9, {"samples": 64}
    ),
    "two-side-sandwich": Suite(_mixed, _SANDWICH, _sandwich_deviation, 100, 1e-6, _SEARCH),
    "corollary2": Suite(
        _pure,
        _each(("d_ab", "d_ba"), NUMERIC),
        _pure_discord_deviation,
        100,
        1e-6,
        {"dims": PURE_DISCORD_DIMS, **_SEARCH},
    ),
    "theorem5": Suite(
        _mixed, _each(("v", "v_tilde"), ANALYTIC, NUMERIC), _agreement_deviation, 200, 1e-6, _SEARCH
    ),
}


def run_suite(
    name: str, trials=None, tol=None, seed: int = 0, workers: int = 1, **options
) -> CampaignResult:
    """Run one suite of SUITES; trials, tol or an option left None takes the suite's default.

    With workers > 1 the trials run in a pool of processes started by the
    spawn method, which imports the caller's main module again in every
    child: a script that passes workers > 1 needs an
    `if __name__ == "__main__":` guard around its top-level code.  Without
    one, each child fails as it starts a pool of its own, and the call
    raises DiscohError naming the missing guard.
    """
    if name not in SUITES:
        raise DiscohError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    suite = SUITES[name]
    unknown = sorted(set(options) - set(suite.options))
    if unknown:
        raise DiscohError(f"suite {name} takes no {', '.join(unknown)}")
    trials = suite.trials if trials is None else trials
    tol = suite.tol if tol is None else tol
    if trials < 1:
        raise DiscohError(f"trials must be at least 1, got {trials}")
    if seed < 0:  # trial i draws from seed + i, and numpy's generators take no negative seed
        raise DiscohError(f"seed must be at least 0, got {seed}")
    if workers < 1:
        raise DiscohError(f"workers must be at least 1, got {workers}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DiscohError(f"tol must be finite and at least 0, got {tol}")
    kw = dict(suite.options)
    kw.update((key, value) for key, value in options.items() if value is not None)
    if "dims" in kw:
        kw["dims"] = tuple(tuple(d) for d in kw["dims"])
    config = kw.pop("config", None)
    result = _run(name, trials, tol, seed, workers, kw, config)
    worst_dims = kw["dims"][result.worst_trial % len(kw["dims"])] if "dims" in kw else None
    return replace(result, worst_seed=seed + result.worst_trial, worst_dims=worst_dims)


def monogamy_campaign(trials=None, dims=None, seed=0, tol=None, workers=1):
    """Pure-state balance c^2 = d_total - d_local_a - d_local_b across dims."""
    return run_suite("monogamy", trials, tol, seed, workers, dims=dims)


def discord_closed_form_campaign(trials=None, seed=0, tol=None, config=None, workers=1):
    """One-sided closed forms against the basis search on random mixed states."""
    return run_suite("analytic-vs-numeric", trials, tol, seed, workers, config=config)


def class3_extrema_campaign(trials=None, seed=0, tol=None, config=None, workers=1):
    """Closed-form anti-diagonal extremes against the basis search."""
    return run_suite("theorem5", trials, tol, seed, workers, config=config)


def pure_state_discord_campaign(trials=None, dims=None, seed=0, tol=None, config=None, workers=1):
    """Pure states: d_sym = c^2 with equal halves on both sides."""
    return run_suite("corollary2", trials, tol, seed, workers, dims=dims, config=config)


def class3_sum_rule_campaign(trials=None, seed=0, tol=None, workers=1):
    """Identity v + v_tilde = |T|^2 / 4 on random mixed states."""
    return run_suite("eq64", trials, tol, seed, workers)


def mixed_state_bound_campaign(trials=None, samples=None, seed=0, tol=None, workers=1):
    """Decomposition-sampled lower bound on mixed two-qubit states."""
    return run_suite("corollary1", trials, tol, seed, workers, samples=samples)


def classical_zero_campaign(trials=None, seed=0, tol=None, workers=1):
    """d_sym vanishes on classically correlated states."""
    return run_suite("classical-zero", trials, tol, seed, workers)


def two_side_sandwich_campaign(trials=None, seed=0, tol=None, config=None, workers=1):
    """max(d_ab, d_ba) <= d_tilde <= d_ab + d_ba on random mixed states."""
    return run_suite("two-side-sandwich", trials, tol, seed, workers, config=config)


def werner_sweep(lo: float = 0.0, hi: float = 1.0, steps: int = 101) -> list[dict]:
    """Closed-form measure table for the Werner family, one row per parameter."""
    if steps < 2:
        raise DiscohError("steps must be at least 2")
    if not (0.0 <= lo < hi <= 1.0):
        raise DiscohError(f"need 0 <= lo < hi <= 1, got lo={lo}, hi={hi}")
    requests = _each(("d_ab", "d_ba", "d_sym", "v", "v_tilde", "chsh"), ANALYTIC)
    grid = [lo + (hi - lo) * (i / (steps - 1)) for i in range(steps)]
    rows = []
    for start in range(0, steps, _SWEEP_BLOCK):
        block = grid[start : start + _SWEEP_BLOCK]
        found = records([Evaluation(make_werner(p)) for p in block], requests)
        rows += map(_werner_row, block, found)
        del found  # the next block's records replace this one's, not add to them
    return rows


def _werner_row(p: float, recs: list[dict]) -> dict:
    row = {"p": p, **{rec["measure"]: rec["value"] for rec in recs}}
    row["horodecki_m"] = row.pop("chsh")
    row["chsh_violated"] = recs[-1]["detail"]["violated"]
    return row
