"""The benchmark's workloads: generated inputs and the operations run on them.

A workload is built from a seed.  The seed draws every input the program
receives (state files, Werner parameters, campaign base seeds); the
program never sees the seed itself.  Building a workload writes its state
files into a work directory.  Each Op is one call into discoh: its `call`
is timed, its `check` compares what the call produced with reference.py.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference as ref
from checks import StateFacts

from discoh import cli, verify
from discoh.coherence import OptimizerConfig

# (measure, method) pairs `analyze` reports.  With --method both a search
# measure gets an analytic and a numeric record; d_tilde has no closed form.
ALL_BOTH = [
    ("d_ab", "analytic"), ("d_ab", "numeric"),
    ("d_ba", "analytic"), ("d_ba", "numeric"),
    ("d_sym", "analytic"), ("d_sym", "numeric"),
    ("d_tilde", "numeric"),
    ("v", "analytic"), ("v", "numeric"),
    ("v_tilde", "analytic"), ("v_tilde", "numeric"),
    ("chsh", "analytic"),
    ("concurrence", "analytic"),
]  # fmt: skip
QUDIT_MEASURES = "d_ab,d_ba,d_sym,d_tilde,v,v_tilde,concurrence,monogamy"
ANALYTIC_MEASURES = "d_ab,d_ba,d_sym,v,v_tilde,chsh,concurrence"

# The failing qudit call runs on one fixed 2x3 pure state, whatever the
# seed, so every run fails the same share of its operations.
FIXED_QUDIT_SEED = 2303

SWEEP_STEPS = 1001


class OpFailed(Exception):
    """The program reported an error instead of a result."""


@dataclass
class Op:
    name: str
    kind: str  # "campaign", "analyze", "sweep" or "generate"
    call: Callable[[], object]  # timed; returns what check() needs
    check: Callable[[object], None]  # untimed; raises checks.CheckFailed
    trials: int = 0


def run_cli(argv):
    """discoh's command line in process; stdout on success, OpFailed otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"discoh {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def write_state(path, rho, dims):
    """A state file in the format `discoh analyze` reads."""
    payload = {"dims": list(dims), "re": rho.real.tolist(), "im": rho.imag.tolist()}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def campaign_op(fn_name, suite, trials, tol, **kwargs):
    def call():
        # looked up at call time, so a traced run calls the wrapped function
        res = getattr(verify, fn_name)(trials=trials, tol=tol, **kwargs)
        return {
            "suite": res.suite,
            "trials": res.trials,
            "failures": res.failures,
            "max_deviation": res.max_deviation,
            "tol": res.tol,
        }

    return Op(
        name=suite,
        kind="campaign",
        call=call,
        check=lambda summary: checks.check_campaign(summary, suite, trials, tol),
        trials=trials,
    )


def campaign_ops(fn_name, suite, trials, chunk, tol, seed, **kwargs):
    """One campaign of `trials` trials, run as calls of `chunk` trials each.

    Trial i of a campaign draws its input from base seed + i, so the calls,
    with base seeds seed, seed + chunk, ..., run exactly the trials of one
    call with all of them.  Short calls let the run keep each call's
    fastest time (see run.py).  `chunk` is even, so a call that cycles
    through two dims gets both.
    """
    assert trials % chunk == 0 and chunk % 2 == 0
    return [
        campaign_op(fn_name, suite, chunk, tol, seed=seed + k, **kwargs) for k in range(0, trials, chunk)
    ]


def interleave(*groups):
    """The operations of every group, taking one from each group in turn."""
    longest = max(len(g) for g in groups)
    return [g[k] for k in range(longest) for g in groups if k < len(g)]


def file_op(name, kind, argv, out, check):
    """A command that writes its result to the file out; check reads it back."""

    def call():
        out.unlink(missing_ok=True)
        run_cli([*argv, "-o", str(out)])
        return out

    return Op(name=name, kind=kind, call=call, check=check)


def analyze_op(name, workdir, rho, dims, args, expected):
    state = workdir / f"{name}.json"
    write_state(state, rho, dims)
    facts = StateFacts(rho, dims)
    return file_op(
        f"analyze-{name}",
        "analyze",
        ["analyze", str(state), "--format", "json", *args],
        workdir / f"{name}.out.json",
        lambda path: checks.check_analyze(read_json(path), facts, expected),
    )


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2**31 - 2**16, size=k)]


def _bell_vector(which):
    i, j = (0, 3) if which.startswith("phi") else (1, 2)
    amp = np.zeros(4, dtype=complex)
    amp[i] = amp[j] = 1.0 / math.sqrt(2.0)
    if which.endswith("-"):
        amp[j] = -amp[j]
    return amp


BELLS = ("phi+", "phi-", "psi+", "psi-")

# -- workloads ---------------------------------------------------------------

# trials per campaign and per call of it
QUBIT_TRIALS = {"theorem5": (20, 2), "analytic-vs-numeric": (80, 10), "two-side-sandwich": (24, 4)}


def qubit_search(rng, workdir):
    s_t5, s_avn, s_sand = _seeds(rng, 3)
    p = float(rng.uniform(0.2, 0.95))
    mixed = ref.random_mixed(rng, 4, 4)
    bell = _bell_vector(BELLS[int(rng.integers(4))])
    t5 = campaign_ops("class3_extrema_campaign", "theorem5", *QUBIT_TRIALS["theorem5"], 1e-6, s_t5)
    avn = campaign_ops(
        "discord_closed_form_campaign", "analytic-vs-numeric", *QUBIT_TRIALS["analytic-vs-numeric"], 1e-6, s_avn
    )
    sand = campaign_ops(
        "two_side_sandwich_campaign", "two-side-sandwich", *QUBIT_TRIALS["two-side-sandwich"], 1e-6, s_sand
    )
    analyze = [
        analyze_op("werner", workdir, ref.werner_matrix(p), (2, 2), ["--method", "both"], ALL_BOTH),
        analyze_op("mixed", workdir, mixed, (2, 2), ["--method", "both"], ALL_BOTH),
        analyze_op(
            "bell",
            workdir,
            np.outer(bell, bell.conj()),
            (2, 2),
            ["--method", "both"],
            ALL_BOTH + [("monogamy", "analytic")],
        ),
    ]
    # each analyze call runs twice a round, so analyze_s is a median of six
    ops = interleave(t5, avn, sand, analyze * 2)
    warmup = lambda: verify.class3_extrema_campaign(  # noqa: E731
        trials=1, seed=s_t5, config=OptimizerConfig(restarts=32, max_iterations=100)
    )
    return ops, warmup


QUDIT_TRIALS = (28, 2)  # corollary2 trials, and per call; 2x3 and 3x3 alternate


def qudit_search(rng, workdir):
    (s_c2,) = _seeds(rng, 1)
    fixed = ref.random_pure(np.random.default_rng(FIXED_QUDIT_SEED), (2, 3))
    psi23 = [ref.random_pure(rng, (2, 3)) for _ in range(2)]
    listed = [(m, "numeric") for m in QUDIT_MEASURES.split(",")[:6]]
    listed += [("concurrence", "analytic"), ("monogamy", "analytic")]
    default = [(m, "numeric") for m in ("d_ab", "d_ba", "d_sym", "d_tilde", "v", "v_tilde")]
    # chsh needs two qubits, so the default set should leave it out here
    default += [("concurrence", "analytic"), ("monogamy", "analytic")]
    c2 = campaign_ops(
        "pure_state_discord_campaign", "corollary2", *QUDIT_TRIALS, 1e-6, s_c2, dims=((2, 3), (3, 3))
    )
    analyze = [
        analyze_op("pure23-default", workdir, np.outer(fixed, fixed.conj()), (2, 3), [], default),
        *(
            analyze_op(f"pure23-{k}", workdir, np.outer(v, v.conj()), (2, 3), ["--measures", QUDIT_MEASURES], listed)
            for k, v in enumerate(psi23)
        ),
    ]
    ops = interleave(c2, analyze)
    warmup = lambda: verify.pure_state_discord_campaign(  # noqa: E731
        trials=1, seed=s_c2 + 1, dims=((3, 3),), config=OptimizerConfig(max_iterations=100)
    )
    return ops, warmup


CLOSED_TRIALS = {"monogamy": 1000, "eq64": 1000, "classical-zero": 300, "corollary1": 60}
CLOSED_FILES = 12


def closed_forms(rng, workdir):
    s_mono, s_eq, s_cz, s_c1, s_gen = _seeds(rng, 5)
    ops = [
        campaign_op("monogamy_campaign", "monogamy", CLOSED_TRIALS["monogamy"], 1e-10, seed=s_mono),
        campaign_op("class3_sum_rule_campaign", "eq64", CLOSED_TRIALS["eq64"], 1e-10, seed=s_eq),
        campaign_op(
            "classical_zero_campaign", "classical-zero", CLOSED_TRIALS["classical-zero"], 1e-9, seed=s_cz
        ),
        campaign_op(
            "mixed_state_bound_campaign",
            "corollary1",
            CLOSED_TRIALS["corollary1"],
            1e-9,
            seed=s_c1,
            samples=64,
        ),
        sweep_op(workdir),
        *generate_ops(rng, workdir, s_gen),
    ]
    listed = [(m, "analytic") for m in ANALYTIC_MEASURES.split(",")]
    args = ["--method", "analytic", "--measures", ANALYTIC_MEASURES]
    for k in range(CLOSED_FILES):
        kind = k % 4
        if kind == 0:
            rho = ref.werner_matrix(float(rng.uniform(0.0, 1.0)))
        elif kind == 1:
            amp = _bell_vector(BELLS[int(rng.integers(4))])
            rho = np.outer(amp, amp.conj())
        else:
            rho = ref.random_mixed(rng, 4, int(rng.integers(1, 5)))
        ops.append(analyze_op(f"state{k}", workdir, rho, (2, 2), args, listed))

    def warmup():
        verify.monogamy_campaign(trials=4, seed=s_mono)
        run_cli(["sweep", "--steps", "11"])

    return ops, warmup


def sweep_op(workdir):
    return file_op(
        "sweep",
        "sweep",
        ["sweep", "--steps", str(SWEEP_STEPS)],
        workdir / "sweep.csv",
        lambda path: checks.check_sweep(path.read_text(encoding="ascii"), SWEEP_STEPS),
    )


def generate_ops(rng, workdir, seed):
    dims_pool = ((2, 2), (2, 3), (3, 3), (3, 2))
    which = BELLS[int(rng.integers(4))]
    p = float(rng.uniform(0.0, 1.0))
    d_pure, d_mixed, d_prod = (dims_pool[int(i)] for i in rng.integers(0, 4, size=3))
    rank = int(rng.integers(1, d_mixed[0] * d_mixed[1] + 1))
    bell = _bell_vector(which)
    cases = [
        ("bell", ["--which", which], (2, 2), {"want": np.outer(bell, bell.conj())}),
        ("werner", ["--p", repr(p)], (2, 2), {"want": ref.werner_matrix(p)}),
        ("random-pure", ["--dims", "%dx%d" % d_pure, "--seed", str(seed)], d_pure, {}),
        (
            "random-mixed",
            ["--dims", "%dx%d" % d_mixed, "--rank", str(rank), "--seed", str(seed + 1)],
            d_mixed,
            {"rank": rank},
        ),
        ("product", ["--dims", "%dx%d" % d_prod, "--seed", str(seed + 2)], d_prod, {}),
    ]
    ops = []
    for kind, args, dims, extra in cases:

        def check(path, kind=kind, dims=dims, extra=extra):
            checks.check_generated(read_json(path), kind, dims, **extra)

        out = workdir / f"generate-{kind}.json"
        ops.append(file_op(f"generate-{kind}", "generate", ["generate", kind, *args], out, check))
    return ops


WORKLOADS = {
    "qubit-search": qubit_search,
    "qudit-search": qudit_search,
    "closed-forms": closed_forms,
}
