"""Command line interface: analyze, sweep, verify, generate.

Exit codes: 0 success, 1 usage error, 2 input validation error,
3 verification failure.  Machine outputs (JSON and CSV) are byte
deterministic for identical arguments.
"""

import argparse
import json
import math
import sys

import numpy as np

from .coherence import OptimizerConfig
from .errors import DiscohError, UnsupportedDimensionError
from .measures import MEASURES, METHODS, evaluate
from .states import (
    PureState,
    load_state,
    make_bell,
    make_werner,
    random_mixed,
    random_pure,
    save_state,
)
from .verify import SUITES, run_suite, werner_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3

SWEEP_COLUMNS = ("p", "d_ab", "d_ba", "d_sym", "v", "v_tilde", "horodecki_m", "chsh_violated")


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit code 2; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        m, n = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must look like 2x3, got {text!r}")
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return m, n


def _parse_dims_or_all(text: str):
    if text == "all":
        return "all"
    return _parse_dims(text)


def _integer(what: str, low: int):
    """Parser of an integer that must be at least low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        return value

    parse.__name__ = what  # argparse names the type in its "invalid ... value" message
    return parse


def _finite_float(what: str, positive: bool = False):
    """Parser of a finite float that must be at least 0, or above 0 if positive."""

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            bound = "positive" if positive else "at least 0"
            raise argparse.ArgumentTypeError(f"{what} must be finite and {bound}, got {text!r}")
        return value

    parse.__name__ = what  # argparse names the type in its "invalid ... value" message
    return parse


def _parse_measures(text: str) -> list[str]:
    if text == "all":
        return ["all"]
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise argparse.ArgumentTypeError("measure list is empty")
    for name in names:
        if name not in MEASURES:
            raise argparse.ArgumentTypeError(
                f"unknown measure {name!r}; choose from {', '.join(MEASURES)}"
            )
    seen: list[str] = []
    for name in names:
        if name not in seen:
            seen.append(name)
    return seen


# The flags behind each verify option; a flag is a usage error on a suite
# that does not take its option.
_SUITE_OPTION_FLAGS = {
    "dims": ("dims",),
    "samples": ("samples",),
    "config": ("restarts", "max_iterations", "objective_tolerance"),
}


def _optimizer_config(args) -> OptimizerConfig:
    """OptimizerConfig from the search flags; a flag left unset takes the config default."""
    given = {
        name: getattr(args, name)
        for name in _SUITE_OPTION_FLAGS["config"]
        if getattr(args, name) is not None
    }
    return OptimizerConfig(seed=args.seed, **given)


def _detail_text(detail: dict) -> str:
    parts = []
    for key, value in detail.items():
        if isinstance(value, bool):
            text = _fmt_bool(value)
        elif isinstance(value, float):
            text = _fmt(value)
        elif isinstance(value, list):
            text = " ".join(_fmt(v) for v in value)
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    return ";".join(parts)


def _render_records(records, fmt: str, dims) -> str:
    if fmt == "json":
        payload = {"dims": list(dims), "records": records}
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        lines = ["measure,value,method,converged,detail"]
        for rec in records:
            conv = "" if rec["converged"] is None else _fmt_bool(rec["converged"])
            cells = (rec["measure"], _fmt(rec["value"]), rec["method"], conv)
            lines.append(",".join((*cells, _detail_text(rec["detail"]))))
        return "\n".join(lines) + "\n"
    header = f"{'measure':<12} {'value':>18} {'method':<9} {'conv':<5} detail"
    lines = [header, "-" * len(header)]
    for rec in records:
        conv = "-" if rec["converged"] is None else ("yes" if rec["converged"] else "NO")
        lines.append(
            f"{rec['measure']:<12} {_fmt(rec['value']):>18} {rec['method']:<9} {conv:<5} "
            f"{_detail_text(rec['detail'])}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def cmd_analyze(args) -> int:
    rho = load_state(args.state)
    cfg = _optimizer_config(args)
    records = evaluate(rho, args.measures, args.method, cfg)
    _emit(_render_records(records, args.format, rho.dims), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.family != "werner":
        raise UnsupportedDimensionError(f"unknown sweep family {args.family!r}")
    rows = werner_sweep(args.lo, args.hi, args.steps)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            value = row[col]
            cells.append(_fmt_bool(value) if isinstance(value, bool) else _fmt(value))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    takes = SUITES[args.suite].options
    for option, flags in _SUITE_OPTION_FLAGS.items():
        for flag in flags:
            if getattr(args, flag) is not None and option not in takes:
                args.usage_error(f"suite {args.suite} takes no --{flag.replace('_', '-')}")
    options = {}
    if "dims" in takes:
        options["dims"] = None if args.dims in (None, "all") else (args.dims,)
    if "samples" in takes:
        options["samples"] = args.samples
    if "config" in takes:
        options["config"] = _optimizer_config(args)
    result = run_suite(args.suite, args.trials, args.tol, args.seed, args.workers, **options)
    print(result.summary())
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


def cmd_generate(args) -> int:
    if args.kind == "bell":
        rho = make_bell(args.which).to_density()
    elif args.kind == "werner":
        if args.p is None:
            raise DiscohError("werner generation needs --p")
        rho = make_werner(args.p)
    elif args.kind == "random-pure":
        rho = random_pure(args.dims, args.seed).to_density()
    elif args.kind == "random-mixed":
        m, n = args.dims
        rank = args.rank if args.rank is not None else m * n
        rho = random_mixed(args.dims, rank, args.seed)
    else:  # product
        m, n = args.dims
        rng = np.random.default_rng(args.seed)
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        amp = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho = PureState(args.dims, amp).to_density()
    save_state(rho, args.output)
    return EXIT_OK


def _add_optimizer_flags(parser) -> None:
    parser.add_argument(
        "--restarts",
        type=_integer("restarts", 1),
        default=None,
        help="search restarts (default 32)",
    )
    parser.add_argument(
        "--max-iterations",
        type=_integer("max-iterations", 1),
        default=None,
        help="cap per restart on iterations, an iteration being one sweep on each searched "
        "side: one side for d_ab, d_ba, d_sym, both sides for d_tilde, v, v_tilde; a sweep "
        "takes a step on every pair of levels, one exact Givens step, or for v, v_tilde off "
        "2x2 two line steps (default 2000)",
    )
    parser.add_argument(
        "--objective-tolerance",
        type=_finite_float("objective-tolerance", positive=True),
        default=None,
        help="stop a restart once its last iteration moved its objective by at most this "
        "and the moves still to come, estimated from the ratio of its last two, add up to "
        "at most this (default 1e-9)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="discoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_an = sub.add_parser("analyze", help="measures of one state file")
    p_an.add_argument("state", help="input state JSON (dims plus re/im blocks)")
    p_an.add_argument("--measures", type=_parse_measures, default=["all"])
    p_an.add_argument("--method", choices=METHODS, default="auto")
    p_an.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_an.add_argument("--output", "-o", default=None)
    p_an.add_argument("--seed", type=_integer("seed", 0), default=0)
    _add_optimizer_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="closed-form measure table over a state family")
    p_sw.add_argument("--family", choices=("werner",), default="werner")
    p_sw.add_argument("--lo", type=float, default=0.0)
    p_sw.add_argument("--hi", type=float, default=1.0)
    p_sw.add_argument("--steps", type=_integer("steps", 2), default=101)
    p_sw.add_argument("--output", "-o", default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_ve = sub.add_parser("verify", help="randomized verification campaigns")
    p_ve.add_argument("suite", choices=tuple(SUITES))
    p_ve.add_argument("--trials", type=_integer("trials", 1), default=None)
    p_ve.add_argument("--dims", type=_parse_dims_or_all, default=None, help="monogamy, corollary2")
    p_ve.add_argument(
        "--samples",
        type=_integer("samples", 1),
        default=None,
        help="decompositions per trial (corollary1)",
    )
    p_ve.add_argument("--seed", type=_integer("seed", 0), default=0)
    p_ve.add_argument("--tol", type=_finite_float("tol"), default=None)
    p_ve.add_argument("--workers", type=_integer("workers", 1), default=1)
    _add_optimizer_flags(p_ve)
    p_ve.set_defaults(func=cmd_verify, usage_error=p_ve.error)

    p_ge = sub.add_parser("generate", help="write a state file")
    p_ge.add_argument(
        "kind", choices=("bell", "werner", "random-pure", "random-mixed", "product")
    )
    p_ge.add_argument("--which", default="phi+", help="bell flavor: phi+ phi- psi+ psi-")
    p_ge.add_argument("--p", type=float, default=None, help="werner mixing parameter")
    p_ge.add_argument("--dims", type=_parse_dims, default=(2, 2))
    p_ge.add_argument("--rank", type=_integer("rank", 1), default=None)
    p_ge.add_argument("--seed", type=_integer("seed", 0), default=0)
    p_ge.add_argument("--output", "-o", required=True)
    p_ge.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse and usage_error exit this way
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DiscohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main_entry() -> None:
    sys.exit(main())
