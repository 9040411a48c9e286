"""Sweep the Werner family and locate the CHSH violation threshold.

Prints the closed-form measure table as CSV, through `discoh sweep`, and
reports the bracketing rows around the onset.  With --check, the basis
search re-derives a few rows numerically as a spot check.
"""

import argparse
import sys

import numpy as np

from discoh import OptimizerConfig, make_werner, minimize_over_bases, werner_sweep
from discoh.cli import _integer
from discoh.cli import main as discoh_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=_integer("steps", 2), default=201)
    ap.add_argument("--check", action="store_true", help="numeric spot checks at p = 0.25, 0.5, 0.9")
    ap.add_argument("--seed", type=_integer("seed", 0), default=0)
    args = ap.parse_args()

    code = discoh_main(["sweep", "--steps", str(args.steps)])  # the `discoh sweep` CSV
    if code:
        return code
    rows = werner_sweep(0.0, 1.0, args.steps)

    onset = next((i for i, r in enumerate(rows) if r["chsh_violated"]), None)
    if onset is None:
        print("no violation in range", file=sys.stderr)
        return 1
    print(
        f"# onset between p={rows[onset - 1]['p']:.6g} and p={rows[onset]['p']:.6g}, "
        f"1/sqrt(2)={1 / np.sqrt(2):.6f}",
        file=sys.stderr,
    )

    if args.check:
        cfg = OptimizerConfig(seed=args.seed)
        for p in (0.25, 0.5, 0.9):
            rho = make_werner(p)
            v_num = minimize_over_bases(rho, "class3", cfg).value
            print(
                f"# p={p}: numeric v={v_num:.9f} closed form {p * p / 4:.9f} "
                f"dev={abs(v_num - p * p / 4):.2e}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
