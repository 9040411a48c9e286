"""Run every randomized verification campaign and print the summary table.

Default sizes reproduce the acceptance-scale runs (a few minutes on one
core); --scale shrinks everything proportionally for a quick look.
"""

import argparse
import sys

from discoh.cli import _finite_float, _integer
from discoh.verify import SUITES, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    scale = _finite_float("scale", positive=True)
    ap.add_argument("--scale", type=scale, default=1.0, help="trial count multiplier")
    ap.add_argument("--seed", type=_integer("seed", 0), default=0)
    args = ap.parse_args()

    all_passed = True
    for name, suite in SUITES.items():
        result = run_suite(name, max(2, int(suite.trials * args.scale)), seed=args.seed)
        print(result.summary(), flush=True)
        all_passed = all_passed and result.passed
    return 0 if all_passed else 3


if __name__ == "__main__":
    sys.exit(main())
