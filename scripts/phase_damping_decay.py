"""Track coherence classes and correlation measures under phase damping.

Damps side A of a Bell state across a gamma grid and prints how the
fixed-basis class sums, the one-sided discord, and the CHSH quantity decay.
Class II survives damping on A when the state has B-side-only coherence, so
the same table for |0>x|+> is printed with --product.
"""

import argparse
import sys

import numpy as np

from discoh import PureState, apply_channel, contributions, make_bell, phase_damping
from discoh.cli import _integer
from discoh.measures import ANALYTIC, Evaluation, records


def source_state(product: bool):
    if not product:
        return make_bell("phi+").to_density()
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[1] = 1 / np.sqrt(2)
    return PureState((2, 2), amp).to_density()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=_integer("steps", 2), default=11)
    ap.add_argument("--product", action="store_true", help="damp |0>x|+> instead of phi+")
    args = ap.parse_args()

    rho0 = source_state(args.product)
    gammas = [i / (args.steps - 1) for i in range(args.steps)]
    rhos = [apply_channel(rho0, phase_damping(gamma, "A")) for gamma in gammas]
    found = records([Evaluation(rho) for rho in rhos], [("d_ab", ANALYTIC), ("chsh", ANALYTIC)])
    print("gamma,class1,class2,class3,tilde_total,total,d_ab,horodecki_m")
    for gamma, rho, (d_ab, chsh) in zip(gammas, rhos, found):
        c = contributions(rho)
        cells = (gamma, c.class1, c.class2, c.class3, c.tilde_total, c.total)
        cells += (d_ab["value"], chsh["value"])
        print(",".join(format(x, ".12g") for x in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
