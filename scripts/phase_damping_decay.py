"""Track coherence classes and correlation measures under phase damping.

Damps side A of a Bell state across a gamma grid and prints how the
fixed-basis class sums, the one-sided discord, and the CHSH quantity decay.
Class II survives damping on A when the state has B-side-only coherence, so
the same table for |0>x|+> is printed with --product.
"""

import argparse
import sys

import numpy as np

from discoh import (
    PureState,
    apply_channel,
    chsh_violation,
    contributions,
    discord_ab_analytic,
    make_bell,
    phase_damping,
)
from discoh.cli import _integer


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
    print("gamma,class1,class2,class3,tilde_total,total,d_ab,horodecki_m")
    for i in range(args.steps):
        gamma = i / (args.steps - 1)
        rho = apply_channel(rho0, phase_damping(gamma, "A"))
        c = contributions(rho)
        d_ab = discord_ab_analytic(rho)[0]
        m = chsh_violation(rho)[1]
        cells = (gamma, c.class1, c.class2, c.class3, c.tilde_total, c.total, d_ab, m)
        print(",".join(format(x, ".12g") for x in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
