#!/usr/bin/env python3
"""Recovered-information curves N(a_B): per well separation (3D) and per dimension.

Runs `becqubit sweep` along a_B and writes one CSV per curve, each with its
manifest digest in the header and a .manifest.json sidecar:
  sweep_L<L>nm.csv  N(a_B) for L = 50, 75, 100 nm in 3D, a_B up to 3 a_Rb
  sweep_<D>d.csv    N(a_B) for D = 1, 2, 3 at L = 75 nm, a_B up to each cap
Exits 3 if any sweep point failed; the other points are still written.
"""

import argparse
import os
import sys

import numpy as np

from becqubit import cli
from becqubit.analysis import A_B_MAX_OVER_ARB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=12)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)

    def grid(cap: float) -> str:
        return ",".join(repr(float(v)) for v in np.linspace(0.01, cap, args.points))

    runs = [(f"sweep_L{L_nm}nm.csv", ["--l-nm", str(L_nm), "--grid", grid(3.0)]) for L_nm in (50, 75, 100)]
    runs += [
        (f"sweep_{dim}d.csv", ["--dimension", str(dim), "--grid", grid(A_B_MAX_OVER_ARB[dim])])
        for dim in (3, 2, 1)
    ]
    failed = False
    for name, flags in runs:
        out = os.path.join(args.out_dir, name)
        code = cli.main(["sweep", "--axis", "a_B", *flags, "--out", out])
        if code not in (cli.EXIT_OK, cli.EXIT_CONVERGENCE):
            return code
        failed = failed or code == cli.EXIT_CONVERGENCE
        print(f"wrote {out}")
    return cli.EXIT_CONVERGENCE if failed else cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
