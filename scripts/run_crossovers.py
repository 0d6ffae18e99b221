#!/usr/bin/env python3
"""Locate the Markovian/non-Markovian crossover scattering length in 1D/2D/3D.

Runs `becqubit crossover` once per dimension and writes crossover_<D>d.csv,
each with its manifest digest in the header and a .manifest.json sidecar.
With default parameters this reproduces the reference values
a_crit/a_Rb ~ 0.034 (3D), 0.122 (2D), 0.183 (1D) in about 1 s, interpreter
start-up included (2-core Intel Xeon, one BLAS thread, Python 3.11, numpy 2.4).
"""

import argparse
import os
import sys

from becqubit import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol-arb", default="1e-3", help="width of the a_crit bracket in units of a_Rb")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)

    for dim in (3, 2, 1):
        out = os.path.join(args.out_dir, f"crossover_{dim}d.csv")
        code = cli.main(["crossover", "--dimension", str(dim), "--tol-arb", args.tol_arb, "--out", out])
        if code != cli.EXIT_OK:
            return code
        print(f"wrote {out}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
