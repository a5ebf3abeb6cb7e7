#!/usr/bin/env python3
"""Scan the sixth-condition spectral residual over domain lengths.

For each L, the linear operator u' + u''' - u''''' is discretized with the
five homogeneous boundary conditions and the residual of the overdetermining
sixth condition u''(0) = 0 is minimized over the lowest eigenpairs.  Near-zero
dips flag critical-length candidates where a nontrivial solution of the full
overdetermined eigenproblem may exist.

Usage: spectral_scan.py [N] (an integer above 50, the eigenpairs scanned;
default 200).  Exit 2 on a bad argument.
"""

import sys

import numpy as np

from kawalab.diagnostics import spectral_residuals

N_PAIRS = 50
USAGE = (f"usage: spectral_scan.py [N]  (N an integer above {N_PAIRS},"
         " default 200)")


def main(argv):
    try:
        (N,) = [int(a) for a in argv] or [200]
    except ValueError:
        N = None
    if N is None or N <= N_PAIRS:
        print(USAGE, file=sys.stderr)
        return 2
    Ls = np.arange(0.5, 10.01, 0.1)
    residuals = np.array([spectral_residuals(float(L), N, N_PAIRS).min()
                          for L in Ls])
    floor = np.median(residuals) * 0.05
    print("L,min_residual,candidate")
    for L, r in zip(Ls, residuals):
        print(f"{L:.1f},{r:.6e},{'*' if r < floor else ''}")
    cands = [f"{L:.1f}" for L, r in zip(Ls, residuals) if r < floor]
    print(f"# critical-length candidates (residual < 5% of median): "
          f"{', '.join(cands) if cands else 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
