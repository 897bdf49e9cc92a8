#!/usr/bin/env python3
"""Time van der Kallen's sum on the universal double-row ring.

For each n, build ``vtilde_ring(n)`` over Q, then time one
``vdk_add(x_row, u_row)``, the addition whose certified sum specializes to
the sum of every pair of rows with a split combined tail.  Prints, per n,
the seconds of that addition alone and the total terms of the witness
(the splitting of the sum row).

Usage: python3 scripts/vdk_universal.py [--n-min 3] [--n-max 5]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from umrow.fields import RATIONALS
from umrow.quadrics import vtilde_ring
from umrow.rows import vdk_add


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=5)
    args = parser.parse_args()
    if args.n_min < 2:
        parser.error("the universal double-row ring needs n >= 2")
    print(f"{'n':>3} {'seconds':>9} {'witness terms':>14}")
    for n in range(args.n_min, args.n_max + 1):
        vt = vtilde_ring(n, RATIONALS)
        x, u = vt.x_row(), vt.u_row()
        start = time.perf_counter()
        s = vdk_add(x, u)
        seconds = time.perf_counter() - start
        terms = sum(len(e.rep.terms) for e in s.splitting.entries)
        print(f"{n:>3} {seconds:>9.2f} {terms:>14}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
