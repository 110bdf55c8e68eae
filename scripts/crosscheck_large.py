#!/usr/bin/env python3
"""Cross-check the two pipelines at seeded large genera.

Draws COUNT genera uniformly from [10^6, G_MAX] with a seeded generator,
computes the closed-form rank and 1 + dim S_{21/2, Lambda_g} for each, and
prints one line per genus with both values, the snap residual of the cusp
side (how far its one snapped float was from an integer) and the seconds
each side took.  Exits 1 on any mismatch and on any residual above
RESIDUAL_MAX.  The cusp side walks half the discriminant group (g of its
2g - 2 elements) a bounded slice at a time, so its memory does not grow
with the genus (about 30 MB peak RSS with numpy loaded, at g = 10^8 too).

Usage: python3 scripts/crosscheck_large.py [--seed S] [--count C] [--max G_MAX]
Defaults: seed 1, 5 genera, G_MAX = 10^8.
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from nlrank import dim_cusp, lambda_lattice, picard_rank

G_MIN = 10**6
# SNAP_TOL is 1e-6; a residual above this bound, though still snapped, means
# the Gauss sums lost precision
RESIDUAL_MAX = 1e-9


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=5)
    parser.add_argument("--max", dest="g_max", type=int, default=10**8)
    args = parser.parse_args()
    if args.g_max < G_MIN:
        parser.error(f"need --max >= {G_MIN}, got {args.g_max}")

    rng = random.Random(args.seed)
    genera = sorted(rng.randint(G_MIN, args.g_max) for _ in range(args.count))
    failures = 0
    for g in genera:
        start = time.perf_counter()
        report = dim_cusp(lambda_lattice(g), Fraction(21, 2))
        via_cusp = 1 + report.dim
        mid = time.perf_counter()
        closed = picard_rank(g).rank
        end = time.perf_counter()
        if closed != via_cusp:
            status = "MISMATCH"
        elif report.snap_residual > RESIDUAL_MAX:
            status = "RESIDUAL"
        else:
            status = "ok"
        failures += status != "ok"
        print(
            f"g={g} rank_formula={closed} cusp_pipeline={via_cusp} "
            f"residual={report.snap_residual:.1e} "
            f"cusp_s={mid - start:.2f} formula_s={end - mid:.2f} {status}",
            flush=True,
        )
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
