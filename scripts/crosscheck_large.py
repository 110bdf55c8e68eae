#!/usr/bin/env python3
"""Cross-check the two pipelines at seeded large genera.

Draws COUNT genera uniformly from [10^6, G_MAX] with a seeded generator,
computes the closed-form rank and 1 + dim S_{21/2, Lambda_g} for each, and
prints one line per genus with both values and the seconds each side took.
Exits 1 on any mismatch.  The cusp side is exact: its Gauss sums come from
the discriminant form's local data, and it walks one element of each pair
{gamma, -gamma} with gamma != -gamma (g - 2 of the 2g - 2 elements) for
integer sums only, a bounded slice at a time, and evaluates the two
elements with 2*gamma = 0 once, so its memory does not grow with the genus
(about 30 MB peak RSS with numpy loaded, at g = 10^8 too).

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
        via_cusp = 1 + dim_cusp(lambda_lattice(g), Fraction(21, 2)).dim
        mid = time.perf_counter()
        closed = picard_rank(g).rank
        end = time.perf_counter()
        ok = closed == via_cusp
        failures += not ok
        print(
            f"g={g} rank_formula={closed} cusp_pipeline={via_cusp} "
            f"cusp_s={mid - start:.2f} formula_s={end - mid:.2f} {'ok' if ok else 'MISMATCH'}",
            flush=True,
        )
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
