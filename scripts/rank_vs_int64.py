#!/usr/bin/env python3
"""Compare `nlrank rank` rows at seeded large genera with the int64 oracle.

Draws COUNT genera uniformly from [G_MIN, G_MAX] with a seeded generator and
runs `nlrank rank --from g --to g --format json` for each in a child
process.  The row's fracsum must equal `frac_square_sum_int64` of
tests/oracles.py, the O(g) int64 sum the closed form used before it read
class numbers, and its rank the closed form evaluated on that fracsum.
Prints one line per genus with the seconds each side took; exits 1 on any
difference.

Usage: python3 scripts/rank_vs_int64.py [--seed S] [--count C] [--min G] [--max G]
Defaults: seed 1, 3 genera, G from 10^8 to 3*10^9.  The oracle is exact up to
g = 3_037_000_500 and takes about 3 s per 10^9 of g on a 2-core shared Xeon.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from nlrank.rank import alpha, beta  # noqa: E402
from nlrank.arith import square_count  # noqa: E402
from oracles import FRAC_SUM_INT64_MAX_GENUS, frac_square_sum_int64  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=3)
    parser.add_argument("--min", dest="g_min", type=int, default=10**8)
    parser.add_argument("--max", dest="g_max", type=int, default=3 * 10**9)
    args = parser.parse_args()
    if not 2 <= args.g_min <= args.g_max <= FRAC_SUM_INT64_MAX_GENUS:
        parser.error(f"need 2 <= --min <= --max <= {FRAC_SUM_INT64_MAX_GENUS}")

    rng = random.Random(args.seed)
    genera = sorted(rng.randint(args.g_min, args.g_max) for _ in range(args.count))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failures = 0
    for g in genera:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nlrank.cli", "rank", "--from", str(g), "--to", str(g),
             "--format", "json"],
            env=env, capture_output=True, text=True, check=True,
        )
        (row,) = json.loads(proc.stdout)
        mid = time.perf_counter()
        fs = frac_square_sum_int64(g)
        end = time.perf_counter()
        rank = Fraction(31 * g + 24, 24) - Fraction(alpha(g), 4) - Fraction(beta(g), 6) \
            - fs - square_count(g)
        ok = row["g"] == g and Fraction(*row["fracsum"]) == fs and row["rank"] == rank
        failures += not ok
        print(
            f"g={g} fracsum={row['fracsum'][0]}/{row['fracsum'][1]} rank={row['rank']} "
            f"oracle_fracsum={fs} oracle_rank={rank} rank_s={mid - start:.2f} "
            f"oracle_s={end - mid:.2f} {'ok' if ok else 'MISMATCH'}",
            flush=True,
        )
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
