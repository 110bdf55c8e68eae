#!/usr/bin/env python3
"""Dump a Noether-Lefschetz divisor catalog as CSV to stdout.

Every label is re-verified against the rank-2 projection oracle before
printing; on the first mismatch the label goes to stderr, nothing to
stdout, and the exit code is 1.

Usage: python3 scripts/nl_catalog.py G [D_MAX] [H_MAX]
"""

import sys

from nlrank import enumerate_nl, projection_oracle
from nlrank.nl import labels_to_csv


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    g = int(sys.argv[1])
    d_max = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    h_max = int(sys.argv[3]) if len(sys.argv) > 3 else 20
    labels = enumerate_nl(g, d_max, h_max)
    for lab in labels:
        expected = projection_oracle(g, lab.h, lab.d)
        if expected != lab.n:
            print(f"label {lab}: projection oracle gives n = {expected}", file=sys.stderr)
            sys.exit(1)
    sys.stdout.write(labels_to_csv(labels))


if __name__ == "__main__":
    main()
