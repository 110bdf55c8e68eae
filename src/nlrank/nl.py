"""Noether-Lefschetz divisor bookkeeping on the genus-g K3 moduli side.

A divisor label (g, h, d) carries the discriminant
Delta = d^2 - 4(g-1)(h-1), the norm n = -Delta/(4g-4) of the projected
class, and its coset gamma = d mod 2g-2 in the discriminant group.  The
projection oracle recomputes n from the rank-2 Gram matrix of the span
of the polarization and the extra class, independently of the label
formula.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from fractions import Fraction

from .errors import BadGenus, NegativeDiscriminant

CSV_COLUMNS = ["g", "h", "d", "delta", "n_num", "n_den", "gamma", "degenerate"]


class NLLabel(namedtuple("NLLabel", "g h d delta n gamma degenerate")):
    """The label of D_{h,d} in genus g: ints, the norm `n` a Fraction and
    `degenerate` a bool (see `nl_label`)."""

    __slots__ = ()

    def csv_row(self) -> list:
        return [
            self.g,
            self.h,
            self.d,
            self.delta,
            self.n.numerator,
            self.n.denominator,
            self.gamma,
            int(self.degenerate),
        ]

    def to_json_obj(self) -> dict:
        return dict(zip(CSV_COLUMNS, self.csv_row()))

    def pretty(self) -> str:
        tail = " degenerate" if self.degenerate else ""
        return (f"h={self.h} d={self.d} delta={self.delta} "
                f"n={self.n.numerator}/{self.n.denominator} gamma={self.gamma}{tail}")


def nl_label(g: int, h: int, d: int) -> NLLabel:
    """Label of the divisor D_{h,d}; Delta = 0 is degenerate (Euler class)."""
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    delta = d * d - 4 * (g - 1) * (h - 1)
    if delta < 0:
        raise NegativeDiscriminant(f"Delta({h},{d}) = {delta} < 0 for g = {g}")
    n = Fraction(-delta, 4 * g - 4)
    return NLLabel(
        g=g,
        h=h,
        d=d,
        delta=delta,
        n=n,
        gamma=d % (2 * g - 2),
        degenerate=(delta == 0),
    )


def projection_oracle(g: int, h: int, d: int) -> Fraction:
    """Half-norm of beta projected away from c1(L).

    Works on the abstract rank-2 Gram [[2g-2, d], [d, 2h-2]] of the span
    of c1(L) and beta: x = beta - (d/(2g-2)) c1(L), returns <x,x>/2.  The
    projection is evaluated on the lattice vector a*x = a*beta - d*c1(L),
    a = 2g-2, in integers, so <x,x>/2 = <ax,ax>/(2a^2) is one fraction.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    a, b = 2 * g - 2, 2 * h - 2
    # <ax,ax> = a^2*(beta.beta) - 2ad*(beta.c1) + d^2*(c1.c1)
    axax = a * a * b - 2 * a * d * d + d * d * a
    return Fraction(axax, 2 * a * a)


def iter_nl(g: int, d_max: int, h_max: int) -> Iterator[NLLabel]:
    """All valid labels on the grid 0 <= d <= d_max, 0 <= h <= h_max, made as
    they are read, sorted by (Delta descending, d, h); degenerate ones included.
    Each h is one run of d from d_max down, so Delta descends in it, and the
    runs are merged.  Bounds and g are checked first, before any run is opened.
    """
    if d_max < 0 or h_max < 0:
        raise ValueError("grid bounds must be nonnegative")
    nl_label(g, 0, 0)  # the genus check, before the first label
    return _merged_runs(g, d_max, h_max)


def _merged_runs(g: int, d_max: int, h_max: int) -> Iterator[NLLabel]:
    """The merge of `iter_nl`, opening run h only when it is needed.

    Run h starts at its largest Delta, d_max^2 - 4(g-1)(h-1), which falls
    as h grows, so the labels of the open runs are written while their key
    (-Delta, d, h) comes before that of run h's first label, and then run h
    is opened; the keys are distinct, as (d, h) is.  The first h with no
    valid d ends the runs.  So memory grows with the runs the output has
    reached, never with d_max, and the first label comes at once however
    large h_max is.
    """
    heap = []  # (key, label, run) for each open run's next label
    h = 0
    while True:
        c = 4 * (g - 1) * (h - 1)  # Delta = d^2 - c
        more = h <= h_max and d_max * d_max >= c
        first = (c - d_max * d_max, d_max, h) if more else (math.inf,)
        while heap and heap[0][0] < first:
            _, label, run = heap[0]
            yield label
            nxt = next(run, None)
            if nxt is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, ((-nxt.delta, nxt.d, nxt.h), nxt, run))
        if not more:
            return
        d_lo = math.isqrt(c - 1) + 1 if c > 0 else 0
        run = map(partial(nl_label, g, h), range(d_max, d_lo - 1, -1))
        heapq.heappush(heap, (first, next(run), run))
        h += 1


def enumerate_nl(g: int, d_max: int, h_max: int) -> list[NLLabel]:
    """The labels of `iter_nl` as a list."""
    return list(iter_nl(g, d_max, h_max))


def labels_to_csv(labels) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for lab in labels:
        writer.writerow(lab.csv_row())
    return buf.getvalue()
