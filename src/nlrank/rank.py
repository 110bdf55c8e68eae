"""Closed-form Picard rank of the genus-g K3 moduli space.

rank = (31g+24)/24 - alpha_g/4 - beta_g/6 - fracsum - sqcount, evaluated
exactly in integers over the common denominator 24 * den(fracsum).  The
result must come out an integer >= 1; anything else signals a
transcription bug and raises.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .arith import frac_square_sum, jacobi, square_count
from .errors import BadGenus, BadRange, NonIntegerResult

CSV_COLUMNS = ["g", "alpha", "beta", "fracsum_num", "fracsum_den", "sqcount", "rank"]


def alpha(g: int) -> int:
    """alpha_g: 0 for even g, else the Jacobi symbol (2g-2 / 2g-3)."""
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    if g % 2 == 0:
        return 0
    return jacobi(2 * g - 2, 2 * g - 3)


def beta(g: int) -> int:
    """beta_g with the g mod 3 case split."""
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    j = jacobi(g - 1, 4 * g - 5)
    if g % 3 == 1:
        return j - 1
    return j + jacobi(g - 1, 3)


@dataclass(frozen=True)
class RankReport:
    g: int
    alpha: int
    beta: int
    fracsum: Fraction
    sqcount: int
    rank: int

    def csv_row(self) -> list:
        return [
            self.g,
            self.alpha,
            self.beta,
            self.fracsum.numerator,
            self.fracsum.denominator,
            self.sqcount,
            self.rank,
        ]

    def to_json_obj(self) -> dict:
        # keys in sorted order: `rank`'s JSON objects are key-sorted
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "fracsum": [self.fracsum.numerator, self.fracsum.denominator],
            "g": self.g,
            "rank": self.rank,
            "sqcount": self.sqcount,
        }

    def pretty(self) -> str:
        fs = self.fracsum
        return (f"g={self.g} alpha={self.alpha} beta={self.beta} fracsum="
                f"{fs.numerator}/{fs.denominator} sqcount={self.sqcount} rank={self.rank}")


def picard_rank(g: int) -> RankReport:
    """Exact term-by-term evaluation of the closed-form rank.

    With fracsum = p/q in lowest terms, 24*q*rank is the integer
    (31g + 24 - 6*alpha - 4*beta - 24*sqcount)*q - 24*p, so one divmod
    decides both the value and its integrality.
    """
    a = alpha(g)
    b = beta(g)
    fs = frac_square_sum(g)
    sc = square_count(g)
    den = 24 * fs.denominator
    num = (31 * g + 24 - 6 * a - 4 * b - 24 * sc) * fs.denominator - 24 * fs.numerator
    rank, rem = divmod(num, den)
    if rem or rank < 1:
        raise NonIntegerResult(f"rank formula gave {Fraction(num, den)} at g = {g}")
    return RankReport(g=g, alpha=a, beta=b, fracsum=fs, sqcount=sc, rank=rank)


def rank_table(g_lo: int, g_hi: int) -> Iterator[RankReport]:
    """Rank reports for g_lo..g_hi inclusive, in genus order, made one at a
    time as they are read.  The range is checked before the first row."""
    if g_lo < 2 or g_lo > g_hi:
        raise BadRange(f"need 2 <= g_lo <= g_hi, got ({g_lo}, {g_hi})")
    return (picard_rank(g) for g in range(g_lo, g_hi + 1))


def table_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        writer.writerow(rep.csv_row())
    return buf.getvalue()


def table_to_json(reports) -> str:
    return json.dumps([rep.to_json_obj() for rep in reports], sort_keys=True)
