"""Elementary exact number theory feeding the rank formula.

Jacobi symbols are computed by reciprocity (no factorization); the
fractional-part sum and the square count are the two combinatorial terms
of the closed-form rank (an O(g) chunked int64 sum and a closed form from
the factorization of 4g-4), and the Gauss sum, read from the q-value
histogram, is a floating-point Milgram oracle for discriminant forms.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (
    BadGenus,
    EvenDenominator,
    NonpositiveDenominator,
    TooLarge,
)
from .lattices import DiscriminantForm


def jacobi(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for odd b >= 1; (a/1) = 1 by convention."""
    if b <= 0:
        raise NonpositiveDenominator(f"denominator must be positive, got {b}")
    if b % 2 == 0:
        raise EvenDenominator(f"denominator must be odd, got {b}")
    a %= b
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


# k*k is exact in int64 for k <= g-1 while (g-1)^2 < 2^63
FRAC_SUM_MAX_GENUS = 3_037_000_500
_CHUNK = 1 << 16


def check_frac_sum_genus(g: int) -> None:
    """Raise TooLarge when frac_square_sum(g) would overflow int64."""
    if g > FRAC_SUM_MAX_GENUS:
        raise TooLarge(
            f"genus {g} exceeds {FRAC_SUM_MAX_GENUS}, the largest with fracsum exact in int64"
        )


def frac_square_sum(g: int) -> Fraction:
    """Sum over 0 <= k <= g-1 of the fractional part of k^2/(4g-4).

    Numerators k^2 mod 4g-4 are summed in int64 over chunks of at most
    2^16 values of k, so memory stays bounded whatever g is.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    check_frac_sum_genus(g)
    m = 4 * g - 4
    total = 0
    for start in range(0, g, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, g), dtype=np.int64)
        total += int(np.sum(k * k % m))
    return Fraction(total, m)


def square_count(g: int) -> int:
    """Count of 0 <= k <= g-1 with k^2 divisible by m = 4g-4.

    m | k^2 exactly when r | k, for r = prod p^ceil(e/2) over m = prod p^e
    (the least r with m | r^2), so the count is floor((g-1)/r) + 1.  r comes
    from trial division of m.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    m, r, p = 4 * g - 4, 1, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        r *= p ** ((e + 1) // 2)
        p += 2 if p > 2 else 1
    return (g - 1) // (r * m) + 1  # the cofactor m left is 1 or a prime


GAUSS_SUM_CAP = 10**6


def gauss_sum(df: DiscriminantForm, cap: int = GAUSS_SUM_CAP) -> complex:
    """Sum of exp(pi*i*<gamma,gamma>) over the discriminant group.

    Evaluated as the sum of count * e(v/N) over the distinct values v of the
    form's q-value histogram (`DiscriminantForm.q_histogram`).  It is checked
    by Milgram's formula, sqrt(|A|) * exp(2*pi*i*sig/8) with sig from
    `signature`, and by the `Fraction` oracle test of the encoding.
    """
    if df.cardinality > cap:
        raise TooLarge(f"group of order {df.cardinality} exceeds cap {cap}")
    values, counts = df.q_histogram
    return complex(counts @ np.exp((2j * np.pi / df.level) * values))
