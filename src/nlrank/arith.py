"""Elementary exact number theory feeding the rank formula.

Jacobi symbols are computed by reciprocity (no factorization); the
fractional-part sum and the square count are the two combinatorial terms
of the closed-form rank (an O(g) int64 sum over bounded chunks and a closed
form from the factorization of 4g-4).  The Gauss sum, over the whole
discriminant form's q-values, is a floating-point Milgram oracle for
discriminant forms; its roots of unity are the form's `roots`, the same map
the cusp dimension and the Weil operators read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    BadGenus,
    EvenDenominator,
    NonpositiveDenominator,
    TooLarge,
)

if TYPE_CHECKING:
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
# values of k per chunk: the int64 chunk (64 KiB) stays below glibc's
# default 128 KiB mmap threshold, so chunks reuse heap memory instead of
# mapping fresh pages each time
_CHUNK = 1 << 13


def check_frac_sum_genus(g: int) -> None:
    """Raise TooLarge when frac_square_sum(g) would overflow int64."""
    if g > FRAC_SUM_MAX_GENUS:
        raise TooLarge(
            f"genus {g} exceeds {FRAC_SUM_MAX_GENUS}, the largest with fracsum exact in int64"
        )


def frac_square_sum(g: int) -> Fraction:
    """Sum over 0 <= k <= g-1 of the fractional part of k^2/(4g-4).

    The numerator sum of k^2 mod m, m = 4g-4, is h(h+1)(2h+1)/6 - m * sum
    floor(k^2/m) with h = g-1; the floors are summed in int64 over chunks
    of at most _CHUNK values of k, so memory stays bounded whatever g is.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    check_frac_sum_genus(g)
    import numpy as np

    m, h = 4 * g - 4, g - 1
    floors = 0
    for start in range(0, g, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, g), dtype=np.int64)
        k *= k
        k //= m
        floors += int(k.sum())
    return Fraction(h * (h + 1) * (2 * h + 1) // 6 - m * floors, m)


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


def gauss_sum(df: DiscriminantForm) -> complex:
    """Sum of exp(pi*i*<gamma,gamma>) over the discriminant group.

    Evaluated as the sum of e(v/N) over the form's q-values v = N*q/2 mod N
    (`DiscriminantForm.qn`, the array the Weil operators read) with the
    form's own `roots`.  It is checked by Milgram's formula,
    sqrt(|A|) * exp(2*pi*i*sig/8) with sig from `signature`, and by the
    `Fraction` oracle test of the encoding.
    """
    return complex(df.roots(df.qn).sum())
