"""Elementary exact number theory feeding the rank formula.

Jacobi symbols are computed by reciprocity (no factorization); the
fractional-part sum and the square count are the two combinatorial terms
of the closed-form rank, and the Gauss sum is a floating-point Milgram
oracle for discriminant forms.
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


# int64 is exact for the sums below as long as k^2 and the running total fit
_NUMPY_LIMIT = 10**6


def frac_square_sum(g: int) -> Fraction:
    """Sum over 0 <= k <= g-1 of the fractional part of k^2/(4g-4)."""
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    m = 4 * g - 4
    if g <= _NUMPY_LIMIT:
        k = np.arange(g, dtype=np.int64)
        total = int(np.sum(k * k % m))
    else:
        total = sum(k * k % m for k in range(g))
    return Fraction(total, m)


def square_count(g: int) -> int:
    """Count of 0 <= k <= g-1 with k^2 divisible by 4g-4."""
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    m = 4 * g - 4
    if g <= _NUMPY_LIMIT:
        k = np.arange(g, dtype=np.int64)
        return int(np.count_nonzero(k * k % m == 0))
    return sum(1 for k in range(g) if k * k % m == 0)


GAUSS_SUM_CAP = 10**6


def gauss_sum(df: DiscriminantForm, cap: int = GAUSS_SUM_CAP) -> complex:
    """Sum of exp(pi*i*<gamma,gamma>) over the discriminant group.

    Evaluated as the sum of e(qn/N) over the form's integer encoding.  It is
    checked by Milgram's formula, sqrt(|A|) * exp(2*pi*i*sig/8) with sig from
    `signature`, and by the `Fraction` oracle test of the encoding.
    """
    if df.cardinality > cap:
        raise TooLarge(f"group of order {df.cardinality} exceeds cap {cap}")
    return complex(np.exp((2j * np.pi / df.level) * df.qn).sum())


def jacobi_bruteforce(a: int, b: int) -> int:
    """Factorization-based oracle for the Jacobi symbol (independent route).

    Legendre symbols per odd prime factor via Euler's criterion; no
    reciprocity anywhere.
    """
    if b <= 0 or b % 2 == 0:
        raise ValueError("oracle needs odd positive b")
    result = 1
    p = 3
    while b > 1:
        while p * p <= b and b % p:
            p += 2
        q = p if p * p <= b else b
        while b % q == 0:
            b //= q
            if a % q == 0:
                result = 0
            else:
                euler = pow(a % q, (q - 1) // 2, q)
                if euler == q - 1:
                    result = -result
    return result
