"""Elementary exact number theory feeding the rank formula.

Jacobi symbols are computed by reciprocity (no factorization); the
fractional-part sum and the square count are the two combinatorial terms
of the closed-form rank, both read from one factorization of 4g-4 (the
first through Hurwitz class numbers, `nlrank.hurwitz`) in Python integers,
so they are exact for every g and load no numpy.  A range of genera is
prepared once (`reserve_range`): the class-number table's growth decision,
and a sieve of least prime factors in place of trial division.  The Gauss
sum, over the whole discriminant form's q-values, is a floating-point
Milgram oracle for discriminant forms; its roots of unity are the form's
`roots`, the same map the Weil operators read.  The cusp dimension's exact
Gauss sums are its own (`cuspdim.exact_gauss_sums`), not this one.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import BadGenus, EvenDenominator, NonpositiveDenominator
from .hurwitz import h6, reserve


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


_spf = array("H")  # _spf[n // 2]: the least prime factor of odd composite n, 0 for primes


def reserve_range(g_lo: int, g_hi: int) -> None:
    """Prepare the closed form for the genera g_lo..g_hi before their first
    row: the Hurwitz table's growth decision for the whole range
    (`hurwitz.reserve`), and, when the table covers the range, a sieve of
    least prime factors for its factorizations.  A range that pays for the
    table pays for the sieve: the odd part of 4g - 4 is at most g - 1, so
    the sieve holds g_hi/2 entries of 16 bits, 1/16 of the table's bytes,
    written by C-level slice assignments."""
    if reserve(4 * g_lo - 4, 4 * g_hi - 4) and g_hi // 2 > len(_spf):
        _sieve(g_hi)


def _sieve(limit: int) -> None:
    """Replace the sieve by one over the odd numbers below limit.  Each odd
    p <= sqrt(limit), prime or not, marks its odd multiples from p^2 on; p
    runs downwards, so the least prime factor writes last."""
    global _spf
    size = limit // 2
    spf = array("H", bytes(2 * size))
    for p in range(isqrt(limit) | 1, 1, -2):
        start = p * p // 2
        if start < size:
            spf[start::p] = array("H", [p]) * len(range(start, size, p))
    _spf = spf


@lru_cache(maxsize=1)
def _factor(m: int) -> tuple:
    """The prime factorization of m >= 1 as ((p, e), ...): read from the
    sieve when it covers the odd part of m, else by trial division.

    `frac_square_sum` and `square_count` of one genus both factor m = 4g-4;
    the one-entry cache makes that one factorization.
    """
    e = (m & -m).bit_length() - 1
    factors, m = [(2, e)] if e else [], m >> e
    if m // 2 < len(_spf):
        while m > 1:
            p, e = _spf[m // 2] or m, 0
            while m % p == 0:
                m, e = m // p, e + 1
            factors.append((p, e))
        return tuple(factors)
    p = 3
    while p * p <= m:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e:
            factors.append((p, e))
        p += 2
    if m > 1:  # the cofactor left is a prime
        factors.append((m, 1))
    return tuple(factors)


def _root_radical(m: int) -> int:
    """The least r with m | r^2: prod p^ceil(e/2) over m = prod p^e."""
    r = 1
    for p, e in _factor(m):
        r *= p ** ((e + 1) // 2)
    return r


def frac_square_sum(g: int) -> Fraction:
    """Sum over 0 <= k <= g-1 of the fractional part of k^2/(4g-4).

    With m = 4g-4 = 4h, F = sum_{k<g} (k^2 mod m) is read from class numbers:
    4F = T(m) + 2h(h mod 4) and T(m) = sum_{k mod m} (k^2 mod m)
    = m^2/2 - m*Z/2 - m*sum h_w(-n), n | m with n = 0, 3 mod 4, where
    Z = m/r counts the k mod m with m | k^2 (r as in `square_count`) and h_w
    is the class number with weights 1/2 and 1/3 at n = 4 and 3.  As
    h_w(n) = sum mu(f) H(n/f^2) over f^2 | n, H the Hurwitz class number,
    that sum is the sum of H(n) over the n | m with m/n squarefree, and
    fracsum = F/m is

        24 * fracsum = 12h - 3Z + 3(h mod 4) - sum 6*H(n).

    When h is odd, every such n = m/d with d even is 2 mod 4, where H(n) = 0,
    so the prime 2 is left out of the divisors.  The cost is one
    factorization of m, shared with `square_count`, and 2^omega(m) values of
    `hurwitz.h6` (2^(omega(m) - 1) for odd h), exact for every g.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    m, h = 4 * g - 4, g - 1
    divisors = [m]
    for p, _ in _factor(m):
        if p != 2 or h % 2 == 0:
            divisors += [n // p for n in divisors]
    num = 12 * h - 3 * (m // _root_radical(m)) + 3 * (h % 4) - sum(map(h6, divisors))
    return Fraction(num, 24)


def square_count(g: int) -> int:
    """Count of 0 <= k <= g-1 with k^2 divisible by m = 4g-4.

    m | k^2 exactly when r | k, for r = prod p^ceil(e/2) over m = prod p^e
    (the least r with m | r^2), so the count is floor((g-1)/r) + 1.  r comes
    from the factorization of m that `frac_square_sum` shares.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    return (g - 1) // _root_radical(4 * g - 4) + 1


def gauss_sum(df) -> complex:
    """Sum of exp(pi*i*<gamma,gamma>) over the group of a discriminant form.

    Evaluated as the sum of e(v/N) over the form's q-values v = N*q/2 mod N,
    the form's `qroots`, which rho(T) reads too and which refuses a group
    too large for int64 before the `roots` tables.  It is checked by
    Milgram's formula, sqrt(|A|) * exp(2*pi*i*sig/8) with sig from
    `signature`, and by the `Fraction` oracle test of the encoding.
    """
    return complex(df.qroots.sum())
