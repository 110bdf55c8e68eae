"""Slow, independent reference implementations used as test oracles."""

from fractions import Fraction
from math import lcm, prod

import numpy as np

from nlrank.lattices import (
    DiscriminantForm,
    Lattice,
    _congruence_signature,
    smith_normal_form,
)


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


def square_count_bruteforce(g: int) -> int:
    """Count of 0 <= k <= g-1 with k^2 divisible by 4g-4, testing every k."""
    k = np.arange(g, dtype=np.int64)
    return int(np.count_nonzero(k * k % (4 * g - 4) == 0))


def frac_square_sum_numerator(g: int) -> int:
    """Sum of k^2 mod 4g-4 over 0 <= k <= g-1 in Python integers."""
    m = 4 * g - 4
    return sum(k * k % m for k in range(g))


def discriminant_form_whole(lat: Lattice) -> DiscriminantForm:
    """Discriminant form from one Smith normal form of the whole Gram matrix.

    With U*G*V = D, the class of the i-th elementary divisor d_i > 1 is
    generated by (column i of V) / d_i; the signature comes from congruence
    diagonalization of the whole matrix.  No orthogonal blocks, no cache.
    """
    n = lat.rank
    divisors, _, v = smith_normal_form(lat.gram)
    orders = []
    gens = []
    for i, d in enumerate(divisors):
        if d > 1:
            orders.append(d)
            gens.append(tuple(Fraction(v[r][i], d) for r in range(n)))
    pairing = tuple(
        tuple(lat.inner(gi, gj) for gj in gens) for gi in gens
    )
    pos, neg = _congruence_signature(lat.gram)
    level = 1
    for i in range(len(gens)):
        level = lcm(level, (pairing[i][i] / 2).denominator)
        for j in range(i + 1, len(gens)):
            level = lcm(level, pairing[i][j].denominator)
    return DiscriminantForm(
        orders=tuple(orders),
        generators=tuple(gens),
        cardinality=prod(orders),
        level=level,
        sig_mod_8=(pos - neg) % 8,
        gen_pairing=pairing,
    )
