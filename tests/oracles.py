"""Slow, independent reference implementations used as test oracles."""

import numpy as np


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
