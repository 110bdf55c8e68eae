"""Slow, independent reference implementations used as test oracles."""

import cmath
import math
from fractions import Fraction
from math import lcm, prod

import numpy as np

from nlrank.cuspdim import SNAP_TOL, CuspDimReport
from nlrank.errors import SnapFailure, WeightTooSmall
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


def dim_cusp_df_elementwise(df: DiscriminantForm, k: Fraction) -> CuspDimReport:
    """`dim_cusp_df` with every sum taken element by element over `qn`.

    The 2-torsion comes from `neg_index` and the Gauss sums from cos/sin of
    one phase array over all |A| elements; no q-value histogram.
    """
    k = Fraction(k)
    if k.denominator not in (1, 2):
        raise ValueError(f"weight must be half-integral, got {k}")
    if k <= 2:
        raise WeightTooSmall(f"formula needs weight > 2, got {k}")
    two_k = (2 * k).numerator

    parity = (two_k + df.sig_mod_8) % 4
    if parity == 0:
        symm = True
    elif parity == 2:
        symm = False
    else:
        return CuspDimReport(
            k=k, d=df.cardinality, dim=0, parity_ok=False, symmetric=None
        )
    eps = 1 if symm else -1

    d = df.cardinality
    n = df.level
    sqrt_d = math.sqrt(d)
    sig = df.sig_mod_8

    # one representative of each pair {gamma, -gamma}: as q(-gamma) = q(gamma),
    # that is half the full-group sum, plus or minus half the sum over the
    # elements with 2*gamma = 0 (those only carry symmetric forms)
    qn = df.qn  # n * q(gamma)/2 mod n
    two = np.flatnonzero(df.neg_index == np.arange(d))
    rank_pm = (d + eps * len(two)) // 2
    alpha_t = Fraction(int((-qn % n).sum()) + eps * int((-qn[two] % n).sum()), 2 * n)
    n_iso = int(np.count_nonzero(qn == 0) + eps * np.count_nonzero(qn[two] == 0)) // 2

    phase = (2 * math.pi / n) * qn
    g1 = complex(np.cos(phase).sum(), np.sin(phase).sum())
    g2_part = float((np.cos if symm else np.sin)(2 * phase).sum())
    g3 = complex(np.cos(3 * phase).sum(), -np.sin(3 * phase).sum())

    main = rank_pm * (k + 5) / 12
    e4 = cmath.exp(1j * cmath.pi * (two_k + sig + 1 - eps) / 4)
    term_e4 = (e4 * g2_part).real / (4 * sqrt_d)
    e6 = cmath.exp(1j * cmath.pi * (3 * sig + 2 * two_k - 10) / 12)
    term_e6 = ((e6 * (g1 + eps * g3)).real) / (3 * math.sqrt(3) * sqrt_d)

    value = float(main) + term_e4 - float(alpha_t) - term_e6 - n_iso
    dim = round(value)
    if abs(value - dim) > SNAP_TOL:
        raise SnapFailure(f"dimension {value} is not within {SNAP_TOL} of an integer")
    if dim < 0:
        raise SnapFailure(f"negative dimension {dim} from Riemann-Roch")
    return CuspDimReport(
        k=k,
        d=d,
        dim=dim,
        parity_ok=True,
        symmetric=symm,
        boundary_terms={
            "rank_pm": rank_pm,
            "main": float(main),
            "elliptic_order4": term_e4,
            "elliptic_order6": -term_e6,
            "parabolic": -float(alpha_t),
            "isotropic": -n_iso,
            "raw_value": value,
        },
    )
