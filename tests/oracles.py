"""Slow, independent reference implementations used as test oracles."""

import cmath
import functools
import math
from fractions import Fraction
from math import lcm, prod

import numpy as np

from nlrank.cuspdim import SNAP_TOL, CuspDimReport
from nlrank.errors import NegativeDiscriminant, SnapFailure, WeightTooSmall
from nlrank.lattices import (
    DiscriminantForm,
    Lattice,
    _congruence_signature,
    smith_normal_form,
)
from nlrank.nl import NLLabel, nl_label


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


# the largest genus whose k*k, k <= g-1, is exact in int64
FRAC_SUM_INT64_MAX_GENUS = 3_037_000_500
# values of k per chunk of the int64 oracle
_CHUNK = 1 << 13


def frac_square_sum_int64(g: int) -> Fraction:
    """frac_square_sum in O(g) int64 numpy, for g <= FRAC_SUM_INT64_MAX_GENUS.

    The numerator sum of k^2 mod m, m = 4g-4, is h(h+1)(2h+1)/6 - m * sum
    floor(k^2/m) with h = g-1; the floors are summed over chunks of _CHUNK
    values of k.  No class numbers, no factorization.
    """
    if g > FRAC_SUM_INT64_MAX_GENUS:
        raise ValueError(f"k*k overflows int64 at genus {g}")
    m, h = 4 * g - 4, g - 1
    floors = 0
    for start in range(0, g, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, g), dtype=np.int64)
        k *= k
        k //= m
        floors += int(k.sum())
    return Fraction(h * (h + 1) * (2 * h + 1) // 6 - m * floors, m)


def h6_bruteforce(n: int) -> int:
    """6*H(n), the Hurwitz class number, from every pair (a, b) with
    |b| <= a <= sqrt(n/3): no square roots, no table."""
    total = 0
    for a in range(1, math.isqrt(n // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, rem = divmod(b * b + n, 4 * a)
            if rem or c < a or (c == a and b < 0):
                continue
            total += 3 if c == a and b == 0 else 2 if c == a == b else 6
    return total


def frac_square_sum_numerator(g: int) -> int:
    """Sum of k^2 mod 4g-4 over 0 <= k <= g-1 in Python integers."""
    m = 4 * g - 4
    return sum(k * k % m for k in range(g))


def enumerate_nl_grid(g: int, d_max: int, h_max: int) -> list[NLLabel]:
    """Every cell of the grid 0 <= d <= d_max, 0 <= h <= h_max tried as a
    label, the invalid ones skipped, then one sort by (Delta descending, d, h)."""
    if d_max < 0 or h_max < 0:
        raise ValueError("grid bounds must be nonnegative")
    out = []
    for d in range(d_max + 1):
        for h in range(h_max + 1):
            try:
                out.append(nl_label(g, h, d))
            except NegativeDiscriminant:
                pass
    out.sort(key=lambda lab: (-lab.delta, lab.d, lab.h))
    return out


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


def bn(df: DiscriminantForm) -> np.ndarray:
    """N*b(gamma, delta) mod N for every pair of elements, N the level.

    |A|^2 int64 entries, from the exponent rows and the generator pairing.
    """
    n, e = df.level, df._exponents_at(np.arange(df.cardinality, dtype=np.int64)).T
    return e @ ((df._upper + df._upper.T) % n) % n @ e.T % n


def dense_weil(df: DiscriminantForm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho(T), rho(S) and rho(Z) as dense |A| x |A| matrices, entry by entry.

    rho(T) = diag exp(pi*i*q(gamma)) from `qn`; rho(S) has entries
    exp(-2*pi*i*sig/8)/sqrt(|A|) * exp(-2*pi*i*b(gamma, delta)) looked up
    by `bn`; rho(Z) sends e_gamma to exp(-2*pi*i*sig/4) * e_{-gamma}.
    """
    d, n = df.cardinality, df.level
    rho_t = np.diag(np.exp((2j * np.pi / n) * df.qn))
    phase = cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 8) / math.sqrt(d)
    rho_s = (phase * np.exp((-2j * np.pi / n) * np.arange(n)))[bn(df)]
    rho_z = np.zeros((d, d), dtype=complex)
    rho_z[df.neg_index, np.arange(d)] = cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 4)
    return rho_t, rho_s, rho_z


def operator_matrix(apply, d: int) -> np.ndarray:
    """The d x d matrix of a linear operator: its images of the basis vectors."""
    return apply(np.eye(d, dtype=complex))


def _arg_sum(eigenvalues: np.ndarray) -> float:
    """alpha: the sum of the arguments, as fractions of a turn in [0, 1).

    An argument within 1e-9 below a whole turn belongs to an eigenvalue 1
    and counts as 0.
    """
    turns = np.angle(eigenvalues) / (2 * math.pi) % 1
    return float(np.where(turns > 1 - 1e-9, turns - 1, turns).sum())


@functools.lru_cache(maxsize=4)
def _dual_eigenvalues(df: DiscriminantForm, eps: int):
    """Eigenvalues of rho*(S), rho*(ST) and rho*(T) on V^eps, and dim V^eps.

    rho* = conj(rho) is the dual Weil representation, from the dense
    matrices of `dense_weil`.  V^eps is the eps-eigenspace of
    e_gamma -> e_{-gamma}, spanned by the orthonormal
    (e_gamma + eps * e_{-gamma})/sqrt(2), and by e_gamma where
    gamma = -gamma and eps = 1; rho commutes with the swap, so it
    restricts to V^eps.
    """
    d, neg = df.cardinality, df.neg_index
    cols = []
    for i in range(d):
        j = int(neg[i])
        if i < j:
            v = np.zeros(d)
            v[i], v[j] = 1 / math.sqrt(2), eps / math.sqrt(2)
            cols.append(v)
        elif i == j and eps == 1:
            cols.append(np.eye(d)[i])
    basis = np.array(cols).T.reshape(d, len(cols))
    rho_t, rho_s, _ = (m.conj() for m in dense_weil(df))

    def restrict(m):
        return basis.T @ m @ basis

    return (
        np.linalg.eigvals(restrict(rho_s)),
        np.linalg.eigvals(restrict(rho_s @ rho_t)),
        np.linalg.eigvals(restrict(rho_t)),
        len(cols),
    )


def dim_cusp_from_eigenvalues(df: DiscriminantForm, k: Fraction) -> CuspDimReport:
    """dim S_k of type rho* from the eigenvalues of the dense rho*, k > 2.

    On V^eps, with eps = +1 for 2k + sig = 0 mod 4 and -1 for 2 mod 4,
    r = dim V^eps and alpha the argument sum of `_arg_sum`:

        dim S_k = r + r*k/12 - alpha(e^{pi*i*k/2} rho*(S))
                  - alpha((e^{pi*i*k/3} rho*(ST))^{-1})
                  - alpha(rho*(T)) - #{rho*(T)-eigenvalues equal to 1}.

    The formula is in Borcherds, Reflection groups of Lorentzian lattices
    (Doc. Math. 2000).  The boundary terms carry rank_pm = r, the isotropic
    count (negated, as in `dim_cusp_df`) and raw_value.
    """
    k = Fraction(k)
    if k.denominator not in (1, 2):
        raise ValueError(f"weight must be half-integral, got {k}")
    if k <= 2:
        raise WeightTooSmall(f"formula needs weight > 2, got {k}")
    parity = ((2 * k).numerator + df.sig_mod_8) % 4
    if parity not in (0, 2):
        return CuspDimReport(
            k=k, d=df.cardinality, dim=0, parity_ok=False, symmetric=None
        )
    eps = 1 if parity == 0 else -1
    ev_s, ev_st, ev_t, r = _dual_eigenvalues(df, eps)
    n_iso = int(np.count_nonzero(np.abs(ev_t - 1) < 1e-9))
    value = (
        r
        + r * float(k) / 12
        - _arg_sum(cmath.exp(1j * math.pi * k / 2) * ev_s)
        - _arg_sum(1 / (cmath.exp(1j * math.pi * k / 3) * ev_st))
        - _arg_sum(ev_t)
        - n_iso
    )
    return CuspDimReport(
        k=k,
        d=df.cardinality,
        dim=round(value),
        parity_ok=True,
        symmetric=eps == 1,
        boundary_terms={"rank_pm": r, "isotropic": -n_iso, "raw_value": value},
    )
