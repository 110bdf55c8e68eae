"""Slow, independent reference implementations used as test oracles."""

import cmath
import functools
import math
from array import array
from fractions import Fraction
from itertools import repeat
from math import lcm

import numpy as np

from nlrank.cuspdim import SLICE, CuspDimReport, walk_sums
from nlrank.errors import NegativeDiscriminant, NLRankError, WeightTooSmall
from nlrank.lattices import (
    DiscriminantForm,
    Lattice,
    _congruence_signature,
    smith_normal_form,
)
from nlrank.nl import NLLabel, nl_label
from nlrank.weil import PROBE_RANDOM, PROBE_SEED


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
# values of k per chunk of the int64 oracle, the offsets 0, ..., _CHUNK-1
# and their squares, which are the first chunk's k^2
_CHUNK = 1 << 13
_CHUNK_RAMP = np.arange(_CHUNK, dtype=np.int64)
_CHUNK_SQUARES = _CHUNK_RAMP**2


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
        n = min(_CHUNK, g - start)
        squares = _CHUNK_SQUARES[:n] if start == 0 else (_CHUNK_RAMP[:n] + start) ** 2
        floors += int((squares // m).sum())
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


def h6_table_by_slices(table: array, size: int) -> None:
    """Extend a table of 6*H(n) to `size` entries with every reduced form
    with lo <= 4ac - b^2 < size, lo the old length: one slice-add per (a, b)
    over the progression 4ac - b^2, c > a, a write per element and no tiles
    (the table fill `hurwitz._grow` replaced)."""
    lo = len(table)
    table.extend(repeat(0, size - lo))
    for a in range(1, math.isqrt((size - 1) // 3) + 1):
        step = 4 * a
        for b in range(a + 1):
            n = 4 * a * a - b * b  # c = a, where b >= 0 only
            if lo <= n < size:
                table[n] += 3 if b == 0 else 2 if b == a else 6
            start = n + step  # c > a, b and -b at once (-a is not reduced)
            if start < lo:
                start += (lo - start + step - 1) // step * step
            if start < size:
                w = 6 if b == 0 or b == a else 12
                table[start:size:step] = array("i", [x + w for x in table[start:size:step]])


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


def inner(lat: Lattice, x, y) -> Fraction:
    """The bilinear form of `lat` on rational coordinate vectors in its basis."""
    total = Fraction(0)
    for i, row in enumerate(lat.gram):
        if x[i]:
            total += x[i] * sum(Fraction(row[j]) * y[j] for j in range(lat.rank) if y[j])
    return total


def q(df: DiscriminantForm, exps) -> Fraction:
    """q(gamma) = <gamma, gamma> mod 2, in [0, 2), for gamma with these
    exponents, from the generator pairing in `Fraction`s."""
    total = Fraction(0)
    for i, ei in enumerate(exps):
        if ei:
            row = df.gen_pairing[i]
            total += ei * ei * row[i]
            for j in range(i + 1, len(exps)):
                if exps[j]:
                    total += 2 * ei * exps[j] * row[j]
    return total % 2


def b(df: DiscriminantForm, e1, e2) -> Fraction:
    """b(gamma, delta) = <gamma, delta> mod 1, in [0, 1), for gamma and
    delta with these exponents, from the generator pairing in `Fraction`s."""
    total = Fraction(0)
    for i, x in enumerate(e1):
        if x:
            row = df.gen_pairing[i]
            for j, y in enumerate(e2):
                if y:
                    total += x * y * row[j]
    return total % 1


def discriminant_form_whole(lat: Lattice) -> DiscriminantForm:
    """Discriminant form from one Smith normal form of the whole Gram matrix.

    With U*G*V = D, the class of the i-th elementary divisor d_i > 1 is
    generated by (column i of V) / d_i, paired by `inner`; the signature
    comes from congruence diagonalization of the whole matrix.  No
    orthogonal blocks, no cache.  The level is found here too, by its own
    loop over the pairing, and must be the level the form derives.
    """
    n = lat.rank
    divisors, v = smith_normal_form(lat.gram)
    orders = []
    gens = []
    for i, d in enumerate(divisors):
        if d > 1:
            orders.append(d)
            gens.append(tuple(Fraction(v[r][i], d) for r in range(n)))
    pairing = tuple(
        tuple(inner(lat, gi, gj) for gj in gens) for gi in gens
    )
    pos, neg = _congruence_signature(lat.gram)
    level = 1
    for i in range(len(gens)):
        level = lcm(level, (pairing[i][i] / 2).denominator)
        for j in range(i + 1, len(gens)):
            level = lcm(level, pairing[i][j].denominator)
    df = DiscriminantForm(orders=tuple(orders), sig_mod_8=(pos - neg) % 8, gen_pairing=pairing)
    assert df.level == level, (df.level, level)
    return df


# Lambda_g has level N = 4(g - 1), and the cusp side refuses a cyclic form
# exactly when (SLICE + 2)*N >= 2^63: from this genus on, g - 1 >= about
# 5.6*10^14
CUSP_FIRST_REFUSED_GENUS = -(-(2**63) // (4 * (SLICE + 2))) + 1


def row_sums_bruteforce(h: int, n: int, u: int) -> tuple[int, int]:
    """The zero count and the sum of u*x^2 mod n over x = 1, ..., h, in
    Python ints."""
    values = [u * x * x % n for x in range(1, h + 1)]
    return values.count(0), sum(values)


def row_slice_bruteforce(start: int, take: int, n: int) -> tuple[int, int]:
    """`cuspdim._row_slice` by `math.isqrt`: the perfect squares among k*n
    and the sum of ceil(sqrt(k*n)) over k = start, ..., start + take - 1."""
    squares = ceil_sum = 0
    for k in range(start, start + take):
        r = math.isqrt(k * n)
        square = r * r == k * n
        squares += square
        ceil_sum += r + (not square)
    return squares, ceil_sum


def walk_sums_bruteforce(df: DiscriminantForm) -> tuple[int, int, list[int]]:
    """`cuspdim.walk_sums` over the whole group at once, with T's values
    sorted: the zero count and the sum of `qn`, and `qn` where `neg_index`
    fixes gamma."""
    qn = df.qn
    two = qn[df.neg_index == np.arange(df.cardinality)]
    return int(np.count_nonzero(qn == 0)), int(qn.sum()), sorted(two.tolist())


def times(x: tuple, y: tuple) -> tuple:
    """The product in Q(sqrt 2, sqrt 3) of two numbers a + b*sqrt(2) +
    c*sqrt(3) + d*sqrt(6), each the tuple (a, b, c, d): the oracle of the
    three operations `cuspdim`'s elliptic terms are made of."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e + 2 * b * f + 3 * c * g + 6 * d * h,
        a * f + b * e + 3 * (c * h + d * g),
        a * g + c * e + 2 * (b * h + d * f),
        a * h + d * e + b * g + c * f,
    )


# how far the float Riemann-Roch value of the oracles below may sit from an
# integer before they raise SnapFailure
SNAP_TOL = 1e-6


class SnapFailure(NLRankError):
    """A float oracle's dimension is not within SNAP_TOL of a nonnegative
    integer."""


def gauss_sums_bruteforce(df: DiscriminantForm) -> tuple[complex, complex, complex]:
    """G(j) = sum of e(j*q(gamma)/2) over every element, j = 1, 2, 3, as
    complex floats from one phase array over `qn`."""
    n = df.level
    return tuple(complex(np.exp((2j * np.pi / n) * (j * df.qn % n)).sum()) for j in (1, 2, 3))


def dim_cusp_df_float(df: DiscriminantForm, k: Fraction) -> CuspDimReport:
    """`dim_cusp_df` with the Gauss sums summed in complex floats.

    The integer sums are those of `cuspdim.walk_sums`, and G(j), j = 1, 2,
    3, those of `gauss_sums_bruteforce`; the elliptic terms are floats, and
    their sum with the exact terms' fractional part is snapped to an
    integer within SNAP_TOL.
    """
    k = Fraction(k)
    if k.denominator not in (1, 2):
        raise ValueError(f"weight must be half-integral, got {k}")
    if k <= 2:
        raise WeightTooSmall(f"formula needs weight > 2, got {k}")
    two_k = (2 * k).numerator
    parity = (two_k + df.sig_mod_8) % 4
    if parity not in (0, 2):
        return CuspDimReport(k=k, d=df.cardinality, dim=0, parity_ok=False, symmetric=None)
    symm = parity == 0
    eps = 1 if symm else -1
    d, n, sig = df.cardinality, df.level, df.sig_mod_8
    sqrt_d = math.sqrt(d)

    zeros, total, two = walk_sums(df)  # two: n * q(gamma)/2 mod n on the 2-torsion
    g1, g2, g3 = gauss_sums_bruteforce(df)
    g3 = g3.conjugate()
    rank_pm = (d + eps * len(two)) // 2
    alpha_num = n * (d - zeros) - total + eps * sum(-x % n for x in two)  # over 2n
    n_iso = (zeros + eps * two.count(0)) // 2
    g2_part = g2.real if symm else g2.imag

    e4 = cmath.exp(1j * cmath.pi * ((two_k + sig + 1 - eps) % 8) / 4)
    term_e4 = (e4 * g2_part).real / (4 * sqrt_d)
    e6 = cmath.exp(1j * cmath.pi * ((3 * sig + 2 * two_k - 10) % 24) / 12)
    term_e6 = ((e6 * (g1 + eps * g3)).real) / (3 * math.sqrt(3) * sqrt_d)

    den = math.lcm(24, 2 * n)
    main_num = rank_pm * (two_k + 10) * (den // 24)
    whole, rest = divmod(main_num - alpha_num * (den // (2 * n)) - n_iso * den, den)
    x = rest / den + term_e4 - term_e6
    if abs(x - round(x)) > SNAP_TOL:
        raise SnapFailure(f"dimension {whole} + {x} is not within {SNAP_TOL} of an integer")
    dim = whole + round(x)
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
            "main": main_num / den,
            "elliptic_order4": term_e4,
            "elliptic_order6": -term_e6,
            "parabolic": -alpha_num / (2 * n),
            "isotropic": -n_iso,
            "raw_value": whole + x,
        },
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

    |A|^2 int64 entries, from the exponent rows and the generators' table
    `gen_qn`.
    """
    n, e, k = df.level, df._exponents.T, df.ngens
    u = np.array(df.gen_qn, dtype=np.int64).reshape(k, k)
    return e @ ((u + u.T) % n) % n @ e.T % n


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


def apply_s_fftn(w, v: np.ndarray) -> np.ndarray:
    """rho(S) v by one `numpy.fft.fftn` of v reshaped to the form's orders,
    read at xi(gamma), times e(-sig/8)/sqrt(|A|)."""
    grid = v.reshape(w.df.orders + v.shape[1:])
    f = np.fft.fftn(grid, axes=tuple(range(w.df.ngens)))
    return w.s_phase * f.reshape(v.shape)[w.xi]


def probes_reference(d: int) -> np.ndarray:
    """The (d, 7) probe vectors of `weil.verify_relations` as first written,
    one fresh array per step: four random unit vectors from splitmix64 of
    weil.PROBE_SEED + i * 0x9E3779B97F4A7C15, then e_0, e_{d//2}, e_{d-1}.
    `weil._probes` must return exactly these bits."""
    z = np.arange(1, 2 * d * PROBE_RANDOM + 1, dtype=np.uint64)
    z = z * 0x9E3779B97F4A7C15 + PROBE_SEED
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    u = ((z ^ (z >> 31)) >> 11) * 2.0**-53 - 0.5
    p = np.zeros((d, PROBE_RANDOM + 3), dtype=complex)
    p[:, :PROBE_RANDOM] = u[: d * PROBE_RANDOM].reshape(d, PROBE_RANDOM)
    p[:, :PROBE_RANDOM] += 1j * u[d * PROBE_RANDOM :].reshape(d, PROBE_RANDOM)
    p[:, :PROBE_RANDOM] /= np.linalg.norm(p[:, :PROBE_RANDOM], axis=0)
    for col, row in enumerate((0, d // 2, d - 1), start=PROBE_RANDOM):
        p[row, col] = 1.0
    return p


def relations_pass_st3(w, tol: float = 1e-9) -> bool:
    """The verdict of `weil.verify_relations` with (ST)^3 = S^2 checked as
    written, (ST)^3 p against S^2 p: five applications of rho(S) to the
    probes, and the same S^2 = Z, unitarity, Z-swap and T checks."""
    p = probes_reference(w.dimension)
    sp = w.apply_s(p)
    s2p = w.apply_s(sp)
    st3p = p
    for _ in range(3):
        st3p = w.apply_s(w.apply_t(st3p))
    errs = (
        np.abs(s2p - w.apply_z(p)).max(),
        np.abs(st3p - s2p).max(),
        np.abs(w.t_diag - np.exp(2j * np.pi * w.df.qn / w.level)).max(),
        np.abs(sp.conj().T @ sp - p.conj().T @ p).max(),
        np.abs(np.abs(s2p) - np.abs(p[w.df.neg_index])).max(),
    )
    return all(e < tol for e in errs)


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
