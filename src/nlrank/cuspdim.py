"""Dimensions of vector-valued cusp forms and the Picard-number identity.

The dimension of S_{k,M} for half-integral k > 2 comes from Riemann-Roch
on the modular curve: a main term d*(k+5)/12 on the plus/minus eigenspace
rank, elliptic corrections at the order-4 and order-6 points expressed
through the quadratic Gauss sums G(j) = sum of e(j*q(gamma)/2), j = 1, 2, 3,
of the discriminant form, and a parabolic correction from the T-eigenvalues.

The parabolic and isotropic terms and the eigenspace rank read three
integer sums (`walk_sums`): the zero count and the sum of N*q/2 mod N over
the group, and its values on the 2-torsion T = {gamma : 2*gamma = 0}
(`two_torsion`).  On a cyclic form, every Lambda_g among them, a sum is
even under gamma -> -gamma, as q(-gamma) = q(gamma), so it is twice the sum
over one element of each pair {gamma, -gamma} with gamma != -gamma, plus
the sum over T, whose one or two values are evaluated once.  The pairs are
x*g for x = 1, ..., h = (d - 1)//2, with the values u*x^2 mod N, where
u = N*q(g)/2 mod N is the form's `gen_qn[0][0]`, a Python int.
When u = 1 or N - 1, as for every Lambda_g and every <2n>, their sums are
the lattice points under the parabola N*y = x^2, counted by rows
(`row_sums`): about h^2/N, for Lambda_g g/4, integer square roots, with no
class number and no factorization.  Up to ISQRT_ROWS rows (Lambda_g up to
g = 262) they are `math.isqrt` in Python ints, and numpy is not loaded;
more rows run in numpy, SLICE at a time, with no array as long as the
group, so their memory does not grow with |A|.  A slice whose rows k*N stay
below 2^52, every slice of Lambda_g up to g = 67108866, runs in float64
alone, as a correctly rounded root then decides both the ceiling and a
perfect square; a higher one runs in int64.  The slices are exact while
(SLICE + 2)*N < 2^63, and a cyclic form past that bound is refused on both
paths, which admits Lambda_g up to g - 1 of about 5.6*10^14.  Any other
form, cyclic with another u or with several generators, reads the zero
count and the value sum off its cached full-group `qn`, the array the Weil
operators read, and so holds its exponents and `qn` in memory; its values
on T, at most 2^ngens, come from `gen_qn` in Python ints.

The Gauss sums come from the form's local data instead of the walk, each
as sqrt(r)*e(t/8) with integers r and t (`exact_gauss_sums`).  G(1) is
Milgram's sqrt(|A|)*e(sig/8).  G(2) and G(3) are products over orthogonal
pieces (`gauss_pieces`): a cyclic form is one cyclic piece, whose sum is
the classical quadratic Gauss sum, read from a Jacobi symbol coded here;
any other form is split, one p-part at a time, by its p-adic Jordan
decomposition into cyclic pieces and, at p = 2, the even blocks U(2^k)
and V(2^k), on integers over the level read from `gen_qn`.  A form is
read only through its orders, cardinality, sig_mod_8, level and `gen_qn`,
and on the fallback above its `qn`.  The elliptic terms are then exact
elements of Q(sqrt 2, sqrt 3), and the dimension is a sum of rationals
with no float anywhere: a total that is not a nonnegative integer raises
NonIntegerResult.  Nothing here comes from the closed form.

The forms counted are of type rho* = conj(rho), the dual of the Weil
representation rho that `nlrank.weil` builds, as in Bruinier's treatment
of lattices of signature (2, n).  The convention matters: with rho in place
of rho*, the eigenvalue form of the same formula gives wrong dimensions for
most forms and weights.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    BadSignature,
    HypothesisNotAsserted,
    NonIntegerResult,
    TooLarge,
    WeightTooSmall,
)
from .lattices import DiscriminantForm, Lattice, discriminant_form, signature

_U_GRAM = ((0, 1), (1, 0))


class CuspDimReport(namedtuple("CuspDimReport", "k d dim parity_ok symmetric boundary_terms")):
    """dim S_{k, rho*} of a form of order `d` (k a Fraction), whether k's
    parity fits the form, the symmetric (True) or antisymmetric (False)
    eigenspace or None, and the Riemann-Roch terms by name: a new dict for
    each report made without them."""

    __slots__ = ()

    def __new__(cls, k, d, dim, parity_ok, symmetric, boundary_terms=None):
        terms = {} if boundary_terms is None else boundary_terms
        return super().__new__(cls, k, d, dim, parity_ok, symmetric, terms)


# -- Gauss sums from local data ----------------------------------------------
#
# A Gauss sum is held as (r, t), meaning sqrt(r) * e(t/8): every G(j) is 0
# (r = 0) or sqrt(|A| * |A[j]|) times an eighth root of unity.


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _quadratic_sum(a: int, c: int) -> tuple[int, int]:
    """The classical sum of e(a*x^2/c) over x mod c, c >= 1, as (r, t).

    With g = gcd(a, c) it is g times the sum for (a/g, c/g).  For c odd,
    (a/c)*eps_c*sqrt(c), eps_c = 1 or i as c = 1 or 3 mod 4; for c = 2 mod
    4, 0; for c = 0 mod 4, (1 + i^a)*(c/|a|)*sqrt(c), where 1 + i^a is
    sqrt(2)*e(+-1/8).  a is first reduced to its signed residue mod c, so
    the Jacobi symbol of a form like Lambda_g, a = -j, takes one step.
    """
    g = math.gcd(a, c)
    a, c = a // g, c // g
    if c % 4 == 2:
        return 0, 0
    a = (a + c // 2) % c - c // 2
    if c % 2:
        return g * g * c, (2 if c % 4 == 3 else 0) + (4 if _jacobi(a, c) < 0 else 0)
    return 2 * g * g * c, (1 if a % 4 == 1 else 7) + (4 if _jacobi(c, abs(a)) < 0 else 0)


def gauss_factor(piece: tuple, j: int) -> tuple[int, int]:
    """G(j) of one orthogonal piece (see `gauss_pieces`) as (r, t).

    A cyclic piece ("c", d, (u, m)), whose generator has q(g)/2 = u/m mod 1
    in lowest terms, has the sum of e(j*u*x^2/m) over x mod d: m is d (d
    odd), where that is the classical sum of `_quadratic_sum`, or 2d (d
    even), where the classical sum over x mod 2d is twice it.  The even
    blocks of order 2^k x 2^k, with g = gcd(j, 2^k): U(2^k), q/2 = xy/2^k,
    has 2^k * g, and V(2^k), q/2 = (x^2 + xy + y^2)/2^k, has
    (-1)^(k - v_2(g)) * 2^k * g, as an odd multiple of V is V again.
    """
    kind, d, q = piece
    if kind == "c":
        u, m = q
        if m not in (d, 2 * d):
            raise ValueError(f"q(g)/2 = {u}/{m} is not that of a generator of order {d}")
        r, t = _quadratic_sum(j * u, m)
        return r if m == d else r // 4, t
    g = math.gcd(j, d)
    return (d * g) ** 2, 0 if kind == "u" else 4 * ((d // g).bit_length() - 1) % 8


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return primes + [n] * (n > 1)


def _add_multiple(pairing: list, i: int, m: int, c: int) -> None:
    """Replace generator i by g_i + c*g_m in an inner-product matrix."""
    pairing[i][i] += 2 * c * pairing[i][m] + c * c * pairing[m][m]
    for x, row in enumerate(pairing):
        if x != i:
            pairing[i][x] += c * row[m]
            row[i] = pairing[i][x]


def _jordan(p: int, n: int, table: list) -> list[tuple]:
    """The Jordan pieces of a p-group, from its basis's table over the
    level n (see `gauss_pieces`), which is changed in place.

    An entry x stands for x/n mod 1, of order n // gcd(n, x), and each step
    takes an entry of largest order p^k, the group's exponent.  On the
    diagonal, b(h, h) of order p^k makes <h> a cyclic piece, with
    q(h)/2 = x/2n; off it, for odd p, h_i + h_j is such an h, and for
    p = 2, <h_i, h_j> is an even block, V(2^k) when both q(h_i)/2 and
    q(h_j)/2 are odd multiples of 2^-k and U(2^k) otherwise.  The rest of
    the basis is then projected onto the piece's orthogonal complement,
    which keeps the orders; q and b times p^k are the entries over n/p^k.
    """
    live, pieces = list(range(len(table))), []
    while live:
        order, diag, i, j = max(
            (n // math.gcd(n, table[i][j]), i == j, i, j) for i in live for j in live if i <= j
        )
        if order == 1:  # what is left is 0
            break
        if not diag and p != 2:
            _add_multiple(table, i, j, 1)
            continue
        live = [x for x in live if x not in (i, j)]
        unit = n // order
        if diag:
            g = math.gcd(table[i][i], 2 * n)
            pieces.append(("c", order, (table[i][i] // g % (2 * n // g), 2 * n // g)))
            inv = pow(table[i][i] // unit, -1, order)
            for x in live:
                _add_multiple(table, x, i, -(table[x][i] // unit) * inv % order)
            continue
        a, b, c = (table[x][y] // unit for x, y in ((i, i), (i, j), (j, j)))
        aniso = (a // 2) % 2 == (c // 2) % 2 == 1
        pieces.append(("v" if aniso else "u", order, None))
        inv = pow(a * c - b * b, -1, order)
        for x in live:
            s, t = table[x][i] // unit, table[x][j] // unit
            ci, cj = (c * s - b * t) * inv % order, (a * t - b * s) * inv % order
            _add_multiple(table, x, i, -ci)
            _add_multiple(table, x, j, -cj)
    return pieces


def gauss_pieces(df: DiscriminantForm) -> list[tuple]:
    """Orthogonal pieces whose Gauss sums multiply to the form's.

    A one-generator form, every Lambda_g among them, is its own cyclic
    piece ("c", d, (u, m)), d the order of its generator g, m the level and
    u = `gen_qn[0][0]`, so that u/m = q(g)/2 mod 1 in lowest terms.
    Otherwise each p-part, generated by h_i = s_i*g_i with s_i = d_i/p^e_i,
    is split by `_jordan`.  Its table holds N*q(h_i) = 2*s_i^2*u_ii on the
    diagonal and N*b(h_i, h_j) = s_i*s_j*u_ij off it, u = `gen_qn`: N*q,
    not N*q/2, so that `_add_multiple` updates the diagonal like any other
    entry.
    """
    if df.ngens == 1:
        return [("c", df.orders[0], (df.gen_qn[0][0], df.level))]
    n, u = df.level, df.gen_qn
    pieces = []
    for p in _prime_factors(n):
        scale = {}
        for i, d in enumerate(df.orders):
            if d % p == 0:
                while d % p == 0:
                    d //= p
                scale[i] = d
        table = [[scale[i] * scale[j] * (u[i][j] + u[j][i]) for j in scale] for i in scale]
        pieces += _jordan(p, n, table)
    return pieces


def exact_gauss_sums(df: DiscriminantForm) -> list[tuple[int, int]]:
    """G(j) = sum of e(j*q(gamma)/2) over the group for j = 1, 2, 3, each as
    (r, t), meaning sqrt(r)*e(t/8): Milgram's (|A|, sig) for j = 1, else
    the product of the pieces' `gauss_factor`."""
    pieces = gauss_pieces(df)
    sums = [(df.cardinality, df.sig_mod_8)]
    for j in (2, 3):
        r, t = 1, 0
        for piece in pieces:
            rp, tp = gauss_factor(piece, j)
            r, t = r * rp, t + tp
        sums.append((r, t % 8 if r else 0))
    return sums


# -- exact elliptic terms in Q(sqrt 2, sqrt 3) ---------------------------------
#
# a number a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6) is the tuple (a, b, c, d).  The
# terms take integer multiples, a product of two cosines as their sum
# (`_cos_product`) and products by sqrt 2 and sqrt 3, never a general product

# 4*cos(pi*t/12) for t = 0..12; cos(pi*t/12) = cos(pi*(24 - t)/12)
_COS = (
    (4, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0), (0, -1, 0, 1),
    (0, 0, 0, 0), (0, 1, 0, -1), (-2, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 0), (0, -1, 0, -1),
    (-4, 0, 0, 0),
)


def _cos(t: int) -> tuple:
    t %= 24
    return _COS[min(t, 24 - t)]


def _cos_product(a: int, b: int) -> tuple:
    """_cos(3a) * _cos(3b): 16 cos(pi*a/4) cos(pi*b/4) is
    8 (cos(pi*(a + b)/4) + cos(pi*(a - b)/4))."""
    return tuple([2 * (x + y) for x, y in zip(_cos(3 * (a + b)), _cos(3 * (a - b)))])


def _sqrt2(x: tuple) -> tuple:
    return (2 * x[1], x[0], 2 * x[3], x[2])


def _sqrt3(x: tuple) -> tuple:
    return (3 * x[2], 3 * x[3], x[0], x[1])


def _root_times(r: int, d: int, w: int, x: tuple) -> tuple:
    """x * sqrt(r/d), for r/d = |A[j]| of the form s^2 or w*s^2, w = 2 or 3."""
    m, rest = divmod(r, d)
    s = math.isqrt(m)
    if rest == 0 and s * s == m:
        return tuple([s * v for v in x])
    s = math.isqrt(m // w)
    if rest == 0 and w * s * s == m:
        return tuple([s * v for v in (_sqrt2 if w == 2 else _sqrt3)(x)])
    raise NonIntegerResult(f"|G(j)|^2 = {r} is not |A| = {d} times s^2 or {w}*s^2")


def _rational(x: tuple, what: str) -> int:
    """x's rational part, after checking that its surds vanish."""
    if any(x[1:]):
        raise NonIntegerResult(f"{what} is irrational: {x[0]} + {x[1]}*sqrt2 + "
                               f"{x[2]}*sqrt3 + {x[3]}*sqrt6 over its denominator")
    return x[0]


# -- the integer sums: by rows on a cyclic form, else from `qn` ---------------

# rows per slice of `row_sums`: each slice's arrays take 32 KiB, below
# glibc's default 128 KiB mmap threshold, so slices reuse heap memory
# instead of mapping fresh pages
SLICE = 4096

# the most rows `row_sums` counts in Python integers (`_isqrt_rows`); more
# go to numpy slices (`_row_slice`).  At K rows of Lambda_g, in process with
# numpy loaded (Python 3.11, numpy 2.4, 2-core x86-64, `timeit` minima),
# Python / the float64 slice took 2.0 / 3.7 us at K = 14, 5.1 / 3.6 at 49,
# 8.6 / 5.8 at 64, 10 / 3.8 at 74, 11 / 3.7 at 99 and 29 / 4.4 at 249, so
# the slices win from a few dozen rows on.  64 is kept all the same: up to
# it, Lambda_g up to g = 262, `dim` and `crosscheck` never import numpy,
# which costs a CLI child 0.1 s or more on the same machine, far above the
# microseconds at stake (`test_small_cusp_sides_load_no_numpy` pins it)
ISQRT_ROWS = 64


def two_torsion(df: DiscriminantForm) -> list[int]:
    """N*q/2 mod N on T = {gamma : 2*gamma = 0}, which `row_sums` does not
    count, in Python ints from `gen_qn` u, as a cyclic form's level may
    pass the bound of `check_int64`.  T holds the sums of t_i*g_i,
    t_i = d_i/2, over the sets S of generators of even order d_i, and the
    value at one is the sum of t_i*t_j*u_ij over i <= j in S.
    """
    if df.ngens == 1:
        (d,) = df.orders
        return [0] if d % 2 else [0, df.gen_qn[0][0] * (d // 2) ** 2 % df.level]
    n, u = df.level, df.gen_qn
    subsets = [[]]
    for i, d in enumerate(df.orders):
        if d % 2 == 0:
            subsets += [s + [(i, d // 2)] for s in subsets]
    return [sum([ti * tj * u[i][j] for i, ti in s for j, tj in s if i <= j]) % n for s in subsets]


def _isqrt_rows(rows: int, n: int) -> tuple[int, int]:
    """The number of perfect squares among k*n, and the sum of
    ceil(sqrt(k*n)), over the rows k = 1, ..., rows, by `math.isqrt`.

    For k*n >= 1, ceil(sqrt(k*n)) = isqrt(k*n - 1) + 1, and k*n is a
    perfect square exactly when isqrt(k*n) - isqrt(k*n - 1) = 1.  Exact in
    Python ints at any size.
    """
    below = sum(map(math.isqrt, range(n - 1, rows * n, n)))
    at = sum(map(math.isqrt, range(n, rows * n + 1, n)))
    return at - below, below + rows


def _row_slice(start: int, take: int, n: int) -> tuple[int, int]:
    """The number of perfect squares among k*n, and the sum of
    ceil(sqrt(k*n)), over the rows k = start, ..., start + take - 1, for
    take <= SLICE with k, n and m = isqrt(k*n) below 2^53 and the slice's
    roots summing below 2^63, as in every slice `row_sums` takes.

    A slice whose top row has k*n < 2^52 runs in float64 alone.  Its rows
    k*n are one float arange, exact as every integer below 2^53 is a
    float, and c, the ceiling of the float root r of k*n, is
    ceil(sqrt(k*n)), with k*n a perfect square exactly when c = r.  Let
    X = k*n, 1 <= X < 2^52.  IEEE 754 rounds the root correctly.  If
    X = m^2, the root m is a float and comes out exact.  Otherwise
    m^2 < X < (m + 1)^2 with m < 2^26, and the true root is at least
    1/(2m + 2) >= 2^-27 away from both m and m + 1, while rounding a number
    below 2^26 moves it by at most half an ulp, 2^-28.  So r lies strictly
    between m and m + 1: its ceiling is m + 1, and it is no whole number.
    Each ceiling is at most 2^26, so a slice's sum, below 2^38, is exact in
    float64 too.  At 2^52 the bound is tight: the float root of 2^52 + 1
    is 2^26.

    Any other slice runs in int64.  k*n is made a float from the exact k
    and n, one correctly rounded product, and s is its float square root,
    floored.  s is m or m + 1.  IEEE 754 rounds the product and the root
    correctly, and rounding is monotone, so k*n >= m^2 comes out at least
    fl(m^2).  If m is a power of two, m^2 is a float and the root is at
    least m.  Otherwise, with 2^e < m < 2^(e + 1), fl(m^2) is at least
    m^2 - 2^(2e - 52), whose root is above m - 2^(e - 53), the midpoint
    between m and the float below it (m < 2^53 is a float), so it rounds
    to m or above.  At the top, k*n < (m + 1)^2 keeps the root below m + 2
    by far more than an ulp.  So d = s^2 - k*n is at most 2m + 1 in
    absolute value, and it is exact in wrapping int64 even where s^2 and
    k*n overflow: d = 0 on the squares, and ceil(sqrt(k*n)) is s + 1 where
    d < 0 (s = m on a row that is no square) and s on every other row.
    """
    import numpy as np

    if (start + take - 1) * n < 1 << 52:
        r = np.arange(start * n, (start + take) * n, n, dtype=np.float64)
        np.sqrt(r, out=r)
        c = np.ceil(r)
        return int(np.count_nonzero(c == r)), int(c.sum())
    k = np.arange(start, start + take, dtype=np.int64)
    s = np.sqrt(k * float(n)).astype(np.int64)
    k *= n
    d = s * s
    d -= k
    squares = take - int(np.count_nonzero(d))
    return squares, int(s.sum()) + int(np.count_nonzero(d < 0))


def row_sums(h: int, n: int, u: int) -> tuple[int, int]:
    """The zero count and the sum of u*x^2 mod n over x = 1, ..., h, for
    u = 1 or n - 1, h <= n and (SLICE + 2)*n < 2^63, from the lattice
    points under the parabola n*y = x^2 counted by rows.

    With K = h^2 // n rows y = 1, ..., K, F = sum of x^2 // n over the
    walk is sum over the rows of h + 1 - ceil(sqrt(k*n)), and x^2 is a
    multiple of n exactly when x^2 = k*n for a row k, so the zero count z
    is the number of rows k*n that are perfect squares.  With
    S2 = h(h + 1)(2h + 1)/6, the sum is S2 - n*F for u = 1 and
    n*(F + h - z) - S2 for u = n - 1, as -x^2 mod n = n*ceil(x^2/n) - x^2.
    Up to ISQRT_ROWS rows, where numpy's call overhead outweighs the work,
    z and the sum of the ceilings come from `math.isqrt` in Python ints
    (`_isqrt_rows`); more rows run SLICE at a time in numpy
    (`_row_slice`), in float64 alone while a slice's rows k*n stay below
    2^52 and in int64 above: every k <= h, n and root <= h + 1 are below
    2^53, and a slice's roots sum below SLICE*(n + 1) < 2^63.  No class
    number and no factorization is used.
    """
    rows = h * h // n
    if rows <= ISQRT_ROWS:
        zeros, ceil_sum = _isqrt_rows(rows, n)
    else:
        zeros = ceil_sum = 0
        for start in range(1, rows + 1, SLICE):
            squares, part = _row_slice(start, min(SLICE, rows + 1 - start), n)
            zeros += squares
            ceil_sum += part
    f = rows * (h + 1) - ceil_sum
    s2 = h * (h + 1) * (2 * h + 1) // 6
    return zeros, s2 - n * f if u == 1 else n * (f + h - zeros) - s2


def walk_sums(df: DiscriminantForm) -> tuple[int, int, list[int]]:
    """The zero count and the sum of N*q/2 mod N over the whole group, and
    its values on T = {gamma : 2*gamma = 0} (`two_torsion`).

    A cyclic form of level N with (SLICE + 2)*N >= 2^63 raises TooLarge
    first, before any row is counted: below it the rows' float64
    and int64 arithmetic is exact (`row_sums`).  On a cyclic form each sum
    is even under gamma -> -gamma, as q(-gamma) = q(gamma), so it is twice
    that over one element of each pair {gamma, -gamma} with gamma != -gamma,
    plus that over T.  Those pairs are x*g for x = 1, ..., h = (d - 1)//2,
    with the values u*x^2 mod N, u = N*q(g)/2 mod N the form's
    `gen_qn[0][0]`, a Python int, so no array is built.
    When u is 1 or N - 1, as for every Lambda_g (u = N - 1) and every <2n>,
    their sums are counted by rows (`row_sums`) in about h^2/N integer
    square roots, in Python ints or numpy slices by their number.  Any
    other form reads its two sums off its cached full-group `qn`, which
    raises TooLarge before any array of |A| entries.
    """
    if df.ngens == 1:
        (d,) = df.orders
        n = df.level
        bound = (SLICE + 2) * n
        if bound >= 1 << 63:
            raise TooLarge(
                f"level {n} times SLICE + 2 is {bound} >= 2^63: the row slices "
                f"of |A| = {d} would not be exact in float64 and int64"
            )
        if (u := df.gen_qn[0][0]) in (1, n - 1):
            zeros, total = row_sums((d - 1) // 2, n, u)
            two = two_torsion(df)
            return 2 * zeros + two.count(0), 2 * total + sum(two), two
    import numpy as np

    qn = df.qn
    # exact in int64: N divides twice the group's exponent, so the sum is
    # below N*|A| <= 2|A|^2 < 2^63 for any group whose `qn` fits in memory
    return len(qn) - int(np.count_nonzero(qn)), int(qn.sum()), two_torsion(df)


def dim_cusp_df(df: DiscriminantForm, k: Fraction) -> CuspDimReport:
    """Riemann-Roch dimension of cusp forms of weight k and type rho*.

    Valid for k > 2.  Weights whose parity is incompatible with the
    representation give a flagged zero, not an error.  Exact: a total that
    is not a nonnegative integer raises NonIntegerResult.
    """
    if not isinstance(k, Fraction):
        k = Fraction(k)
    # k is half-integral exactly when its denominator, prime to its
    # numerator, divides 2
    two_k, rest = divmod(2 * k.numerator, k.denominator)
    if rest:
        raise ValueError(f"weight must be half-integral, got {k}")
    if two_k <= 4:
        raise WeightTooSmall(f"formula needs weight > 2, got {k}")

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
    sig = df.sig_mod_8

    zeros, total, two = walk_sums(df)
    # the 2-torsion only carries symmetric forms
    rank_pm = (d + eps * len(two)) // 2
    # -v mod n is n - v for every value but 0
    alpha_num = n * (d - zeros) - total + eps * sum(-x % n for x in two)  # over 2n
    n_iso = (zeros + eps * two.count(0)) // 2

    # elliptic terms, from G(j) = sqrt(r_j)*e(t_j/8) with G(1) = sqrt(d)*e(sig/8):
    # Re(e(b4/8) * (Re or Im of G(2)))/(4 sqrt d) = e4/64, and
    # Re(e(b6/24) * (G(1) + eps*conj(G(3))))/(3 sqrt 3 sqrt d) = e6/36
    _, (r2, t2), (r3, t3) = exact_gauss_sums(df)
    b4 = (two_k + sig + 1 - eps) % 8
    e4 = 0
    if r2:
        # Im(e(t/8)) = Re(e((t - 2)/8))
        cos4 = _cos_product(b4, t2 if symm else t2 - 2)
        e4 = _rational(_root_times(r2, d, 2, cos4), "elliptic_order4")
    b6 = (3 * sig + 2 * two_k - 10) % 24
    cos6 = _cos(b6 + 3 * sig)
    if r3:
        conj3 = _root_times(r3, d, 3, _cos(b6 - 3 * t3))
        cos6 = tuple([x + eps * y for x, y in zip(cos6, conj3)])
    e6 = _rational(_sqrt3(cos6), "elliptic_order6")

    # main + e4/64 - alpha_t - n_iso - e6/36 in integers over one
    # denominator, main being rank_pm * (2k + 10)/24 = main_num/den
    den = math.lcm(576, 2 * n)
    main_num = rank_pm * (two_k + 10) * (den // 24)
    value = (
        main_num
        + e4 * (den // 64)
        - alpha_num * (den // (2 * n))
        - n_iso * den
        - e6 * (den // 36)
    )
    dim, rest = divmod(value, den)
    if rest or dim < 0:
        raise NonIntegerResult(f"Riemann-Roch gave {Fraction(value, den)}, not a dimension")
    return CuspDimReport(
        k=k,
        d=d,
        dim=dim,
        parity_ok=True,
        symmetric=symm,
        boundary_terms={
            "rank_pm": rank_pm,
            "main": main_num / den,
            "elliptic_order4": e4 / 64,
            "elliptic_order6": -e6 / 36,
            "parabolic": -alpha_num / (2 * n),
            "isotropic": -n_iso,
            "raw_value": value / den,
        },
    )


def dim_cusp(lat: Lattice, k: Fraction) -> CuspDimReport:
    return dim_cusp_df(discriminant_form(lat), k)


def picard_rank_via_cusp(lat: Lattice, *, split_asserted: bool = False) -> int:
    """1 + dim S_{m/2, M} for an even lattice M of signature (p, 2).

    Requires the hermitian slot of the signature to be 2 and the U + U(N)
    orthogonal splitting hypothesis.  The hypothesis is taken as shown when
    at least two orthogonal blocks of the Gram matrix are exactly
    U = ((0, 1), (1, 0)), as in every catalog Lambda_g; otherwise the caller
    must assert it with split_asserted=True.  The lattice's name is not read.
    """
    sig = signature(lat)
    if sig.positive != 2:
        raise BadSignature(
            f"need signature (2, p); lattice has ({sig.positive}, {sig.negative})"
        )
    known_split = [sub for _, sub in lat.blocks].count(_U_GRAM) >= 2
    if not (split_asserted or known_split):
        raise HypothesisNotAsserted(
            "caller must assert the U + U(N) orthogonal splitting"
        )
    m = lat.rank
    report = dim_cusp(lat, Fraction(m, 2))
    return 1 + report.dim
