"""Dimensions of vector-valued cusp forms and the Picard-number identity.

The dimension of S_{k,M} for half-integral k > 2 comes from Riemann-Roch
on the modular curve: a main term d*(k+5)/12 on the plus/minus eigenspace
rank, elliptic corrections at the order-4 and order-6 points expressed
through the quadratic Gauss sums G(j) = sum of e(j*q(gamma)/2), j = 1, 2, 3,
of the discriminant form, and a parabolic correction from the T-eigenvalues.

The parabolic and isotropic terms and the eigenspace rank are even under
gamma -> -gamma, as q(-gamma) = q(gamma), so they read three integer sums
(`walk_sums`): the zero count and the sum of N*q/2 mod N over the group,
and its values on the 2-torsion T = {gamma : 2*gamma = 0}, evaluated once
(`two_torsion`).  A full-group sum is twice the sum over one element of
each pair {gamma, -gamma} with gamma != -gamma, plus the sum over T.  Those
pairs are streamed a bounded slice at a time: a cyclic form, every Lambda_g
among them, walks by squares (`square_walk`: one table of u*t^2 mod N per
walk, then one exact start value and slope per slice); a form with several
generators evaluates `qn_at` on the index slices of `half_walk`.  The walk
builds no array as long as the group, so its memory does not grow with |A|
(T has one or two elements on a cyclic form), and the int64 bound of the
squares walk, (SLICE + 2)*N < 2^63, admits Lambda_g up to g - 1 of about
5.6*10^14.

The Gauss sums come from the form's local data instead of the walk, each
as sqrt(r)*e(t/8) with integers r and t (`exact_gauss_sums`).  G(1) is
Milgram's sqrt(|A|)*e(sig/8).  G(2) and G(3) are products over orthogonal
pieces (`gauss_pieces`): a component of the generator pairing with one
generator is a cyclic piece, whose sum is the classical quadratic Gauss
sum, read from a Jacobi symbol coded here; a component with more is split
by its p-adic Jordan decomposition at each prime p of its order into
cyclic pieces and, at p = 2, the even blocks U(2^k) and V(2^k).  The
elliptic terms are then exact elements of Q(sqrt 2, sqrt 3), and the
dimension is a sum of rationals with no float anywhere: a total that is not
a nonnegative integer raises NonIntegerResult.  Nothing here comes from the
closed form.

The forms counted are of type rho* = conj(rho), the dual of the Weil
representation rho that `nlrank.weil` builds, as in Bruinier's treatment
of lattices of signature (2, n).  The convention matters: with rho in place
of rho*, the eigenvalue form of the same formula gives wrong dimensions for
most forms and weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

# `lattices` before numpy: where no bytecode is cached, compiling it once
# numpy has loaded would add the compiler's ~1 MB to the process's peak RSS
from .lattices import DiscriminantForm, Lattice, _blocks, _reduce, discriminant_form, signature
import numpy as np

from .errors import (
    BadSignature,
    HypothesisNotAsserted,
    NonIntegerResult,
    TooLarge,
    WeightTooSmall,
)

_U_GRAM = ((0, 1), (1, 0))


@dataclass(frozen=True)
class CuspDimReport:
    k: Fraction
    d: int
    dim: int
    parity_ok: bool
    symmetric: bool | None
    boundary_terms: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "k": [self.k.numerator, self.k.denominator],
            "d": self.d,
            "dim": self.dim,
            "parity_ok": self.parity_ok,
            "symmetric": self.symmetric,
            "boundary_terms": self.boundary_terms,
        }
        return json.dumps(obj, sort_keys=True)


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


def _cyclic_sum(d: int, q: tuple, j: int) -> tuple[int, int]:
    """Sum of e(j*u*x^2/m) over x mod d, for a cyclic piece of order d whose
    generator has q(g)/2 = u/m mod 1 in lowest terms, q = (u, m): m is d
    (d odd) or 2d (d even), and a sum over x mod 2d is twice the sum over
    x mod d."""
    u, m = q
    if m == d:
        return _quadratic_sum(j * u, m)
    if m != 2 * d:
        raise ValueError(f"q(g)/2 = {u}/{m} is not that of a generator of order {d}")
    r, t = _quadratic_sum(j * u, m)
    return r // 4, t


def _half(x: Fraction) -> tuple[int, int]:
    """x/2 mod 1 in lowest terms, as (numerator, denominator)."""
    u, m = x.numerator, 2 * x.denominator
    g = math.gcd(u, m)
    return u // g % (m // g), m // g


def gauss_factor(piece: tuple, j: int) -> tuple[int, int]:
    """G(j) of one orthogonal piece (see `gauss_pieces`) as (r, t).

    A cyclic piece ("c", d, (u, m)) has the classical sum of `_cyclic_sum`.  The
    even blocks of order 2^k x 2^k, with g = gcd(j, 2^k): U(2^k), q/2 = xy/2^k,
    has 2^k * g, and V(2^k), q/2 = (x^2 + xy + y^2)/2^k, has
    (-1)^(k - v_2(g)) * 2^k * g, as an odd multiple of V is V again.
    """
    kind, d, q = piece
    if kind == "c":
        return _cyclic_sum(d, q, j)
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


def _jordan(p: int, pairing: list) -> list[tuple]:
    """The Jordan pieces of a p-group, given the inner products of a basis.

    Each step takes the entry of b = pairing mod 1 of largest order p^k,
    which is the group's exponent.  On the diagonal, b(h, h) of order p^k
    makes <h> a cyclic piece of order p^k; off it, for odd p, h_i + h_j is
    such an h, and for p = 2, <h_i, h_j> is an even block, V(2^k) when both
    q(h_i)/2 and q(h_j)/2 are odd multiples of 2^-k and U(2^k) otherwise.
    The rest of the basis is then projected onto the piece's orthogonal
    complement, which keeps the orders.  Inner products stay exact, with
    the diagonal mod 2, so q is exact too.
    """
    pairing = [list(row) for row in pairing]
    live, pieces = list(range(len(pairing))), []
    while live:
        order, diag, i, j = max(
            ((pairing[i][j] % 1).denominator, i == j, i, j) for i in live for j in live if i <= j
        )
        if order == 1:  # what is left is 0
            break
        if not diag and p != 2:
            _add_multiple(pairing, i, j, 1)
            continue
        live = [x for x in live if x not in (i, j)]
        if diag:
            pieces.append(("c", order, _half(pairing[i][i])))
            inv = pow(int(pairing[i][i] * order), -1, order)
            for x in live:
                _add_multiple(pairing, x, i, -int(pairing[x][i] * order) * inv % order)
            continue
        a, b, c = (int(pairing[x][y] * order) for x, y in ((i, i), (i, j), (j, j)))
        aniso = (a // 2) % 2 == (c // 2) % 2 == 1
        pieces.append(("v" if aniso else "u", order, None))
        inv = pow(a * c - b * b, -1, order)
        for x in live:
            s, t = int(pairing[x][i] * order), int(pairing[x][j] * order)
            ci, cj = (c * s - b * t) * inv % order, (a * t - b * s) * inv % order
            _add_multiple(pairing, x, i, -ci)
            _add_multiple(pairing, x, j, -cj)
    return pieces


def gauss_pieces(df: DiscriminantForm) -> list[tuple]:
    """Orthogonal pieces whose Gauss sums multiply to the form's.

    A component of the generator pairing with one generator g, of order d,
    is the cyclic piece ("c", d, (u, m)), u/m = q(g)/2 mod 1 (`_half`).  A
    component with more generators is split into its p-parts, generated by
    (d_i / p^e_i) * g_i, and each is split by `_jordan`.  A one-generator
    form is its own single cyclic piece, with no component search.
    """
    if df.ngens == 1:
        return [("c", df.orders[0], _half(df.gen_pairing[0][0]))]
    pieces = []
    # the components of the generator pairing: g_i and g_j are joined when
    # b(g_i, g_j), the pairing mod 1, is not 0
    nonzero = [[x.denominator != 1 for x in row] for row in df.gen_pairing]
    for comp, _ in _blocks(nonzero):
        if len(comp) == 1:
            (i,) = comp
            pieces.append(("c", df.orders[i], _half(df.gen_pairing[i][i])))
            continue
        orders = [df.orders[i] for i in comp]
        for p in _prime_factors(math.lcm(*orders)):
            scale = {}
            for i, d in zip(comp, orders):
                if d % p == 0:
                    while d % p == 0:
                        d //= p
                    scale[i] = d
            pieces += _jordan(
                p, [[scale[i] * scale[j] * df.gen_pairing[i][j] for j in scale] for i in scale]
            )
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
# a number a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6) is the tuple (a, b, c, d)

# 4*cos(pi*t/12) for t = 0..12; cos(pi*t/12) = cos(pi*(24 - t)/12)
_COS = (
    (4, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0), (0, -1, 0, 1),
    (0, 0, 0, 0), (0, 1, 0, -1), (-2, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 0), (0, -1, 0, -1),
    (-4, 0, 0, 0),
)


def _cos(t: int) -> tuple:
    t %= 24
    return _COS[min(t, 24 - t)]


def _times(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e + 2 * b * f + 3 * c * g + 6 * d * h,
        a * f + b * e + 3 * (c * h + d * g),
        a * g + c * e + 2 * (b * h + d * f),
        a * h + d * e + b * g + c * f,
    )


def _root_ratio(r: int, d: int, w: int) -> tuple:
    """sqrt(r/d) as a tuple, for r/d = |A[j]| of the form s^2 or w*s^2."""
    m, rest = divmod(r, d)
    s = math.isqrt(m)
    if rest == 0 and s * s == m:
        return (s, 0, 0, 0)
    s = math.isqrt(m // w)
    if rest == 0 and w * s * s == m:
        return (0, s, 0, 0) if w == 2 else (0, 0, s, 0)
    raise NonIntegerResult(f"|G(j)|^2 = {r} is not |A| = {d} times s^2 or {w}*s^2")


def _rational(x: tuple, what: str) -> int:
    """x's rational part, after checking that its surds vanish."""
    if any(x[1:]):
        raise NonIntegerResult(f"{what} is irrational: {x[0]} + {x[1]}*sqrt2 + "
                               f"{x[2]}*sqrt3 + {x[3]}*sqrt6 over its denominator")
    return x[0]


# -- the integer sums, by a walk over half the group -------------------------

# elements per slice of `half_walk` and `square_walk`: the squares table and
# the two slice buffers of a cyclic form (Lambda_g among them) take 32 KiB
# each, below glibc's default 128 KiB mmap threshold, so walks reuse heap
# memory instead of mapping fresh pages.  A form with k > 1 generators holds
# k x SLICE int64 exponents per `half_walk` slice (32 KiB each), which reach
# the threshold from k = 4 on
SLICE = 4096

# 0, 1, ..., SLICE - 1, read-only: the offsets `half_walk` adds to a range's
# start and the t of `square_walk`
_RAMP = np.arange(SLICE, dtype=np.int64)
_RAMP.flags.writeable = False


def half_walk(df: DiscriminantForm):
    """One element of each pair {gamma, -gamma} with gamma != -gamma, as
    int64 index slices into elements().

    Each slice is an array of its own: SLICE indices, or what is left in
    the last one.  With i the first coordinate where e_i is neither 0 nor
    orders[i]/2, a gamma != -gamma is walked exactly when 1 <= e_i <=
    (orders[i] - 1)/2, so -gamma (which agrees with gamma before i) is not.
    For each prefix of 2-torsion exponents before i those elements are one
    contiguous index range, and the ranges are packed into the slices, so
    a form with many short ranges has few slices.  A group of 2-torsion
    only has none.  Raises TooLarge (see `check_int64`) before the first
    slice.
    """
    df.check_int64()
    ranges = []
    # the 2-torsion exponent prefixes before d, as row-major indices over
    # those coordinates; rest is the product of the orders after d
    prefixes, rest = [0], df.cardinality
    for d in df.orders:
        rest //= d
        if d > 2:
            ranges += [((p * d + 1) * rest, (p * d + (d + 1) // 2) * rest) for p in prefixes]
        halves = (0, d // 2) if d % 2 == 0 else (0,)
        prefixes = [p * d + t for p in prefixes for t in halves]
    left = sum([stop - start for start, stop in ranges])
    index, pos = np.empty(min(left, SLICE), dtype=np.int64), 0
    for start, stop in ranges:
        while start < stop:
            take = min(stop - start, len(index) - pos)
            np.add(_RAMP[:take], start, out=index[pos : pos + take])
            start += take
            pos += take
            if pos == len(index):
                yield index
                left -= pos
                index, pos = np.empty(min(left, SLICE), dtype=np.int64), 0


def _square_slice(table, start, u, n, out, quotient):
    """u*(start + t)^2 mod n for t < len(out), written into `out`.

    From u*(s + t)^2 = u*s^2 + 2u*s*t + u*t^2 with table[t] = u*t^2 mod n:
    the start value u*s^2 and the slope 2u*s are exact Python ints reduced
    mod n, so out = slope*t + table[t] + start stays below (SLICE + 2)*n
    before its one reduce, whose quotient goes to `quotient`, a buffer as
    long as `out`.
    """
    np.multiply(_RAMP[: len(out)], 2 * u * start % n, out=out)
    out += table[: len(out)]
    out += u * start * start % n
    np.floor_divide(out, n, out=quotient)
    quotient *= n
    out -= quotient
    return out


def square_walk(df: DiscriminantForm):
    """`half_walk`'s elements of a cyclic form, as N*q/2 mod N slices.

    With d the order, u = N*q(g)/2 mod N for the generator g and
    h = (d - 1)//2, the walk is x*g for x = 1, ..., h, the value at x*g
    being u*x^2 mod N.  A table of u*t^2 mod N for t < L = min(SLICE, h + 1),
    from `_RAMP`, is also the first slice, x = 1, ..., L - 1; each later
    slice, at start s = L, 2L, ..., is `_square_slice` into a buffer made
    once per walk, with a second one for the quotient of its reduce, so a
    slice is overwritten when the next is drawn.  Raises TooLarge before
    the first slice when (SLICE + 2)*N >= 2^63, as the slices' int64
    intermediates, and the sum of a slice, stay below that.
    """
    (d,) = df.orders
    n = df.level
    bound = (SLICE + 2) * n
    if bound >= 1 << 63:
        raise TooLarge(
            f"level {n} times SLICE + 2 is {bound} >= 2^63: the squares "
            f"walk of |A| = {d} would overflow int64"
        )
    u = int(df._upper[0, 0])
    h = (d - 1) // 2
    ramp = _RAMP[: min(SLICE, h + 1)]
    table = _reduce(ramp * u, n)
    table *= ramp
    _reduce(table, n)
    yield table[1:]
    size = len(table)
    if h >= size:
        out, quotient = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
        for start in range(size, h + 1, size):
            take = min(size, h + 1 - start)
            yield _square_slice(table, start, u, n, out[:take], quotient[:take])


def two_torsion(df: DiscriminantForm) -> list[int]:
    """N*q/2 mod N on T = {gamma : 2*gamma = 0}, which neither walk visits,
    in elements() order.

    T's exponents are 0 or orders[i]/2 in each coordinate.  A cyclic form's
    two values at most are Python ints, as its level may pass the bound of
    `check_int64`; otherwise they are `qn_at`, which raises TooLarge first.
    """
    if df.ngens == 1:
        (d,) = df.orders
        return [0] if d % 2 else [0, int(df._upper[0, 0]) * (d // 2) ** 2 % df.level]
    index = [0]
    for d in df.orders:
        halves = (0, d // 2) if d % 2 == 0 else (0,)
        index = [p * d + t for p in index for t in halves]
    return df.qn_at(np.array(index, dtype=np.int64)).tolist()


def walk_sums(df: DiscriminantForm) -> tuple[int, int, list[int]]:
    """The zero count and the sum of N*q/2 mod N over the whole group, and
    its values on T = {gamma : 2*gamma = 0} (`two_torsion`).

    Each sum is even under gamma -> -gamma, as q(-gamma) = q(gamma), so it
    is twice that over one element of each pair {gamma, -gamma} with
    gamma != -gamma, plus that over T.  The pairs are walked by squares on
    a cyclic form (`square_walk`), by `qn_at` on `half_walk`'s index slices
    otherwise.  Either raises TooLarge before its first slice, so before
    T is read.
    """
    walk = square_walk(df) if df.ngens == 1 else map(df.qn_at, half_walk(df))
    zeros = total = 0
    for v in walk:
        zeros += len(v) - int(np.count_nonzero(v))
        total += int(v.sum())
    two = two_torsion(df)
    return 2 * zeros + two.count(0), 2 * total + sum(two), two


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
        cos4 = _times(_cos(3 * b4), _cos(3 * (t2 if symm else t2 - 2)))
        e4 = _rational(_times(cos4, _root_ratio(r2, d, 2)), "elliptic_order4")
    b6 = (3 * sig + 2 * two_k - 10) % 24
    cos6 = _cos(b6 + 3 * sig)
    if r3:
        conj3 = _times(_root_ratio(r3, d, 3), _cos(b6 - 3 * t3))
        cos6 = tuple(x + eps * y for x, y in zip(cos6, conj3))
    e6 = _rational(_times(cos6, (0, 0, 1, 0)), "elliptic_order6")

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
    known_split = sum(sub == _U_GRAM for _, sub in lat.blocks) >= 2
    if not (split_asserted or known_split):
        raise HypothesisNotAsserted(
            "caller must assert the U + U(N) orthogonal splitting"
        )
    m = lat.rank
    report = dim_cusp(lat, Fraction(m, 2))
    return 1 + report.dim
