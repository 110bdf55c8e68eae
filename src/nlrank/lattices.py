"""Even integral lattices, exact invariants, and discriminant forms.

Everything here is exact: Gram matrices are arbitrary-precision integers,
signatures come from rational congruence diagonalization, and discriminant
groups come from an integer Smith normal form with unimodular transforms.
The determinant is (-1)^negative * |M^dual / M|, read from these two.  The
exact invariants use no floating point; `DiscriminantForm.roots`, the map
v -> e(v/N) that the float Gauss sum `arith.gauss_sum` and rho(T) read, is
the kernel's one complex-valued member, built once per form.  The cusp
dimension reads no roots: its Gauss sums come from the generator pairing.

Both invariants are computed per orthogonal block of the Gram matrix (a
connected component of its nonzero pattern) and assembled as orthogonal
sums.  Each block's result is kept in a cache bounded to BLOCK_CACHE_SIZE
blocks, so the U and -E8 blocks that recur in every Lambda_g are computed
once per process.  A lattice looks its blocks up in that cache once
(`Lattice.block_invariants`), and `signature` and `discriminant_form` both
read the tuple.  A discriminant form's `orders` are therefore the blocks'
invariant factors, not always the global ones (see `discriminant_form`).

A lattice given by its Gram matrix finds its blocks by a search (`_blocks`);
a `direct_sum` takes them from its summands instead.  U and +-E8 are shared
frozen instances, so the catalog lattices are built from summands whose
blocks are already known.  Lambda_g is <2-2g> plus U^2 + (-E8)^2, built
from a template: the 20 rows and four blocks that do not depend on g are
made once per process, and each genus adds one row and one rank-one block.

A `DiscriminantForm` evaluates N*q/2 mod N (N the level) in int64 from the
generators' values of q and b, by one formula (`qn_at`): for the whole group
at once (`qn`, which the Weil operators read) or at an index array, such as
a slice of the cusp dimension's walk over half the group (see `cuspdim`).
The index maps of -gamma and xi(gamma) are one map, M*gamma mod `orders`
(`_image_index`).  A form whose int64 products could overflow raises
TooLarge before any element is evaluated: N times the sum of the orders
(`check_int64`), g - 1 >= 2^30 for Lambda_g.

numpy is imported by the int64 kernel members of `DiscriminantForm` only,
so building lattices and reading their invariants never loads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm, prod
from typing import TYPE_CHECKING, NamedTuple

from . import CATALOG_NAMES  # noqa: F401  (the names `catalog` accepts)
from .errors import BadGenus, BadScale, Degenerate, NotEven, NotSymmetric, TooLarge

if TYPE_CHECKING:
    import numpy as np

Gram = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)


def _as_gram(rows) -> Gram:
    return tuple(tuple(map(int, row)) for row in rows)


@dataclass(frozen=True)
class Lattice:
    """Even nondegenerate lattice given by its integer Gram matrix."""

    gram: Gram
    name: str | None = None

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return (-1) ** signature(self).negative * discriminant_form(self).cardinality

    @cached_property
    def blocks(self) -> tuple[tuple[tuple[int, ...], Gram], ...]:
        """Orthogonal blocks of the Gram matrix, found once by `_blocks`.

        A `direct_sum` and `lambda_lattice` set them from known blocks instead."""
        return tuple(_blocks(self.gram))

    @cached_property
    def block_invariants(self) -> tuple[_Block, ...]:
        """`_block_invariants` of each block, looked up once per lattice:
        `signature` and `discriminant_form` both read this tuple."""
        return tuple([_block_invariants(sub) for _, sub in self.blocks])

    def inner(self, x, y) -> Fraction:
        """Bilinear form on rational coordinate vectors in the lattice basis."""
        total = Fraction(0)
        for i, row in enumerate(self.gram):
            if x[i]:
                total += x[i] * sum(Fraction(row[j]) * y[j] for j in range(self.rank) if y[j])
        return total


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int


def make_lattice(gram, name: str | None = None) -> Lattice:
    """Validate a Gram matrix and wrap it as a Lattice.

    Raises NotSymmetric / NotEven / Degenerate on bad input.
    """
    g = _as_gram(gram)
    n = len(g)
    if any(len(row) != n for row in g):
        raise NotSymmetric("Gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] != g[j][i]:
                raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
    for i in range(n):
        if g[i][i] % 2 != 0:
            raise NotEven(f"odd diagonal entry gram[{i}][{i}] = {g[i][i]}")
    lat = Lattice(g, name)
    signature(lat)  # raises Degenerate on a singular block
    return lat


# Gram matrix of E8 in a root basis (Dynkin diagram in Bourbaki numbering:
# chain 1-3-4-5-6-7-8 with node 2 attached to node 4).
_E8_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]


def _e8_gram() -> Gram:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = -1
        g[b - 1][a - 1] = -1
    return _as_gram(g)


_U = Lattice(((0, 1), (1, 0)), "U")
_E8 = Lattice(_e8_gram(), "E8")
_MINUS_E8 = Lattice(tuple(tuple(-x for x in row) for row in _E8.gram), "-E8")


def hyperbolic(scale: int = 1) -> Lattice:
    """U(N): the rank-two lattice [[0, N], [N, 0]].

    U itself (N = 1) is one shared instance, like E8 and -E8 from `e8`:
    `Lattice` is frozen, so every caller may hold it, and its `blocks` are
    found once per process.
    """
    if scale < 1:
        raise BadScale(f"U(N) needs N >= 1, got {scale}")
    if scale == 1:
        return _U
    return Lattice(((0, scale), (scale, 0)), f"U({scale})")


def e8(negative: bool = False) -> Lattice:
    """E8, or -E8 if negative, in a root basis: one shared frozen instance each."""
    return _MINUS_E8 if negative else _E8


def direct_sum(*lattices: Lattice, name: str | None = None) -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram matrix.

    The sum's `blocks` are taken from the summands' blocks, shifted by each
    summand's row offset, so no block search runs on the sum's Gram matrix;
    they are ordered by smallest index, as `_blocks` orders them.  Their
    invariants are looked up once, when `signature` or `discriminant_form`
    first reads `Lattice.block_invariants`.  `lambda_lattice` makes the sum
    <2-2g> + U^2 + (-E8)^2 from a template instead of calling this.
    """
    ranks = [lat.rank for lat in lattices]
    total = sum(ranks)
    rows, blocks, off = [], [], 0
    for lat, n in zip(lattices, ranks):
        left, right = (0,) * off, (0,) * (total - off - n)
        rows += [left + tuple(row) + right for row in lat.gram]
        blocks += [(tuple([i + off for i in idx]), sub) for idx, sub in lat.blocks]
        off += n
    result = Lattice(tuple(rows), name)
    vars(result)["blocks"] = tuple(blocks)  # seeds the cached property
    return result


def k3_lattice() -> Lattice:
    """The K3 lattice U^3 + (-E8)^2 of signature (3,19)."""
    u = hyperbolic()
    return direct_sum(u, u, u, e8(True), e8(True), name="K3")


def lambda_lattice(g: int) -> Lattice:
    """Lambda_g = <w> + U^2 + (-E8)^2 with w.w = 2-2g; rank 21.

    The same lattice, gram, name and blocks, as
    direct_sum(<2-2g>, U, U, -E8, -E8), built from a template: the 20 rows
    and the four blocks that do not depend on g are made once per process
    (`_LAMBDA_ROWS`, `_LAMBDA_BLOCKS`), so a call adds one row and one
    rank-one block.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    w = 2 - 2 * g
    lat = Lattice(((w,) + _LAMBDA_PAD,) + _LAMBDA_ROWS, f"Lambda_{g}")
    vars(lat)["blocks"] = (((0,), ((w,),)),) + _LAMBDA_BLOCKS  # as in `direct_sum`
    return lat


def catalog(name: str, *, g: int | None = None, scale: int | None = None) -> Lattice:
    """Named lattices, one per entry of CATALOG_NAMES."""
    if name in ("U", "U(N)"):
        return hyperbolic(1 if scale is None else scale)
    if name == "E8":
        return e8(False)
    if name == "minusE8":
        return e8(True)
    if name == "K3":
        return k3_lattice()
    if name == "Lambda_g":
        if g is None:
            raise BadGenus("Lambda_g needs a genus g >= 2")
        return lambda_lattice(g)
    raise KeyError(f"unknown catalog lattice {name!r}")


def _congruence_signature(gram: Gram) -> tuple[int, int]:
    """Exact (positive, negative) by symmetric congruence diagonalization over Q."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for t in range(n):
        if a[t][t] == 0:
            swap = next((j for j in range(t + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                for r in range(n):
                    a[r][t], a[r][swap] = a[r][swap], a[r][t]
                a[t], a[swap] = a[swap], a[t]
            else:
                # all remaining diagonal entries vanish; grab an off-diagonal
                j = next((j for j in range(t + 1, n) if a[t][j] != 0), None)
                if j is None:
                    raise Degenerate("Gram matrix is singular")
                for r in range(n):
                    a[r][t] += a[r][j]
                for c in range(n):
                    a[t][c] += a[j][c]
        p = a[t][t]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(t + 1, n):
            f = a[r][t] / p
            if f:
                for c in range(n):
                    a[r][c] -= f * a[t][c]
                for c in range(n):
                    a[c][r] -= f * a[c][t]
    return pos, neg


# the elementary operations of `smith_normal_form`, on a matrix as a list
# of row lists: swap two rows or columns, add c times one to another


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, c):
    d, s = m[dst], m[src]
    for k in range(len(d)):
        d[k] += c * s[k]


def _add_col(m, dst, src, c):
    for row in m:
        row[dst] += c * row[src]


def smith_normal_form(rows: Gram):
    """Smith normal form D = U * M * V with unimodular U, V.

    Returns (divisors, U, V) where divisors is the full diagonal of D
    (positive, each dividing the next).  A 1x1 matrix (x) is its own form,
    with U = (sign x).
    """
    n = len(rows)
    if n == 1:
        x = rows[0][0]
        return [abs(x)], [[-1 if x < 0 else 1]], [[1]]
    a = [list(r) for r in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while True:
            piv = None
            for i in range(t, n):
                for j in range(t, n):
                    x = a[i][j]
                    if x != 0 and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            if piv != (t, t):
                _swap_rows(a, t, piv[0])
                _swap_rows(u, t, piv[0])
                _swap_cols(a, t, piv[1])
                _swap_cols(v, t, piv[1])
            p = a[t][t]
            clean = True
            for i in range(t + 1, n):
                if a[i][t]:
                    c = -(a[i][t] // p)
                    _add_row(a, i, t, c)
                    _add_row(u, i, t, c)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    c = -(a[t][j] // p)
                    _add_col(a, j, t, c)
                    _add_col(v, j, t, c)
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            bad = next(
                (
                    i
                    for i in range(t + 1, n)
                    if any(a[i][j] % p for j in range(t + 1, n))
                ),
                None,
            )
            if bad is None:
                break
            _add_row(a, t, bad, 1)
            _add_row(u, t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return [a[i][i] for i in range(n)], u, v


# Lambda_g = <2-2g> + U^2 + (-E8)^2 repeats its U and -E8 blocks in every
# genus and brings one new rank-one block, so the block cache is bounded
BLOCK_CACHE_SIZE = 256


def _blocks(gram: Gram) -> list[tuple[tuple[int, ...], Gram]]:
    """Orthogonal blocks of a symmetric Gram matrix as (indices, sub-Gram) pairs.

    The blocks are the connected components of the graph on basis indices
    with an edge wherever gram[i][j] != 0.  They may interleave in the
    basis; they come ordered by smallest index.
    """
    n = len(gram)
    adjacent = [[j for j, x in enumerate(row) if x] for row in gram]
    seen = [False] * n
    blocks = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for i in comp:  # comp grows while it is walked: breadth-first search
            for j in adjacent[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
        comp.sort()
        sub = tuple(tuple([gram[i][j] for j in comp]) for i in comp)
        blocks.append((tuple(comp), sub))
    return blocks


# the part of Lambda_g that does not depend on g, shared like U and -E8
# (built here, after `_blocks`, which reading its summands' blocks needs),
# and the template `lambda_lattice` fills in: its rows after the column of
# <2-2g>, the zeros of that column in the first row, and its blocks one
# row down
_U2_MINUS_E8_2 = direct_sum(_U, _U, _MINUS_E8, _MINUS_E8)
_LAMBDA_ROWS = tuple((0,) + row for row in _U2_MINUS_E8_2.gram)
_LAMBDA_PAD = (0,) * _U2_MINUS_E8_2.rank
_LAMBDA_BLOCKS = tuple(
    (tuple([i + 1 for i in idx]), sub) for idx, sub in _U2_MINUS_E8_2.blocks
)


class _Block(NamedTuple):
    pos: int
    neg: int
    # (d, column of V / d) for each elementary divisor d > 1, block basis
    gens: tuple[tuple[int, tuple[Fraction, ...]], ...]
    pairing: tuple[tuple[Fraction, ...], ...]
    level: int


def _dot(x, y) -> int:
    return sum([a * b for a, b in zip(x, y)])


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_invariants(sub: Gram) -> _Block:
    """Signature and discriminant-form pieces of one orthogonal block.

    With U*G*V = D the Smith normal form, the class of the i-th elementary
    divisor d_i > 1 is generated by (column i of V) / d_i, a vector of
    M^dual in the block's basis.  Their pairing is v_i^T G v_j / (d_i d_j),
    from integer products over the columns v_i; the level is the lcm of the
    denominators of q(g_i)/2 and of b(g_i, g_j), i < j.
    """
    pos, neg = _congruence_signature(sub)
    divisors, _, v = smith_normal_form(sub)
    cols = [(d, [row[i] for row in v]) for i, d in enumerate(divisors) if d > 1]
    gens = tuple((d, tuple([Fraction(x, d) for x in col])) for d, col in cols)
    # G v_j for each column, then v_i . (G v_j) over d_i d_j
    images = [(d, [_dot(row, col) for row in sub]) for d, col in cols]
    pairing = tuple(
        tuple([Fraction(_dot(ci, gv), di * dj) for dj, gv in images]) for di, ci in cols
    )
    level = 1
    for i, row in enumerate(pairing):
        # q(g_i)/2 = a/(2b) for q(g_i) = a/b in lowest terms: over b if a is even
        level = lcm(level, row[i].denominator * (1 + row[i].numerator % 2))
        for x in row[i + 1 :]:
            level = lcm(level, x.denominator)
    return _Block(pos, neg, gens, pairing, level)


def signature(lat: Lattice) -> Signature:
    """Exact signature, summed over the orthogonal blocks of the Gram matrix."""
    blocks = lat.block_invariants
    return Signature(sum([b.pos for b in blocks]), sum([b.neg for b in blocks]))


def _reduce(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n in place, for x >= 0, as x -= n * (x // n): numpy's floor
    division by a scalar runs several times faster than its `%`."""
    r = x // n
    r *= n
    x -= r
    return x


@dataclass(frozen=True)
class DiscriminantForm:
    """The finite quadratic module (A, q, b) of an even lattice.

    A = M^dual / M with q valued in Q/2Z (stored in [0,2)) and pairing b
    in Q/Z (stored in [0,1)).  Elements are exponent tuples against the
    stored generators, which are rational vectors in the lattice basis.

    The int64 arrays `qn`, `neg_index` and `dual_index` encode (A, q, b)
    over the common denominator N = level, indexed in elements() order,
    and `_upper` holds N*q/2 and N*b on the generators; the exact q() and
    b() are their test oracle.  `qn_at` is the same formula at any indices,
    which the cusp dimension's walk reads on a form with several generators
    (see `cuspdim`); its Gauss sums come from `gen_pairing` instead, and
    `roots` serves the float Gauss sum and the Weil operators.
    """

    orders: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]
    cardinality: int
    level: int
    sig_mod_8: int
    # pairing matrix of the generators: gen_pairing[i][j] = <g_i, g_j>
    gen_pairing: tuple[tuple[Fraction, ...], ...] = field(repr=False)

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def elements(self):
        """All group elements as exponent tuples, lexicographic order."""
        return itertools.product(*(range(d) for d in self.orders))

    def q(self, exps) -> Fraction:
        """q(gamma) = <gamma, gamma> mod 2, in [0, 2)."""
        total = Fraction(0)
        for i, ei in enumerate(exps):
            if ei:
                row = self.gen_pairing[i]
                total += ei * ei * row[i]
                for j in range(i + 1, len(exps)):
                    if exps[j]:
                        total += 2 * ei * exps[j] * row[j]
        return total % 2

    def b(self, e1, e2) -> Fraction:
        """b(gamma, delta) = <gamma, delta> mod 1, in [0, 1)."""
        total = Fraction(0)
        for i, x in enumerate(e1):
            if x:
                row = self.gen_pairing[i]
                for j, y in enumerate(e2):
                    if y:
                        total += x * y * row[j]
        return total % 1

    def check_int64(self) -> None:
        """Raise TooLarge unless every int64 product of `qn_at` is exact.

        With entries of `_upper` below N and exponents below orders[i],
        each partial sum stays below N * sum(orders); for Lambda_g that is
        (4g-4)(2g-2) = 8(g-1)^2, so g-1 < 2^30.  Checked before any element
        is evaluated, so a group too large for int64 fails at once instead
        of streaming for hours.  It bounds the full-group arrays (`qn`,
        `neg_index`, `dual_index`, `_exponents`) and `qn_at`, which the
        walk of a form with several generators reads; a cyclic form's walk,
        `cuspdim.square_walk`, has its own bound.
        """
        bound = self.level * sum(self.orders)
        if bound >= 1 << 63:
            raise TooLarge(
                f"level {self.level} times the order sum {sum(self.orders)} is "
                f"{bound} >= 2^63: q-values of |A| = {self.cardinality} would "
                "overflow int64"
            )

    @cached_property
    def _upper(self) -> np.ndarray:
        """N*q(g_i)/2 on the diagonal and N*b(g_i, g_j) above it, mod N."""
        import numpy as np

        n, k = self.level, self.ngens
        u = [[0] * k for _ in range(k)]
        for i, row in enumerate(self.gen_pairing):
            for j in range(i, k):
                num, den = row[j].numerator * n, row[j].denominator * (2 if j == i else 1)
                if num % den:
                    raise ValueError(f"level {n} is not a common denominator of {row[j]}")
                u[i][j] = num // den % n
        return np.array(u, dtype=np.int64).reshape(k, k)

    def _exponents_at(self, index: np.ndarray) -> np.ndarray:
        """(ngens, len(index)) exponents of the elements with these indices
        in elements(), read off by floor division, row-major over `orders`."""
        import numpy as np

        e = np.empty((self.ngens, len(index)), dtype=np.int64)
        rest = index
        for i in range(self.ngens - 1, 0, -1):
            d = self.orders[i]
            r = rest // d
            e[i] = rest - d * r
            rest = r
        if self.ngens:
            e[0] = rest
        return e

    @cached_property
    def _exponents(self) -> np.ndarray:
        """The exponents of every element, by one `_exponents_at` per form:
        what `qn`, `neg_index` and `dual_index` of a form with several
        generators read.  Raises TooLarge (see `check_int64`) first."""
        import numpy as np

        self.check_int64()
        return self._exponents_at(np.arange(self.cardinality, dtype=np.int64))

    def _image_index(self, m: np.ndarray) -> np.ndarray:
        """Index in elements() of M*gamma mod `orders` for every gamma, M an
        (ngens, ngens) int64 matrix with row i in [0, orders[i]), so every
        entry of M*gamma is below the bound of `check_int64`.  On a cyclic
        form of order d that is gamma*M mod d, one multiply and one reduce;
        otherwise M times `_exponents`, reduced, then read as row-major
        indices by one product with the strides of `orders`."""
        import numpy as np

        self.check_int64()
        if self.ngens == 1:
            (d,) = self.orders
            return _reduce(np.arange(d, dtype=np.int64) * int(m[0, 0]), d)
        e = _reduce(m @ self._exponents, np.array(self.orders, dtype=np.int64)[:, None])
        strides = [prod(self.orders[i + 1 :]) for i in range(self.ngens)]
        return np.array(strides, dtype=np.int64) @ e

    def _qn_of(self, e: np.ndarray) -> np.ndarray:
        """N*q/2 mod N at the elements with exponents e (see `qn_at`)."""
        n = self.level
        x = _reduce(self._upper @ e, n)
        x *= e
        return _reduce(x.sum(axis=0), n)

    def qn_at(self, index: np.ndarray) -> np.ndarray:
        """N*q(gamma)/2 mod N at the elements with these indices in elements().

        N*q/2 = sum_i e_i * (sum_{j >= i} u_ij * e_j mod N) mod N, with e the
        exponents and u = `_upper` (see `_reduce` for the mod).  The
        exponents of a cyclic form are the indices themselves; otherwise
        they come from `_exponents_at`.  Raises TooLarge (see
        `check_int64`) first.
        """
        self.check_int64()
        if self.ngens != 1:
            return self._qn_of(self._exponents_at(index))
        n = self.level
        x = _reduce(index * int(self._upper[0, 0]), n)
        x *= index
        return _reduce(x, n)

    @cached_property
    def roots(self):
        """The map v -> e(v/N) on int64 arrays of v in [0, N), N the level.

        With b = ceil(sqrt(N)), e(v/N) = hi[v // b] * lo[v - b*(v // b)] from
        the tables lo[r] = e(r/N), r < b, and hi[t] = e(t*b/N): two lookups
        and one product per value, within a few ulp of `numpy.exp`, and only
        about 2*sqrt(N) calls of `exp`, once per form.
        """
        import numpy as np

        n = self.level
        b = isqrt(n - 1) + 1
        w = 2j * np.pi / n
        lo = np.exp(w * np.arange(b))
        hi = np.exp(w * (b * np.arange((n - 1) // b + 1)))

        def roots(v: np.ndarray) -> np.ndarray:
            t = v // b
            z = hi[t]
            t *= b
            np.subtract(v, t, out=t)
            z *= lo[t]
            return z

        return roots

    @cached_property
    def qn(self) -> np.ndarray:
        """N*q(gamma)/2 mod N for every element, N the level (see `qn_at`),
        from `_exponents` on a form with several generators.  Raises
        TooLarge (see `check_int64`) before any array of |A| entries."""
        import numpy as np

        self.check_int64()
        if self.ngens != 1:
            return self._qn_of(self._exponents)
        return self.qn_at(np.arange(self.cardinality, dtype=np.int64))

    @cached_property
    def neg_index(self) -> np.ndarray:
        """Index of -gamma for every element gamma: M = diag(d_i - 1)."""
        import numpy as np

        return self._image_index(np.diag(np.array(self.orders, dtype=np.int64) - 1))

    @cached_property
    def dual_index(self) -> np.ndarray:
        """Index of xi(gamma) for every element gamma (see `weil`):
        M[j, i] = b(g_i, g_j) * d_j mod d_j, ValueError if not integral."""
        import numpy as np

        n = self.level
        d = np.array(self.orders, dtype=np.int64)[:, None]
        bn = self._upper + self._upper.T  # N*b(g_j, g_i), below 2N
        # b * d_j = N*b / (N / d_j), with no product that could overflow
        if (n % d).any() or (bn % (n // d)).any():
            raise ValueError(f"b(g_i, g_j) * d_j is not integral at level {n}")
        return self._image_index(bn // (n // d) % d)


def discriminant_form(lat: Lattice) -> DiscriminantForm:
    """Discriminant form as the orthogonal sum of those of the Gram blocks.

    Each orthogonal block contributes the generators of its Smith normal
    form (see `_block_invariants`, read once per lattice from
    `Lattice.block_invariants`), zero-padded into lattice coordinates;
    the generator pairing is block-diagonal and the level is the lcm over
    the blocks.  So `orders` are the blocks' invariant factors in block
    order, which are the global invariant factors only when each divides
    the next: <4> + <6> gives (4, 6), not (2, 12).
    """
    n = lat.rank
    pos = neg = 0
    level = 1
    orders, gens, pairings = [], [], []
    for (idx, _), block in zip(lat.blocks, lat.block_invariants):
        pos += block.pos
        neg += block.neg
        if not block.gens:  # a unimodular block: level 1, no generator
            continue
        level = lcm(level, block.level)
        for d, col in block.gens:
            vec = [_ZERO] * n
            for r, x in zip(idx, col):
                vec[r] = x
            orders.append(d)
            gens.append(tuple(vec))
        pairings.append(block.pairing)
    pairing, off = [], 0
    for rows in pairings:
        pad = len(gens) - off - len(rows)
        for row in rows:
            pairing.append((_ZERO,) * off + row + (_ZERO,) * pad)
        off += len(rows)
    return DiscriminantForm(
        orders=tuple(orders),
        generators=tuple(gens),
        cardinality=prod(orders),
        level=level,
        sig_mod_8=(pos - neg) % 8,
        gen_pairing=tuple(pairing),
    )
