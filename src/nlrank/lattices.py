"""Even integral lattices, exact invariants, and discriminant forms.

Everything here is exact: Gram matrices are arbitrary-precision integers,
signatures come from rational congruence diagonalization, and discriminant
groups come from an integer Smith normal form with unimodular transforms.
The determinant is (-1)^negative * |M^dual / M|, read from these two.  The
exact invariants use no floating point; `DiscriminantForm.roots`, the map
v -> e(v/N), is the kernel's one complex-valued map, built once per form,
and `qroots`, its values at every q, is what the float Gauss sum
`arith.gauss_sum` and rho(T) read.  The cusp dimension reads no roots: its
Gauss sums come from `gen_qn`.

Both invariants are computed per orthogonal block of the Gram matrix (a
connected component of its nonzero pattern) and assembled as orthogonal
sums.  Each block's result is kept in a cache bounded to BLOCK_CACHE_SIZE
blocks, looked up once per lattice (`Lattice.block_invariants`), and
`signature` and `discriminant_form` both read that tuple.  A discriminant
form's `orders` are therefore the blocks' invariant factors, not always the
global ones (see `discriminant_form`).

A lattice finds its blocks by one search of its Gram matrix (`_blocks`),
a direct sum included.  Lambda_g is <2-2g> plus U^2 + (-E8)^2, built from
a template: the 20 rows and four blocks that do not depend on g, and their
invariants, are made once per process.  A genus adds one row and the block
<2-2g>, whose invariants alone it looks up, and runs no block search.

A `DiscriminantForm` derives its level N and `gen_qn`, the generators'
N*q/2 and N*b mod N, once when it is made, and every level-N encoding reads
that one table.  From it N*q/2 mod N is evaluated in int64 for the whole
group at once (`qn`, which the Weil operators read, and the cusp dimension
of a form that `cuspdim` does not count by rows): on a cyclic form by the
cyclic formula `qn_at`, which also reads any index array, and otherwise
from the exponents of every element (`_exponents`).  The index maps of
-gamma and xi(gamma) are one map, M*gamma mod `orders` (`_image_index`),
for both M at once: a unit mod d on a cyclic form, else one product.
A form whose int64 products could overflow raises TooLarge before any
element is evaluated: N times the sum of the orders (`check_int64`),
g - 1 >= 2^30 for Lambda_g.

numpy is imported by the int64 kernel members of `DiscriminantForm` only,
so building lattices and reading their invariants never loads it, and
neither loads `dataclasses` or `typing`: a `Lattice` and a form are
read-only values of their own (`_Frozen`), and the other records are
named tuples.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm, prod

from .errors import BadGenus, BadScale, Degenerate, NotEven, NotSymmetric, TooLarge

# typing.TYPE_CHECKING without loading `typing`: type checkers take the name
# as true, and the annotations are never evaluated
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

Gram = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)


def _as_gram(rows) -> Gram:
    return tuple(tuple(map(int, row)) for row in rows)


# how a `_Frozen` subclass's __init__ sets its fields, past its __setattr__
_setattr = object.__setattr__


class _Frozen:
    """A value fixed when it is made.  The fields named in `__match_args__`,
    the constructor's arguments in order, decide equality, the hash and
    pickling; assigning or deleting any attribute raises AttributeError
    naming it.  A subclass holds its fields in `__slots__` and keeps a
    `__dict__` slot for its `cached_property` values, which that decorator
    writes into the instance dict directly."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Lattice(_Frozen):
    """Even nondegenerate lattice given by its integer Gram matrix: a
    read-only value, equal to another with the same `gram` and `name`."""

    __slots__ = ("gram", "name", "__dict__")
    __match_args__ = ("gram", "name")

    def __init__(self, gram: Gram, name: str | None = None) -> None:
        _setattr(self, "gram", gram)
        _setattr(self, "name", name)

    def __repr__(self) -> str:
        return f"Lattice(gram={self.gram!r}, name={self.name!r})"

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return (-1) ** signature(self).negative * discriminant_form(self).cardinality

    @cached_property
    def blocks(self) -> tuple[tuple[tuple[int, ...], Gram], ...]:
        """Orthogonal blocks of the Gram matrix, found once by `_blocks`.

        `lambda_lattice` sets them from its template instead."""
        return tuple(_blocks(self.gram))

    @cached_property
    def block_invariants(self) -> tuple[_Block, ...]:
        """`_block_invariants` of each block, looked up once per lattice:
        `signature` and `discriminant_form` both read this tuple.
        `lambda_lattice` sets it from its template instead."""
        return tuple([_block_invariants(sub) for _, sub in self.blocks])


Signature = namedtuple("Signature", "positive negative")


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
    a `Lattice` is read-only, so every caller may hold it, and its
    `blocks` are found once per process.
    """
    if scale < 1:
        raise BadScale(f"U(N) needs N >= 1, got {scale}")
    if scale == 1:
        return _U
    return Lattice(((0, scale), (scale, 0)), f"U({scale})")


def e8(negative: bool = False) -> Lattice:
    """E8, or -E8 if negative, in a root basis: one shared read-only instance each."""
    return _MINUS_E8 if negative else _E8


def direct_sum(*lattices: Lattice, name: str | None = None) -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram matrix.

    Its `blocks` are found by one search of the sum's Gram matrix the first
    time they are read.  `lambda_lattice` makes the sum
    <2-2g> + U^2 + (-E8)^2 from a template instead of calling this.
    """
    total = sum([lat.rank for lat in lattices])
    rows, off = [], 0
    for lat in lattices:
        left, right = (0,) * off, (0,) * (total - off - lat.rank)
        rows += [left + tuple(row) + right for row in lat.gram]
        off += lat.rank
    return Lattice(tuple(rows), name)


def k3_lattice() -> Lattice:
    """The K3 lattice U^3 + (-E8)^2 of signature (3,19)."""
    u = hyperbolic()
    return direct_sum(u, u, u, e8(True), e8(True), name="K3")


def lambda_lattice(g: int) -> Lattice:
    """Lambda_g = <w> + U^2 + (-E8)^2 with w.w = 2-2g; rank 21.

    The same lattice, gram, name, blocks and block invariants as
    direct_sum(<2-2g>, U, U, -E8, -E8), built from a template: the 20 rows
    and the four blocks that do not depend on g are made once per process
    (`_LAMBDA_ROWS`, `_LAMBDA_BLOCKS`), and so are their invariants, on
    first use.  A call adds one row and one rank-one block, and looks up
    the invariants of that block alone.
    """
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    w = 2 - 2 * g
    lat = Lattice(((w,) + _LAMBDA_PAD,) + _LAMBDA_ROWS, f"Lambda_{g}")
    seeds = vars(lat)  # the cached properties, set from the template
    seeds["blocks"] = (((0,), ((w,),)),) + _LAMBDA_BLOCKS
    seeds["block_invariants"] = (_block_invariants(((w,),)),) + _U2_MINUS_E8_2.block_invariants
    return lat


def catalog(name: str, *, g: int | None = None, scale: int | None = None) -> Lattice:
    """Named lattices, one per entry of `nlrank.CATALOG_NAMES`.  Only U(N)
    reads `scale` and only Lambda_g reads `g`; the other names ignore both."""
    if name == "U":
        return hyperbolic()
    if name == "U(N)":
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

    Returns (divisors, V) where divisors is the full diagonal of D
    (positive, each dividing the next); U, the row operations, is not
    kept.  A 1x1 matrix (x) is its own form, with V = (1).
    """
    n = len(rows)
    if n == 1:
        return [abs(rows[0][0])], [[1]]
    a = [list(r) for r in rows]
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
                _swap_cols(a, t, piv[1])
                _swap_cols(v, t, piv[1])
            p = a[t][t]
            clean = True
            for i in range(t + 1, n):
                if a[i][t]:
                    c = -(a[i][t] // p)
                    _add_row(a, i, t, c)
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
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return [a[i][i] for i in range(n)], v


# each Lambda_g looks up one new block, <2-2g>, and no other (its template
# holds U and -E8), so an unbounded cache would grow by one block per genus
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
# (built here, after `_blocks`, which finds its blocks once per process),
# and the template `lambda_lattice` fills in: its rows after the column of
# <2-2g>, the zeros of that column in the first row, and its blocks one
# row down
_U2_MINUS_E8_2 = direct_sum(_U, _U, _MINUS_E8, _MINUS_E8)
_LAMBDA_ROWS = tuple((0,) + row for row in _U2_MINUS_E8_2.gram)
_LAMBDA_PAD = (0,) * _U2_MINUS_E8_2.rank
_LAMBDA_BLOCKS = tuple(
    (tuple([i + 1 for i in idx]), sub) for idx, sub in _U2_MINUS_E8_2.blocks
)


# a block's signature (pos, neg); its `cols`, (d, column of V) for each
# elementary divisor d > 1 in the block basis, the generator being the
# column over d; and the generators' `pairing`, a tuple of Fraction rows
_Block = namedtuple("_Block", "pos neg cols pairing")


def _dot(x, y) -> int:
    return sum([a * b for a, b in zip(x, y)])


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_invariants(sub: Gram) -> _Block:
    """Signature and discriminant-form pieces of one orthogonal block.  A
    rank-one block <w> is read off directly, as `_general_block_invariants`
    would give it: the sign of w, the divisor |w| with column (1), and 1/w.
    """
    if len(sub) != 1:
        return _general_block_invariants(sub)
    w = sub[0][0]
    if not w:
        raise Degenerate("Gram matrix is singular")
    cols = ((abs(w), (1,)),) if abs(w) > 1 else ()
    return _Block(int(w > 0), int(w < 0), cols, ((Fraction(1, w),),) if cols else ())


def _general_block_invariants(sub: Gram) -> _Block:
    """With U*G*V = D the Smith normal form, the class of the i-th
    elementary divisor d_i > 1 is generated by (column i of V) / d_i, a
    vector of M^dual in the block's basis.  Their pairing is
    v_i^T G v_j / (d_i d_j), from integer products over the columns v_i.
    """
    pos, neg = _congruence_signature(sub)
    divisors, v = smith_normal_form(sub)
    cols = tuple((d, tuple([row[i] for row in v])) for i, d in enumerate(divisors) if d > 1)
    # G v_j for each column, then v_i . (G v_j) over d_i d_j
    images = [(d, [_dot(row, col) for row in sub]) for d, col in cols]
    pairing = tuple(
        tuple([Fraction(_dot(ci, gv), di * dj) for dj, gv in images]) for di, ci in cols
    )
    return _Block(pos, neg, cols, pairing)


def signature(lat: Lattice) -> Signature:
    """Exact signature, summed over the orthogonal blocks of the Gram matrix."""
    pos = neg = 0
    for block in lat.block_invariants:
        pos += block.pos
        neg += block.neg
    return Signature(pos, neg)


def _reduce(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n in place, for x >= 0, as x -= n * (x // n): numpy's floor
    division by a scalar runs several times faster than its `%`."""
    r = x // n
    r *= n
    x -= r
    return x


class DiscriminantForm(_Frozen):
    """The finite quadratic module (A, q, b) of an even lattice.

    A = M^dual / M with q valued in Q/2Z and pairing b in Q/Z.  Elements
    are exponent tuples against generators of the given `orders`, which
    pair as `gen_pairing` says (gen_pairing[i][j] = <g_i, g_j>).  These
    and `sig_mod_8` define the form, which is a read-only value equal to
    any form with the same three.  The rest is derived from them when the
    form is made: `cardinality`, the product of the orders; the level N,
    the lcm of the denominators of q(g_i)/2 and b(g_i, g_j), i < j; and
    `gen_qn`, the generators' table over N in Python ints, N*q(g_i)/2 mod N
    on the diagonal, N*b(g_i, g_j) mod N above it and 0 below.

    Every level-N encoding reads that table: the int64 arrays `qn`,
    `neg_index` and `dual_index`, indexed in elements() order, `qn_at` at
    any indices, and the cusp dimension (see `cuspdim`), whose 2-torsion
    values and Jordan split read it directly and which counts a cyclic form
    with u = `gen_qn[0][0]` = 1 or N - 1 by rows and reads `qn` on any
    other form.  `roots` and `qroots`, e(q/2) at every element, serve the
    float Gauss sum and the Weil operators.
    """

    __slots__ = ("orders", "sig_mod_8", "gen_pairing", "cardinality", "level", "gen_qn",
                 "__dict__")
    __match_args__ = ("orders", "sig_mod_8", "gen_pairing")

    def __init__(
        self, orders: tuple[int, ...], sig_mod_8: int, gen_pairing: tuple[tuple[Fraction, ...], ...]
    ) -> None:
        # q(g_i)/2 and b(g_i, g_j), j > i, as (numerator, denominator) in
        # lowest terms: q(g_i) = a/b halves to a/(2b) for odd a, else to (a/2)/b
        rows, n = [], 1
        for i, row in enumerate(gen_pairing):
            a, b = row[i].as_integer_ratio()
            ratios = [(a, 2 * b) if a % 2 else (a // 2, b)]
            for x in row[i + 1 :]:
                ratios.append(x.as_integer_ratio())
            for _, b in ratios:
                n = lcm(n, b)
            rows.append(ratios)
        table = tuple(
            [(0,) * i + tuple([a * (n // b) % n for a, b in row]) for i, row in enumerate(rows)]
        )
        _setattr(self, "orders", orders)
        _setattr(self, "sig_mod_8", sig_mod_8)
        _setattr(self, "gen_pairing", gen_pairing)
        _setattr(self, "cardinality", prod(orders))
        _setattr(self, "level", n)
        _setattr(self, "gen_qn", table)

    def __repr__(self) -> str:
        return (f"DiscriminantForm(orders={self.orders!r}, cardinality={self.cardinality!r}, "
                f"level={self.level!r}, sig_mod_8={self.sig_mod_8!r})")

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def elements(self):
        """All group elements as exponent tuples, lexicographic order."""
        return itertools.product(*(range(d) for d in self.orders))

    def check_int64(self) -> None:
        """Raise TooLarge unless every int64 product of `qn` and `qn_at` is exact.

        With entries of `gen_qn` below N and exponents below orders[i],
        each partial sum stays below N * sum(orders); for Lambda_g that is
        (4g-4)(2g-2) = 8(g-1)^2, so g-1 < 2^30.  Checked before any element
        is evaluated, so a group too large for int64 fails at once instead
        of streaming for hours.  It bounds the full-group arrays (`qn`,
        `neg_index`, `dual_index`, `_exponents`), which the Weil operators
        and the cusp dimension of a form with several generators read, and
        `qn_at`.  A cyclic form's sums counted by rows (`cuspdim.walk_sums`)
        read none of them and have their own bound.
        """
        bound = self.level * sum(self.orders)
        if bound >= 1 << 63:
            raise TooLarge(
                f"level {self.level} times the order sum {sum(self.orders)} is "
                f"{bound} >= 2^63: q-values of |A| = {self.cardinality} would "
                "overflow int64"
            )

    @cached_property
    def _exponents(self) -> np.ndarray:
        """(ngens, |A|) exponents of every element in elements() order, the
        indices unravelled row-major over `orders` in one numpy call: what
        `qn`, `neg_index` and `dual_index` of a form with several generators
        read.  Raises TooLarge (see `check_int64`) first."""
        import numpy as np

        self.check_int64()
        # the trivial group as Z/1, whose one row of exponents is dropped
        grid = np.unravel_index(np.arange(self.cardinality), self.orders or (1,))
        return np.array(grid, dtype=np.int64)[: self.ngens]

    def _image_index(self, m: np.ndarray) -> np.ndarray:
        """Index in elements() of M*gamma mod `orders` for every gamma and
        each matrix M of an (s, ngens, ngens) int64 stack, row i of each in
        [0, orders[i]), so every entry of M*gamma is below the bound of
        `check_int64`; an (s, |A|) array.  On a cyclic form of order d each
        M is one multiplier, the indices times it mod d; otherwise one
        product of the stacked rows with `_exponents`, reduced, then read
        as row-major indices by one product with the strides of `orders`."""
        import numpy as np

        if self.ngens == 1:
            (d,) = self.orders
            return _reduce(np.multiply.outer(m[:, 0, 0], np.arange(d, dtype=np.int64)), d)
        s, k = len(m), self.ngens
        e = m.reshape(s * k, k) @ self._exponents
        # `_reduce`'s floor division is the faster only by a scalar
        np.remainder(e, np.array(self.orders * s, dtype=np.int64)[:, None], out=e)
        strides = [prod(self.orders[i + 1 :]) for i in range(k)]
        return np.array(strides, dtype=np.int64) @ e.reshape(s, k, self.cardinality)

    def qn_at(self, index: np.ndarray) -> np.ndarray:
        """N*q(gamma)/2 mod N at the elements with these indices in elements().

        On a cyclic form the exponents are the indices themselves, so this
        is the cyclic formula u*x^2 mod N, u = `gen_qn[0][0]`, at any index
        array, also where no full-group array would fit in memory; a form
        with several generators reads `qn` at them.  Raises TooLarge (see
        `check_int64`) first.
        """
        self.check_int64()
        if self.ngens != 1:
            return self.qn[index]
        n = self.level
        x = _reduce(index * self.gen_qn[0][0], n)
        x *= index
        return _reduce(x, n)

    @cached_property
    def roots(self):
        """The map v -> e(v/N) on int64 arrays of v in [0, N), N the level.

        With b = ceil(sqrt(N)), e(v/N) = hi[v // b] * lo[v - b*(v // b)] from
        the tables lo[r] = e(r/N), r < b, and hi[t] = e(t*b/N): two lookups
        and one product per value, within a few ulp of `numpy.exp` (at `qn`,
        `weil.verify_relations` reports that distance as `maxErrTN`), and
        only about 2*sqrt(N) calls of `exp`, once per form.
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
    def qroots(self) -> np.ndarray:
        """e(q(gamma)/2) = `roots` at `qn` for every element, read-only: the
        diagonal of rho(T) and the terms of the float Gauss sum.  `qn` comes
        first, so a group too large for int64 raises TooLarge before the
        `roots` tables are built."""
        qn = self.qn
        z = self.roots(qn)
        z.flags.writeable = False
        return z

    @cached_property
    def qn(self) -> np.ndarray:
        """N*q(gamma)/2 mod N for every element, N the level: by `qn_at` on a
        cyclic form, and otherwise, with e the exponents (`_exponents`) and
        u = `gen_qn`, as sum_i e_i * (sum_{j >= i} u_ij * e_j mod N) mod N
        (see `_reduce` for the mod).  Raises TooLarge (see `check_int64`)
        before any array of |A| entries."""
        import numpy as np

        self.check_int64()
        if self.ngens == 1:
            return self.qn_at(np.arange(self.cardinality, dtype=np.int64))
        n, e, k = self.level, self._exponents, self.ngens
        x = _reduce(np.array(self.gen_qn, dtype=np.int64).reshape(k, k) @ e, n)
        x *= e
        return _reduce(x.sum(axis=0), n)

    @cached_property
    def _index_maps(self) -> np.ndarray:
        """`neg_index` and `dual_index` as the rows of one `_image_index`:
        -gamma is M = diag(d_i - 1), and xi(gamma) (see `weil`) is
        M[j][i] = b(g_i, g_j) * d_j mod d_j, N*b over N/d_j.  Both are made
        in Python ints after `check_int64`, and a pairing that does not fit
        the orders raises ValueError, before any array."""
        import numpy as np

        self.check_int64()
        n, k, u = self.level, self.ngens, self.gen_qn
        neg, dual = [], []
        for j, (d, col) in enumerate(zip(self.orders, zip(*u))):
            step, r = divmod(n, d)
            bn = [a + b for a, b in zip(col, u[j])]  # N*b(g_i, g_j), below 2N
            if r or any([x % step for x in bn]):
                raise ValueError(f"b(g_i, g_j) * d_j is not integral at level {n}")
            neg += [d - 1 if i == j else 0 for i in range(k)]
            dual += [x // step % d for x in bn]
        return self._image_index(np.array(neg + dual, dtype=np.int64).reshape(2, k, k))

    # the index of -gamma and of xi(gamma) for every element gamma
    neg_index = property(lambda self: self._index_maps[0])
    dual_index = property(lambda self: self._index_maps[1])


def discriminant_form(lat: Lattice) -> DiscriminantForm:
    """Discriminant form as the orthogonal sum of those of the Gram blocks.

    Each orthogonal block contributes the orders and the generator pairing
    of its Smith normal form (see `_block_invariants`, read once per
    lattice from `Lattice.block_invariants`); the generator pairing is
    block-diagonal.  So `orders` are the blocks' invariant factors in block
    order, which are the global invariant factors only when each divides
    the next: <4> + <6> gives (4, 6), not (2, 12).
    """
    pos = neg = 0
    orders, pairings = [], []
    for block in lat.block_invariants:
        pos += block.pos
        neg += block.neg
        if not block.cols:  # a unimodular block: no generator
            continue
        orders += [d for d, _ in block.cols]
        pairings.append(block.pairing)
    if len(pairings) == 1:  # one block carries every generator: nothing to pad
        return DiscriminantForm(tuple(orders), (pos - neg) % 8, pairings[0])
    pairing, off = [], 0
    for rows in pairings:
        pad = len(orders) - off - len(rows)
        for row in rows:
            pairing.append((_ZERO,) * off + row + (_ZERO,) * pad)
        off += len(rows)
    return DiscriminantForm(tuple(orders), (pos - neg) % 8, tuple(pairing))
