"""Oracle tests for the integer encoding of discriminant forms.

The exponents `DiscriminantForm._exponents_at` reads off (and `_exponents`,
the same for every element, read once per form), `qn`, `neg_index` and
`dual_index` (from `_exponents`, or on a cyclic form by one multiply and
reduce), and the pairing `oracles.bn` builds from the generator pairing, are
compared element by element with the exact `Fraction` reference
`elements()`, `q()` and `b()`, on the corpus, `NON_CYCLIC` and hypothesis
forms;
the walks `cuspdim.half_walk` and `cuspdim.square_walk` with `neg_index` and
`qn`, and `cuspdim.walk_sums` with full-group sums over `qn`; `roots` with
`numpy.exp`, and as built once per form by the Weil chain and never by the
cusp dimension; the exact Gauss sums of `cuspdim.exact_gauss_sums` with
brute-force complex sums; and the consumers built on them (`gauss_sum`,
`dim_cusp_df`) with per-element `Fraction` walks over the same reference,
with the element-by-element `oracles.dim_cusp_df_elementwise`, with the
float walk `oracles.dim_cusp_df_float` and with the eigenvalues of the
dense dual Weil representation (`oracles.dim_cusp_from_eigenvalues`).
"""

import cmath
import dataclasses
import io
import math
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrank import (
    build_weil_rep,
    dim_cusp_df,
    direct_sum,
    discriminant_form,
    e8,
    gauss_sum,
    hyperbolic,
    k3_lattice,
    lambda_lattice,
    make_lattice,
    traces,
    verify_relations,
)
from nlrank import cuspdim
from nlrank.cli import dispatch
from nlrank.cuspdim import SLICE, exact_gauss_sums, gauss_pieces
from nlrank.errors import NonIntegerResult, TooLarge
from nlrank.lattices import DiscriminantForm

import strategies
from conftest import corpus_lattices
from oracles import (
    SQUARE_WALK_FIRST_REFUSED_GENUS,
    bn,
    dim_cusp_df_elementwise,
    dim_cusp_df_float,
    dim_cusp_from_eigenvalues,
    gauss_sums_bruteforce,
    operator_matrix,
    walk_sums_bruteforce,
)
from strategies import NON_CYCLIC

HALF_21 = Fraction(21, 2)

TRIVIAL = {"U": hyperbolic(), "K3": k3_lattice(), "E8": e8()}


def _check_kernel(df, pairs=None):
    """Compare the encoding with the Fraction reference on every element.

    `pairs` restricts the bn check to rows x columns index lists; by
    default every pair is compared.
    """
    n = df.level
    elems = list(df.elements())
    d = len(elems)
    assert d == df.cardinality
    pairing = bn(df)
    exponents = df._exponents_at(np.arange(d, dtype=np.int64)).T
    for arr in (exponents, df.qn, df.neg_index, df.dual_index, pairing):
        assert arr.dtype == np.int64
    assert exponents.shape == (d, df.ngens)
    assert [tuple(map(int, row)) for row in exponents] == elems
    index = {e: i for i, e in enumerate(elems)}
    _check_walk(df)
    qn, neg_index, dual_index = df.qn.tolist(), df.neg_index.tolist(), df.dual_index.tolist()
    units = [tuple(int(i == j) for i in range(df.ngens)) for j in range(df.ngens)]
    for i, e in enumerate(elems):
        assert qn[i] == df.q(e) * n / 2 % n, e
        neg = tuple((-x) % m for x, m in zip(e, df.orders))
        assert neg_index[i] == index[neg], e
        # xi(gamma)_j = b(gamma, g_j) * d_j
        xi = tuple(int(df.b(e, u) * m) for u, m in zip(units, df.orders))
        assert dual_index[i] == index[xi], e
    assert df._exponents.dtype == np.int64
    assert np.array_equal(df._exponents.T, exponents)
    rows, cols = pairs if pairs is not None else (range(d), range(d))
    assert pairing.shape == (d, d)
    pairing = pairing.tolist()
    for i in rows:
        for j in cols:
            assert pairing[i][j] == df.b(elems[i], elems[j]) * n, (elems[i], elems[j])


def _check_walk(df):
    """`half_walk` against `neg_index` and `qn`.

    Each pair {gamma, -gamma} with gamma != -gamma is walked exactly once,
    and no gamma = -gamma.  The walk is evaluated on a copy of the form,
    which must not build `qn` for it, and the reference `qn` on another.
    """
    d = df.cardinality
    streamed = dataclasses.replace(df)
    slices = list(cuspdim.half_walk(streamed))
    values = [streamed.qn_at(index) for index in slices]
    assert "qn" not in vars(streamed)
    assert [len(index) for index in slices[:-1]] == [SLICE] * (len(slices) - 1)
    assert all(0 < len(index) <= SLICE for index in slices)
    assert all(index.dtype == np.int64 for index in slices)
    # each slice is a buffer of its own, sized to what it holds
    assert all(index.base is None for index in slices)
    fixed = np.flatnonzero(df.neg_index == np.arange(d))
    index = np.concatenate([np.empty(0, dtype=np.int64), *slices])
    assert not np.isin(index, fixed).any()
    both = np.sort(np.concatenate([index, df.neg_index[index]]))
    assert np.array_equal(both, np.setdiff1d(np.arange(d), fixed))
    qn = dataclasses.replace(df).qn
    assert np.array_equal(np.concatenate([np.empty(0, dtype=np.int64), *values]), qn[index])


def _walk(df, k):
    """Per-element Fraction reference for the terms of dim_cusp_df.

    Returns (rank_pm, alpha, n_iso) over one representative of each pair
    {gamma, -gamma}, order-two classes only for symmetric forms.
    """
    symm = ((2 * k).numerator + df.sig_mod_8) % 4 == 0
    rank_pm, alpha, n_iso = 0, Fraction(0), 0
    for e in df.elements():
        qt = df.q(e) / 2 % 1
        neg = tuple((-x) % m for x, m in zip(e, df.orders))
        if neg < e or (neg == e and not symm):
            continue
        rank_pm += 1
        alpha += -qt % 1
        n_iso += qt == 0
    return rank_pm, alpha, n_iso


def test_kernel_matches_reference_on_corpus(corpus):
    for lat in corpus.values():
        _check_kernel(discriminant_form(lat))


@pytest.mark.parametrize("name", sorted(TRIVIAL))
def test_kernel_trivial_group(name):
    df = discriminant_form(TRIVIAL[name])
    assert df.orders == ()
    _check_kernel(df)
    assert df.qn.tolist() == [0]
    assert df.neg_index.tolist() == [0]
    assert df.dual_index.tolist() == [0]
    assert [a.tolist() for a in np.unique(df.qn, return_counts=True)] == [[0], [1]]
    assert list(cuspdim.half_walk(df)) == []
    assert cuspdim.walk_sums(df) == (1, 0, [0])
    assert bn(df).tolist() == [[0]]


@pytest.mark.parametrize("name", sorted(NON_CYCLIC))
def test_kernel_non_cyclic(name):
    df = discriminant_form(NON_CYCLIC[name])
    assert df.ngens > 1
    _check_kernel(df)


def test_kernel_rejects_level_that_is_not_a_common_denominator():
    df = discriminant_form(make_lattice([[2]]))
    wrong = DiscriminantForm(
        orders=df.orders,
        generators=df.generators,
        cardinality=df.cardinality,
        level=2,  # q(g)/2 = 1/4 needs N = 4
        sig_mod_8=df.sig_mod_8,
        gen_pairing=df.gen_pairing,
    )
    with pytest.raises(ValueError):
        wrong.qn


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 99, 100, 101, 4096, 10**6 + 3, 4 * 10**9 - 4])
def test_unit_roots_match_exp(n):
    # U(n) has level n; its group, of n^2 elements, is never built
    df = discriminant_form(hyperbolic(n))
    assert df.level == n
    rng = np.random.default_rng(n)
    v = np.concatenate(
        [np.arange(min(n, 3000)), np.arange(max(n - 3000, 0), n), rng.integers(0, n, 5000)]
    ).astype(np.int64)
    want = np.exp((2j * np.pi / n) * v)
    assert np.max(np.abs(df.roots(v) - want)) < 2e-15


def test_root_tables_are_built_once_per_form(monkeypatch):
    """The Weil chain and the Gauss sum share one `roots`, built once per
    form; `dim_cusp_df` builds none, at weights of either parity."""
    built = []
    build = DiscriminantForm.__dict__["roots"].func

    def counted(self):
        built.append(self)
        return build(self)

    roots = cached_property(counted)
    roots.__set_name__(DiscriminantForm, "roots")
    monkeypatch.setattr(DiscriminantForm, "roots", roots)
    # weights of both parities: for each form, two of the four are of the
    # wrong parity and return before the walk
    weights = [Fraction(21, 2), Fraction(23, 2), Fraction(12), Fraction(13)]
    for lat in (lambda_lattice(7), NON_CYCLIC["U(2)+U(6)"]):
        df = discriminant_form(lat)
        w = build_weil_rep(df)
        verify_relations(w)
        traces(w)
        gauss_sum(df)
        assert len(built) == 1 and built[0] is df
        built.clear()
        df = discriminant_form(lat)
        assert sum(dim_cusp_df(df, k).parity_ok for k in weights) == 2
        assert built == []


@pytest.mark.parametrize("name", sorted(NON_CYCLIC))
def test_gauss_sum_matches_fraction_walk(name):
    df = discriminant_form(NON_CYCLIC[name])
    walk = sum(cmath.exp(1j * cmath.pi * df.q(e)) for e in df.elements())
    assert abs(gauss_sum(df) - walk) < 1e-9


@pytest.mark.parametrize("name", sorted(NON_CYCLIC))
def test_dim_terms_match_fraction_walk(name):
    # the forms have many elements with 2*gamma = 0, which the halving of
    # full-group sums must correct for
    df = discriminant_form(NON_CYCLIC[name])
    for k in [HALF_21 + j for j in range(-5, 8)] + [Fraction(k) for k in (4, 9, 12)]:
        rep = dim_cusp_df(df, k)
        if not rep.parity_ok:
            continue
        rank_pm, alpha, n_iso = _walk(df, k)
        terms = rep.boundary_terms
        assert terms["rank_pm"] == rank_pm, k
        assert terms["main"] == float(rank_pm * (k + 5) / 12), k
        assert terms["parabolic"] == -float(alpha), k
        assert terms["isotropic"] == -n_iso, k


# integral and half-integral weights: every form meets both a symmetric and
# an antisymmetric one, and some weights of the wrong parity
WEIGHTS = [Fraction(j, 2) for j in range(5, 30)]
EXACT_TERMS = ("rank_pm", "main", "parabolic", "isotropic")
FLOAT_TERMS = ("elliptic_order4", "elliptic_order6", "raw_value")


def _check_against_elementwise(df, weights=WEIGHTS):
    """dim_cusp_df against the element-by-element oracle at each weight.

    Returns the set of `symmetric` values met among weights of the right
    parity.
    """
    kinds = set()
    for k in weights:
        rep, ref = dim_cusp_df(df, k), dim_cusp_df_elementwise(df, k)
        assert (rep.k, rep.d, rep.dim, rep.parity_ok, rep.symmetric) == (
            ref.k,
            ref.d,
            ref.dim,
            ref.parity_ok,
            ref.symmetric,
        ), k
        if not rep.parity_ok:
            assert rep.boundary_terms == ref.boundary_terms == {}, k
            continue
        kinds.add(rep.symmetric)
        terms, expected = rep.boundary_terms, ref.boundary_terms
        assert terms.keys() == expected.keys(), k
        for key in EXACT_TERMS:
            assert terms[key] == expected[key], (k, key)
        for key in FLOAT_TERMS:
            assert abs(terms[key] - expected[key]) < 1e-9, (k, key)
    return kinds


@pytest.mark.parametrize("name", sorted(NON_CYCLIC))
def test_dim_matches_elementwise_oracle_non_cyclic(name):
    df = discriminant_form(NON_CYCLIC[name])
    assert _check_against_elementwise(df) == {True, False}


def test_dim_matches_elementwise_oracle_lambda_g():
    # sig = -17 = 7 mod 8: 21/2 and 25/2 are symmetric, 19/2 and 23/2 not,
    # and the integral 12 has the wrong parity
    weights = [Fraction(j, 2) for j in (19, 21, 23, 24, 25)]
    for g in list(range(2, 301)) + [10**4, 10**5]:
        df = discriminant_form(lambda_lattice(g))
        _check_walk(df)
        assert _check_against_elementwise(df, weights) == {True, False}, g


def _binary(c):
    """[[2, 1], [1, c]]: a cyclic group of odd order |2c - 1|."""
    return make_lattice([[2, 1], [1, c]])


# groups just below, on and just past the slice boundaries of `half_walk`:
# Lambda_g has |A| = 2g - 2 = 4094, 4096, 4098 and 8190 to 8196, of which
# g - 2 are walked, so g = 4097, 4098 and 4099 walk SLICE - 1, SLICE and
# SLICE + 1 elements; the binary forms have the odd orders 4095, 4097 and
# 8193, walked in 2047, 2048 and 4096, the sums of U(N) up to 5 generators
# cover several slices, and U(2)^6 + <2> is all 2-torsion, 8192 elements
# that are not walked
SLICE_EDGE_FORMS = {
    **{f"Lambda_{g}": lambda_lattice(g) for g in (2048, 2049, 2050, 4096, 4097, 4098, 4099)},
    **{f"|A|={abs(2 * c - 1)}": _binary(c) for c in (2048, -2048, -4096)},
    "U(3)+U(40)": direct_sum(hyperbolic(3), hyperbolic(40)),
    "U(2)^2+<-4100>": direct_sum(hyperbolic(2), hyperbolic(2), make_lattice([[-4100]])),
    "U(2)^6+<2>": direct_sum(*[hyperbolic(2)] * 6, make_lattice([[2]])),
}


@pytest.mark.parametrize("name", sorted(SLICE_EDGE_FORMS))
def test_dim_matches_elementwise_oracle_across_slices(name):
    df = discriminant_form(SLICE_EDGE_FORMS[name])
    assert df.cardinality >= SLICE - 2
    _check_walk(df)
    # qn at both ends of every slice against the exact q()
    edges = sorted({i for s in range(0, df.cardinality, SLICE) for i in (s - 1, s, s + 1)})
    edges = [i for i in edges if 0 <= i < df.cardinality] + [df.cardinality - 1]
    qn = df.qn
    for i in edges:
        e = tuple(int(x) for x in np.unravel_index(i, df.orders))
        assert qn[i] == df.q(e) * df.level / 2 % df.level, (name, i)
    # weights 9 to 13: half-integral ones for the odd signatures, integral
    # ones for the even
    weights = [Fraction(j, 2) for j in range(18, 27)]
    assert _check_against_elementwise(df, weights) == {True, False}


def _check_walk_sums(df):
    """`walk_sums` against the zero count and sum of `qn` over the group,
    and against `qn` on the 2-torsion as a multiset."""
    zeros, total, two = cuspdim.walk_sums(df)
    assert (zeros, total, sorted(two)) == walk_sums_bruteforce(df)


# the corpus and the trivial forms; U(2)^k, all 2-torsion, whose walk is
# empty; cyclic forms of even and odd order, d = 2 (h = 0) among them, and
# with h = (d - 1)//2 one below, on and one past SLICE; and forms with
# several generators
WALK_SUM_FORMS = {
    **corpus_lattices(),
    **TRIVIAL,
    **{f"U(2)^{k}": direct_sum(*[hyperbolic(2)] * k) for k in (1, 2, 3)},
    "U(2)^6+<2>": SLICE_EDGE_FORMS["U(2)^6+<2>"],
    **{f"<{w}>": make_lattice([[w]]) for w in (4, -6, 10, -12)},
    **{f"Lambda_{h + 2}": lambda_lattice(h + 2) for h in (SLICE - 1, SLICE, SLICE + 1)},
    **{f"|A|={2 * h + 1}": _binary(h + 1 if h % 2 else -h) for h in (SLICE - 1, SLICE, SLICE + 1)},
    **NON_CYCLIC,
}


@pytest.mark.parametrize("name", sorted(WALK_SUM_FORMS))
def test_walk_sums_match_full_group_sums(name):
    _check_walk_sums(discriminant_form(WALK_SUM_FORMS[name]))


@settings(max_examples=40, deadline=None)
@given(strategies.pieces)
def test_walk_sums_match_full_group_sums_on_random_forms(pieces):
    _check_walk_sums(discriminant_form(strategies.lattice_of(pieces)))


def _check_square_walk(df):
    """`walk_sums` by squares against full-group sums over `qn`, and the
    slice lengths: L - 1 = min(SLICE, h + 1) - 1 in the first, L in each
    later one but the last."""
    assert df.ngens == 1
    _check_walk_sums(df)
    h = (df.cardinality - 1) // 2
    size = min(SLICE, h + 1)
    lengths = [len(v) for v in cuspdim.square_walk(df)]
    tail = [(h + 1) % size] if (h + 1) % size and h >= size else []
    assert lengths == [size - 1] + [size] * ((h + 1) // size - 1) + tail


def test_square_walk_matches_qn_at_on_lambda_g():
    for g in [*range(2, 400), 2 * 10**4, 10**6]:
        _check_square_walk(discriminant_form(lambda_lattice(g)))


# h = (d - 1)//2 around the slice boundaries: Lambda_{h + 2} has d = 2h + 2
# and the binary form [[2, 1], [1, c]] with c = h + 1 or -h, whichever is
# even, has d = |2c - 1| = 2h + 1
SQUARE_EDGES = [SLICE - 2, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE - 1, 2 * SLICE, 2 * SLICE + 1]


@pytest.mark.parametrize("h", SQUARE_EDGES)
def test_square_walk_matches_qn_at_across_slices(h):
    for lat in (lambda_lattice(h + 2), _binary(h + 1 if h % 2 else -h)):
        df = discriminant_form(lat)
        assert (df.cardinality - 1) // 2 == h
        _check_square_walk(df)


def test_square_walk_matches_qn_at_on_rank_one_forms():
    for n in range(1, 351):
        for w in (2 * n, -2 * n):
            _check_square_walk(discriminant_form(make_lattice([[w]])))


@settings(max_examples=40, deadline=None)
@given(strategies.cyclic_pieces)
def test_square_walk_matches_qn_at_on_random_cyclic_forms(pieces):
    _check_square_walk(discriminant_form(strategies.lattice_of(pieces)))


def test_small_square_walk_holds_no_slice_long_buffer():
    # the table of h + 1 < SLICE entries is the first slice, and no slice
    # buffer is made; the 2-torsion's one or two values are not walked
    for lat in (lambda_lattice(2), lambda_lattice(60), _binary(-20), lambda_lattice(SLICE)):
        df = discriminant_form(lat)
        h = (df.cardinality - 1) // 2
        (first,) = cuspdim.square_walk(df)
        assert len(first.base) == h + 1 < SLICE, lat
        assert len(cuspdim.two_torsion(df)) == 2 - df.cardinality % 2, lat


def test_small_walk_holds_no_slice_long_buffer():
    ramp = cuspdim._RAMP
    assert ramp.tolist() == list(range(SLICE))
    assert not ramp.flags.writeable
    with pytest.raises(ValueError):
        ramp[0] = 1
    # (|A| - |T|)/2 elements, T the 2-torsion, in one buffer of that length,
    # or no slice when the group is T
    for lat, size in (
        (lambda_lattice(2), 0),
        (lambda_lattice(60), 58),
        (k3_lattice(), 0),
        (direct_sum(hyperbolic(2), hyperbolic(6)), (144 - 16) // 2),
        (_binary(-20), 20),
    ):
        slices = list(cuspdim.half_walk(discriminant_form(lat)))
        assert [len(index) for index in slices] == [size] * (size > 0), lat
        assert all(index.base is None for index in slices), lat


def test_int64_bound_of_lambda_g():
    # the full-group arrays and `qn_at`: N * sum(orders) = (4g-4)(2g-2) =
    # 8(g-1)^2 for Lambda_g, below 2^63 exactly while g-1 < 2^30
    top = discriminant_form(lambda_lattice(2**30))
    top.check_int64()
    d, n = top.cardinality, top.level
    index = np.array([1, d // 2 - 1, d // 2 + 1, d - 2, d - 1], dtype=np.int64)
    for i, v in zip(index.tolist(), top.qn_at(index).tolist()):
        assert v == top.q((i,)) * n / 2 % n, i
    over = discriminant_form(lambda_lattice(2**30 + 1))
    with pytest.raises(TooLarge):
        over.check_int64()
    with pytest.raises(TooLarge):
        next(cuspdim.half_walk(over))
    with pytest.raises(TooLarge):
        over.qn_at(np.zeros(1, dtype=np.int64))
    # the cyclic walk by squares: the last admitted genus gives its first
    # slice, the next one is refused before any element, also by dim
    top = discriminant_form(lambda_lattice(SQUARE_WALK_FIRST_REFUSED_GENUS - 1))
    assert (SLICE + 2) * top.level < 2**63 <= (SLICE + 2) * (top.level + 4)
    first = next(cuspdim.square_walk(top))
    assert len(first) == SLICE - 1
    over = discriminant_form(lambda_lattice(SQUARE_WALK_FIRST_REFUSED_GENUS))
    with pytest.raises(TooLarge):
        next(cuspdim.square_walk(over))
    with pytest.raises(TooLarge):
        dim_cusp_df(over, HALF_21)


def test_square_slices_at_the_int64_bound():
    # slices at starts near the end of the walk of the largest admitted
    # genus, against Python ints, without walking the group
    df = discriminant_form(lambda_lattice(SQUARE_WALK_FIRST_REFUSED_GENUS - 1))
    n, u, h = df.level, int(df._upper[0, 0]), (df.cardinality - 1) // 2
    assert u == df.q((1,)) * n / 2 % n
    first = next(cuspdim.square_walk(df))
    # the 2-torsion {0, (d/2)*g} in Python ints, past the bound of `qn_at`
    assert cuspdim.two_torsion(df) == [0, df.q((df.cardinality // 2,)) * n / 2 % n]
    table = first.base
    assert len(table) == SLICE
    assert first.tolist() == [u * x * x % n for x in range(1, SLICE)]
    last = h // SLICE * SLICE  # the start of the walk's last slice
    for start in (h + 1 - SLICE, last - SLICE, last, h - 2, h):
        take = min(SLICE, h + 1 - start)
        out, quotient = np.empty(take, dtype=np.int64), np.empty(take, dtype=np.int64)
        got = cuspdim._square_slice(table, start, u, n, out, quotient)
        assert got.tolist() == [u * x * x % n for x in range(start, start + take)], start


def test_dual_index_matrix_at_the_int64_bound(monkeypatch):
    # N*b * d_j overflows int64 at g = 2^30; the matrix of xi must not.
    # Only the matrix is read: the group, of 2^31 elements, is not built
    top = discriminant_form(lambda_lattice(2**30))
    monkeypatch.setattr(DiscriminantForm, "_image_index", lambda self, m: m)
    assert top.dual_index.tolist() == [[int(top.b((1,), (1,)) * top.orders[0])]]


@settings(max_examples=40, deadline=None)
@given(strategies.pieces)
def test_dim_matches_elementwise_oracle_on_random_forms(pieces):
    df = discriminant_form(strategies.lattice_of(pieces))
    assert _check_against_elementwise(df) == {True, False}


def _check_gauss_sums(df):
    """exact_gauss_sums against the brute-force complex sums at j = 1, 2, 3."""
    for j, (r, t), want in zip((1, 2, 3), exact_gauss_sums(df), gauss_sums_bruteforce(df)):
        assert r >= 0 and 0 <= t < 8, j
        got = math.sqrt(r) * cmath.exp(2j * cmath.pi * t / 8)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (j, r, t, want)


def test_exact_gauss_sums_match_brute_force_on_corpus():
    forms = {f"Lambda_{g}": lambda_lattice(g) for g in range(2, 301)}
    for name, lat in {**forms, **NON_CYCLIC}.items():
        _check_gauss_sums(discriminant_form(lat))


# Gram blocks with several elementary divisors, so their generator pairing
# has components of more than one generator: U(2^k)- and V(2^k)-type blocks
# (D4 has V(2)), cyclic pieces that need a change of basis, and Jordan
# decompositions at 2, 3, 5 and 11
JORDAN_FORMS = {
    "D4": make_lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]),
    "[[4,2],[2,4]]": make_lattice([[4, 2], [2, 4]]),
    "[[8,4],[4,8]]": make_lattice([[8, 4], [4, 8]]),
    "[[0,4],[4,8]]": make_lattice([[0, 4], [4, 8]]),
    "[[18,9],[9,18]]": make_lattice([[18, 9], [9, 18]]),
    "[[-12,6,0],[6,12,6],[0,6,-24]]": make_lattice([[-12, 6, 0], [6, 12, 6], [0, 6, -24]]),
    "[[30,15],[15,-30]]": make_lattice([[30, 15], [15, -30]]),
    "[[12,6],[6,-12]]": make_lattice([[12, 6], [6, -12]]),
}


@pytest.mark.parametrize("name", sorted(JORDAN_FORMS))
def test_exact_gauss_sums_through_jordan_pieces(name):
    df = discriminant_form(JORDAN_FORMS[name])
    # two generators pair to a nonzero b: a component of more than one
    pairing = df.gen_pairing
    assert any(pairing[i][j].denominator != 1 for i in range(df.ngens) for j in range(i))
    _check_gauss_sums(df)
    _check_against_elementwise(df)


def test_jordan_pieces_of_every_kind():
    kinds = {p[0] for lat in JORDAN_FORMS.values() for p in gauss_pieces(discriminant_form(lat))}
    assert kinds == {"c", "u", "v"}


@settings(max_examples=60, deadline=None)
@given(strategies.pieces)
def test_exact_gauss_sums_match_brute_force_on_random_forms(pieces):
    _check_gauss_sums(discriminant_form(strategies.lattice_of(pieces)))


@settings(max_examples=60, deadline=None)
@given(strategies.pieces, st.integers(5, 10**6))
def test_dim_matches_float_oracle_at_random_weights(pieces, two_k):
    """The exact dimension against the float walk with its snap: the same
    dimension, the exact terms equal and the elliptic ones within 1e-9."""
    df = discriminant_form(strategies.lattice_of(pieces))
    k = Fraction(two_k, 2)
    rep, ref = dim_cusp_df(df, k), dim_cusp_df_float(df, k)
    assert (rep.dim, rep.parity_ok, rep.symmetric) == (ref.dim, ref.parity_ok, ref.symmetric)
    terms, expected = rep.boundary_terms, ref.boundary_terms
    assert terms.keys() == expected.keys()
    if not rep.parity_ok:
        return
    for key in EXACT_TERMS:
        assert terms[key] == expected[key], key
    for key in FLOAT_TERMS[:2]:
        assert abs(terms[key] - expected[key]) < 1e-9, key
    assert terms["raw_value"] == float(rep.dim)


def test_a_wrong_gauss_factor_is_a_domain_error(monkeypatch):
    """An elliptic term that is off by a non-integer makes the total
    non-integral: dim_cusp_df raises, and `dim` exits 1 with one error line."""
    df = discriminant_form(lambda_lattice(159))
    assert dim_cusp_df(df, HALF_21).boundary_terms["elliptic_order4"] == -0.25
    right = cuspdim.gauss_factor

    def flipped(piece, j):  # G(2) of the wrong sign turns -1/4 into 1/4
        r, t = right(piece, j)
        return r, t + 4 * (j == 2)

    monkeypatch.setattr(cuspdim, "gauss_factor", flipped)
    with pytest.raises(NonIntegerResult, match="not a dimension"):
        dim_cusp_df(df, HALF_21)
    out, err = io.StringIO(), io.StringIO()
    assert dispatch(["dim", "--g", "159"], out=out, err=err) == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


def _check_against_eigenvalues(df):
    """dim_cusp_df against the eigenvalues of the dense dual representation
    at every weight in WEIGHTS."""
    for k in WEIGHTS:
        rep, ref = dim_cusp_df(df, k), dim_cusp_from_eigenvalues(df, k)
        assert (rep.dim, rep.parity_ok, rep.symmetric) == (
            ref.dim,
            ref.parity_ok,
            ref.symmetric,
        ), k
        if rep.parity_ok:
            terms, expected = rep.boundary_terms, ref.boundary_terms
            assert terms["rank_pm"] == expected["rank_pm"], k
            assert terms["isotropic"] == expected["isotropic"], k
            assert abs(terms["raw_value"] - expected["raw_value"]) < 1e-6, k


def test_dim_matches_eigenvalue_oracle(corpus):
    for name, lat in {**corpus, **NON_CYCLIC}.items():
        _check_against_eigenvalues(discriminant_form(lat))


@settings(max_examples=40, deadline=None)
@given(strategies.dense_pieces)
def test_dim_matches_eigenvalue_oracle_on_random_forms(pieces):
    _check_against_eigenvalues(discriminant_form(strategies.lattice_of(pieces)))


@settings(max_examples=40, deadline=None)
@given(strategies.pieces, st.data())
def test_kernel_matches_reference_on_random_forms(pieces, data):
    df = discriminant_form(strategies.lattice_of(pieces))
    d = df.cardinality
    assert d == math.prod(map(strategies.order, pieces))
    # every element against a few drawn partners keeps the b() calls linear
    cols = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=6))
    _check_kernel(df, pairs=(range(d), cols))
    pairing = bn(df)
    assert np.array_equal(pairing, pairing.T)
    milgram = math.sqrt(d) * cmath.exp(2j * cmath.pi * df.sig_mod_8 / 8)
    assert abs(gauss_sum(df) - milgram) < 1e-9


def test_rho_z_is_the_negation_permutation(corpus):
    """rhoZ e_gamma = e(-sig/4) e_{-gamma}, -gamma taken from `elements()`; S^2 = Z."""
    forms = dict(NON_CYCLIC)
    for name, lat in corpus.items():
        if discriminant_form(lat).ngens > 1:
            forms[name] = lat
    assert len(forms) > len(NON_CYCLIC)
    for name, lat in forms.items():
        df = discriminant_form(lat)
        elems = list(df.elements())
        index = {e: i for i, e in enumerate(elems)}
        expected = np.zeros((len(elems), len(elems)), dtype=complex)
        for j, e in enumerate(elems):
            neg = tuple(-x % o for x, o in zip(e, df.orders))
            expected[index[neg], j] = cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 4)
        w = build_weil_rep(df)
        rho_z = operator_matrix(w.apply_z, len(elems))
        assert np.max(np.abs(rho_z - expected)) < 1e-15, name
        assert verify_relations(w).maxErrS2Z < 1e-12, name
