"""Oracle tests for the integer encoding of discriminant forms.

The generators' level-N table `gen_qn`, which the form derives with its
level, is compared entry by entry with `oracles.q` and `oracles.b` at the
generators; the exponents of every element (`DiscriminantForm._exponents`,
read once per form), `qn`, `neg_index` and `dual_index` (from
`_exponents`, or on a cyclic form by one multiply and reduce), and the
pairing `oracles.bn` builds from `gen_qn`, are compared element by element
with the exact `Fraction` reference `elements()`, `oracles.q` and
`oracles.b`, on the corpus, `NON_CYCLIC` and hypothesis forms;
`cuspdim.walk_sums` with full-group sums over `qn`, by rows on a cyclic
form with u = 1 or N - 1 and from `qn` on any other, and its refusal of a
form too large for int64 before any array of |A| entries; the row count
`cuspdim.row_sums` with brute force, its Python rows with its numpy
slices, and its slices with `math.isqrt` on both sides of their float64 /
int64 seam at 2^52 and up to the last admitted genus; a
cyclic generator's `gen_qn[0][0]` with `oracles.q`; `roots` with
`numpy.exp`, and as built once per form, with `qroots` evaluated once, by the Weil chain and
never by the cusp dimension; the exact Gauss sums of
`cuspdim.exact_gauss_sums` with brute-force complex sums, also on random
Gram matrices with off-diagonal entries (`strategies.non_diagonal`); and
the consumers built on them (`gauss_sum`,
`dim_cusp_df`) with per-element `Fraction` walks over the same reference,
with the element-by-element `oracles.dim_cusp_df_elementwise`, with the
float walk `oracles.dim_cusp_df_float` and with the eigenvalues of the
dense dual Weil representation (`oracles.dim_cusp_from_eigenvalues`).
"""

import cmath
import io
import math
import random
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
    CUSP_FIRST_REFUSED_GENUS,
    b,
    bn,
    dim_cusp_df_elementwise,
    dim_cusp_df_float,
    dim_cusp_from_eigenvalues,
    gauss_sums_bruteforce,
    operator_matrix,
    q,
    row_slice_bruteforce,
    row_sums_bruteforce,
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
    exponents = df._exponents.T
    for arr in (exponents, df.qn, df.neg_index, df.dual_index, pairing):
        assert arr.dtype == np.int64
    assert exponents.shape == (d, df.ngens)
    assert [tuple(map(int, row)) for row in exponents] == elems
    index = {e: i for i, e in enumerate(elems)}
    qn, neg_index, dual_index = df.qn.tolist(), df.neg_index.tolist(), df.dual_index.tolist()
    units = [tuple(int(i == j) for i in range(df.ngens)) for j in range(df.ngens)]
    # the table: N*q(g_i)/2 on the diagonal, N*b(g_i, g_j) above it, 0 below
    assert len(df.gen_qn) == df.ngens
    for i, (row, ui) in enumerate(zip(df.gen_qn, units)):
        want = [0] * i + [q(df, ui) * n / 2 % n] + [b(df, ui, uj) * n for uj in units[i + 1 :]]
        assert [type(x) for x in row] == [int] * df.ngens
        assert row == tuple(want), i
    for i, e in enumerate(elems):
        assert qn[i] == q(df, e) * n / 2 % n, e
        neg = tuple((-x) % m for x, m in zip(e, df.orders))
        assert neg_index[i] == index[neg], e
        # xi(gamma)_j = b(gamma, g_j) * d_j
        xi = tuple(int(b(df, e, u) * m) for u, m in zip(units, df.orders))
        assert dual_index[i] == index[xi], e
    rows, cols = pairs if pairs is not None else (range(d), range(d))
    assert pairing.shape == (d, d)
    pairing = pairing.tolist()
    for i in rows:
        for j in cols:
            assert pairing[i][j] == b(df, elems[i], elems[j]) * n, (elems[i], elems[j])


def _walk(df, k):
    """Per-element Fraction reference for the terms of dim_cusp_df.

    Returns (rank_pm, alpha, n_iso) over one representative of each pair
    {gamma, -gamma}, order-two classes only for symmetric forms.
    """
    symm = ((2 * k).numerator + df.sig_mod_8) % 4 == 0
    rank_pm, alpha, n_iso = 0, Fraction(0), 0
    for e in df.elements():
        qt = q(df, e) / 2 % 1
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
    assert cuspdim.walk_sums(df) == (1, 0, [0])
    assert bn(df).tolist() == [[0]]


@pytest.mark.parametrize("name", sorted(NON_CYCLIC))
def test_kernel_non_cyclic(name):
    df = discriminant_form(NON_CYCLIC[name])
    assert df.ngens > 1
    _check_kernel(df)


def test_qn_at_reads_qn_on_forms_with_several_generators():
    # every index, in reverse, and some twice
    for lat in NON_CYCLIC.values():
        df = discriminant_form(lat)
        index = np.concatenate([np.arange(df.cardinality)[::-1], np.arange(0, df.cardinality, 3)])
        assert df.qn_at(index).tolist() == df.qn[index].tolist()


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
    form and applied to an |A|-long input once, for `qroots`; `dim_cusp_df`
    builds none, at weights of either parity."""
    built, reads = [], []
    build = DiscriminantForm.__dict__["roots"].func

    def counted(self):
        built.append(self)
        roots = build(self)
        return lambda v: reads.append(len(v)) or roots(v)

    roots = cached_property(counted)
    roots.__set_name__(DiscriminantForm, "roots")
    monkeypatch.setattr(DiscriminantForm, "roots", roots)
    # weights of both parities: for each form, two of the four are of the
    # wrong parity and return before the walk
    weights = [Fraction(21, 2), Fraction(23, 2), Fraction(12), Fraction(13)]
    # the DFT matrices read `roots` on rows of each order up to 36 (2 and 6
    # here), never of |A| = 298 or 144
    for lat in (lambda_lattice(150), NON_CYCLIC["U(2)+U(6)"]):
        df = discriminant_form(lat)
        w = build_weil_rep(df)
        verify_relations(w)
        traces(w)
        gauss_sum(df)
        assert len(built) == 1 and built[0] is df
        assert reads.count(df.cardinality) == 1, reads
        assert not df.qroots.flags.writeable
        built.clear()
        reads.clear()
        df = discriminant_form(lat)
        assert sum(dim_cusp_df(df, k).parity_ok for k in weights) == 2
        assert built == []


@pytest.mark.parametrize("name", sorted(NON_CYCLIC))
def test_gauss_sum_matches_fraction_walk(name):
    df = discriminant_form(NON_CYCLIC[name])
    walk = sum(cmath.exp(1j * cmath.pi * q(df, e)) for e in df.elements())
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
        assert _check_against_elementwise(df, weights) == {True, False}, g


def _binary(c):
    """[[2, 1], [1, c]]: a cyclic group of odd order |2c - 1|."""
    return make_lattice([[2, 1], [1, c]])


# groups of about SLICE and 2*SLICE elements, whose `qn` is checked at
# both ends of every SLICE-long run of indices: Lambda_g, with
# |A| = 2g - 2 = 4094, 4096, 4098 and 8190 to 8196, and the binary forms,
# cyclic of the odd orders 4095, 4097 and 8193, count their sums by rows;
# the sums of U(N) and U(2)^6 + <2>, which is all 2-torsion, have several
# generators and read their sums from `qn`, of up to 65600 elements
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
    # qn at both ends of every SLICE-long run of indices against the exact q()
    edges = sorted({i for s in range(0, df.cardinality, SLICE) for i in (s - 1, s, s + 1)})
    edges = [i for i in edges if 0 <= i < df.cardinality] + [df.cardinality - 1]
    qn = df.qn
    for i in edges:
        e = tuple(int(x) for x in np.unravel_index(i, df.orders))
        assert qn[i] == q(df, e) * df.level / 2 % df.level, (name, i)
    # weights 9 to 13: half-integral ones for the odd signatures, integral
    # ones for the even
    weights = [Fraction(j, 2) for j in range(18, 27)]
    assert _check_against_elementwise(df, weights) == {True, False}


def _check_walk_sums(df):
    """`walk_sums` against the zero count and sum of `qn` over the group,
    and against `qn` on the 2-torsion as a multiset."""
    zeros, total, two = cuspdim.walk_sums(df)
    assert (zeros, total, sorted(two)) == walk_sums_bruteforce(df)


# the corpus and the trivial forms; U(2)^k, all 2-torsion; cyclic forms of even and odd order, d = 2 (h = 0) among them, and
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


def _check_cyclic(df):
    """`walk_sums` of a cyclic form, whatever its generator, against
    full-group sums over `qn`, and the generator's N*q/2 mod N, which
    `walk_sums` reads from `gen_qn`, against `oracles.q`."""
    assert df.ngens == 1
    assert df.gen_qn[0][0] == q(df, (1,)) * df.level / 2 % df.level
    _check_walk_sums(df)


def test_cyclic_walk_sums_match_qn_on_large_lambda_g():
    # two genera far above those of `test_rows_match_qn_on_lambda_g`
    for g in (2 * 10**4, 10**6):
        _check_cyclic(discriminant_form(lambda_lattice(g)))


# h = (d - 1)//2 around the slice boundaries: Lambda_{h + 2} has d = 2h + 2
# and the binary form [[2, 1], [1, c]] with c = h + 1 or -h, whichever is
# even, has d = |2c - 1| = 2h + 1
SQUARE_EDGES = [SLICE - 2, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE - 1, 2 * SLICE, 2 * SLICE + 1]


@pytest.mark.parametrize("h", SQUARE_EDGES)
def test_cyclic_walk_sums_match_qn_across_slices(h):
    for lat in (lambda_lattice(h + 2), _binary(h + 1 if h % 2 else -h)):
        df = discriminant_form(lat)
        assert (df.cardinality - 1) // 2 == h
        _check_cyclic(df)


def test_rows_match_qn_on_rank_one_forms():
    for n in range(1, 351):
        for w in (2 * n, -2 * n):
            _check_rows(discriminant_form(make_lattice([[w]])))


@settings(max_examples=40, deadline=None)
@given(strategies.cyclic_pieces)
def test_cyclic_walk_sums_match_qn_on_random_cyclic_forms(pieces):
    _check_cyclic(discriminant_form(strategies.lattice_of(pieces)))


def test_walk_sums_read_qn_on_a_cyclic_form_with_another_generator(monkeypatch):
    # [[4, 1], [1, 4]] and [[6, 3], [3, 8]] are cyclic of orders 15 and 39,
    # with u = 2 and 10, neither 1 nor N - 1: their sums come from `qn`,
    # never from the rows, while Lambda_g's come from the rows and build no
    # `qn`
    def refuse(*args):
        raise AssertionError(f"row_sums{args}")

    monkeypatch.setattr(cuspdim, "row_sums", refuse)
    for gram, u in (([[4, 1], [1, 4]], 2), ([[6, 3], [3, 8]], 10)):
        df = discriminant_form(make_lattice(gram))
        assert df.gen_qn[0][0] == u
        _check_cyclic(df)
    monkeypatch.undo()
    rows = discriminant_form(lambda_lattice(60))
    cuspdim.walk_sums(rows)
    assert "qn" not in vars(rows)


def test_row_sums_match_brute_force():
    # both signs of u, with h = 0, 1, N/4, N/2, N and 3N, and a few between
    for n in range(2, 121):
        for h in sorted({0, 1, 2, n // 4, n // 2, n - 1, n, n + 1, 3 * n}):
            for u in (1, n - 1):
                assert cuspdim.row_sums(h, n, u) == row_sums_bruteforce(h, n, u), (h, n, u)


def _check_rows(df):
    """`_check_cyclic` on a cyclic form with u = 1 or N - 1, whose sums
    `walk_sums` counts by rows."""
    assert df.ngens == 1 and df.gen_qn[0][0] in (1, df.level - 1)
    _check_cyclic(df)


def test_rows_match_qn_on_lambda_g():
    # up to K = 749 rows: in Python ints to ISQRT_ROWS, then in numpy
    for g in range(2, 3001):
        _check_rows(discriminant_form(lambda_lattice(g)))


def test_isqrt_rows_match_the_numpy_slices(monkeypatch):
    # every row count K = 0, ..., 4*ISQRT_ROWS, on Lambda_g and on <2n>
    # and <-2n>: `row_sums` with every K in Python ints against `row_sums`
    # with every K in numpy slices, on the same (h, N, u)
    top = 4 * cuspdim.ISQRT_ROWS
    counts = set()
    for m in range(2, 4 * top + 8):
        for lat in (lambda_lattice(m), make_lattice([[2 * m]]), make_lattice([[-2 * m]])):
            df = discriminant_form(lat)
            h, n, u = (df.cardinality - 1) // 2, df.level, df.gen_qn[0][0]
            assert u in (1, n - 1)
            monkeypatch.setattr(cuspdim, "ISQRT_ROWS", top)
            by_isqrt = cuspdim.row_sums(h, n, u)
            monkeypatch.setattr(cuspdim, "ISQRT_ROWS", -1)
            assert cuspdim.row_sums(h, n, u) == by_isqrt, (m, h, n, u)
            counts.add(h * h // n)
    assert counts >= set(range(top + 1))


# rows past 2^53 and 2^63, where only Python ints hold k*n exactly: the
# last admitted level of Lambda_g, and levels near 2^62, 2^64 and 10^30
@pytest.mark.parametrize("n", [4 * (CUSP_FIRST_REFUSED_GENUS - 2), 2**62 + 1, 2**64 + 13, 10**30])
def test_isqrt_rows_match_isqrt_past_2_63(n):
    rows = cuspdim.ISQRT_ROWS
    assert cuspdim._isqrt_rows(rows, n) == row_slice_bruteforce(1, rows, n)
    assert cuspdim._isqrt_rows(0, n) == (0, 0)


def _first_with_rows(rows, order_of):
    """The least m whose walk, of h = order_of(m) elements at level
    4*(h + 1), has h^2 // (4*(h + 1)) == rows."""
    m = 2
    while (order_of(m) ** 2) // (4 * order_of(m) + 4) < rows:
        m += 1
    return m


# K = h^2 // N rows one below, on and one past SLICE: Lambda_g (h = g - 2,
# u = N - 1) and <2n> (h = |n| - 1, u = 1 for n > 0 and N - 1 for n < 0)
@pytest.mark.parametrize("rows", [SLICE - 1, SLICE, SLICE + 1])
def test_rows_match_qn_across_slices(rows):
    g = _first_with_rows(rows, lambda g: g - 2)
    n = _first_with_rows(rows, lambda n: n - 1)
    for lat in (lambda_lattice(g), make_lattice([[2 * n]]), make_lattice([[-2 * n]])):
        df = discriminant_form(lat)
        h = (df.cardinality - 1) // 2
        assert h * h // df.level == rows
        _check_rows(df)


# rows just below 2^53, (t + 1)^2 - 2 to (t + 1)^2 with t + 1 <= 2^26.5,
# whose float root rounds up to t + 1 at (t + 1)^2 - 1
@pytest.mark.parametrize("t", [math.isqrt(2**53) - 1, math.isqrt(2**53) - 2])
def test_row_slices_below_2_53_hold_a_float_root_one_above(t):
    start, take = (t + 1) ** 2 - 2, 3
    assert start + take - 1 < 2**53
    assert int(np.sqrt(np.float64((t + 1) ** 2 - 1))) == t + 1
    assert cuspdim._row_slice(start, take, 1) == row_slice_bruteforce(start, take, 1)


# the float64 / int64 seam of `_row_slice`: a slice whose top row k*n is
# below 2^52 runs in float64 alone, any other in int64.  With n = 1, slices
# ending at 2^52 - 1 and around (2^26 - 1)^2 run in float64; slices that
# reach 2^52 + 1 run in int64, and there the float root is already 2^26, so
# a seam moved even two rows higher counts 2^52 + 1 as a square of ceiling
# 2^26
SEAM = 2**52
BELOW_SEAM = [(SEAM - SLICE, SLICE), (SEAM - 3, 3), ((2**26 - 1) ** 2 - 2, 5)]
AT_SEAM = [(SEAM - 1, 3), (SEAM + 2 - SLICE, SLICE), (SEAM + 1, 1)]


@pytest.mark.parametrize("start, take", BELOW_SEAM)
def test_row_slices_below_2_52_run_in_float64(start, take):
    assert start + take - 1 < SEAM
    assert cuspdim._row_slice(start, take, 1) == row_slice_bruteforce(start, take, 1)


@pytest.mark.parametrize("start, take", AT_SEAM)
def test_row_slices_reaching_2_52_plus_1_run_in_int64(start, take):
    assert start + take - 1 == SEAM + 1
    assert np.sqrt(np.float64(SEAM + 1)) == 2**26
    assert cuspdim._row_slice(start, take, 1) == row_slice_bruteforce(start, take, 1)


def test_random_row_slices_below_2_52_match_isqrt():
    # seeded slices below the seam: within the rows of Lambda_g past
    # ISQRT_ROWS rows, up to the last genus whose rows stay below 2^52; and
    # at levels n = 4a anywhere below the seam, or around a row k = a*j^2,
    # where k*n = (2aj)^2 is a perfect square
    rng = random.Random(52)
    squares = 0
    for i in range(240):
        if i % 3 == 0:
            g = rng.randrange(263, 67108867)
            n = 4 * g - 4
            rows = (g - 2) ** 2 // n
        else:
            a = rng.randrange(1, 2 ** rng.randrange(1, 25))
            n = 4 * a
            rows = (SEAM - 1) // n
        take = rng.randrange(1, min(SLICE, rows) + 1)
        if i % 3 == 2:
            k = a * rng.randrange(1, math.isqrt(rows // a) + 1) ** 2
            start = rng.randrange(max(1, k - take + 1), min(k, rows - take + 1) + 1)
        else:
            start = rng.randrange(1, rows - take + 2)
        assert (start + take - 1) * n < SEAM
        got = cuspdim._row_slice(start, take, n)
        assert got == row_slice_bruteforce(start, take, n), (start, take, n)
        squares += got[0]
    assert squares >= 80


# single row slices, k = start, ..., start + take - 1, against math.isqrt:
# k*n a perfect square above 2^53 (n = t, k = t); t^2 - 1, t^2 and t^2 + 1
# near 2^62 (n = 1); and rows next to 3037000498^2, the largest m^2 with
# (m + 1)^2 < 2^63
ROW_SLICES = [
    (10**8 + 7 - 2000, SLICE, 10**8 + 7),
    (4 * (10**8 + 7) - 100, 200, 10**8 + 7),
    *[(t * t - 1, 3, 1) for t in (2**31 - 1, 2**31, 2**31 + 1)],
    (3037000497**2 - 1, 3, 1),
    (3037000498**2 - 4, 5, 1),
]


@pytest.mark.parametrize("start, take, n", ROW_SLICES)
def test_row_slices_match_isqrt_above_2_53(start, take, n):
    assert (start + take - 1) * n >= 2**53
    assert cuspdim._row_slice(start, take, n) == row_slice_bruteforce(start, take, n)


# rows past 2^63 at which k*n is a perfect square m^2 (n = 4s^2, k = t^2),
# or one away from one: m^2 - 1 (m = 1 + 64n) and m^2 + 1 (n = c^2 + 1,
# m = c + 64n).  With k*n past 53 bits, fl(k*n) is m^2 on all three, so
# only the exact int64 difference tells them apart
_S, _N, _C = 2**24 + 1, 10**12 + 39, 10**6 + 1
PAST_2_63 = {
    "square": (2 * _S * 1000, 4 * _S**2, 0),
    "square-1": (1 + 64 * _N, _N, -1),
    "square+1": (_C + 64 * (_C**2 + 1), _C**2 + 1, 1),
}


@pytest.mark.parametrize("name", sorted(PAST_2_63))
def test_row_slices_at_squares_past_2_63(name):
    # k*n = m^2 + offset, with its neighbouring rows k - 1 and k + 1
    m, n, offset = PAST_2_63[name]
    k, rest = divmod(m * m + offset, n)
    assert rest == 0 and k * n > 2**63 and k < 2**53
    assert float(k * n) == float(m * m)
    assert cuspdim._row_slice(k - 1, 3, n) == row_slice_bruteforce(k - 1, 3, n)


def _check_row_slices(df):
    """The first, second and last row slices of a cyclic form, and the full
    slice before the last, against `math.isqrt`, without counting the
    rest."""
    n, h = df.level, (df.cardinality - 1) // 2
    rows = h * h // n
    last = (rows - 1) // SLICE * SLICE + 1  # the start of the last slice
    for start in (1, SLICE + 1, last - SLICE, last):
        take = min(SLICE, rows + 1 - start)
        got = cuspdim._row_slice(start, take, n)
        assert got == row_slice_bruteforce(start, take, n), start


@pytest.mark.parametrize("g", [3037000501, 10**10 + 19])
def test_row_slices_past_the_int64_square_bound(g):
    # from g = 3037000501 on, (h + 1)^2 = (g - 1)^2, which bounds the
    # squares of the rows' float roots, is past 2^63
    assert (g - 1) ** 2 >= 2**63
    _check_row_slices(discriminant_form(lambda_lattice(g)))


def test_row_slices_at_the_2_52_seam():
    # Lambda_67108866's rows all stay below 2^52, and its last slice runs
    # in float64; Lambda_67108867 is the first genus whose last slice
    # crosses the seam, with K*N - 2^52 = 2^27 at its last row K
    for g, over in ((67108866, -201326596), (67108867, 2**27)):
        df = discriminant_form(lambda_lattice(g))
        n, h = df.level, (df.cardinality - 1) // 2
        assert (h * h // n) * n - SEAM == over
        _check_row_slices(df)


def test_row_slices_at_the_last_admitted_genus():
    df = discriminant_form(lambda_lattice(CUSP_FIRST_REFUSED_GENUS - 1))
    assert (SLICE + 2) * df.level < 2**63 <= (df.cardinality // 2) ** 2
    _check_row_slices(df)


def test_rows_end_at_the_last_admitted_genus(monkeypatch):
    # Lambda_g counts by rows up to the last admitted genus, past the
    # genus g = 3037000501 whose squares pass int64; the next genus is
    # refused before the rows.  No sum is run to its end
    class Taken(Exception):
        pass

    def refuse(*args):
        raise Taken(args)

    monkeypatch.setattr(cuspdim, "row_sums", refuse)
    for g in (3037000501, CUSP_FIRST_REFUSED_GENUS - 1):
        df = discriminant_form(lambda_lattice(g))
        with pytest.raises(Taken) as taken:
            cuspdim.walk_sums(df)
        assert taken.value.args[0] == (g - 2, df.level, df.level - 1)
    over = discriminant_form(lambda_lattice(CUSP_FIRST_REFUSED_GENUS))
    with pytest.raises(TooLarge):
        cuspdim.walk_sums(over)


def test_int64_bound_of_lambda_g(monkeypatch):
    # the full-group arrays and `qn_at`: N * sum(orders) = (4g-4)(2g-2) =
    # 8(g-1)^2 for Lambda_g, below 2^63 exactly while g-1 < 2^30
    top = discriminant_form(lambda_lattice(2**30))
    top.check_int64()
    d, n = top.cardinality, top.level
    index = np.array([1, d // 2 - 1, d // 2 + 1, d - 2, d - 1], dtype=np.int64)
    for i, v in zip(index.tolist(), top.qn_at(index).tolist()):
        assert v == q(top, (i,)) * n / 2 % n, i
    over = discriminant_form(lambda_lattice(2**30 + 1))
    with pytest.raises(TooLarge):
        over.check_int64()
    with pytest.raises(TooLarge):
        over.qn_at(np.zeros(1, dtype=np.int64))
    # the cyclic sums: the last admitted genus has its 2-torsion
    # {0, (d/2)*g} in Python ints, past the bound of `qn_at`; the next one
    # is refused before any row, also by dim and where |A| is past int64
    top = discriminant_form(lambda_lattice(CUSP_FIRST_REFUSED_GENUS - 1))
    n = top.level
    assert (SLICE + 2) * n < 2**63 <= (SLICE + 2) * (n + 4)
    assert cuspdim.two_torsion(top) == [0, q(top, (top.cardinality // 2,)) * n / 2 % n]
    monkeypatch.setattr(cuspdim, "row_sums", None)
    for g in (CUSP_FIRST_REFUSED_GENUS, 10**30):
        over = discriminant_form(lambda_lattice(g))
        with pytest.raises(TooLarge):
            cuspdim.walk_sums(over)
        with pytest.raises(TooLarge):
            dim_cusp_df(over, HALF_21)


@pytest.mark.parametrize("g", [2**62, 10**30])
def test_dual_index_refuses_a_level_past_int64(g):
    # N = 4g - 4 >= 2^63, so the generator's table entry N - 1 has no int64:
    # the bound is checked before the table is converted, as `qn` does
    df = discriminant_form(lambda_lattice(g))
    assert df.gen_qn[0][0] >= 2**63
    with pytest.raises(TooLarge):
        df.dual_index  # noqa: B018


def test_walk_sums_refuse_a_non_cyclic_form_past_the_int64_bound(small_arange):
    # U(2) + Lambda_g has orders (2, 2, 2g - 2) and level 4g - 4: at
    # g = 2^30 + 1, N * sum(orders) = 2^32 * (2^31 + 4) >= 2^63, so `qn`, the
    # sums of a form with several generators, raises TooLarge before any
    # array of |A| entries; at g = 2^30 the form is admitted
    df = discriminant_form(direct_sum(hyperbolic(2), lambda_lattice(2**30 + 1)))
    assert (df.orders, df.level) == ((2, 2, 2**31), 2**32)
    with pytest.raises(TooLarge):
        cuspdim.walk_sums(df)
    with pytest.raises(TooLarge):
        dim_cusp_df(df, HALF_21)
    assert "qn" not in vars(df)
    discriminant_form(direct_sum(hyperbolic(2), lambda_lattice(2**30))).check_int64()


def test_dual_index_matrix_at_the_int64_bound(monkeypatch):
    # N*b * d_j overflows int64 at g = 2^30; the matrix of xi must not.
    # Only the matrix is read: the group, of 2^31 elements, is not built
    top = discriminant_form(lambda_lattice(2**30))
    monkeypatch.setattr(DiscriminantForm, "_image_index", lambda self, m: m)
    assert top.dual_index.tolist() == [[int(b(top, (1,), (1,)) * top.orders[0])]]


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
    # the basis change <g_i, g_m> must update b(g_i, g_m) too: G(3) is
    # (72, 3), not (36, 2)
    "[[6,2,-2],[2,2,-4],[-2,-4,12]]": make_lattice([[6, 2, -2], [2, 2, -4], [-2, -4, 12]]),
    # an even 2-adic block is split off while a generator paired to it is
    # still live, which must be projected away: G(3) is (7920, 6), not
    # (7920, 2)
    "[[-4,2,4,0],[2,8,-2,4],[4,-2,8,-2],[0,4,-2,-4]]": make_lattice(
        [[-4, 2, 4, 0], [2, 8, -2, 4], [4, -2, 8, -2], [0, 4, -2, -4]]
    ),
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
@given(strategies.non_diagonal())
def test_jordan_split_of_random_non_diagonal_forms(lat):
    df = discriminant_form(lat)
    _check_gauss_sums(df)
    _check_against_elementwise(df)


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
