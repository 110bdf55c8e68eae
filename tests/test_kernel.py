"""Oracle tests for the integer encoding of discriminant forms.

The exponents `DiscriminantForm._exponents_at` reads off, `qn`, `neg_index`
and `dual_index`, and the pairing `oracles.bn` builds from the generator
pairing, are compared element by element with the exact `Fraction`
reference `elements()`, `q()` and `b()`;
the walk `half_walk` with `neg_index` and `qn`; `roots` with
`numpy.exp`, and as built once per form; and the consumers built on them (`gauss_sum`, `dim_cusp_df`) with per-element
`Fraction` walks over the same reference, with the element-by-element
`oracles.dim_cusp_df_elementwise` and with the eigenvalues of the dense
dual Weil representation (`oracles.dim_cusp_from_eigenvalues`).
"""

import cmath
import dataclasses
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
from nlrank.errors import TooLarge
from nlrank.lattices import SLICE, DiscriminantForm

import strategies
from oracles import (
    bn,
    dim_cusp_df_elementwise,
    dim_cusp_from_eigenvalues,
    operator_matrix,
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
    rows, cols = pairs if pairs is not None else (range(d), range(d))
    assert pairing.shape == (d, d)
    pairing = pairing.tolist()
    for i in rows:
        for j in cols:
            assert pairing[i][j] == df.b(elems[i], elems[j]) * n, (elems[i], elems[j])


def _check_walk(df):
    """`half_walk` against `neg_index` and `qn`.

    Each pair {gamma, -gamma} with gamma != -gamma is walked exactly once,
    each gamma = -gamma exactly once, at the end, and every slice counts
    the ones it ends with.  The walk is evaluated on a copy of the form,
    which must not build `qn` for it, and the reference `qn` on another.
    """
    d = df.cardinality
    streamed = dataclasses.replace(df)
    walk = list(streamed.half_walk())
    values = [streamed.qn_at(index) for index, _ in walk]
    assert "qn" not in vars(streamed)
    slices = [index for index, _ in walk]
    assert [len(index) for index in slices[:-1]] == [SLICE] * (len(slices) - 1)
    assert 0 < len(slices[-1]) <= SLICE
    assert all(index.dtype == np.int64 for index in slices)
    fixed = np.flatnonzero(df.neg_index == np.arange(d))
    for index, n_two in walk:
        assert np.array_equal(np.isin(index, fixed), np.arange(len(index)) >= len(index) - n_two)
    index = np.concatenate(slices)
    tail = len(index) - len(fixed)
    assert np.array_equal(np.sort(index[tail:]), fixed)
    pairs = index[:tail]
    both = np.sort(np.concatenate([pairs, df.neg_index[pairs]]))
    assert np.array_equal(both, np.setdiff1d(np.arange(d), fixed))
    qn = dataclasses.replace(df).qn
    assert np.array_equal(np.concatenate(values), qn[index])


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
    assert [(index.tolist(), n_two) for index, n_two in df.half_walk()] == [([0], 1)]
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
    """The Weil chain and the Gauss sum share one `roots`; `dim_cusp_df`
    builds it once per form, whatever the number of weights."""
    built = []
    build = DiscriminantForm.__dict__["roots"].func

    def counted(self):
        built.append(self)
        return build(self)

    roots = cached_property(counted)
    roots.__set_name__(DiscriminantForm, "roots")
    monkeypatch.setattr(DiscriminantForm, "roots", roots)
    # weights of both parities: for each form, two of the four are of the
    # wrong parity and return before any root is read
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
        assert len(built) == 1 and built[0] is df
        built.clear()


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
# Lambda_g has |A| = 2g - 2 = 4094, 4096, 4098, 8190, 8192 and 8194, walked
# in g elements, so at g = 4097 the 2-torsion {0, g - 1} straddles two
# slices; the binary forms have the odd orders 4095, 4097 and 8193, the sums
# of U(N) up to 5 generators cover several slices, and U(2)^6 + <2> is all
# 2-torsion, 8192 elements that fill two slices
SLICE_EDGE_FORMS = {
    **{f"Lambda_{g}": lambda_lattice(g) for g in (2048, 2049, 2050, 4096, 4097, 4098)},
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


def test_int64_bound_of_lambda_g():
    # N * sum(orders) = (4g-4)(2g-2) = 8(g-1)^2 for Lambda_g, below 2^63
    # exactly while g-1 < 2^30
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
        next(over.half_walk())
    with pytest.raises(TooLarge):
        over.qn_at(np.zeros(1, dtype=np.int64))
    with pytest.raises(TooLarge):
        dim_cusp_df(over, HALF_21)


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


@settings(max_examples=60, deadline=None)
@given(strategies.pieces, st.integers(5, 10**6))
def test_snap_residual_is_small_on_random_forms(pieces, two_k):
    """The snapped float sits within 1e-9 of an integer, far inside
    SNAP_TOL; the report carries it, and `to_json` leaves it out."""
    rep = dim_cusp_df(discriminant_form(strategies.lattice_of(pieces)), Fraction(two_k, 2))
    assert 0 <= rep.snap_residual < 1e-9
    if not rep.parity_ok:
        assert rep.snap_residual == 0
    assert "snap_residual" not in rep.to_json()


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
