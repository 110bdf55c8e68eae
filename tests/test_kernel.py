"""Oracle tests for the integer encoding of discriminant forms.

`DiscriminantForm.exponents`, `qn`, `neg_index` and `bn()` are compared
element by element with the exact `Fraction` reference `elements()`, `q()`
and `b()`; `q_histogram` and `two_torsion` with `qn` and `neg_index`; and
the consumers built on them (`gauss_sum`, `dim_cusp_df`) with per-element
`Fraction` walks over the same reference and with the element-by-element
`oracles.dim_cusp_df_elementwise`.
"""

import cmath
import math
from fractions import Fraction

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
    verify_relations,
)
from nlrank.lattices import DiscriminantForm

import strategies
from oracles import dim_cusp_df_elementwise

HALF_21 = Fraction(21, 2)


def _w(n):
    return make_lattice([[n]])


NON_CYCLIC = {
    "U(2)+U(6)": direct_sum(hyperbolic(2), hyperbolic(6)),
    "U(2)+<-24>+E8": direct_sum(hyperbolic(2), _w(-24), e8()),
    "U(2)^2+<-12>+(-E8)": direct_sum(hyperbolic(2), hyperbolic(2), _w(-12), e8(True)),
    "U(2)^3+<2>+(-E8)": direct_sum(
        hyperbolic(2), hyperbolic(2), hyperbolic(2), _w(2), e8(True)
    ),
}

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
    bn = df.bn()
    for arr in (df.exponents, df.qn, df.neg_index, bn):
        assert arr.dtype == np.int64
    assert df.exponents.shape == (d, df.ngens)
    assert [tuple(map(int, row)) for row in df.exponents] == elems
    index = {e: i for i, e in enumerate(elems)}
    _check_histogram(df)
    qn, neg_index = df.qn.tolist(), df.neg_index.tolist()
    for i, e in enumerate(elems):
        assert qn[i] == df.q(e) * n / 2 % n, e
        neg = tuple((-x) % m for x, m in zip(e, df.orders))
        assert neg_index[i] == index[neg], e
    rows, cols = pairs if pairs is not None else (range(d), range(d))
    assert bn.shape == (d, d)
    bn = bn.tolist()
    for i in rows:
        for j in cols:
            assert bn[i][j] == df.b(elems[i], elems[j]) * n, (elems[i], elems[j])


def _check_histogram(df):
    """`two_torsion` and `q_histogram` against `neg_index` and `qn`."""
    d = df.cardinality
    assert np.array_equal(df.two_torsion, np.flatnonzero(df.neg_index == np.arange(d)))
    values, counts = df.q_histogram
    assert counts.sum() == d
    assert [a.tolist() for a in np.unique(df.qn, return_counts=True)] == [
        values.tolist(),
        counts.tolist(),
    ]


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
    assert df.two_torsion.tolist() == [0]
    assert [a.tolist() for a in df.q_histogram] == [[0], [1]]
    assert df.bn().tolist() == [[0]]


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
        _check_histogram(df)
        assert _check_against_elementwise(df, weights) == {True, False}, g


@settings(max_examples=40, deadline=None)
@given(strategies.pieces)
def test_dim_matches_elementwise_oracle_on_random_forms(pieces):
    df = discriminant_form(strategies.lattice_of(pieces))
    assert _check_against_elementwise(df) == {True, False}


@settings(max_examples=40, deadline=None)
@given(strategies.pieces, st.data())
def test_kernel_matches_reference_on_random_forms(pieces, data):
    df = discriminant_form(strategies.lattice_of(pieces))
    d = df.cardinality
    assert d == math.prod(map(strategies.order, pieces))
    # every element against a few drawn partners keeps the b() calls linear
    cols = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=6))
    _check_kernel(df, pairs=(range(d), cols))
    assert np.array_equal(df.bn(), df.bn().T)
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
        assert np.max(np.abs(w.rhoZ - expected)) < 1e-15, name
        assert verify_relations(w).maxErrS2Z < 1e-12, name
