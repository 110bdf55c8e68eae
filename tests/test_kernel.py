"""Oracle tests for the integer encoding of discriminant forms.

`DiscriminantForm.exponents`, `qn`, `neg_index` and `bn()` are compared
element by element with the exact `Fraction` reference `elements()`, `q()`
and `b()`, and the consumers built on them (`gauss_sum`, `dim_cusp_df`)
with per-element `Fraction` walks over the same reference.
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
    make_lattice,
    verify_relations,
)
from nlrank.lattices import DiscriminantForm

import strategies

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
