import io
import random
import tracemalloc
from fractions import Fraction

import pytest

from nlrank import (
    dim_cusp,
    dim_cusp_df,
    direct_sum,
    discriminant_form,
    e8,
    hyperbolic,
    k3_lattice,
    lambda_lattice,
    make_lattice,
    picard_rank,
    picard_rank_via_cusp,
)
from nlrank.cli import dispatch
from nlrank.cuspdim import _cos, _cos_product, _sqrt2, _sqrt3
from nlrank.errors import BadSignature, HypothesisNotAsserted, WeightTooSmall
from nlrank.lattices import DiscriminantForm, Lattice

from oracles import times

HALF_21 = Fraction(21, 2)


def test_lambda_2_weight_21_halves():
    # oracle: the closed-form rank gives picard_rank(2) = 2, so the cusp
    # space must be 1-dimensional
    assert picard_rank(2).rank == 2
    assert dim_cusp(lambda_lattice(2), HALF_21).dim == 1


def test_lambda_3_weight_21_halves():
    assert picard_rank(3).rank == 3
    assert dim_cusp(lambda_lattice(3), HALF_21).dim == 2


def test_trivial_group_scalar_forms():
    # U + U + (-E8)^2 is unimodular: forms are classical scalar cusp forms
    lat = direct_sum(hyperbolic(), hyperbolic(), e8(True), e8(True))
    # classical dim S_k(SL_2(Z)) for even k
    classical = {4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 16: 1, 18: 1, 20: 1, 22: 1, 26: 1}
    for k, expected in classical.items():
        rep = dim_cusp(lat, Fraction(k))
        assert rep.parity_ok
        assert rep.dim == expected, k


def test_trivial_group_parity_flag():
    lat = direct_sum(hyperbolic(), hyperbolic(), e8(True), e8(True))
    rep = dim_cusp(lat, HALF_21)
    assert not rep.parity_ok
    assert rep.dim == 0


def test_weight_too_small():
    with pytest.raises(WeightTooSmall):
        dim_cusp(lambda_lattice(2), Fraction(3, 2))


def test_bad_weight():
    with pytest.raises(ValueError):
        dim_cusp(lambda_lattice(2), Fraction(10, 3))


def test_picard_rank_via_cusp_small():
    assert picard_rank_via_cusp(lambda_lattice(2)) == 2
    assert picard_rank_via_cusp(lambda_lattice(3)) == 3


def test_picard_rank_via_cusp_bad_signature():
    with pytest.raises(BadSignature):
        picard_rank_via_cusp(k3_lattice(), split_asserted=True)


def test_picard_rank_via_cusp_needs_hypothesis():
    lat = direct_sum(hyperbolic(), hyperbolic(2), e8(True), make_lattice([[-2]]))
    with pytest.raises(HypothesisNotAsserted):
        picard_rank_via_cusp(lat)
    assert picard_rank_via_cusp(lat, split_asserted=True) >= 1


def test_picard_rank_via_cusp_ignores_lambda_name():
    # one U block only: a Lambda_ name does not stand in for the splitting
    lat = direct_sum(hyperbolic(), hyperbolic(2), e8(True), make_lattice([[-2]]))
    with pytest.raises(HypothesisNotAsserted):
        picard_rank_via_cusp(Lattice(lat.gram, "Lambda_fake"))


def test_picard_rank_via_cusp_accepts_two_u_blocks_unnamed():
    lat = direct_sum(hyperbolic(), hyperbolic(), make_lattice([[-2]]), e8(True))
    assert lat.name is None
    assert picard_rank_via_cusp(lat) == picard_rank_via_cusp(lat, split_asserted=True) >= 1
    # Lambda_5 without its name is still accepted, with the same rank
    assert picard_rank_via_cusp(Lattice(lambda_lattice(5).gram)) == picard_rank(5).rank


def test_cross_pipeline_identity():
    for g in range(2, 1001):
        closed = picard_rank(g).rank
        via_cusp = picard_rank_via_cusp(lambda_lattice(g))
        assert closed == via_cusp, g


@pytest.mark.parametrize("g", [10**4, 3 * 10**4, 10**5])
def test_cross_pipeline_identity_large_genus(g):
    assert picard_rank_via_cusp(lambda_lattice(g)) == picard_rank(g).rank


def _term_mismatches(g):
    """The Riemann-Roch terms of Lambda_g at k = 21/2 that differ from the
    closed form's at g, as {name: (cusp side, closed form)}.  Each side
    computes the same rational and rounds it once, so == is exact.  The
    parabolic term is left out: it and the isotropic one can err by
    opposite amounts, as a zero count off by 2 does, and leave the rank
    that `crosscheck` compares unchanged."""
    terms = dim_cusp(lambda_lattice(g), HALF_21).boundary_terms
    rep = picard_rank(g)
    want = {
        "isotropic": -rep.sqcount,
        "elliptic_order4": -rep.alpha / 4,
        "elliptic_order6": -rep.beta / 6,
    }
    return {name: (terms[name], x) for name, x in want.items() if terms[name] != x}


def test_terms_match_closed_form_term_by_term():
    bad = {g: diff for g in range(2, 3001) if (diff := _term_mismatches(g))}
    assert not bad, dict(list(bad.items())[:5])


@pytest.mark.parametrize("g", sorted(random.Random(35).sample(range(10**6, 10**8 + 1), 3)))
def test_terms_match_closed_form_term_by_term_large_genus(g):
    assert _term_mismatches(g) == {}


def test_cos_product_is_the_product_of_two_cosines():
    for a in range(24):
        for b in range(24):
            assert _cos_product(a, b) == times(_cos(3 * a), _cos(3 * b)), (a, b)


def test_sqrt_maps_are_products_by_the_surds():
    rng = random.Random(35)
    for _ in range(500):
        x = tuple(rng.randint(-10**6, 10**6) for _ in range(4))
        assert _sqrt2(x) == times(x, (0, 1, 0, 0)), x
        assert _sqrt3(x) == times(x, (0, 0, 1, 0)), x


def test_stable_under_generator_reordering():
    # same finite quadratic module presented with permuted/rescaled
    # generators must give the same dimension
    df = discriminant_form(lambda_lattice(7))
    (d,) = df.orders
    for unit in (5, 7, 11):
        assert (unit * unit) % 2 == 1
        scaled = DiscriminantForm(
            orders=df.orders,
            sig_mod_8=df.sig_mod_8,
            gen_pairing=((df.gen_pairing[0][0] * unit * unit,),),
        )
        assert dim_cusp_df(scaled, HALF_21).dim == dim_cusp_df(df, HALF_21).dim


def test_monotone_in_weight_logged_only():
    # sanity walk over matching-parity weights; log, never assert
    violations = []
    last = -1
    for k in [HALF_21 + 2 * j for j in range(6)]:
        d = dim_cusp(lambda_lattice(4), k).dim
        if d < last:
            violations.append((k, d))
        last = d
    if violations:
        print(f"monotonicity violations (informational): {violations}")


def test_report_json():
    out = io.StringIO()
    assert dispatch(["dim", "--g", "2", "--format", "json"], out) == 0
    assert '"dim": 1' in out.getvalue()


def test_cusp_pipeline_memory_does_not_grow_with_the_group():
    # |A| = 2*10^6: one int64 value per element would alone take 16 MB
    g = 10**6
    lat = lambda_lattice(g)
    tracemalloc.start()
    try:
        rank = picard_rank_via_cusp(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert rank == picard_rank(g).rank


def test_dim_is_exact_at_huge_weights():
    # dim(k + 12t) = dim(k) + rank_pm * t: the main term grows by rank_pm * t
    # and every other term is periodic in k with period 12
    t = 10**20
    for g in range(2, 31):
        df = discriminant_form(lambda_lattice(g))
        for two_k in range(5, 28, 2):  # Lambda_g has odd signature
            k = Fraction(two_k, 2)
            rep, far = dim_cusp_df(df, k), dim_cusp_df(df, k + 12 * t)
            assert rep.parity_ok and far.parity_ok, (g, k)
            assert far.dim == rep.dim + rep.boundary_terms["rank_pm"] * t, (g, k)
