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
from nlrank.errors import BadSignature, HypothesisNotAsserted, WeightTooSmall
from nlrank.lattices import DiscriminantForm, Lattice

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


def test_stable_under_generator_reordering():
    # same finite quadratic module presented with permuted/rescaled
    # generators must give the same dimension
    df = discriminant_form(lambda_lattice(7))
    (d,) = df.orders
    (gen,) = df.generators
    for unit in (5, 7, 11):
        assert (unit * unit) % 2 == 1
        scaled = DiscriminantForm(
            orders=df.orders,
            generators=(tuple(unit * c for c in gen),),
            cardinality=df.cardinality,
            level=df.level,
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
    rep = dim_cusp(lambda_lattice(2), HALF_21)
    assert '"dim": 1' in rep.to_json()
