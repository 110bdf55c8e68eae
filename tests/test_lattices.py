from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrank import (
    catalog,
    direct_sum,
    discriminant_form,
    e8,
    hyperbolic,
    k3_lattice,
    lambda_lattice,
    make_lattice,
    signature,
    smith_normal_form,
)
from nlrank.errors import BadGenus, BadScale, Degenerate, NotEven, NotSymmetric
from nlrank.lattices import Lattice, Signature

from oracles import b, q


def test_make_lattice_u():
    lat = make_lattice([[0, 1], [1, 0]])
    assert lat.rank == 2
    assert lat.det() == -1


def test_make_lattice_rank_one():
    assert make_lattice([[2]]).rank == 1


def test_make_lattice_rejects_odd_diagonal():
    with pytest.raises(NotEven):
        make_lattice([[1]])


def test_make_lattice_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        make_lattice([[0, 1], [2, 0]])


def test_make_lattice_rejects_degenerate():
    with pytest.raises(Degenerate):
        make_lattice([[2, 2], [2, 2]])


def test_make_lattice_rejects_a_singular_block_behind_a_nonsingular_one():
    # U + [[2, 2], [2, 2]]: the U block is nondegenerate, the second is not
    gram = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]]
    with pytest.raises(Degenerate, match="singular"):
        make_lattice(gram)


def test_catalog_k3():
    lat = k3_lattice()
    assert lat.rank == 22
    assert lat.det() == -1
    assert signature(lat) == Signature(3, 19)


def test_catalog_lambda_2():
    lat = lambda_lattice(2)
    assert lat.rank == 21
    assert abs(lat.det()) == 2


def test_catalog_u2():
    assert hyperbolic(2).gram == ((0, 2), (2, 0))


def test_catalog_errors():
    with pytest.raises(BadGenus):
        lambda_lattice(1)
    with pytest.raises(BadScale):
        hyperbolic(0)


def test_catalog_dispatch():
    assert catalog("Lambda_g", g=4).name == "Lambda_4"
    assert catalog("U").gram == ((0, 1), (1, 0))
    assert catalog("minusE8").gram[0][0] == -2


def test_catalog_u_reads_no_scale():
    # only U(N) reads the scale, as only Lambda_g reads the genus
    assert catalog("U", scale=5) is hyperbolic()
    assert catalog("U(N)", scale=5).name == "U(5)"


def test_e8_is_unimodular_even_positive():
    lat = e8()
    assert lat.det() == 1
    assert signature(lat) == Signature(8, 0)


def test_direct_sum_signature_and_det():
    u = hyperbolic()
    assert signature(direct_sum(u, u)) == Signature(2, 2)
    s = direct_sum(make_lattice([[2]]), make_lattice([[-2]]))
    assert s.det() == -4


def test_signature_u():
    assert signature(hyperbolic()) == Signature(1, 1)


def test_signature_lambda_3():
    assert signature(lambda_lattice(3)) == Signature(2, 19)


def test_signature_of_degenerate_lattice_raises_degenerate():
    # Lattice(...) skips make_lattice's validation, so signature sees these
    for gram in (((0, 0), (0, 0)), ((2, 2), (2, 2)), ((0, 1, 0), (1, 0, 0), (0, 0, 0))):
        with pytest.raises(Degenerate):
            signature(Lattice(gram))


def _det(m) -> Fraction:
    """Determinant of a square matrix by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for t in range(n):
        piv = next((i for i in range(t, n) if a[i][t]), None)
        if piv is None:
            return Fraction(0)
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, n):
            f = a[i][t] / a[t][t]
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return det


def test_smith_normal_form_transforms():
    # U G V = D holds for some unimodular U exactly when V is unimodular and
    # G V D^-1, which is then U^-1, is integral and unimodular
    gram = lambda_lattice(5).gram
    divisors, v = smith_normal_form(gram)
    n = len(gram)
    assert abs(_det(v)) == 1
    u_inv = [
        [Fraction(sum(gram[i][b] * v[b][j] for b in range(n)), divisors[j]) for j in range(n)]
        for i in range(n)
    ]
    assert all(x.denominator == 1 for row in u_inv for x in row)
    assert abs(_det(u_inv)) == 1
    for i in range(n - 1):
        assert divisors[i + 1] % divisors[i] == 0


def test_discriminant_form_u_trivial():
    df = discriminant_form(hyperbolic())
    assert df.orders == ()
    assert df.cardinality == 1
    assert df.level == 1


@pytest.mark.parametrize("g", [2, 3, 5, 10])
def test_discriminant_form_lambda_g_cyclic(g):
    df = discriminant_form(lambda_lattice(g))
    assert df.orders == (2 * g - 2,)
    # the canonical generator w/(2g-2) has q = -1/(2g-2) mod 2; whichever
    # unit multiple the SNF picked, that value is attained on the group
    qs = {q(df, (a,)) for a in range(2 * g - 2)}
    target = Fraction(-1, 2 * g - 2) % 2
    assert target in qs


def test_discriminant_form_root_two():
    df = discriminant_form(make_lattice([[2]]))
    assert df.orders == (2,)
    assert q(df, (1,)) == Fraction(1, 2)
    assert df.level == 4


def test_cardinality_matches_det(corpus):
    # det() is read from the signature and the discriminant form, so the
    # oracle is the Gram matrix's determinant in floating point
    for lat in corpus.values():
        df = discriminant_form(lat)
        assert df.cardinality == abs(lat.det())
        assert lat.det() == round(np.linalg.det(np.array(lat.gram, dtype=float)))


def test_quadratic_form_polarization(corpus):
    # q(x+y) - q(x) - q(y) = 2 b(x,y) mod 2
    df = discriminant_form(lambda_lattice(6))
    elems = list(df.elements())
    for x in elems:
        for y in elems:
            s = tuple((a + b) % d for a, b, d in zip(x, y, df.orders))
            lhs = (q(df, s) - q(df, x) - q(df, y)) % 2
            assert lhs == (2 * b(df, x, y)) % 2


def test_level_definition(corpus):
    # least N with N*q(gamma) in 2Z over the whole group, and sanity bound
    for lat in corpus.values():
        df = discriminant_form(lat)
        n = df.level
        exponent = 1
        for d in df.orders:
            exponent = max(exponent, d)
        assert n <= 2 * df.cardinality * exponent
        for e in df.elements():
            assert (n * q(df, e)) % 2 == 0
        if n > 1:
            for m in range(1, n):
                if any((m * q(df, e)) % 2 != 0 for e in df.elements()):
                    continue
                pytest.fail(f"level {n} not minimal; {m} works for {lat.name}")


def test_disc_form_of_direct_sum_is_orthogonal_sum():
    a = make_lattice([[2]])
    b = make_lattice([[-4]])
    dfa = discriminant_form(a)
    dfb = discriminant_form(b)
    dfs = discriminant_form(direct_sum(a, b))
    assert sorted(dfs.orders) == sorted(dfa.orders + dfb.orders)
    qs_sum = sorted(
        (q(dfa, x) + q(dfb, y)) % 2
        for x in dfa.elements()
        for y in dfb.elements()
    )
    assert qs_sum == sorted(q(dfs, e) for e in dfs.elements())


def _unimodular(entries, n):
    """Build a unimodular matrix as a product of elementary shears."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(n):
            if i != j:
                c = next(it)
                for k in range(n):
                    m[i][k] += c * m[j][k]
    return m


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_signature_invariant_under_unimodular_change(entries):
    lat = make_lattice([[2, 1, 0], [1, -2, 1], [0, 1, 4]])
    p = _unimodular(entries, 3)
    n = 3
    g2 = [
        [
            sum(p[a][i] * lat.gram[a][b] * p[b][j] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert signature(make_lattice(g2)) == signature(lat)

