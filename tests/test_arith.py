import cmath
import math
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrank import (
    arith,
    discriminant_form,
    frac_square_sum,
    gauss_sum,
    jacobi,
    picard_rank,
    square_count,
)
from nlrank.errors import BadGenus, EvenDenominator, NonpositiveDenominator
from nlrank.lattices import make_lattice

from oracles import (
    FRAC_SUM_INT64_MAX_GENUS,
    frac_square_sum_int64,
    frac_square_sum_numerator,
    jacobi_bruteforce,
    square_count_bruteforce,
)


def test_jacobi_trivial_denominator():
    assert jacobi(5, 1) == 1
    assert jacobi(0, 1) == 1


def test_jacobi_small_values():
    # squares mod 7 are {1,2,4}; squares mod 3 are {1}
    assert jacobi(2, 7) == 1
    assert jacobi(2, 3) == -1


def test_jacobi_zero_and_negatives():
    assert jacobi(0, 3) == 0
    assert jacobi(-1, 3) == jacobi(2, 3)


def test_jacobi_errors():
    with pytest.raises(EvenDenominator):
        jacobi(3, 4)
    with pytest.raises(NonpositiveDenominator):
        jacobi(3, -5)


def test_jacobi_against_euler_oracle_primes():
    for b in [3, 5, 7, 11, 13, 97, 101, 997]:
        for a in range(b):
            assert jacobi(a, b) == jacobi_bruteforce(a, b), (a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.integers(1, 249),
)
def test_jacobi_multiplicative_in_numerator(a, a2, half_b):
    b = 2 * half_b + 1
    assert jacobi(a, b) * jacobi(a2, b) == jacobi(a * a2, b)


def test_frac_square_sum_small():
    assert frac_square_sum(2) == Fraction(1, 4)
    assert frac_square_sum(3) == Fraction(5, 8)


def test_frac_square_sum_matches_direct():
    for g in range(2, 60):
        m = 4 * g - 4
        direct = sum(Fraction(k * k, m) - (k * k) // m for k in range(g))
        assert frac_square_sum(g) == direct


def test_frac_square_sum_denominator_divides():
    for g in range(2, 100):
        assert (4 * g - 4) % frac_square_sum(g).denominator == 0


def test_square_count_small():
    assert square_count(2) == 1
    assert square_count(3) == 1
    assert square_count(5) == 2


def test_square_count_bound():
    for g in range(2, 200):
        assert 1 <= square_count(g) <= g


def _large_genera():
    """Seeded genera in [10^5, 3*10^6], and some with g-1 = t^2 or 36 t^2."""
    rng = random.Random(20261018)
    genera = [rng.randrange(10**5, 3 * 10**6) for _ in range(8)]
    genera += [t * t + 1 for t in (317, 1000, 1024, 1732)]
    genera += [36 * t * t + 1 for t in (53, 200, 288)]
    return genera


def test_square_count_against_brute_force():
    for g in range(2, 5001):
        assert square_count(g) == square_count_bruteforce(g), g
    for g in _large_genera():
        assert square_count(g) == square_count_bruteforce(g), g


@pytest.mark.parametrize(
    "g",
    [
        *(2**13, 2**13 + 1, 2 * 2**13 + 1),  # around the chunk boundaries
        *(2**16, 2**16 + 1, 2 * 2**16 + 1, 10**6, 10**6 + 1, 2 * 10**6),
    ],
)
def test_frac_square_sum_against_python_sum(g):
    assert frac_square_sum(g) == Fraction(frac_square_sum_numerator(g), 4 * g - 4)


def test_frac_square_sum_against_int64_oracle_every_small_genus():
    for g in range(2, 20001):
        assert frac_square_sum(g) == frac_square_sum_int64(g), g


def test_frac_square_sum_against_int64_oracle_seeded_genera():
    rng = random.Random(20261018)
    genera = [rng.randrange(20001, 10**7) for _ in range(12)]
    # one even and one odd highly composite g - 1, so m = 4g-4 has many divisors
    genera += [2 * 3 * 5 * 7 * 11 * 13 * 17 + 1, 3 * 5 * 7 * 11 * 13 * 17 + 1]
    for g in genera:
        assert frac_square_sum(g) == frac_square_sum_int64(g), g


def test_frac_square_sum_past_the_int64_bound():
    # the oracle's k*k overflows int64 here; the class-number form is exact
    # in Python integers, and the rank built on it must come out an integer
    g = FRAC_SUM_INT64_MAX_GENUS + 1
    assert (g - 2) ** 2 < 2**63 <= (g - 1) ** 2
    fs = picard_rank(g).fracsum
    assert 0 < fs < g and 24 % fs.denominator == 0


def test_one_factorization_per_genus():
    # frac_square_sum and square_count share the factorization of 4g-4
    arith._factor.cache_clear()
    for g in (7, 130, 10**6 + 1):
        picard_rank(g)
    info = arith._factor.cache_info()
    assert info.misses == 3


def _omega(m):
    """The number of distinct primes dividing m, by trial division."""
    count, p = 0, 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (m > 1)


def test_frac_square_sum_skips_divisors_2_mod_4(monkeypatch):
    # H(n) = 0 at n = 2 mod 4, which is every n = m/d with d even when
    # h = g - 1 is odd: those divisors are not asked for, and each genus
    # asks for 2^omega(m) values, or 2^(omega(m) - 1) for odd h
    calls, h6 = [], arith.h6

    def counted(n):
        calls.append(n)
        return h6(n)

    monkeypatch.setattr(arith, "h6", counted)
    want = 0
    for g in range(2, 3000):
        m = 4 * g - 4
        assert frac_square_sum(g) == frac_square_sum_int64(g), g
        want += 2 ** (_omega(m) - (g - 1) % 2)
    assert len(calls) == want
    assert all(n % 4 == 0 for n in calls)


def test_sieve_factorization_equals_trial_division(monkeypatch):
    monkeypatch.setattr(arith, "_spf", array("H"))  # no sieve: trial division
    arith._factor.cache_clear()
    want = [arith._factor(m) for m in range(1, 12000)]
    for limit in (2, 3, 1001, 3000, 12000):  # m whose odd part is past the sieve fall back
        arith._sieve(limit)
        assert len(arith._spf) == limit // 2
        arith._factor.cache_clear()
        assert [arith._factor(m) for m in range(1, 12000)] == want, limit
    arith._factor.cache_clear()


def test_bad_genus():
    with pytest.raises(BadGenus):
        frac_square_sum(1)
    with pytest.raises(BadGenus):
        square_count(0)


def test_gauss_sum_trivial_group():
    df = discriminant_form(make_lattice([[0, 1], [1, 0]]))
    assert gauss_sum(df) == 1


def test_gauss_sum_root_two():
    df = discriminant_form(make_lattice([[2]]))
    assert abs(gauss_sum(df) - (1 + 1j)) < 1e-12


def test_milgram_identity(corpus):
    for name, lat in corpus.items():
        df = discriminant_form(lat)
        expected = math.sqrt(df.cardinality) * cmath.exp(
            2j * cmath.pi * df.sig_mod_8 / 8
        )
        assert abs(gauss_sum(df) - expected) < 1e-9, name
