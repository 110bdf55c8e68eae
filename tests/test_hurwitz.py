import random
from array import array
from fractions import Fraction

import pytest

from nlrank import arith, hurwitz
from nlrank.rank import rank_table

from oracles import frac_square_sum_int64, h6_bruteforce, h6_table_by_slices


@pytest.fixture
def empty_table(monkeypatch):
    """A fresh, empty process-wide table for one test."""
    monkeypatch.setattr(hurwitz, "_table", array("i"))
    monkeypatch.setattr(hurwitz, "_debt", 0)


def _discriminants(lo, hi):
    return [n for n in range(lo, hi) if n % 4 in (0, 3)]


def test_known_values():
    # H(3) = 1/3, H(4) = 1/2, H(7) = 1, H(8) = 1, H(12) = 4/3, H(15) = 2, H(16) = 3/2
    for n, h in [(3, Fraction(1, 3)), (4, Fraction(1, 2)), (7, 1), (8, 1),
                 (12, Fraction(4, 3)), (15, 2), (16, Fraction(3, 2)), (23, 3)]:
        assert hurwitz.count_h6(n)[0] == 6 * h, n
    assert hurwitz.count_h6(5) == hurwitz.count_h6(6) == (0, 0)


def test_count_against_brute_force():
    for n in _discriminants(3, 1200):
        assert hurwitz.count_h6(n)[0] == h6_bruteforce(n), n


def test_table_and_count_agree_up_to_4096(empty_table):
    hurwitz._grow(4096)
    assert len(hurwitz._table) == 4096
    for n in range(1, 4096):
        want = hurwitz.count_h6(n)[0] if n % 4 in (0, 3) else 0
        assert hurwitz._table[n] == want, n


def test_table_and_count_agree_across_the_edge(empty_table):
    # grown twice, so the second fill adds only n in [2^14, 2^15) to the first
    hurwitz._grow(1 << 14)
    hurwitz._grow(1 << 15)
    rng = random.Random(7)
    edges = [1 << 14, 1 << 15]
    picks = [n for e in edges for n in range(e - 12, e + 12)]
    picks += [rng.randrange(3, 1 << 16) for _ in range(60)]
    for n in picks:
        if n % 4 not in (0, 3):
            continue
        counted = hurwitz.count_h6(n)[0]
        if n < len(hurwitz._table):
            assert hurwitz._table[n] == counted, n
        assert hurwitz.h6(n) == counted, n


def test_count_at_large_discriminants_against_brute_force():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randrange(10**5, 3 * 10**5) // 4 * 4 + rng.choice((0, 3))
        assert hurwitz.count_h6(n)[0] == h6_bruteforce(n), n


def test_table_grows_when_and_only_when_the_rule_says(empty_table, monkeypatch):
    n = 4 * 3 * 5 * 7 * 11 * 13  # past the empty table; a count takes many steps
    value, steps = hurwitz.count_h6(n)
    size = 1 << n.bit_length()
    cost = hurwitz.fill_writes(0, size)
    # a tiny exchange rate: the growth pays for itself after exactly 5 counts
    monkeypatch.setattr(hurwitz, "STEP_WRITES", Fraction(cost, 5 * steps))
    for done in range(1, 6):
        assert hurwitz.h6(n) == value
        assert (len(hurwitz._table), hurwitz._debt) == (0, done * steps)
    assert hurwitz.h6(n) == value
    assert (len(hurwitz._table), hurwitz._debt) == (size, 0)
    # at one write per step, a debt one step short of the next growth's cost
    # keeps the table's size, and the count that follows pays for it
    big = size + 3
    cost = hurwitz.fill_writes(size, 2 * size)
    monkeypatch.setattr(hurwitz, "STEP_WRITES", 1)
    hurwitz._debt = cost - 1
    assert hurwitz.h6(big) == hurwitz.count_h6(big)[0]
    assert (len(hurwitz._table), hurwitz._debt) == (size, cost - 1 + hurwitz.count_h6(big)[1])
    assert hurwitz.h6(big) == hurwitz._table[big]
    assert (len(hurwitz._table), hurwitz._debt) == (2 * size, 0)
    # a discriminant past MAX_SIZE never grows the table, whatever the debt
    monkeypatch.setattr(hurwitz, "MAX_SIZE", 2 * size)
    hurwitz._debt = 10**12
    huge = 2 * size + 3
    assert hurwitz.h6(huge) == hurwitz.count_h6(huge)[0]
    assert len(hurwitz._table) == 2 * size


def test_tile_fill_equals_the_slice_oracle(empty_table, monkeypatch):
    want = array("i")
    h6_table_by_slices(want, 1 << 16)
    hurwitz._grow(1 << 16)
    assert hurwitz._table == want
    # grown in steps, from non-empty tables to sizes that are not powers of
    # two, in windows that growth edges and tile starts fall inside
    monkeypatch.setattr(hurwitz, "WINDOW", 1000)
    for sizes in ([777, 20001, 1 << 16], [3, 4099, 50003, (1 << 16) - 1]):
        monkeypatch.setattr(hurwitz, "_table", array("i"))
        for size in sizes:
            hurwitz._grow(size)
            assert hurwitz._table == want[:size], size


@pytest.mark.parametrize("window, sizes", [(None, [(1 << 16) + 5]), (1000, [5003, 20011])])
def test_tile_fill_against_count_at_the_window_edges(empty_table, monkeypatch, window, sizes):
    if window is not None:
        monkeypatch.setattr(hurwitz, "WINDOW", window)
    edges, lo = set(), 0
    for size in sizes:
        hurwitz._grow(size)
        edges.update(range(lo, size, hurwitz.WINDOW))
        lo = size
    edges.add(lo)
    edges.update(4 * a * (a + 1) for a in range(1, 150))  # where each a's tile starts
    picks = {n for e in edges for n in range(e - 3, e + 4) if 3 <= n < lo}
    for n in sorted(picks):
        want = hurwitz.count_h6(n)[0] if n % 4 in (0, 3) else 0
        assert hurwitz._table[n] == want, n


def test_a_range_grows_the_table_once_and_counts_nothing(empty_table, monkeypatch):
    grown, counted = [], []
    grow, count = hurwitz._grow, hurwitz.count_h6
    monkeypatch.setattr(hurwitz, "_grow", lambda size: grown.append(size) or grow(size))
    monkeypatch.setattr(hurwitz, "count_h6", lambda n: counted.append(n) or count(n))
    monkeypatch.setattr(arith, "_spf", array("H"))
    rows = list(rank_table(2, 13800))
    assert grown == [4 * 13800 - 3]  # exactly up to the largest discriminant
    assert counted == []
    assert len(arith._spf) == 13800 // 2  # the odd numbers up to g_hi - 1
    assert [r.g for r in rows] == list(range(2, 13801))
    for g in (2, 3, 97, 2048, 9241, 13799, 13800):
        assert rows[g - 2].fracsum == frac_square_sum_int64(g), g


def test_a_short_or_high_range_keeps_the_table(empty_table):
    # past MAX_SIZE, and one genus whose counts cost less than the fill
    ranges = ((2 * 10**6, 2 * 10**6 + 2), (10**5, 10**5))
    for g_lo, g_hi in ranges:
        assert not hurwitz.reserve(4 * g_lo - 4, 4 * g_hi - 4)
        assert len(hurwitz._table) == 0
    hurwitz._grow(1 << 16)  # as a sweep to g = 16384 leaves it
    for g_lo, g_hi in ranges:
        list(rank_table(g_lo, g_hi))
        assert len(hurwitz._table) == 1 << 16
