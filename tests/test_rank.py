import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrank import alpha, beta, jacobi, picard_rank, rank_table
from nlrank import rank as rankmod
from nlrank.cli import dispatch
from nlrank.errors import BadGenus, BadRange, NonIntegerResult
from nlrank.rank import table_to_csv


def test_alpha_values():
    assert alpha(2) == 0
    assert alpha(3) == 1  # jacobi(4,3) = jacobi(1,3)
    assert alpha(5) == jacobi(8, 7) == 1


def test_beta_values():
    assert beta(2) == 2
    assert beta(3) == 0
    assert beta(4) == 0  # jacobi(3,11) - 1 = 1 - 1


def test_bad_genus():
    with pytest.raises(BadGenus):
        alpha(1)
    with pytest.raises(BadGenus):
        beta(0)


def test_rank_g2_breakdown():
    # hand evaluation: 86/24 - 0 - 2/6 - 1/4 - 1 = 2
    rep = picard_rank(2)
    assert rep.alpha == 0
    assert rep.beta == 2
    assert rep.fracsum == Fraction(1, 4)
    assert rep.sqcount == 1
    assert rep.rank == 2
    assert Fraction(86, 24) - Fraction(2, 6) - Fraction(1, 4) - 1 == 2


def test_rank_g3_breakdown():
    # hand evaluation: 117/24 - 1/4 - 0 - 5/8 - 1 = 3
    rep = picard_rank(3)
    assert rep.alpha == 1
    assert rep.beta == 0
    assert rep.fracsum == Fraction(5, 8)
    assert rep.sqcount == 1
    assert rep.rank == 3
    assert Fraction(117, 24) - Fraction(1, 4) - Fraction(5, 8) - 1 == 3


def test_rank_g4_integer():
    assert picard_rank(4).rank == 4


def test_integrality_sample():
    for g in range(2, 500):
        assert picard_rank(g).rank >= 1


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 2000))
def test_alpha_beta_ranges(g):
    assert alpha(g) in (-1, 0, 1)
    assert beta(g) in (-2, -1, 0, 1, 2)


def test_rank_table():
    reports = list(rank_table(2, 4))
    assert [r.g for r in reports] == [2, 3, 4]
    assert [r.rank for r in reports] == [2, 3, 4]
    assert next(rank_table(2, 2)).rank == 2


def test_rank_table_makes_each_row_when_read(monkeypatch):
    made = []
    exact = rankmod.picard_rank
    monkeypatch.setattr(rankmod, "picard_rank", lambda g: made.append(g) or exact(g))
    with pytest.raises(BadRange):
        rank_table(5, 2)
    rows = rank_table(2, 10**12)
    assert made == []
    assert [next(rows).rank, next(rows).rank] == [2, 3]
    assert made == [2, 3]


def test_rank_table_past_the_int64_bound():
    # g - 1 = 3_037_000_500, whose square is past int64
    (rep,) = rank_table(3_037_000_501, 3_037_000_501)
    assert rep.g == 3_037_000_501 and rep.rank >= 1


def test_rank_table_bad_range():
    with pytest.raises(BadRange):
        rank_table(5, 2)
    with pytest.raises(BadRange):
        rank_table(1, 3)


def test_csv_schema():
    text = table_to_csv(rank_table(2, 3))
    lines = text.strip().split("\n")
    assert lines[0] == "g,alpha,beta,fracsum_num,fracsum_den,sqcount,rank"
    assert lines[1] == "2,0,2,1,4,1,2"
    assert lines[2] == "3,1,0,5,8,1,3"


def test_non_integer_rank_raises(monkeypatch):
    true_rank = picard_rank(5).rank
    exact = rankmod.frac_square_sum

    def off_by_one_step(g):
        return exact(g) + Fraction(1, 4 * g - 4)

    monkeypatch.setattr(rankmod, "frac_square_sum", off_by_one_step)
    with pytest.raises(NonIntegerResult) as exc:
        picard_rank(5)
    assert str(exc.value) == f"rank formula gave {true_rank - Fraction(1, 16)} at g = 5"

    out, err = io.StringIO(), io.StringIO()
    assert dispatch(["rank", "--from", "5", "--to", "5"], out=out, err=err) == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: rank formula gave ")


def test_rank_below_one_raises(monkeypatch):
    true_rank = picard_rank(2).rank
    exact = rankmod.square_count
    monkeypatch.setattr(rankmod, "square_count", lambda g: exact(g) + true_rank)
    with pytest.raises(NonIntegerResult, match=r"^rank formula gave 0 at g = 2$"):
        picard_rank(2)
