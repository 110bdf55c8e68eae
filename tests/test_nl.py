import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrank import enumerate_nl, nl_label, projection_oracle
from nlrank.errors import BadGenus, NegativeDiscriminant
from nlrank.nl import iter_nl, labels_to_csv
from oracles import enumerate_nl_grid


def test_label_g2_h0_d1():
    lab = nl_label(2, 0, 1)
    assert lab.delta == 5
    assert lab.n == Fraction(-5, 4)
    assert lab.gamma == 1
    assert not lab.degenerate


def test_label_degenerate():
    lab = nl_label(3, 3, 4)
    assert lab.delta == 0
    assert lab.degenerate
    assert lab.n == 0


def test_label_negative_discriminant():
    with pytest.raises(NegativeDiscriminant):
        nl_label(2, 3, 1)


def test_label_bad_genus():
    with pytest.raises(BadGenus):
        nl_label(1, 0, 0)


def test_oracle_examples():
    assert projection_oracle(2, 0, 1) == Fraction(-5, 4)
    assert projection_oracle(3, 3, 4) == 0
    for g in (2, 5, 9):
        for h in range(-3, 4):
            assert projection_oracle(g, h, 0) == h - 1


def test_oracle_matches_label_on_grid():
    for g in range(2, 8):
        for d in range(-12, 13):
            for h in range(-12, 13):
                try:
                    lab = nl_label(g, h, d)
                except NegativeDiscriminant:
                    continue
                assert projection_oracle(g, h, d) == lab.n, (g, h, d)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 50), st.integers(-100, 100), st.integers(-100, 100))
def test_gamma_congruence_and_denominator(g, h, d):
    try:
        lab = nl_label(g, h, d)
    except NegativeDiscriminant:
        return
    assert lab.gamma == d % (2 * g - 2)
    assert (lab.n * (4 * g - 4)).denominator == 1
    try:
        shifted = nl_label(g, h, d + (2 * g - 2))
    except NegativeDiscriminant:
        return
    assert shifted.gamma == lab.gamma


def test_enumerate_g2():
    labels = enumerate_nl(2, 1, 0)
    assert [(lab.h, lab.d, lab.delta) for lab in labels] == [(0, 1, 5), (0, 0, 4)]


def test_enumerate_single():
    assert len(enumerate_nl(2, 0, 0)) == 1


def test_enumerate_degenerate_included():
    labels = enumerate_nl(5, 0, 2)
    deltas = {(lab.h, lab.delta) for lab in labels}
    assert (0, 16) in deltas
    assert (1, 0) in deltas
    assert all(lab.h != 2 for lab in labels)


def _outcome(labels, g, d_max, h_max):
    try:
        return list(labels(g, d_max, h_max))
    except (BadGenus, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(-2, 60), st.integers(-1, 40), st.integers(-1, 40))
def test_merged_runs_equal_the_sorted_grid(g, d_max, h_max):
    """The stream of merged runs equals the full grid's try/except and sort,
    bad genera and negative bounds included."""
    assert _outcome(iter_nl, g, d_max, h_max) == _outcome(enumerate_nl_grid, g, d_max, h_max)


def test_stream_checks_its_arguments_before_the_first_label():
    # a grid of 10^8 rows: the error comes at the call, with nothing built
    with pytest.raises(BadGenus, match="genus must be >= 2, got 1"):
        iter_nl(1, 0, 10**8)
    with pytest.raises(ValueError, match="grid bounds must be nonnegative"):
        iter_nl(2, -1, 10**8)


def test_huge_h_bound_ends_at_the_first_empty_run():
    # d <= 3 leaves no valid d past h = 3, whatever h_max is
    start = time.perf_counter()
    labels = enumerate_nl(2, 3, 10**8)
    assert time.perf_counter() - start < 1
    assert len(labels) == 11
    assert labels == enumerate_nl_grid(2, 3, 3)


def test_first_label_comes_before_the_later_runs_are_opened():
    # all 10^8 + 1 runs hold valid labels (d_max^2 = 4*10^8 >= 4(h - 1)),
    # but the first label, of run 0, is due before any other run starts
    start = time.perf_counter()
    tracemalloc.start()
    try:
        first = next(iter_nl(2, 20000, 10**8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 2**20, peak
    assert first == nl_label(2, 0, 20000)


def test_csv_schema():
    text = labels_to_csv(enumerate_nl(2, 1, 0))
    lines = text.strip().split("\n")
    assert lines[0] == "g,h,d,delta,n_num,n_den,gamma,degenerate"
    assert lines[1] == "2,0,1,5,-5,4,1,0"


CATALOG_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "nl_catalog.py"


def _run_catalog_optimized(wrong_oracle):
    """Run scripts/nl_catalog.py 2 20 20 under `python -O`, where assert is a no-op.

    With wrong_oracle, nlrank.projection_oracle is replaced by one that is
    off by one before the script imports it.
    """
    script = str(CATALOG_SCRIPT)
    code = "\n".join([
        "import runpy, sys, nlrank",
        "if not sys.flags.optimize: sys.exit(3)",
        "real = nlrank.projection_oracle",
        "nlrank.projection_oracle = lambda g, h, d: real(g, h, d) + 1" if wrong_oracle else "",
        f"sys.argv = [{script!r}, '2', '20', '20']",
        f"runpy.run_path({script!r}, run_name='__main__')",
    ])
    src = str(CATALOG_SCRIPT.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_catalog_script_fails_on_oracle_mismatch_under_optimize():
    bad = _run_catalog_optimized(wrong_oracle=True)
    assert bad.returncode == 1, bad.stderr
    assert bad.stdout == ""
    assert "projection oracle gives" in bad.stderr
    good = _run_catalog_optimized(wrong_oracle=False)
    assert good.returncode == 0, good.stderr
    assert good.stdout.startswith("g,h,d,")
    assert good.stderr == ""
