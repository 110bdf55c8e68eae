"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even on success.
"""

import cmath
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from nlrank import (
    discriminant_form,
    gauss_sum,
    jacobi,
    lambda_lattice,
    nl_label,
    picard_rank,
    picard_rank_via_cusp,
    projection_oracle,
    verify_relations,
    weil_rep_of,
)
from nlrank.errors import NegativeDiscriminant

from conftest import corpus_lattices
from oracles import jacobi_bruteforce


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, criterion


def test_criterion_1_integrality_to_5000():
    t0 = time.time()
    ok = True
    for g in range(2, 5001):
        rep = picard_rank(g)  # raises NonIntegerResult on any defect
        if rep.rank < 1:
            ok = False
            break
    elapsed = time.time() - t0
    _report(
        "1: picard_rank integer >= 1 for 2 <= g <= 5000 in < 10 s",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_cross_pipeline_2_to_30():
    t0 = time.time()
    mismatches = [
        g
        for g in range(2, 31)
        if picard_rank(g).rank != picard_rank_via_cusp(lambda_lattice(g))
    ]
    elapsed = time.time() - t0
    _report(
        "2: 1 + dim S_{21/2, Lambda_g} = picard_rank(g) for 2 <= g <= 30 in < 60 s",
        not mismatches and elapsed < 60.0,
        f"{elapsed:.2f}s, mismatches={mismatches}",
    )


def test_criterion_3_spot_values_with_oracle():
    # independent term-by-term oracle for the closed-form rank:
    #   g=2: alpha=0 (even), beta=(1/3)+(1/3)=2, fracsum={0/4}+{1/4}=1/4,
    #        sqcount=1 (k=0) -> 86/24 - 2/6 - 1/4 - 1 = 2
    #   g=3: alpha=(4/3)=1, beta=(2/7)+(2/3)=1-1=0, fracsum={0/8}+{1/8}+{4/8}=5/8,
    #        sqcount=1 -> 117/24 - 1/4 - 5/8 - 1 = 3
    oracle_2 = Fraction(31 * 2 + 24, 24) - Fraction(2, 6) - Fraction(1, 4) - 1
    oracle_3 = (
        Fraction(31 * 3 + 24, 24) - Fraction(1, 4) - Fraction(5, 8) - 1
    )
    ok = (
        oracle_2 == 2
        and oracle_3 == 3
        and picard_rank(2).rank == 2
        and picard_rank(3).rank == 3
    )
    _report("3: picard_rank(2) = 2 and picard_rank(3) = 3 vs hand oracle", ok)


def test_criterion_4_metaplectic_relations():
    worst = 0.0
    ok = True
    for name, lat in corpus_lattices().items():
        rep = verify_relations(weil_rep_of(lat), tol=1e-9)
        worst = max(
            worst, rep.maxErrS2Z, rep.maxErrST3, rep.maxErrTN, rep.maxErrUnitary
        )
        ok = ok and rep.passed
    _report("4: metaplectic relation suite < 1e-9 on corpus", ok, f"worst={worst:.2e}")


def test_criterion_5_milgram():
    worst = 0.0
    for lat in corpus_lattices().values():
        df = discriminant_form(lat)
        expected = math.sqrt(df.cardinality) * cmath.exp(
            2j * cmath.pi * df.sig_mod_8 / 8
        )
        worst = max(worst, abs(gauss_sum(df) - expected))
    _report("5: Milgram identity < 1e-9 on corpus", worst < 1e-9, f"worst={worst:.2e}")


def test_criterion_6_nl_projection_grid():
    checked = 0
    ok = True
    for g in range(2, 21):
        for d in range(-50, 51):
            for h in range(-50, 51):
                try:
                    lab = nl_label(g, h, d)
                except NegativeDiscriminant:
                    continue
                checked += 1
                if projection_oracle(g, h, d) != lab.n:
                    ok = False
    _report(
        "6: nl_label.n == projection_oracle on full grid",
        ok and checked > 0,
        f"{checked} labels",
    )


def test_criterion_7_jacobi_oracle():
    ok = all(
        jacobi(a, b) == jacobi_bruteforce(a, b)
        for b in range(1, 1000, 2)
        for a in range(b)
    )
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, a2 = rng.integers(-200, 201, size=2)
        b = 2 * int(rng.integers(0, 250)) + 1
        ok = ok and jacobi(int(a), b) * jacobi(int(a2), b) == jacobi(int(a) * int(a2), b)
    _report("7: jacobi matches brute-force oracle, multiplicative", ok)


def test_criterion_8_cli_determinism():
    cmd = [
        sys.executable,
        "-m",
        "nlrank.cli",
        "rank",
        "--from",
        "2",
        "--to",
        "100",
        "--format",
        "csv",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    threaded = subprocess.run(cmd + ["--jobs", "4"], capture_output=True, check=True).stdout
    _report(
        "8: rank CSV byte-identical across runs and thread counts",
        first == second == threaded and len(first) > 0,
    )
