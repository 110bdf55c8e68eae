import cmath
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from nlrank import (
    build_weil_rep,
    direct_sum,
    discriminant_form,
    gauss_sum,
    hyperbolic,
    lambda_lattice,
    make_lattice,
    traces,
    verify_relations,
    weil_rep_of,
)
from nlrank.errors import TooLarge


def test_trivial_group_matrices():
    w = weil_rep_of(hyperbolic())
    assert w.dimension == 1
    assert abs(w.rhoT[0, 0] - 1) < 1e-12
    assert abs(w.rhoS[0, 0] - 1) < 1e-12


def test_root_two_matrices():
    w = weil_rep_of(make_lattice([[2]]))
    expected_t = np.diag([1, 1j])
    assert np.max(np.abs(w.rhoT - expected_t)) < 1e-12
    phase = cmath.exp(-2j * cmath.pi / 8) / math.sqrt(2)
    expected_s = phase * np.array([[1, 1], [1, -1]])
    assert np.max(np.abs(w.rhoS - expected_s)) < 1e-12


def test_root_two_rho_z():
    w = weil_rep_of(make_lattice([[2]]))
    expected_z = cmath.exp(-2j * cmath.pi / 4) * np.eye(2)
    assert np.max(np.abs(w.rhoZ - expected_z)) < 1e-12


def test_group_cap():
    with pytest.raises(TooLarge):
        build_weil_rep(discriminant_form(make_lattice([[4]])), cap=3)


def test_relations_corpus(corpus):
    for name, lat in corpus.items():
        rep = verify_relations(weil_rep_of(lat), tol=1e-9)
        assert rep.passed, (name, rep)


def test_rho_s_symmetric(corpus):
    for lat in corpus.values():
        w = weil_rep_of(lat)
        assert np.max(np.abs(w.rhoS - w.rhoS.T)) < 1e-12


def test_unitarity(corpus):
    for lat in corpus.values():
        w = weil_rep_of(lat)
        err = np.max(np.abs(w.rhoS @ w.rhoS.conj().T - np.eye(w.dimension)))
        assert err < 1e-9


def test_trace_t_equals_gauss_sum(corpus):
    for name, lat in corpus.items():
        df = discriminant_form(lat)
        tr = traces(build_weil_rep(df))
        assert abs(tr.trT - gauss_sum(df)) < 1e-9, name


def test_traces_root_two():
    w = weil_rep_of(make_lattice([[2]]))
    tr = traces(w)
    assert abs(tr.trT - (1 + 1j)) < 1e-12
    assert tr.eigT_multiplicities == {Fraction(0): 1, Fraction(1, 4): 1}


def test_traces_trivial():
    tr = traces(weil_rep_of(hyperbolic()))
    assert abs(tr.trT - 1) < 1e-12
    assert tr.eigT_multiplicities == {Fraction(0): 1}


def test_rho_t_tensor_under_direct_sum():
    a = make_lattice([[2]])
    b = make_lattice([[-4]])
    wa = weil_rep_of(a)
    wb = weil_rep_of(b)
    ws = weil_rep_of(direct_sum(a, b))
    tensor = np.kron(np.diag(np.diag(wa.rhoT)), np.diag(np.diag(wb.rhoT)))
    got = sorted(np.round(np.diag(ws.rhoT), 9).tolist(), key=lambda z: (z.real, z.imag))
    want = sorted(np.round(np.diag(tensor), 9).tolist(), key=lambda z: (z.real, z.imag))
    assert got == want


def test_matrices_json_export():
    w = weil_rep_of(make_lattice([[2]]))
    obj = json.loads(w.matrices_json())
    assert set(obj) == {"rhoT", "rhoS", "rhoZ"}
    assert obj["rhoT"][1][1] == pytest.approx([0.0, 1.0])


def test_level_from_t_order(corpus):
    # rho(T)^N = 1 and no smaller positive power works
    for name, lat in corpus.items():
        w = weil_rep_of(lat)
        diag = np.diag(w.rhoT)
        n = w.level
        assert np.max(np.abs(diag**n - 1)) < 1e-9, name
        for m in range(1, n):
            if np.max(np.abs(diag**m - 1)) < 1e-9:
                pytest.fail(f"rho(T) has order {m} < level {n} for {name}")


def test_lambda_g_dimension_is_2g_minus_2():
    for g in (2, 5, 9):
        assert weil_rep_of(lambda_lattice(g)).dimension == 2 * g - 2


@pytest.mark.parametrize("where", ["diagonal", "order 2N", "off-diagonal"])
def test_relations_fail_on_a_perturbed_rho_t(where):
    w = weil_rep_of(lambda_lattice(9))
    assert verify_relations(w).passed
    rho_t = w.rhoT.copy()
    if where == "diagonal":
        rho_t[3, 3] *= np.exp(1e-6j)
    elif where == "order 2N":
        # a root of unity whose N-th power is -1
        rho_t[3, 3] *= np.exp(1j * np.pi / w.level)
    else:
        rho_t[3, 5] = 1e-6
    rep = verify_relations(dataclasses.replace(w, rhoT=rho_t))
    assert rep.maxErrTN > 1e-7
    assert not rep.passed


def test_trace_st_matches_dense_product():
    # <2>+<-2> has the non-cyclic group (Z/2)^2
    df = discriminant_form(direct_sum(make_lattice([[2]]), make_lattice([[-2]])))
    assert df.ngens == 2
    w = build_weil_rep(df)
    assert abs(traces(w).trST - np.trace(w.rhoS @ w.rhoT)) < 1e-12
    # and for a rhoT that is not diagonal, next to an S that is not symmetric
    rng = np.random.default_rng(5)
    dense_s, dense_t = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    np.fill_diagonal(dense_t, np.diag(w.rhoT))
    tr = traces(dataclasses.replace(w, rhoS=dense_s, rhoT=dense_t))
    assert abs(tr.trST - np.trace(dense_s @ dense_t)) < 1e-12
