"""The Weil representation's operators, against the dense oracle matrices.

Each operator's matrix is built by applying it to the identity
(`oracles.operator_matrix`); `oracles.dense_weil` builds the same three
matrices entry by entry from the pairing.
"""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from nlrank import (
    DiscriminantForm,
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
from nlrank.weil import MATMUL_MAX_ORDER, WeilRep, _probes
import strategies
from oracles import (
    apply_s_fftn,
    dense_weil,
    operator_matrix,
    probes_reference,
    relations_pass_st3,
)
from strategies import NON_CYCLIC


def _fresh_copy(df):
    """An equal form that holds none of `df`'s cached members."""
    return DiscriminantForm(df.orders, df.sig_mod_8, df.gen_pairing)


def _matrices(w):
    """rho(T), rho(S), rho(Z) of the operators, as d x d matrices."""
    d = w.dimension
    return tuple(operator_matrix(f, d) for f in (w.apply_t, w.apply_s, w.apply_z))


def test_trivial_group_matrices():
    w = weil_rep_of(hyperbolic())
    assert w.dimension == 1
    rho_t, rho_s, _ = _matrices(w)
    assert abs(rho_t[0, 0] - 1) < 1e-12
    assert abs(rho_s[0, 0] - 1) < 1e-12


def test_root_two_matrices():
    rho_t, rho_s, _ = _matrices(weil_rep_of(make_lattice([[2]])))
    expected_t = np.diag([1, 1j])
    assert np.max(np.abs(rho_t - expected_t)) < 1e-12
    phase = cmath.exp(-2j * cmath.pi / 8) / math.sqrt(2)
    expected_s = phase * np.array([[1, 1], [1, -1]])
    assert np.max(np.abs(rho_s - expected_s)) < 1e-12


def test_root_two_rho_z():
    _, _, rho_z = _matrices(weil_rep_of(make_lattice([[2]])))
    expected_z = cmath.exp(-2j * cmath.pi / 4) * np.eye(2)
    assert np.max(np.abs(rho_z - expected_z)) < 1e-12


def _check_against_dense(df):
    """Every entry of the operators' matrices within 1e-12 of the oracle's."""
    assert df.cardinality <= 400
    w = build_weil_rep(df)
    for got, want in zip(_matrices(w), dense_weil(df)):
        assert np.max(np.abs(got - want)) < 1e-12


def test_operators_match_dense_oracle(corpus):
    # <4>+<6> has orders (4, 6), which do not divide each other; the two
    # rank-two blocks are cyclic, of orders 7 and 21, with xi(gamma) = m*gamma
    # for m = 2 and 19, where every <2n> and Lambda_g has m = +-1
    forms = [*corpus.values(), *NON_CYCLIC.values()]
    forms.append(direct_sum(make_lattice([[4]]), make_lattice([[6]])))
    forms += [make_lattice([[2, 1], [1, 4]]), make_lattice([[2, 5], [5, 2]])]
    forms += [lambda_lattice(g) for g in (50, 100, 150, 200, 201)]
    for lat in forms:
        _check_against_dense(discriminant_form(lat))


@settings(max_examples=40, deadline=None)
@given(strategies.dense_pieces)
def test_operators_match_dense_oracle_on_random_forms(pieces):
    _check_against_dense(discriminant_form(strategies.lattice_of(pieces)))


def _check_against_fftn(df):
    """rho(S) on the probe vectors (four random, three basis), as one block
    of columns and as a single vector, within 1e-12 * |v| of the fftn
    oracle."""
    w = build_weil_rep(df)
    v = _probes(w.dimension).T
    got, want = w.apply_s(v), apply_s_fftn(w, v)
    assert got.shape == want.shape == v.shape
    err = np.max(np.abs(got - want), axis=0)
    assert np.all(err <= 1e-12 * np.linalg.norm(v, axis=0)), (df.orders, err)
    u = v[:, 0]
    assert np.max(np.abs(w.apply_s(u) - apply_s_fftn(w, u))) <= 1e-12 * np.linalg.norm(u)


def test_apply_s_matches_fftn_on_the_corpus(corpus):
    for lat in [*corpus.values(), *NON_CYCLIC.values()]:
        _check_against_fftn(discriminant_form(lat))


@settings(max_examples=40, deadline=None)
@given(strategies.pieces)
def test_apply_s_matches_fftn_on_random_forms(pieces):
    _check_against_fftn(discriminant_form(strategies.lattice_of(pieces)))


@pytest.mark.parametrize(
    "n", [6, 7, 19, 20, 21, MATMUL_MAX_ORDER - 1, MATMUL_MAX_ORDER, MATMUL_MAX_ORDER + 1]
)
def test_apply_s_matches_fftn_at_the_threshold(n):
    # U(N) has A = (Z/N)^2: two matrix products up to the threshold, two FFTs
    # past it, and at N = 6, where N^2 = 36 is within it, one product of
    # the two factors' Kronecker product (one run); N = 19..21 straddle the
    # threshold of 20 the matrix path had before it was raised, and stay as
    # cases below the present one
    df = discriminant_form(hyperbolic(n))
    assert df.orders == (n, n)
    w = build_weil_rep(df)
    assert len(w.dft_matrices) == (n <= MATMUL_MAX_ORDER)
    assert [size for size, _ in w.runs] == ([n * n] if n * n <= MATMUL_MAX_ORDER else [n, n])
    _check_against_fftn(df)


@pytest.mark.parametrize("k, n", [(1, 50), (2, 20), (2, 3), (1, 10), (3, 40)])
def test_apply_s_matches_fftn_on_mixed_factors(k, n):
    # U(2)^k + <2N>: k pairs of order 2 on the matrix path and one factor of
    # order 2N, past the threshold except at N = 3 and 10
    df = discriminant_form(direct_sum(*[hyperbolic(2)] * k, make_lattice([[2 * n]])))
    assert df.orders == (2,) * (2 * k) + (2 * n,)
    assert (2 * n in build_weil_rep(df).dft_matrices) == (2 * n <= MATMUL_MAX_ORDER)
    _check_against_fftn(df)


def test_seven_factors_of_order_two_build_one_matrix():
    # a fresh copy of the form, whose `roots` is wrapped to count the reads
    df = _fresh_copy(discriminant_form(NON_CYCLIC["U(2)^3+<2>+(-E8)"]))
    w = build_weil_rep(df)
    assert df.orders == (2,) * 7
    roots, reads = df.roots, []
    df.__dict__["roots"] = lambda v: reads.append(v.shape) or roots(v)
    mats = w.dft_matrices
    assert reads == [(2,)]
    assert list(mats) == [2]
    assert np.max(np.abs(mats[2] - np.array([[1, 1], [1, -1]]))) < 1e-15
    verify_relations(w)
    assert w.dft_matrices is mats
    # its two runs, of 2^5 and 2^2 factors, read no fresh roots
    assert [size for size, _ in w.runs] == [32, 4]
    assert reads == [(2,)]


def test_build_rejects_orders_the_pairing_does_not_fit():
    # <4> has A = Z/4 with b(g, g) = 1/4; as Z/2, b(g, g) * 2 is not integral
    df = discriminant_form(make_lattice([[4]]))
    wrong = DiscriminantForm((2,), df.sig_mod_8, df.gen_pairing)
    with pytest.raises(ValueError, match="not integral"):
        build_weil_rep(wrong)


def test_relations_corpus(corpus):
    for name, lat in corpus.items():
        rep = verify_relations(weil_rep_of(lat), tol=1e-9)
        assert rep.passed, (name, rep)


def test_rho_s_symmetric(corpus):
    for lat in corpus.values():
        _, rho_s, _ = _matrices(weil_rep_of(lat))
        assert np.max(np.abs(rho_s - rho_s.T)) < 1e-12


def test_unitarity(corpus):
    for lat in corpus.values():
        w = weil_rep_of(lat)
        _, rho_s, _ = _matrices(w)
        err = np.max(np.abs(rho_s @ rho_s.conj().T - np.eye(w.dimension)))
        assert err < 1e-9


def test_trace_t_equals_gauss_sum(corpus):
    for name, lat in corpus.items():
        df = discriminant_form(lat)
        tr = traces(build_weil_rep(df))
        assert abs(tr.trT - gauss_sum(df)) < 1e-9, name


def test_eig_t_multiplicities_are_the_q_histogram(corpus):
    """The eigenvalue content of rho(T) is exact: e(k/N) occurs as often as
    N*q/2 = k mod N does."""
    for name, lat in corpus.items():
        df = discriminant_form(lat)
        tr = traces(build_weil_rep(df))
        values, counts = np.unique(df.qn, return_counts=True)
        want = dict(zip(values.tolist(), counts.tolist()))
        assert tr.level == df.level, name
        assert tr.eigT_multiplicities == want, name


def test_eig_t_multiplicities_match_unique(corpus):
    # the histogram of rho(T)'s own diagonal, read in floats without `qn`:
    # each entry t of `t_diag` is keyed by round(N*angle(t)/2pi) mod N,
    # keys ascending as np.unique returns them
    for name, lat in [*corpus.items(), *NON_CYCLIC.items()]:
        w = weil_rep_of(lat)
        n = w.level
        angles = np.rint(np.angle(w.t_diag) * (n / (2 * np.pi))).astype(np.int64) % n
        keys, counts = np.unique(angles, return_counts=True)
        got = traces(w).eigT_multiplicities
        assert list(got.items()) == list(zip(keys.tolist(), counts.tolist())), name


def test_traces_root_two():
    w = weil_rep_of(make_lattice([[2]]))
    tr = traces(w)
    assert abs(tr.trT - (1 + 1j)) < 1e-12
    assert tr.level == 4
    assert tr.eigT_multiplicities == {0: 1, 1: 1}


def test_traces_trivial():
    tr = traces(weil_rep_of(hyperbolic()))
    assert abs(tr.trT - 1) < 1e-12
    assert tr.level == 1
    assert tr.eigT_multiplicities == {0: 1}


def test_rho_t_tensor_under_direct_sum():
    a = make_lattice([[2]])
    b = make_lattice([[-4]])
    (ta, _, _), (tb, _, _) = _matrices(weil_rep_of(a)), _matrices(weil_rep_of(b))
    ts, _, _ = _matrices(weil_rep_of(direct_sum(a, b)))
    tensor = np.kron(ta, tb)
    got = sorted(np.round(np.diag(ts), 9).tolist(), key=lambda z: (z.real, z.imag))
    want = sorted(np.round(np.diag(tensor), 9).tolist(), key=lambda z: (z.real, z.imag))
    assert got == want


def test_level_from_t_order(corpus):
    # rho(T)^N = 1 and no smaller positive power works
    for name, lat in corpus.items():
        w = weil_rep_of(lat)
        rho_t, _, _ = _matrices(w)
        assert np.array_equal(rho_t, np.diag(np.diag(rho_t))), name
        diag = np.diag(rho_t)
        n = w.level
        assert np.max(np.abs(diag**n - 1)) < 1e-9, name
        for m in range(1, n):
            if np.max(np.abs(diag**m - 1)) < 1e-9:
                pytest.fail(f"rho(T) has order {m} < level {n} for {name}")


def test_lambda_g_dimension_is_2g_minus_2():
    for g in (2, 5, 9):
        assert weil_rep_of(lambda_lattice(g)).dimension == 2 * g - 2


# Lambda_2000 has level N = 7996: the T^N check must not weaken as N grows
PERTURBED_T = [
    pytest.param(9, "diagonal", id="diagonal"),
    pytest.param(9, "order 2N", id="order 2N"),
    pytest.param(2000, "diagonal", id="Lambda_2000-diagonal"),
    pytest.param(2000, "order 2N", id="Lambda_2000-order 2N"),
    pytest.param(9, "another root", id="another root"),
]


@pytest.mark.parametrize("g, where", PERTURBED_T)
def test_relations_fail_on_a_perturbed_rho_t(g, where):
    w = weil_rep_of(lambda_lattice(g))
    assert verify_relations(w).passed
    t_diag = w.t_diag.copy()
    if where == "diagonal":
        t_diag[3] *= np.exp(1e-6j)
    elif where == "order 2N":
        # a root of unity whose N-th power is -1
        t_diag[3] *= np.exp(1j * np.pi / w.level)
    else:
        # still an N-th root of unity, but not e(q(gamma)/2)
        t_diag[3] *= np.exp(2j * np.pi / w.level)
    rep = verify_relations(dataclasses.replace(w, t_diag=t_diag))
    assert rep.maxErrTN > 1e-7
    assert not rep.passed


def test_t_order_residual_does_not_grow_with_level():
    # the rounding error of an N-th power of the diagonal is ~7e-12 at this level
    rep = verify_relations(weil_rep_of(lambda_lattice(2000)))
    assert rep.level == 7996
    assert rep.maxErrTN < 1e-13


WRONG_XI = {"Lambda_9": lambda_lattice(9), "U(2)+U(6)": NON_CYCLIC["U(2)+U(6)"]}


@pytest.mark.parametrize("name", sorted(WRONG_XI))
def test_relations_fail_on_a_wrong_xi_index(name):
    w = weil_rep_of(WRONG_XI[name])
    assert verify_relations(w).passed
    xi = w.xi.copy()
    xi[[3, 5]] = xi[[5, 3]]
    assert not verify_relations(dataclasses.replace(w, xi=xi)).passed


def test_relations_fail_on_a_wrong_rho_z_phase():
    w = weil_rep_of(lambda_lattice(9))
    assert verify_relations(w).passed
    # e(+sig/4), the phase of the dual representation; sig = 7 mod 8
    wrong = w.z_phase.conjugate()
    assert abs(wrong - w.z_phase) > 1
    rep = verify_relations(dataclasses.replace(w, z_phase=wrong))
    assert rep.maxErrS2Z > 1e-7
    assert not rep.passed


def test_trace_st_matches_dense_product(corpus):
    # <2>+<-2> has the non-cyclic group (Z/2)^2
    forms = {**corpus, **NON_CYCLIC}
    assert discriminant_form(forms["<2>+<-2>"]).ngens == 2
    for name, lat in forms.items():
        w = weil_rep_of(lat)
        rho_t, rho_s, _ = _matrices(w)
        tr = traces(w)
        assert abs(tr.trS - np.trace(rho_s)) < 1e-12, name
        assert abs(tr.trST - np.trace(rho_s @ rho_t)) < 1e-12, name


@pytest.mark.parametrize("d", [1, 2, 3, 58, 128, 400, 4096, 199998])
def test_probes_are_the_reference_bits(d):
    got, want = _probes(d), np.ascontiguousarray(probes_reference(d).T)
    assert got.dtype == want.dtype and got.shape == want.shape == (7, d)
    assert got.tobytes() == want.tobytes()


def _conjugate_a_dft_matrix(w):
    mats = dict(w.dft_matrices)
    d = max(mats)
    mats[d] = mats[d].conj()
    w.__dict__["dft_matrices"] = mats
    return w


def _move_a_t_entry(w):
    t_diag = w.t_diag.copy()
    t_diag[3 % w.dimension] *= np.exp(2j * np.pi / w.level)
    return dataclasses.replace(w, t_diag=t_diag)


def _swap_two_xi_entries(w):
    xi = w.xi.copy()
    xi[[3, 5]] = xi[[5, 3]]
    return dataclasses.replace(w, xi=xi)


def _conjugate_s_by_a_positive_diagonal(w):
    """rho(S) replaced by D*S*D^-1, D the positive diagonal (x + x(-gamma))/2
    with x = 1 + 0.1*cos(index).  D is even under gamma -> -gamma, so it
    commutes with rho(T) and rho(Z): S^2 = Z, TSTST = S, T and the Z-swap
    all hold, and only unitarity sees the change."""
    x = 1 + 0.1 * np.cos(np.arange(w.dimension))
    d = (x + x[w.df.neg_index]) / 2

    class Conjugated(WeilRep):
        def _s_rows(self, f):
            return super()._s_rows(f / d) * d

    return Conjugated(**{f.name: getattr(w, f.name) for f in dataclasses.fields(w)})


MUTATIONS = {
    "s_phase conjugated": lambda w: dataclasses.replace(w, s_phase=w.s_phase.conjugate()),
    "s_phase negated": lambda w: dataclasses.replace(w, s_phase=-w.s_phase),
    "t_diag conjugated": lambda w: dataclasses.replace(w, t_diag=w.t_diag.conj()),
    "t entry on another root": _move_a_t_entry,
    "z_phase conjugated": lambda w: dataclasses.replace(w, z_phase=w.z_phase.conjugate()),
    "xi entries swapped": _swap_two_xi_entries,
    "DFT matrix conjugated": lambda w: _conjugate_a_dft_matrix(dataclasses.replace(w)),
    "S conjugated by a positive diagonal": _conjugate_s_by_a_positive_diagonal,
}
MUTATED_FORMS = {
    "Lambda_9": lambda_lattice(9),
    "Lambda_2000": lambda_lattice(2000),
    "U(2)+U(6)": NON_CYCLIC["U(2)+U(6)"],
    "U(2)^3+<2>+(-E8)": NON_CYCLIC["U(2)^3+<2>+(-E8)"],
}


# Lambda_2000's one factor, of order 3998, is an FFT: it has no DFT matrix
MUTATION_MATRIX = [
    (form, mutation)
    for form in sorted(MUTATED_FORMS)
    for mutation in sorted(MUTATIONS)
    if (form, mutation) != ("Lambda_2000", "DFT matrix conjugated")
]


@pytest.mark.parametrize("form, mutation", MUTATION_MATRIX)
def test_tstst_gives_the_verdict_of_st_cubed(form, mutation):
    """A broken operator passes or fails TSTST = S exactly as it does (ST)^3
    = S^2, every other relation checked the same way."""
    w = weil_rep_of(MUTATED_FORMS[form])
    assert verify_relations(w).passed and relations_pass_st3(w)
    bad = MUTATIONS[mutation](w)
    assert verify_relations(bad).passed == relations_pass_st3(bad)


def test_z_swap_residual_never_exceeds_s2_z(corpus):
    """Entrywise ||a| - |b|| <= |a - c*b| for |c| = 1, so the Z-swap
    residual, |S^2 p| against |p(-gamma)|, is at most that of S^2 = Z,
    S^2 p against z_phase * p(-gamma), up to rounding: on the corpus, on
    `NON_CYCLIC` and on every broken operator of the mutation matrix."""
    reps = [weil_rep_of(lat) for lat in (*corpus.values(), *NON_CYCLIC.values())]
    reps += [MUTATIONS[m](weil_rep_of(MUTATED_FORMS[f])) for f, m in MUTATION_MATRIX]
    for w in reps:
        rep = verify_relations(w)
        assert rep.maxErrZSwap <= rep.maxErrS2Z + 1e-15, (w.df.orders, rep)


@pytest.mark.parametrize("form", sorted(MUTATED_FORMS))
def test_unitarity_alone_catches_s_conjugated_by_a_positive_diagonal(form):
    w = weil_rep_of(MUTATED_FORMS[form])
    rep = verify_relations(_conjugate_s_by_a_positive_diagonal(w))
    assert rep.passed is False
    assert rep.maxErrUnitary > 1e-2
    others = (rep.maxErrS2Z, rep.maxErrST3, rep.maxErrTN, rep.maxErrZSwap)
    assert max(others) < 1e-12, rep


@pytest.mark.parametrize("form", sorted(MUTATED_FORMS))
def test_tstst_residual_catches_a_wrong_s_phase(form):
    # S^2 = Z cannot see a negated S; TSTST = S can
    w = weil_rep_of(MUTATED_FORMS[form])
    rep = verify_relations(dataclasses.replace(w, s_phase=-w.s_phase))
    assert rep.maxErrS2Z < 1e-12
    assert rep.maxErrST3 > 1e-3 and not rep.passed


@pytest.mark.parametrize("form", sorted(MUTATED_FORMS))
def test_t_check_measures_the_root_table(form):
    """`maxErrTN` reads the error of the form's `qroots` itself: one entry
    of the table 1e-8 off, before rho(T) is built from it, reads 1e-8."""
    # a fresh copy of the form, so the cached one keeps its table
    df = _fresh_copy(discriminant_form(MUTATED_FORMS[form]))
    qroots = df.qroots.copy()
    qroots[3] *= 1 + 1e-8
    vars(df)["qroots"] = qroots
    rep = verify_relations(build_weil_rep(df))
    assert abs(rep.maxErrTN - 1e-8) < 1e-13, rep.maxErrTN
    assert rep.passed is False


def test_verify_relations_peaks_at_five_probe_blocks():
    """The numpy memory of a check, as tracemalloc counts it: the probes,
    Sp, S^2 p with p at -gamma and two moduli, or two applications of
    rho(S) in flight, never more than five (|A|, 7) complex arrays."""
    w = weil_rep_of(lambda_lattice(10001))
    w.df.neg_index, w.df.qn
    verify_relations(w)
    tracemalloc.start()
    try:
        verify_relations(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = w.dimension * 7 * 16
    assert 4 * block < peak <= 5 * block + (1 << 16), peak / block


def test_exponents_are_read_at_most_once_per_form():
    """The Weil chain reads a form's exponents, cached, for `qn`, `neg_index`
    and `dual_index` together, and a cyclic form's never."""
    for lat in [lambda_lattice(7), lambda_lattice(150), *NON_CYCLIC.values()]:
        df = discriminant_form(lat)
        w = build_weil_rep(df)
        verify_relations(w)
        traces(w)
        gauss_sum(df)
        assert ("_exponents" in vars(df)) == (df.ngens > 1), df.orders


# the first genus past the int64 bound of the full-group arrays, the first
# past that of the cusp side's row count, and one with |A| = 2*10^16 - 2
HUGE_GENERA = [2**30 + 1, 562675209666593, 10**16]


@pytest.mark.parametrize("g", HUGE_GENERA)
def test_build_refuses_before_allocating(g, small_arange):
    """TooLarge before any array of |A| entries and before the `roots`
    tables, whose two arrays hold ceil(sqrt(N)) entries each."""
    df = discriminant_form(lambda_lattice(g))
    for build in (build_weil_rep, gauss_sum, lambda df: df.qn, lambda df: df.neg_index):
        with pytest.raises(TooLarge):
            build(df)
    assert "roots" not in vars(df)
