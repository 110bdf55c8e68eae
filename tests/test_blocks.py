"""Lattice invariants assembled from orthogonal blocks of the Gram matrix.

`signature` and `discriminant_form` work per connected block of the Gram
matrix and cache each block's result; `oracles.discriminant_form_whole` is
the whole-matrix construction they replace.  `lambda_lattice` carries its
template's blocks and their invariants, and the block search `_blocks` and
the searched direct sum are their oracles; a direct sum's blocks, which
are that search, are checked against its summands.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrank import (
    catalog,
    dim_cusp_df,
    direct_sum,
    discriminant_form,
    e8,
    gauss_sum,
    hyperbolic,
    k3_lattice,
    lambda_lattice,
    make_lattice,
    picard_rank_via_cusp,
    signature,
)
from nlrank import lattices
from nlrank.errors import Degenerate
from nlrank.lattices import (
    BLOCK_CACHE_SIZE,
    Lattice,
    Signature,
    _block_invariants,
    _blocks,
    _congruence_signature,
    _general_block_invariants,
)

import strategies
from oracles import discriminant_form_whole, inner


def _permuted(gram, perm):
    """Gram matrix in the basis b_perm[0], b_perm[1], ..."""
    return tuple(tuple(gram[i][j] for j in perm) for i in perm)


def _mixed(gram, starts, coeffs):
    """Add coeffs[k] * b_starts[0] to b_starts[k + 1] for every k.

    b_starts[0] is never changed and pairs nonzero with its own block, so
    every changed vector is joined to that block: the Gram matrix of the new
    basis is one block.
    """
    g = [list(row) for row in gram]
    n, j = len(g), starts[0]
    for i, c in zip(starts[1:], coeffs):
        for k in range(n):
            g[i][k] += c * g[j][k]
        for k in range(n):
            g[k][i] += c * g[k][j]
    return g


def _invariants(df):
    """Isomorphism invariants of a discriminant form, exact where possible."""
    return (
        df.cardinality,
        df.level,
        df.sig_mod_8,
        sorted(Fraction(int(x), df.level) for x in df.qn),
    )


def _check_generators(lat, df):
    """Each generator, a block's Smith column over its order zero-padded
    into lattice coordinates, lies in M^dual, has its order and pairs as
    gen_pairing says."""
    orders, gens = [], []
    for (idx, _), block in zip(lat.blocks, lat.block_invariants):
        for d, col in block.cols:
            gen = [Fraction(0)] * lat.rank
            for r, x in zip(idx, col):
                gen[r] = Fraction(x, d)
            orders.append(d)
            gens.append(gen)
    assert tuple(orders) == df.orders
    for d, gen in zip(orders, gens):
        assert all((d * x).denominator == 1 for x in gen)
        for row in lat.gram:
            assert sum(x * y for x, y in zip(row, gen)).denominator == 1
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            assert inner(lat, gi, gj) == df.gen_pairing[i][j], (i, j)


def _weights(sig_mod_8):
    """One weight with symmetric, one with antisymmetric cusp forms."""
    two_k = 21 + (-sig_mod_8 - 21) % 4
    return Fraction(two_k, 2), Fraction(two_k + 2, 2)


@settings(max_examples=30, deadline=None)
@given(strategies.pieces, st.data())
def test_blocks_match_whole_matrix_oracle(pieces, data):
    lat = strategies.lattice_of(pieces)
    ref = discriminant_form_whole(lat)
    ref_sig = Signature(*_congruence_signature(lat.gram))
    n = lat.rank
    perm = data.draw(st.permutations(range(n)))
    starts, off = [], 0
    for kind, _ in pieces:
        starts.append(off)
        off += {"U": 2, "w": 1, "E8": 8}[kind]
    links = len(starts) - 1
    nonzero = st.sampled_from((-2, -1, 1, 2))
    coeffs = data.draw(st.lists(nonzero, min_size=links, max_size=links))
    permuted = make_lattice(_permuted(lat.gram, perm))
    mixed = make_lattice(_mixed(lat.gram, starts, coeffs))
    assert len(_blocks(permuted.gram)) == len(pieces)
    assert len(_blocks(mixed.gram)) == 1
    for other in (lat, permuted, mixed):
        df = discriminant_form(other)
        _check_generators(other, df)
        assert signature(other) == ref_sig
        assert _invariants(df) == _invariants(ref)
        assert abs(gauss_sum(df) - gauss_sum(ref)) < 1e-9
        for k in _weights(df.sig_mod_8):
            got, want = dim_cusp_df(df, k), dim_cusp_df(ref, k)
            assert got.parity_ok and want.parity_ok
            assert got.dim == want.dim, k
            for term in ("rank_pm", "parabolic", "isotropic"):
                assert got.boundary_terms[term] == want.boundary_terms[term], (k, term)


def test_blocks_of_interleaved_basis():
    # U on basis vectors 0 and 3, <2> on 1, <-4> on 2
    gram = ((0, 0, 0, 1), (0, 2, 0, 0), (0, 0, -4, 0), (1, 0, 0, 0))
    assert _blocks(gram) == [
        ((0, 3), ((0, 1), (1, 0))),
        ((1,), ((2,),)),
        ((2,), ((-4,),)),
    ]
    assert _blocks(()) == []


def test_orders_are_per_block_invariant_factors():
    lat = direct_sum(make_lattice([[4]]), make_lattice([[6]]))
    df, ref = discriminant_form(lat), discriminant_form_whole(lat)
    assert df.orders == (4, 6)
    assert ref.orders == (2, 12)
    assert _invariants(df) == _invariants(ref)


CATALOG = [
    hyperbolic(),
    hyperbolic(7),
    e8(),
    e8(True),
    k3_lattice(),
    *(lambda_lattice(g) for g in (*range(2, 40), 77, 500, 1000, 12345)),
]


@pytest.mark.parametrize("lat", CATALOG, ids=lambda lat: lat.name)
def test_catalog_forms_unchanged(lat):
    df, ref = discriminant_form(lat), discriminant_form_whole(lat)
    assert df.orders == ref.orders
    assert df.level == ref.level
    assert df.sig_mod_8 == ref.sig_mod_8
    assert np.array_equal(df.qn, ref.qn)


def test_degenerate_block_inside_larger_gram_raises():
    # U + [[2, 2], [2, 2]] + -E8, built without make_lattice's check
    gram = direct_sum(hyperbolic(), Lattice(((2, 2), (2, 2))), e8(True)).gram
    shuffled = _permuted(gram, [4, 2, 0, 11, 3, 1, 5, 6, 7, 8, 9, 10])
    for lat in (Lattice(gram), Lattice(shuffled)):
        with pytest.raises(Degenerate):
            signature(lat)
        with pytest.raises(Degenerate):
            discriminant_form(lat)


def test_rank_one_blocks_match_the_general_path():
    """A rank-one block <w> skips the congruence elimination and the Smith
    form: the same signature, columns and pairing, with the same types, as
    the general path, at w = +-1 and +-2 and at seeded w up to past 2^40,
    and w = 0 is Degenerate on both."""
    rng = random.Random(20260101)
    weights = [1, -1, 2, -2]
    weights += [rng.choice((1, -1)) * rng.randint(3, 10**6) for _ in range(40)]
    weights += [rng.choice((1, -1)) * rng.randint(2**40 + 1, 2**80) for _ in range(20)]
    for w in weights:
        sub = ((w,),)
        got, want = _block_invariants.__wrapped__(sub), _general_block_invariants(sub)
        # the reprs show the types too: an int, not a bool, and Fractions
        assert got == want and repr(got) == repr(want), w
    for invariants in (_block_invariants.__wrapped__, _general_block_invariants):
        with pytest.raises(Degenerate, match="singular"):
            invariants(((0,),))


def test_blocks_found_once_per_lattice(monkeypatch):
    """Lambda_g carries its template's blocks, and a direct sum searches its
    own Gram matrix once."""
    calls = []

    def counting(gram):
        calls.append(gram)
        return _blocks(gram)

    monkeypatch.setattr(lattices, "_blocks", counting)
    lat = lambda_lattice(50)
    signature(lat)
    discriminant_form(lat)
    picard_rank_via_cusp(lat)
    # Lambda_g's blocks come from its template, whose U and -E8 blocks were
    # found when the module was imported: nothing is searched
    assert calls == []
    lat = direct_sum(make_lattice([[-98]]), hyperbolic(), e8(True))
    signature(lat)
    discriminant_form(lat)
    # <-98>, which make_lattice checks, then the sum's own Gram matrix, once
    assert calls == [((-98,),), lat.gram]


def _summand_blocks(*parts):
    """The blocks of a direct sum of connected lattices, with no search:
    each summand's whole Gram matrix at its offset."""
    blocks, off = [], 0
    for part in parts:
        blocks.append((tuple(range(off, off + part.rank)), part.gram))
        off += part.rank
    return tuple(blocks)


# Lambda_g's blocks come from its template and are checked against the
# search; K3 is a direct sum, whose blocks are that search, so they are
# checked against its summands U, U, U, -E8 and -E8, each one block (the
# Dynkin diagram of E8 is connected)
@pytest.mark.parametrize(
    "lat, want",
    [
        *(pytest.param(lat, tuple(_blocks(lat.gram)), id=lat.name)
          for lat in map(lambda_lattice, (2, 3, 50, 1000))),
        pytest.param(k3_lattice(), _summand_blocks(*[hyperbolic()] * 3, *[e8(True)] * 2), id="K3"),
    ],
)
def test_catalog_blocks_match_block_search(lat, want):
    assert lat.blocks == want


def test_summands_are_shared_frozen_instances():
    assert hyperbolic() is hyperbolic()
    assert e8() is e8()
    assert e8(True) is e8(True)
    assert catalog("U") is hyperbolic()
    assert catalog("minusE8") is e8(True)
    assert hyperbolic(2) == Lattice(((0, 2), (2, 0)), "U(2)")
    literal = {
        hyperbolic(): Lattice(((0, 1), (1, 0)), "U"),
        e8(): make_lattice(_e8_literal(1), name="E8"),
        e8(True): make_lattice(_e8_literal(-1), name="-E8"),
    }
    for shared, lat in literal.items():
        assert (shared.gram, shared.name) == (lat.gram, lat.name)
        with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
            shared.name = "X"
        with pytest.raises(AttributeError, match="cannot assign to field 'gram'"):
            shared.gram = lat.gram


def _e8_literal(sign):
    """sign * the Cartan matrix of E8, Bourbaki numbering, written out."""
    rows = (
        (2, 0, -1, 0, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, 0, -1, 2),
    )
    return [[sign * x for x in row] for row in rows]


def _lookups():
    """(misses, hits) of the block cache so far."""
    info = _block_invariants.cache_info()
    return info.misses, info.hits


def _lookups_since(before):
    return tuple(now - then for now, then in zip(_lookups(), before))


def test_block_cache_hits_on_a_second_lambda_g(monkeypatch):
    # forget the template's invariants, so that the first Lambda_g resolves them
    monkeypatch.delitem(vars(lattices._U2_MINUS_E8_2), "block_invariants", raising=False)
    _block_invariants.cache_clear()
    discriminant_form(lambda_lattice(5))
    # <-8>, U and -E8 computed once each; the second U and -E8 are hits
    assert _lookups() == (3, 2)
    before = _lookups()
    discriminant_form(lambda_lattice(7))
    # only <-12> is looked up: the template's U and -E8 blocks are not
    assert _lookups_since(before) == (1, 0)
    before = _lookups()
    discriminant_form(lambda_lattice(5))
    assert _lookups_since(before) == (0, 1)


def test_block_cache_is_bounded():
    assert _block_invariants.cache_info().maxsize == BLOCK_CACHE_SIZE
    template = lambda_lattice(2).block_invariants[1:]  # resolved by the first Lambda_g
    before = _lookups()
    genera = range(2, BLOCK_CACHE_SIZE + 50)
    for g in genera:
        lat = catalog("Lambda_g", g=g)
        signature(lat)
        assert all(x is y for x, y in zip(lat.block_invariants[1:], template, strict=True)), g
    # one lookup per genus, its <2-2g>: the template is not looked up again
    assert sum(_lookups_since(before)) == len(genera)
    assert _block_invariants.cache_info().currsize == BLOCK_CACHE_SIZE
    # so U and -E8, last looked up before more than BLOCK_CACHE_SIZE new
    # blocks, have left the cache: K3 computes each once more and finds
    # its other two U and its other -E8
    before = _lookups()
    signature(k3_lattice())
    assert _lookups_since(before) == (2, 3)


def test_lambda_template_equals_direct_sum():
    for g in [*range(2, 301), 10**4, 10**9]:
        w = 2 - 2 * g
        ref = direct_sum(
            Lattice(((w,),), f"<{w}>"), hyperbolic(), hyperbolic(), e8(True), e8(True),
            name=f"Lambda_{g}",
        )
        lat = lambda_lattice(g)
        assert lat == ref and hash(lat) == hash(ref), g
        assert (lat.gram, lat.name, lat.blocks) == (ref.gram, ref.name, ref.blocks), g
        assert lat.block_invariants == ref.block_invariants, g
        assert signature(lat) == signature(ref), g
        assert discriminant_form(lat) == discriminant_form(ref), g
    assert lat.blocks == tuple(_blocks(lat.gram))


def test_block_invariants_are_looked_up_once_per_lattice():
    lambda_lattice(2)  # resolves Lambda_g's template
    others = (
        k3_lattice(),
        direct_sum(hyperbolic(2), make_lattice([[4, 2], [2, 4]]), make_lattice([[-6]]), e8()),
    )
    # Lambda_g looks up its <2-2g> when it is made, and nothing after
    before = _lookups()
    lat = lambda_lattice(77)
    for _ in range(2):
        signature(lat)
        discriminant_form(lat)
        lat.det()
    assert sum(_lookups_since(before)) == 1
    assert lat.block_invariants == tuple(_block_invariants(sub) for _, sub in lat.blocks)
    for lat in others:
        before = _lookups()
        for _ in range(2):
            signature(lat)
            discriminant_form(lat)
            lat.det()
        assert sum(_lookups_since(before)) == len(lat.blocks), lat.name
        assert lat.block_invariants == tuple(_block_invariants(sub) for _, sub in lat.blocks)


def test_importing_lattices_loads_no_numpy():
    """Building lattices and reading their invariants leave numpy unloaded;
    the first int64 array of a form loads it."""
    script = (
        "import sys\n"
        "from nlrank.lattices import discriminant_form, lambda_lattice, signature\n"
        "lat = lambda_lattice(60)\n"
        "signature(lat)\n"
        "df = discriminant_form(lat)\n"
        "print('numpy' in sys.modules)\n"
        "df.qn\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
