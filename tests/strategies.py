"""Hypothesis strategies for random direct sums of U(N), <2n> and +-E8,
a fixed set of such sums whose groups are not cyclic, and random even
Gram matrices with off-diagonal entries."""

import math

from hypothesis import assume, reject
from hypothesis import strategies as st

from nlrank import direct_sum, discriminant_form, e8, hyperbolic, make_lattice
from nlrank.errors import Degenerate


def _w(n):
    return make_lattice([[n]])


NON_CYCLIC = {
    "U(2)+U(6)": direct_sum(hyperbolic(2), hyperbolic(6)),
    "U(2)+<-24>+E8": direct_sum(hyperbolic(2), _w(-24), e8()),
    "U(2)^2+<-12>+(-E8)": direct_sum(hyperbolic(2), hyperbolic(2), _w(-12), e8(True)),
    "U(2)^3+<2>+(-E8)": direct_sum(
        hyperbolic(2), hyperbolic(2), hyperbolic(2), _w(2), e8(True)
    ),
}

# one summand as a (kind, parameter) piece
piece = st.one_of(
    st.tuples(st.just("U"), st.integers(1, 6)),
    st.tuples(st.just("w"), st.integers(-12, 12).filter(bool)),
    st.tuples(st.just("E8"), st.booleans()),
)


def order(piece):
    """|A| of one piece: N^2 for U(N), 2|n| for <2n>, 1 for +-E8."""
    kind, p = piece
    return p * p if kind == "U" else 2 * abs(p) if kind == "w" else 1


# one to four pieces whose discriminant group has at most 500 elements
pieces = st.lists(piece, min_size=1, max_size=4).filter(
    lambda ps: math.prod(map(order, ps)) <= 500
)


# sums whose discriminant group is cyclic, so `discriminant_form` gives one
# generator: one <2n>, with up to three unimodular pieces U and +-E8 around it
_unimodular = st.one_of(st.just(("U", 1)), st.tuples(st.just("E8"), st.booleans()))
cyclic_pieces = st.tuples(
    st.integers(-250, 250).filter(bool), st.lists(_unimodular, max_size=3), st.integers(0, 3)
).map(lambda t: t[1][: t[2]] + [("w", t[0])] + t[1][t[2] :])


def lattice_of(pieces):
    """The direct sum of the pieces, in order."""
    parts = []
    for kind, p in pieces:
        if kind == "U":
            parts.append(hyperbolic(p))
        elif kind == "w":
            parts.append(make_lattice([[2 * p]]))
        else:
            parts.append(e8(p))
    return direct_sum(*parts)


# the sums with at most 400 elements, small enough for the dense oracles
dense_pieces = pieces.filter(lambda ps: math.prod(map(order, ps)) <= 400)


@st.composite
def non_diagonal(draw):
    """An even lattice c*M, M an even symmetric 2x2 to 4x4 matrix with a
    nonzero off-diagonal entry, sometimes summed with U(N), whose
    discriminant form has at least two generators and at most 500
    elements.  Unlike the block sums of `pieces`, its generators may pair
    to a nonzero b inside a p-part of several generators, where the Jordan
    split of `cuspdim.gauss_pieces` changes basis and projects."""
    size = draw(st.integers(2, 4))
    c = draw(st.integers(1, {2: 6, 3: 3, 4: 2}[size]))
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    assume(any(m[i][j] for i in range(size) for j in range(i)))
    try:
        lat = make_lattice([[c * x for x in row] for row in m])
    except Degenerate:
        reject()
    if draw(st.booleans()):
        lat = direct_sum(lat, hyperbolic(draw(st.integers(1, 4))))
    df = discriminant_form(lat)
    assume(df.ngens >= 2 and df.cardinality <= 500)
    return lat
