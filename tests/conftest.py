import pytest

from nlrank import (
    direct_sum,
    e8,
    hyperbolic,
    lambda_lattice,
    make_lattice,
)


def corpus_lattices():
    """The named test corpus used by the relation and Milgram suites."""
    lats = {
        "U": hyperbolic(),
        "U(2)": hyperbolic(2),
        "<2>": make_lattice([[2]]),
        "<-2>": make_lattice([[-2]]),
        "<2>+<-2>": direct_sum(make_lattice([[2]]), make_lattice([[-2]])),
        "-E8": e8(True),
    }
    for g in range(2, 9):
        lats[f"Lambda_{g}"] = lambda_lattice(g)
    return lats


@pytest.fixture(scope="session")
def corpus():
    return corpus_lattices()


@pytest.fixture
def small_arange(monkeypatch):
    """numpy.arange that fails the test at 2^16 entries or more: a group too
    large for int64 must be refused before any array of |A| entries."""
    import numpy as np

    arange = np.arange

    def small(*args, **kwargs):
        size = len(range(*map(int, args)))
        assert size < 1 << 16, f"an arange of {size} entries"
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", small)
