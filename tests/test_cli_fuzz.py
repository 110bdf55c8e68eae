"""CLI fuzz: argv drawn from a grammar of the six verbs, their flags, and
bad, negative and huge values, each run twice in a child process under an
address-space limit and a timeout.

Every run must end in exit 0, 1 or 2 with no traceback on stderr, and both
runs must write the same stdout.  Huge values go only where a verb refuses
them at once (a genus past the cusp kernel's int64 bound, a group too large
to allocate, a reversed range) or where they cost nothing (`nl --hmax`), so
no run streams for long.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nlrank.lattices import CATALOG_NAMES

SRC = str(Path(__file__).resolve().parents[1] / "src")
# bytes of address space per child: numpy's import fits, a full group of
# 10^12 elements does not
MEMORY_LIMIT = 500 * 2**20


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def mostly(good, *rare):
    """A value from `good`, or one time in eight one from `rare`."""
    return st.tuples(st.sampled_from([True] * 7 + [False]), good, st.one_of(*rare)).map(
        lambda t: t[1] if t[0] else t[2])


def ints(lo, hi, *rare):
    return mostly(st.integers(lo, hi).map(str), *rare)


def flags(*pairs):
    """[flag, value] for each (flag, values) pair, each dropped one time in 12."""
    kept = st.sampled_from([True] * 11 + [False])
    drawn = st.tuples(*(st.tuples(kept, st.just(flag), values) for flag, values in pairs))
    return drawn.map(lambda d: [t for keep, flag, value in d if keep for t in (flag, value)])


BAD = st.sampled_from(["", "x", "1.5", "1/2", "-", "0x10", "nan", "1e3", "--g"])
NEG = st.sampled_from(["-1", "0", "1", "-7"])
HUGE = st.sampled_from([2**30 + 2, 10**12, 10**30]).map(str)
FORMAT = mostly(st.sampled_from(["csv", "json", "pretty"]), st.just("xml"))
RECORD = mostly(st.sampled_from(["json", "pretty"]), st.sampled_from(["csv", "xml"]))
NAME = mostly(st.sampled_from(CATALOG_NAMES), st.just("Lambda"))
TOL = mostly(st.sampled_from(["1e-9", "1e-300"]), st.sampled_from(["0", "-1", "nan", "inf", "x"]))
WEIGHT = mostly(st.sampled_from(["21/2", "11", "5/2", "2", "0", "1000000000000000000001/2"]),
                st.sampled_from(["1/3", "abc", "10**3", "-3/2"]))

VERBS = st.one_of(
    # rank: a short range, or one that refuses at once (reversed, g < 2)
    st.tuples(st.just(["rank"]), flags(
        ("--from", ints(2, 300, BAD, NEG, HUGE)), ("--to", ints(2, 300, BAD, NEG)),
        ("--jobs", ints(1, 4, BAD, NEG)), ("--format", FORMAT))),
    st.tuples(st.just(["lattice", "info"]), flags(
        ("--name", NAME), ("--g", ints(2, 60, BAD, NEG, HUGE)),
        ("--N", ints(1, 60, BAD, NEG, HUGE)), ("--format", RECORD))),
    # weil verify builds its whole group: small, or too large to allocate at all
    st.tuples(st.just(["weil", "verify"]), flags(
        ("--name", NAME), ("--g", ints(2, 40, BAD, NEG, HUGE)),
        ("--N", ints(1, 20, BAD, NEG, st.sampled_from(["10000000000", str(10**30)]))),
        ("--tol", TOL), ("--format", RECORD))),
    st.tuples(st.just(["dim"]), flags(
        ("--g", ints(2, 200, BAD, NEG, HUGE)), ("--weight", WEIGHT),
        ("--format", RECORD))),
    # nl: --hmax may be huge, as the first h with no valid d ends the runs
    st.tuples(st.just(["nl"]), flags(
        ("--g", ints(2, 60, BAD, NEG, HUGE)), ("--dmax", ints(0, 40, BAD, NEG)),
        ("--hmax", ints(0, 40, BAD, NEG, HUGE)), ("--format", FORMAT))),
    # crosscheck: a short range, or a huge genus that the cusp side refuses
    st.tuples(st.just(["crosscheck"]), flags(
        ("--from", ints(2, 40, BAD, NEG)), ("--to", ints(2, 40, BAD, NEG)))),
    st.tuples(st.just(["crosscheck"]), HUGE.map(lambda g: ["--from", g, "--to", g])),
    st.tuples(st.sampled_from([["frobnicate"], [], ["lattice"], ["--help"]])),
)
ARGV = st.tuples(VERBS, st.sampled_from([[]] * 7 + [["--bogus"]])).map(
    lambda parts: [token for part in (*parts[0], parts[1]) for token in part])


def _start(argv):
    return subprocess.Popen(
        [sys.executable, "-m", "nlrank.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=_limit_memory,
    )


# each example costs two child processes, run side by side (~0.2-0.4 s)
@settings(max_examples=10, deadline=None)
@given(ARGV)
def test_cli_fuzz(argv):
    procs = [_start(argv), _start(argv)]
    try:
        results = [(*proc.communicate(timeout=60), proc.returncode) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    for out, err, code in results:
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        # stderr holds nothing (a failed `weil verify` check), one clean error
        # or a usage message: a child that could not even start fails here
        assert err == "" or err.startswith(("error: ", "usage")), (argv, err)
    assert results[0][0] == results[1][0], argv
