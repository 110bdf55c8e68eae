import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nlrank import cuspdim, picard_rank
from nlrank import nl as nlmod
from nlrank import rank as rankmod
from nlrank.cli import dispatch
from oracles import SQUARE_WALK_FIRST_REFUSED_GENUS, enumerate_nl_grid


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = dispatch(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_rank_csv():
    code, out, _ = run(["rank", "--from", "2", "--to", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1:] == ["2,0,2,1,4,1,2", "3,1,0,5,8,1,3"]


def test_rank_bad_range_is_usage_error():
    code, out, err = run(["rank", "--from", "5", "--to", "2"])
    assert code == 2
    assert out == ""
    assert "usage" in err


def test_unknown_verb_is_usage_error():
    code, _, _ = run(["frobnicate"])
    assert code == 2


def test_unknown_flag_is_usage_error():
    code, _, _ = run(["rank", "--from", "2", "--to", "3", "--bogus"])
    assert code == 2


def test_rank_nonpositive_jobs_is_usage_error():
    for jobs in ("0", "-3"):
        code, out, err = run(["rank", "--from", "2", "--to", "3", "--jobs", jobs])
        assert code == 2
        assert out == ""
        assert "--jobs" in err


def test_rank_past_the_int64_bound_prints_one_row():
    # g - 1 = 3037000500, whose square is past int64: one row and exit 0
    code, out, err = run(["rank", "--from", "3037000501", "--to", "3037000501"])
    assert (code, err) == (0, "")
    assert out.startswith("g=3037000501 ") and out.count("\n") == 1


@pytest.mark.parametrize("lo, hi", [(2, 2), (2, 40), (97, 131), (20000, 20003)])
def test_rank_stream_is_byte_identical_to_the_tables(lo, hi):
    argv = ["rank", "--from", str(lo), "--to", str(hi)]
    reports = list(rankmod.rank_table(lo, hi))
    pretty = "".join(
        f"g={r.g} alpha={r.alpha} beta={r.beta} fracsum={r.fracsum.numerator}/"
        f"{r.fracsum.denominator} sqcount={r.sqcount} rank={r.rank}\n" for r in reports
    )
    assert run([*argv, "--format", "csv"]) == (0, rankmod.table_to_csv(reports), "")
    assert run([*argv, "--format", "json"]) == (0, rankmod.table_to_json(reports) + "\n", "")
    assert run(argv) == (0, pretty, "")


@pytest.mark.parametrize("g, dmax, hmax", [(2, 15, 15), (17, 15, 15), (30, 40, 9), (5, 0, 2),
                                            (2, 0, 0)])
def test_nl_stream_is_byte_identical_to_the_sorted_grid(g, dmax, hmax):
    argv = ["nl", "--g", str(g), "--dmax", str(dmax), "--hmax", str(hmax)]
    labels = enumerate_nl_grid(g, dmax, hmax)
    as_json = json.dumps([dict(zip(nlmod.CSV_COLUMNS, lab.csv_row())) for lab in labels])
    pretty = "".join(
        f"h={lab.h} d={lab.d} delta={lab.delta} n={lab.n.numerator}/{lab.n.denominator} "
        f"gamma={lab.gamma}" + (" degenerate" if lab.degenerate else "") + "\n"
        for lab in labels
    )
    assert run([*argv, "--format", "csv"]) == (0, nlmod.labels_to_csv(labels), "")
    assert run([*argv, "--format", "json"]) == (0, as_json + "\n", "")
    assert run(argv) == (0, pretty, "")


def test_dim_of_a_large_group():
    # |A| = 5998: no verb caps the group's order
    code, out, _ = run(["dim", "--g", "3000"])
    assert code == 0
    assert f"d=5998 dim={picard_rank(3000).rank - 1} " in out
    assert "dim=2411 " in out


def test_weil_verify_of_a_large_group():
    code, out, _ = run(
        ["weil", "verify", "--name", "Lambda_g", "--g", "3000", "--format", "json"]
    )
    assert code == 0
    assert '"dimension": 5998' in out and '"pass": true' in out


def test_out_of_memory_is_domain_error(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cuspdim, "dim_cusp_df", exhausted)
    code, out, err = run(["dim", "--g", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1


def test_crosscheck_runs_out_of_memory_before_the_closed_form(monkeypatch):
    def exhausted(lat):
        raise MemoryError()

    def closed_form(g):
        raise AssertionError(f"closed form at g = {g} ran before the cusp side")

    monkeypatch.setattr(cuspdim, "picard_rank_via_cusp", exhausted)
    monkeypatch.setattr(rankmod, "picard_rank", closed_form)
    code, out, err = run(["crosscheck", "--from", "1000000000", "--to", "1000000000"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1


def test_dim_above_the_int64_bound_fails_fast():
    # Lambda_g past the squares walk's int64 bound, g - 1 >= about
    # 5.6*10^14, is refused before any element is evaluated, also where |A|
    # itself is past int64
    for g in (str(SQUARE_WALK_FIRST_REFUSED_GENUS), str(10**30)):
        start = time.perf_counter()
        code, out, err = run(["dim", "--g", g])
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1


@pytest.mark.parametrize("g", [2**30 + 1, 562675209666593, 10**16])
def test_weil_verify_above_the_int64_bound_fails_fast(g):
    # the full-group arrays refuse Lambda_g from g - 1 = 2^30 on, before
    # any array of |A| entries or the roots tables (at g = 10^16 those two
    # would take ~6 GB): one TooLarge line and exit 1, at once
    start = time.perf_counter()
    code, out, err = run(["weil", "verify", "--name", "Lambda_g", "--g", str(g)])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert err.startswith("error: level ") and err.endswith("would overflow int64\n")
    assert err.count("\n") == 1


def test_crosscheck_above_the_int64_bound_fails_before_the_closed_form(monkeypatch):
    # the first genus past the squares walk's bound, which the closed form
    # would take, is refused by the cusp side first, at once
    def closed_form(g):
        raise AssertionError(f"closed form at g = {g} ran before the cusp side")

    monkeypatch.setattr(rankmod, "picard_rank", closed_form)
    # the second has |A| past int64
    for g in (str(SQUARE_WALK_FIRST_REFUSED_GENUS), str(10**30)):
        start = time.perf_counter()
        code, out, err = run(["crosscheck", "--from", g, "--to", g])
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1


def test_unknown_catalog_name_is_usage_error():
    for verb in (["lattice", "info"], ["weil", "verify"]):
        code, out, _ = run([*verb, "--name", "foo"])
        assert code == 2
        assert out == ""


@pytest.mark.parametrize("verb", [["lattice", "info"], ["weil", "verify"]], ids=" ".join)
@pytest.mark.parametrize("name, flag", [("U(N)", "--N"), ("Lambda_g", "--g")])
def test_missing_catalog_parameter_is_usage_error(verb, name, flag):
    code, out, err = run([*verb, "--name", name])
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: --name {name} needs {flag}\n")


def test_negative_nl_bounds_are_usage_errors():
    for flag in ("--dmax", "--hmax"):
        argv = ["nl", "--g", "2", "--dmax", "1", "--hmax", "1"]
        argv[argv.index(flag) + 1] = "-1"
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        assert "usage" in err


def test_non_half_integral_weight_is_usage_error(capsys):
    # argparse writes its own errors to sys.stderr
    for text in ("1/3", "abc", "1/0", ""):
        code, out, _ = run(["dim", "--g", "2", "--weight", text])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert f"argument --weight: weight must be a half-integer, got {text!r}" in err
    code, out, _ = run(["dim", "--g", "2", "--weight", "23/2"])
    assert code == 0
    assert "k=23/2" in out


def test_nl_csv():
    code, out, _ = run(["nl", "--g", "2", "--dmax", "1", "--hmax", "0", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert "2,0,1,5,-5,4,1,0" in lines


def test_lattice_info_json():
    code, out, _ = run(
        ["lattice", "info", "--name", "Lambda_g", "--g", "2", "--format", "json"]
    )
    assert code == 0
    assert '"rank": 21' in out
    assert '"signature": [2, 19]' in out


LATTICE_INFO_JSON = [
    (
        ["--name", "U"],
        '{"det": -1, "disc_cardinality": 1, "disc_orders": [], "level": 1, '
        '"name": "U", "rank": 2, "sig_mod_8": 0, "signature": [1, 1]}',
    ),
    (
        ["--name", "U(N)", "--N", "6"],
        '{"det": -36, "disc_cardinality": 36, "disc_orders": [6, 6], "level": 6, '
        '"name": "U(6)", "rank": 2, "sig_mod_8": 0, "signature": [1, 1]}',
    ),
    (
        ["--name", "E8"],
        '{"det": 1, "disc_cardinality": 1, "disc_orders": [], "level": 1, '
        '"name": "E8", "rank": 8, "sig_mod_8": 0, "signature": [8, 0]}',
    ),
    (
        ["--name", "minusE8"],
        '{"det": 1, "disc_cardinality": 1, "disc_orders": [], "level": 1, '
        '"name": "-E8", "rank": 8, "sig_mod_8": 0, "signature": [0, 8]}',
    ),
    (
        ["--name", "K3"],
        '{"det": -1, "disc_cardinality": 1, "disc_orders": [], "level": 1, '
        '"name": "K3", "rank": 22, "sig_mod_8": 0, "signature": [3, 19]}',
    ),
    (
        ["--name", "Lambda_g", "--g", "2"],
        '{"det": -2, "disc_cardinality": 2, "disc_orders": [2], "level": 4, '
        '"name": "Lambda_2", "rank": 21, "sig_mod_8": 7, "signature": [2, 19]}',
    ),
    (
        ["--name", "Lambda_g", "--g", "37"],
        '{"det": -72, "disc_cardinality": 72, "disc_orders": [72], "level": 144, '
        '"name": "Lambda_37", "rank": 21, "sig_mod_8": 7, "signature": [2, 19]}',
    ),
]


@pytest.mark.parametrize(
    "spec, want", LATTICE_INFO_JSON, ids=[" ".join(s) for s, _ in LATTICE_INFO_JSON]
)
def test_lattice_info_json_exact(spec, want):
    code, out, err = run(["lattice", "info", *spec, "--format", "json"])
    assert (code, err) == (0, "")
    assert out == want + "\n"


def test_weil_verify():
    code, out, _ = run(["weil", "verify", "--name", "U", "--format", "json"])
    assert code == 0
    assert '"pass": true' in out


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_weil_tol_must_be_finite_and_positive(tol):
    code, out, err = run(["weil", "verify", "--name", "U", "--tol", tol])
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="numpy 1.x imports numpy.fft with numpy",
)
def test_only_weil_loads_numpy_fft():
    """rank, nl and lattice info leave numpy.fft unloaded; so does weil
    verify on U(6), whose factors of order 6 are matrix products, and weil
    verify on Lambda_30, whose factor of order 58 is an FFT, loads it."""
    script = (
        "import io, sys\n"
        "from nlrank.cli import dispatch\n"
        "for argv in (['rank', '--from', '2', '--to', '3'],\n"
        "             ['nl', '--g', '2', '--dmax', '1', '--hmax', '1'],\n"
        "             ['lattice', 'info', '--name', 'K3'],\n"
        "             ['weil', 'verify', '--name', 'U(N)', '--N', '6']):\n"
        "    assert dispatch(argv, out=io.StringIO()) == 0\n"
        "print('numpy.fft' in sys.modules)\n"
        "dispatch(['weil', 'verify', '--name', 'Lambda_g', '--g', '30'], out=io.StringIO())\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_numpy_loads_only_in_verbs_that_use_it():
    """import, nl, lattice info and rank load no numpy; weil verify on a
    form with a cyclic factor past `weil.MATMUL_MAX_ORDER` loads numpy.fft."""
    script = (
        "import io, sys\n"
        "def loaded(*names):\n"
        "    print(*(name in sys.modules for name in names))\n"
        "import nlrank\n"
        "loaded('numpy')\n"
        "import nlrank.cli\n"
        "loaded('numpy')\n"
        "for argv in (['nl', '--g', '2', '--dmax', '1', '--hmax', '1'],\n"
        "             ['lattice', 'info', '--name', 'K3']):\n"
        "    assert nlrank.cli.dispatch(argv, out=io.StringIO()) == 0\n"
        "loaded('numpy')\n"
        "assert nlrank.cli.dispatch(['rank', '--from', '2', '--to', '3'], out=io.StringIO()) == 0\n"
        "loaded('numpy', 'numpy.fft')\n"
        "assert nlrank.cli.dispatch(['weil', 'verify', '--name', 'Lambda_g', '--g', '30'],\n"
        "                           out=io.StringIO()) == 0\n"
        "loaded('numpy.fft')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == ["False", "False", "False", "False False", "True"]


def test_dim():
    code, out, _ = run(["dim", "--g", "2"])
    assert code == 0
    assert "dim=1" in out


def test_crosscheck_ok():
    code, out, _ = run(["crosscheck", "--from", "2", "--to", "6"])
    assert code == 0
    assert "MISMATCH" not in out


def test_crosscheck_mismatch_prints_both_breakdowns(monkeypatch):
    """A mismatched genus keeps its stdout row and exit 1, and writes the
    closed form's terms and the Riemann-Roch terms to stderr."""
    code, out, err = run(["crosscheck", "--from", "5", "--to", "6"])
    assert (code, err) == (0, "")
    real = cuspdim.picard_rank_via_cusp
    monkeypatch.setattr(cuspdim, "picard_rank_via_cusp", lambda lat: real(lat) + 1)
    code, out, err = run(["crosscheck", "--from", "5", "--to", "6"])
    assert code == 1
    assert out == (
        "g=5 rank_formula=4 cusp_pipeline=5 MISMATCH\n"
        "g=6 rank_formula=6 cusp_pipeline=7 MISMATCH\n"
    )
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 4
    for g, closed, rr in ((5, lines[0], lines[1]), (6, lines[2], lines[3])):
        assert closed.startswith(f"g={g} closed_form: ")
        assert rr.startswith(f"g={g} riemann_roch: ")
        for key in ("alpha", "beta", "fracsum", "sqcount", "rank"):
            assert f" {key}=" in closed, key
        for key in ("rank_pm", "main", "elliptic_order4", "elliptic_order6",
                    "parabolic", "isotropic", "dim"):
            assert f" {key}=" in rr, key
    assert lines[0] == "g=5 closed_form: alpha=1 beta=2 fracsum=7/8 sqcount=2 rank=4"
    assert lines[1].endswith(" dim=3")


# one streaming verb each: a run that the closed pipe cuts short, and its first line
CLOSED_PIPE_RUNS = [
    (["crosscheck", "--from", "2", "--to", "3000"], "g=2 rank_formula=2 cusp_pipeline=2 ok\n"),
    (["rank", "--from", "2", "--to", "100000"],
     "g=2 alpha=0 beta=2 fracsum=1/4 sqcount=1 rank=2\n"),
    (["nl", "--g", "2", "--dmax", "100000", "--hmax", "3"],
     "h=0 d=100000 delta=10000000004 n=-2500000001/1 gamma=0\n"),
]


def test_closed_stdout_is_a_clean_exit():
    """A reader that closes the pipe after one line (`| head -1`) ends the
    run with exit 1 and nothing on stderr."""
    for argv, want in CLOSED_PIPE_RUNS:
        with subprocess.Popen(
            [sys.executable, "-m", "nlrank.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1, argv
        assert first == want
        assert err == "", argv  # no traceback


def test_determinism_two_runs():
    _, first, _ = run(["rank", "--from", "2", "--to", "100", "--format", "csv"])
    _, second, _ = run(["rank", "--from", "2", "--to", "100", "--format", "csv"])
    assert first == second


def test_determinism_across_jobs():
    _, serial, _ = run(["rank", "--from", "2", "--to", "100", "--format", "csv"])
    _, threaded, _ = run(
        ["rank", "--from", "2", "--to", "100", "--format", "csv", "--jobs", "4"]
    )
    assert serial == threaded
