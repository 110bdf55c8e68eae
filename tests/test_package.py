import ast
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nlrank


def test_every_export_resolves_to_its_submodule():
    listed = dir(nlrank)
    for name in nlrank.__all__:
        obj = getattr(nlrank, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("nlrank."), name
        assert getattr(home, name) is obj, name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nlrank.no_such_name  # noqa: B018
    assert not hasattr(nlrank, "no_such_name")


def test_records_are_read_only_values():
    """Reports are named tuples, and a lattice or form a read-only value
    with its defining fields: construction by keyword, the repr, equality,
    the hash and pickling work on each, and assignment names the field."""
    rep = nlrank.picard_rank(7)
    assert rep == nlrank.RankReport(g=7, alpha=1, beta=0, fracsum=Fraction(43, 24),
                                    sqcount=1, rank=7)
    assert repr(rep) == (
        "RankReport(g=7, alpha=1, beta=0, fracsum=Fraction(43, 24), sqcount=1, rank=7)"
    )
    label = nlrank.nl_label(3, 1, 2)
    assert repr(label) == (
        "NLLabel(g=3, h=1, d=2, delta=4, n=Fraction(-1, 2), gamma=2, degenerate=False)"
    )
    lat = nlrank.lambda_lattice(3)
    assert repr(nlrank.signature(lat)) == "Signature(positive=2, negative=19)"
    df = nlrank.discriminant_form(lat)
    assert repr(df) == "DiscriminantForm(orders=(4,), cardinality=4, level=8, sig_mod_8=7)"
    assert repr(nlrank.hyperbolic(2)) == "Lattice(gram=((0, 2), (2, 0)), name='U(2)')"
    for value in (rep, label, lat, df, nlrank.signature(lat)):
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value), value
        assert again is not value
    assert pickle.loads(pickle.dumps(lat)).blocks == lat.blocks
    assert df == nlrank.DiscriminantForm(orders=(4,), sig_mod_8=7, gen_pairing=df.gen_pairing)
    assert df != nlrank.DiscriminantForm((4,), 3, df.gen_pairing)
    assert lat != nlrank.Lattice(lat.gram, "Lambda")
    for value, field in ((lat, "gram"), (lat, "name"), (df, "level"), (df, "orders")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
    for value, field in ((rep, "rank"), (label, "n")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError, match="cannot delete field 'name'"):
        del lat.name
    # a report made without its Riemann-Roch terms gets a dict of its own
    empty = [nlrank.CuspDimReport(k=Fraction(11), d=4, dim=0, parity_ok=False, symmetric=None)
             for _ in range(2)]
    assert empty[0] == empty[1] and empty[0].boundary_terms == {}
    assert empty[0].boundary_terms is not empty[1].boundary_terms


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_after(script, names):
    """Run script in a child process and list which of the modules in
    names it has loaded."""
    probe = f"import sys\n{script}\nprint([m for m in {names!r} if m in sys.modules])\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_the_two_pipelines_import_nothing_of_each_other():
    cusp_side = (
        "from fractions import Fraction\n"
        "from nlrank.cuspdim import dim_cusp_df, picard_rank_via_cusp\n"
        "from nlrank.lattices import direct_sum, discriminant_form, hyperbolic, lambda_lattice\n"
        "from nlrank.weil import build_weil_rep, traces, verify_relations\n"
        "picard_rank_via_cusp(lambda_lattice(7))\n"
        "# U(2)+U(6) has rank 4, so its weight 2 is below Riemann-Roch's range\n"
        "for lat, k in ((lambda_lattice(7), Fraction(21, 2)),\n"
        "               (direct_sum(hyperbolic(2), hyperbolic(6)), Fraction(12))):\n"
        "    df = discriminant_form(lat)\n"
        "    dim_cusp_df(df, k)\n"
        "    w = build_weil_rep(df)\n"
        "    verify_relations(w)\n"
        "    traces(w)\n"
    )
    assert _loaded_after(cusp_side, ["nlrank.arith", "nlrank.hurwitz", "nlrank.rank"]) == "[]"
    closed_side = "from nlrank.rank import picard_rank, rank_table\npicard_rank(7)\nlist(rank_table(2, 50))\n"
    assert _loaded_after(closed_side, ["nlrank.lattices", "nlrank.cuspdim", "nlrank.weil"]) == "[]"


def _imported_modules(module):
    """The nlrank modules that `module`'s source imports relatively anywhere:
    at the top, in a function or in an `if TYPE_CHECKING:` block."""
    tree = ast.parse((Path(SRC) / "nlrank" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from . import x` may name the module x
            names = [node.module] if node.module else [a.name for a in node.names]
            found.update(name.split(".")[0] for name in names)
    return found


@pytest.mark.parametrize(
    "side, other",
    [
        (("arith", "rank", "hurwitz"), ("lattices", "cuspdim", "weil")),
        (("lattices", "cuspdim", "weil"), ("arith", "rank", "hurwitz")),
    ],
    ids=["closed-form", "cusp-side"],
)
def test_the_two_pipelines_name_nothing_of_each_other(side, other):
    """What the child processes above load, read statically from the source,
    so an import that only a type checker runs counts too."""
    for module in side:
        assert _imported_modules(module).isdisjoint(other), module


def test_only_lattices_reads_the_generator_pairing():
    """`lattices` derives a form's level and `gen_qn` from `gen_pairing`
    once, and every other module reads those: no other module of the
    package names `gen_pairing`, and none imports a private name of
    `lattices`."""
    for path in sorted((Path(SRC) / "nlrank").glob("*.py")):
        source = path.read_text()
        if path.stem != "lattices":
            assert "gen_pairing" not in source, path.name
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module in ("lattices", "nlrank.lattices"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, private)


@pytest.mark.parametrize("g_from, g_to", [(2, 3), (10**7, 10**7)])
def test_rank_loads_no_numpy(g_from, g_to):
    # a small range, and one genus whose class numbers lie past the table
    rank = (
        "import io\n"
        "from nlrank import hurwitz\n"
        "from nlrank.cli import dispatch\n"
        f"assert dispatch(['rank', '--from', '{g_from}', '--to', '{g_to}'], out=io.StringIO()) == 0\n"
        f"assert len(hurwitz._table) < 4 * {g_to} - 4\n"
    )
    assert _loaded_after(rank, ["numpy"]) == "[]"


def test_small_cusp_sides_load_no_numpy():
    # up to cuspdim.ISQRT_ROWS rows, Lambda_g up to g = 262, the cusp side
    # counts its rows in Python ints and loads no numpy: dim at g = 200
    # (49 rows), crosscheck to g = 60 (14) and <10>, <-10> (one row) at
    # weights of either parity; then dim at g = 10^4 (2499 rows) loads it
    script = (
        "import io\n"
        "from fractions import Fraction\n"
        "from nlrank.cli import dispatch\n"
        "from nlrank.cuspdim import dim_cusp_df\n"
        "from nlrank.lattices import discriminant_form, make_lattice\n"
        "for argv in (['dim', '--g', '200'], ['crosscheck', '--from', '2', '--to', '60']):\n"
        "    assert dispatch(argv, out=io.StringIO()) == 0\n"
        "for w in (10, -10):\n"
        "    df = discriminant_form(make_lattice([[w]]))\n"
        "    assert any(dim_cusp_df(df, Fraction(j, 2)).parity_ok for j in range(17, 27))\n"
        "if 'numpy' in sys.modules:\n"
        "    raise SystemExit('numpy loaded below ISQRT_ROWS rows')\n"
        "assert dispatch(['dim', '--g', '10000'], out=io.StringIO()) == 0\n"
    )
    assert _loaded_after(script, ["numpy"]) == "['numpy']"


def test_numpy_free_verbs_load_no_dataclasses():
    # `dataclasses` imports `inspect` (with `ast`, `dis` and `tokenize`),
    # several milliseconds of every child's start-up; the verbs that load
    # no numpy hold their records in tuples and plain classes instead.  The
    # pretty format, every verb's default, loads neither `json` nor `csv`
    verbs = (
        "import io\n"
        "from nlrank.cli import dispatch\n"
        "rank = ['rank', '--from', '2', '--to', '30']\n"
        "def run(*argvs):\n"
        "    for argv in argvs:\n"
        "        assert dispatch(argv, out=io.StringIO()) == 0, argv\n"
        "run(rank, ['nl', '--g', '3', '--dmax', '5', '--hmax', '5'],\n"
        "    ['lattice', 'info', '--name', 'K3'],\n"
        "    ['lattice', 'info', '--name', 'Lambda_g', '--g', '500'],\n"
        "    ['dim', '--g', '200'], ['crosscheck', '--from', '2', '--to', '60'])\n"
        "if {'json', 'csv'} & set(sys.modules):\n"
        "    raise SystemExit('the pretty format loaded json or csv')\n"
        "run(rank + ['--format', 'csv'], rank + ['--format', 'json'])\n"
    )
    assert _loaded_after(verbs, ["dataclasses", "inspect", "numpy"]) == "[]"


def test_rank_and_nl_leave_lattices_unloaded():
    verbs = (
        "import io\n"
        "from nlrank.cli import dispatch\n"
        "for argv in (['rank', '--from', '2', '--to', '30', '--format', 'csv'],\n"
        "             ['nl', '--g', '3', '--dmax', '5', '--hmax', '5']):\n"
        "    assert dispatch(argv, out=io.StringIO()) == 0\n"
    )
    assert _loaded_after(verbs, ["nlrank.lattices"]) == "[]"
    info = verbs + "assert dispatch(['lattice', 'info', '--name', 'K3'], out=io.StringIO()) == 0\n"
    assert _loaded_after(info, ["nlrank.lattices"]) == "['nlrank.lattices']"
