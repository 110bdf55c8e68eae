"""README.md against the package it describes.

Every backticked dotted name whose head is `nlrank`, one of its modules
(`hurwitz.MAX_SIZE`) or an exported class (`Lattice.blocks`) must resolve
to an attribute or a field of the class, and every "`NAME` = value" must be
the value of that module constant, so a rename or a retuned constant that
the README still quotes fails here.  Every script that README.md or the CI
workflow runs must exist.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import nlrank

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = {
    name: importlib.import_module(f"nlrank.{name}")
    for _, name, _ in pkgutil.iter_modules(nlrank.__path__)
}
CLASSES = {
    name: obj for name in nlrank.__all__ if isinstance(obj := getattr(nlrank, name), type)
}


def _resolves(head, attr) -> bool:
    """attr is a field of the class head, a namedtuple's `_fields` or one of
    its `__slots__`, or an attribute of head."""
    fields = (*getattr(head, "_fields", ()), *getattr(head, "__slots__", ()))
    return attr in fields or hasattr(head, attr)


def test_fields_resolve_and_others_do_not():
    for cls, field in (("NLLabel", "n"), ("RankReport", "fracsum"), ("Signature", "negative"),
                       ("CuspDimReport", "boundary_terms"), ("Lattice", "gram"),
                       ("DiscriminantForm", "gen_qn")):
        assert _resolves(CLASSES[cls], field), (cls, field)
    for cls, name in (("NLLabel", "n_abs"), ("DiscriminantForm", "gen_qn_"),
                      ("Lattice", "grams")):
        assert not _resolves(CLASSES[cls], name), (cls, name)
    assert not _resolves(MODULES["cuspdim"], "ISQRT_ROW")


def test_readme_dotted_names_resolve():
    heads = {"nlrank": nlrank, **MODULES, **CLASSES}
    names = sorted({
        name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
        if name.split(".")[0] in heads
    })
    assert len(names) >= 13, names  # the pattern still finds the README's names
    missing = []
    for name in names:
        head, *rest = name.split(".")
        obj = heads[head]
        for attr in rest:
            if not _resolves(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr, None)
    assert missing == []


def test_readme_constants_match():
    quoted = re.findall(r"`([A-Za-z_][\w.]*)` = (\d+)(?:\^(\d+))?", README)
    assert len(quoted) >= 6, quoted
    wrong = []
    for name, base, exp in quoted:
        value = int(base) ** int(exp or 1)
        *module, const = name.split(".")
        owners = [MODULES[module[0]]] if module else [
            mod for mod in MODULES.values() if const in vars(mod)
        ]
        actual = {vars(mod).get(const) for mod in owners}
        if actual != {value}:
            wrong.append((name, value, actual))
    assert wrong == []


def test_named_scripts_exist():
    for doc in ("README.md", ".github/workflows/tests.yml"):
        named = set(re.findall(r"\bscripts/\w+\.py\b", (ROOT / doc).read_text()))
        assert named, doc  # the pattern still finds the file's scripts
        assert sorted(path for path in named if not (ROOT / path).is_file()) == [], doc
