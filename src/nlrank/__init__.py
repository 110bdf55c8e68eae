"""Picard ranks of K3 moduli spaces and the lattice theory behind them.

Two independent routes to the same number: the exact closed-form rank
and 1 + dim of a space of vector-valued cusp forms attached to the Weil
representation of the discriminant form of Lambda_g.
"""

import importlib

# the named lattices of `lattices.catalog`, defined here so that the CLI's
# parser reads them without loading `lattices`
CATALOG_NAMES = ("U", "U(N)", "E8", "minusE8", "K3", "Lambda_g")

# export -> defining submodule.  Names resolve on first access (PEP 562), so
# `import nlrank` loads no submodule, and numpy only with one that needs it.
_EXPORTS = {
    "frac_square_sum": "arith",
    "gauss_sum": "arith",
    "jacobi": "arith",
    "square_count": "arith",
    "CuspDimReport": "cuspdim",
    "dim_cusp": "cuspdim",
    "dim_cusp_df": "cuspdim",
    "picard_rank_via_cusp": "cuspdim",
    "DiscriminantForm": "lattices",
    "Lattice": "lattices",
    "Signature": "lattices",
    "catalog": "lattices",
    "direct_sum": "lattices",
    "discriminant_form": "lattices",
    "e8": "lattices",
    "hyperbolic": "lattices",
    "k3_lattice": "lattices",
    "lambda_lattice": "lattices",
    "make_lattice": "lattices",
    "signature": "lattices",
    "smith_normal_form": "lattices",
    "NLLabel": "nl",
    "enumerate_nl": "nl",
    "nl_label": "nl",
    "projection_oracle": "nl",
    "RankReport": "rank",
    "alpha": "rank",
    "beta": "rank",
    "picard_rank": "rank",
    "rank_table": "rank",
    "WeilRep": "weil",
    "build_weil_rep": "weil",
    "traces": "weil",
    "verify_relations": "weil",
    "weil_rep_of": "weil",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
