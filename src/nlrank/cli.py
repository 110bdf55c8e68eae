"""Command-line front end.

Verbs: rank, lattice, weil, dim, nl, crosscheck.  Output is deterministic
for fixed arguments; rationals render as num/den pairs, never as floats.
The floats are `weil verify`'s residuals and the Riemann-Roch terms: `dim`'s
`boundary_terms`, and the breakdown `crosscheck` writes to stderr for a
mismatched genus.  Exit codes: 0 success, 1 domain error (or out of memory,
or a closed stdout), 2 usage error.

Each verb's handler imports the modules it needs, so start-up pays only for
them: `rank`, `nl` and `lattice info` never load numpy; `dim`, `weil` and
`crosscheck` load it with `cuspdim` or `weil`.  `rank`, `nl` and `crosscheck`
write each row as it is made; `nl` merges one sorted run per h (`nl.iter_nl`).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from .errors import NLRankError
from .lattices import CATALOG_NAMES, catalog, discriminant_form, signature

USAGE_EXIT = 2
DOMAIN_EXIT = 1


def _write_rows(out, fmt, columns, rows) -> None:
    """Write each row's csv_row(), to_json_obj() or pretty() as it is made.  The CSV header
    or JSON "[" comes with the first row (each caller has one): a failing one writes nothing."""
    writer = csv.writer(out, lineterminator="\n")
    for i, row in enumerate(rows):
        if fmt == "csv":
            if i == 0:
                writer.writerow(columns)
            writer.writerow(row.csv_row())
        elif fmt == "json":
            out.write(("[" if i == 0 else ", ") + json.dumps(row.to_json_obj()))
        else:
            out.write(row.pretty() + "\n")
    if fmt == "json":
        out.write("]\n")


def _write_record(out, fmt, obj) -> None:
    """Write one key/value record: key-sorted JSON, or `key: value` lines."""
    if fmt == "json":
        out.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        out.writelines(f"{key}: {obj[key]}\n" for key in sorted(obj))


def _lattice_from_args(args):
    flag = {"U(N)": "N", "Lambda_g": "g"}.get(args.name)
    if flag and getattr(args, flag) is None:
        raise _Usage(f"--name {args.name} needs --{flag}")
    return catalog(args.name, g=args.g, scale=args.N)


def _cmd_rank(args, out, err) -> int:
    if args.g_from < 2 or args.g_from > args.g_to:
        raise _Usage(f"need 2 <= --from <= --to, got ({args.g_from}, {args.g_to})")
    if args.jobs < 1:
        raise _Usage(f"need --jobs >= 1, got {args.jobs}")
    from . import rank as rankmod

    _write_rows(out, args.format, rankmod.CSV_COLUMNS, rankmod.rank_table(args.g_from, args.g_to))
    return 0


def _cmd_lattice(args, out, err) -> int:
    lat = _lattice_from_args(args)
    sig = signature(lat)
    df = discriminant_form(lat)
    info = {
        "name": lat.name,
        "rank": lat.rank,
        "det": lat.det(),
        "signature": [sig.positive, sig.negative],
        "disc_orders": list(df.orders),
        "disc_cardinality": df.cardinality,
        "level": df.level,
        "sig_mod_8": df.sig_mod_8,
    }
    _write_record(out, args.format, info)
    return 0


def _cmd_weil(args, out, err) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _Usage(f"need a finite --tol > 0, got {args.tol}")
    from .weil import build_weil_rep, verify_relations

    lat = _lattice_from_args(args)
    w = build_weil_rep(discriminant_form(lat))
    rep = verify_relations(w, tol=args.tol)
    obj = {
        "name": lat.name,
        "dimension": w.dimension,
        "level": rep.level,
        "maxErrS2Z": rep.maxErrS2Z,
        "maxErrST3": rep.maxErrST3,
        "maxErrTN": rep.maxErrTN,
        "maxErrUnitary": rep.maxErrUnitary,
        "maxErrZSwap": rep.maxErrZSwap,
        "pass": rep.passed,
    }
    _write_record(out, args.format, obj)
    return 0 if rep.passed else DOMAIN_EXIT


def _parse_weight(text: str) -> Fraction:
    try:
        weight = Fraction(text)
    except (ValueError, ZeroDivisionError):
        weight = None
    if weight is None or weight.denominator not in (1, 2):
        raise argparse.ArgumentTypeError(f"weight must be a half-integer, got {text!r}")
    return weight


def _cmd_dim(args, out, err) -> int:
    from .cuspdim import dim_cusp_df

    lat = catalog("Lambda_g", g=args.g)
    df = discriminant_form(lat)
    weight = args.weight if args.weight is not None else Fraction(lat.rank, 2)
    rep = dim_cusp_df(df, weight)
    if args.format == "json":
        out.write(rep.to_json() + "\n")
    else:
        out.write(
            f"g={args.g} k={rep.k} d={rep.d} dim={rep.dim} "
            f"parity_ok={rep.parity_ok}\n"
        )
    return 0


def _cmd_nl(args, out, err) -> int:
    if args.dmax < 0 or args.hmax < 0:
        raise _Usage(f"need --dmax, --hmax >= 0, got ({args.dmax}, {args.hmax})")
    from . import nl as nlmod

    _write_rows(out, args.format, nlmod.CSV_COLUMNS, nlmod.iter_nl(args.g, args.dmax, args.hmax))
    return 0


# the Riemann-Roch terms of a mismatched genus's breakdown
_RR_TERMS = ("rank_pm", "main", "elliptic_order4", "elliptic_order6", "parabolic",
             "isotropic")


def _cmd_crosscheck(args, out, err) -> int:
    if args.g_from < 2 or args.g_from > args.g_to:
        raise _Usage(f"need 2 <= --from <= --to, got ({args.g_from}, {args.g_to})")
    from .cuspdim import dim_cusp, picard_rank_via_cusp
    from .rank import picard_rank

    failures = 0
    for g in range(args.g_from, args.g_to + 1):
        # the cusp side first: a genus past its int64 bound fails before
        # the closed form has run
        lat = catalog("Lambda_g", g=g)
        via_cusp = picard_rank_via_cusp(lat)
        closed = picard_rank(g)
        ok = closed.rank == via_cusp
        failures += not ok
        out.write(
            f"g={g} rank_formula={closed.rank} cusp_pipeline={via_cusp} "
            f"{'ok' if ok else 'MISMATCH'}\n"
        )
        if not ok:  # both breakdowns; Riemann-Roch's is computed only here
            rr = dim_cusp(lat, Fraction(lat.rank, 2))
            terms = "".join(f"{key}={rr.boundary_terms[key]} " for key in _RR_TERMS)
            err.write(
                f"g={g} closed_form: {closed.pretty().split(' ', 1)[1]}\n"
                f"g={g} riemann_roch: {terms}dim={rr.dim}\n"
            )
    return 0 if failures == 0 else DOMAIN_EXIT


class _Usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlrank",
        description="Picard ranks of K3 moduli spaces, two independent ways.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p, default="pretty", choices=("csv", "json", "pretty")):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("rank", help="closed-form rank table")
    p.add_argument("--from", dest="g_from", type=int, required=True)
    p.add_argument("--to", dest="g_to", type=int, required=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="kept for compatibility (must be >= 1); rows are computed serially",
    )
    add_format(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("lattice", help="lattice inspection")
    psub = p.add_subparsers(dest="subverb", required=True)
    pi = psub.add_parser("info")
    pi.add_argument("--name", required=True, choices=CATALOG_NAMES)
    pi.add_argument("--g", type=int)
    pi.add_argument("--N", type=int)
    add_format(pi, choices=("json", "pretty"))
    pi.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("weil", help="Weil representation checks")
    psub = p.add_subparsers(dest="subverb", required=True)
    pv = psub.add_parser("verify")
    pv.add_argument("--name", required=True, choices=CATALOG_NAMES)
    pv.add_argument("--g", type=int)
    pv.add_argument("--N", type=int)
    pv.add_argument("--tol", type=float, default=1e-9)
    add_format(pv, choices=("json", "pretty"))
    pv.set_defaults(func=_cmd_weil)

    p = sub.add_parser("dim", help="cusp form dimension for Lambda_g")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--weight", type=_parse_weight, default=None)
    add_format(p, choices=("json", "pretty"))
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("nl", help="Noether-Lefschetz divisor catalog")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--hmax", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_nl)

    p = sub.add_parser("crosscheck", help="two-pipeline agreement over a genus range")
    p.add_argument("--from", dest="g_from", type=int, required=True)
    p.add_argument("--to", dest="g_to", type=int, required=True)
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def dispatch(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code else 0
    try:
        return args.func(args, out, err)
    except _Usage as exc:
        err.write(f"usage error: {exc}\n")
        err.write(parser.format_usage())
        return USAGE_EXIT
    except NLRankError as exc:
        err.write(f"error: {exc}\n")
        return DOMAIN_EXIT
    except MemoryError as exc:
        # no verb caps its group's order: a group too big for memory ends here
        err.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return DOMAIN_EXIT


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # a reader closed the pipe (`| head`): stdout goes to devnull so the
        # flush at exit cannot raise again (the SIGPIPE note of `signal`'s docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = DOMAIN_EXIT
    sys.exit(code)


if __name__ == "__main__":
    main()
