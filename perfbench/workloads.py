"""The benchmark's workloads: seeded inputs, the timed op, and its check.

Every workload draws one *round* of inputs from its seed, within fixed size
strata so that the work in a round barely depends on the seed.  The runner
repeats the round for the measured time.  `op` is the timed call into the
package; `check` runs untimed afterwards and returns a failure message, or
None when the result is right.  Checks never trust one pipeline with the
other's answer where an independent route exists (closed form against cusp
pipeline, Milgram's formula against the Gauss sum, the projection oracle
against NL labels, counts and orders predicted from the input's shape).

All package calls go through module attributes (`pkg.rank.picard_rank`), so
the tracer in `spans.py` sees them when it is installed.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# per-op time limit for a CLI child; a run must end within 180 s
CLI_TIMEOUT_S = 60.0
WEIL_TOL = 1e-9
MILGRAM_TOL = 1e-9


class CrosscheckSmall:
    """One op = one genus of the `crosscheck` loop, on a contiguous window."""

    # whole rounds every run makes (see run.tail_percentile)
    min_rounds = 2
    child_ops = False

    def __init__(self, pkg, rng, tiny=False):
        self.pkg = pkg
        width = 5 if tiny else 120
        start = rng.randint(2, 11)
        self.inputs = list(range(start, start + width))
        self.stats = {}

    def describe(self):
        return {"genera": self.inputs}

    def warm_up(self):
        self.op(2)

    def op(self, g):
        pkg = self.pkg
        closed = pkg.rank.picard_rank(g).rank
        via_cusp = pkg.cuspdim.picard_rank_via_cusp(pkg.lattices.catalog("Lambda_g", g=g))
        return closed, via_cusp

    def check(self, i, g, result):
        closed, via_cusp = result
        if closed != via_cusp:
            return f"g={g}: closed form {closed} != cusp pipeline {via_cusp}"
        return None


class CrosscheckLarge(CrosscheckSmall):
    """The same op at one seeded genus per stratum in [10^4, 3*10^4]."""

    # thirteen strata, so that the latency percentiles fall on a smooth spread
    # of op costs rather than on one of a few repeated inputs, and an odd
    # number, so that the median falls on one stratum's samples
    CENTRES = tuple(10_000 + 1_650 * i for i in range(13))
    HALF_WIDTH = 100
    TINY_CENTRES = (150, 250, 350)

    def __init__(self, pkg, rng, tiny=False):
        self.pkg = pkg
        centres = self.TINY_CENTRES if tiny else self.CENTRES
        half = 20 if tiny else self.HALF_WIDTH
        genera = [rng.randint(c - half, c + half) for c in centres]
        rng.shuffle(genera)
        self.inputs = genera
        self.stats = {}


@dataclass(frozen=True)
class FormSpec:
    """A lattice named by its orthogonal summands, with invariants predicted
    from that shape alone: |A| and the signature mod 8."""

    label: str
    kind: str  # "lambda", "uu" or "u2k"
    params: tuple

    def expected(self):
        if self.kind == "lambda":
            (g,) = self.params
            return 2 * g - 2, (2 - 19) % 8
        if self.kind == "uu":
            n, m = self.params
            return (n * m) ** 2, 0
        k, n, sign, e8 = self.params
        return 4**k * 2 * n, (sign + 8 * e8) % 8

    def build(self, lattices):
        if self.kind == "lambda":
            return lattices.catalog("Lambda_g", g=self.params[0])
        if self.kind == "uu":
            n, m = self.params
            return lattices.direct_sum(lattices.hyperbolic(n), lattices.hyperbolic(m))
        k, n, sign, e8 = self.params
        parts = [lattices.hyperbolic(2)] * k
        parts.append(lattices.make_lattice([[sign * 2 * n]]))
        parts.append(lattices.e8(negative=e8 < 0))
        return lattices.direct_sum(*parts)


def _lam(g):
    return FormSpec(f"Lambda_{g}", "lambda", (g,))


def _uu(n, m):
    return FormSpec(f"U({n})+U({m})", "uu", (n, m))


def _u2k(k, n, sign, e8):
    """U(2)^k + <sign*2n> + (E8 if e8 > 0 else -E8)."""
    label = "+".join(["U(2)"] * k + [f"<{sign * 2 * n}>", "E8" if e8 > 0 else "-E8"])
    return FormSpec(label, "u2k", (k, n, sign, e8))


class WeilForms:
    """One op = check one form as `weil verify` does, plus Milgram."""

    min_rounds = 3
    child_ops = False

    def __init__(self, pkg, rng, tiny=False):
        self.pkg = pkg

        # the strata fix everything that sets a form's cost: |A|, the
        # generator count, the summand order (it picks the generators Smith
        # normal form returns) and for Lambda_g the level, whose bits set the
        # cost of T^N.  The seed draws what leaves the cost unchanged: the
        # sign of the rank-one summand, E8 or -E8, and the order of the round.
        def u2k(k, n):
            return _u2k(k, n, rng.choice((1, -1)), rng.choice((1, -1)))

        if tiny:
            specs = [_lam(5), _uu(2, 3), u2k(1, 3), u2k(2, 1)]
        else:
            # thirteen forms, seven cyclic ones and non-cyclic ones with 3, 4,
            # 5 and 7 generators.  The median falls on the seventh cheapest
            # and the tail (run.tail_percentile) on the fourth dearest; each
            # of those costs about the same as one neighbour, which doubles
            # the samples the percentile is read from, and 20% or more less
            # or more than the other, so that it stays on those two forms:
            # Lambda_90 < U(2)+<36>+E8 ~ Lambda_105 < U(2)+U(6) and
            # U(2)+U(6) < Lambda_135 ~ U(2)^3+<2>+E8 < Lambda_150
            specs = [_lam(g) for g in (30, 60, 90, 105, 135, 150, 180)]
            specs += [_uu(2, 6), u2k(1, 12), u2k(1, 18), u2k(2, 3), u2k(2, 6), u2k(3, 1)]
        rng.shuffle(specs)
        self.inputs = [(spec, spec.build(pkg.lattices)) for spec in specs]
        self.stats = {"arith.milgram_err_max": 0.0, "weil.relation_err_max": 0.0}
        self.orders = {}

    def describe(self):
        return {
            "forms": [
                {"label": spec.label, "kind": spec.kind, "params": list(spec.params),
                 "orders": self.orders.get(spec.label)}
                for spec, _ in self.inputs
            ]
        }

    def warm_up(self):
        # first BLAS call and first-call costs, on a 4-element group
        self.op((None, self.pkg.lattices.hyperbolic(2)))

    def op(self, item):
        _, lat = item
        pkg = self.pkg
        df = pkg.lattices.discriminant_form(lat)
        rep = pkg.weil.build_weil_rep(df)
        rel = pkg.weil.verify_relations(rep, tol=WEIL_TOL)
        tr = pkg.weil.traces(rep)
        gauss = pkg.arith.gauss_sum(df)
        return df, rel, tr, gauss

    def check(self, i, item, result):
        spec, _ = item
        df, rel, tr, gauss = result
        self.orders[spec.label] = list(df.orders)
        d, sig = spec.expected()
        rel_err = max(rel.maxErrS2Z, rel.maxErrST3, rel.maxErrTN,
                      rel.maxErrUnitary, rel.maxErrZSwap)
        self.stats["weil.relation_err_max"] = max(self.stats["weil.relation_err_max"], rel_err)
        milgram = math.sqrt(d) * cmath.exp(2j * cmath.pi * sig / 8)
        milgram_err = abs(gauss - milgram) / math.sqrt(d)
        self.stats["arith.milgram_err_max"] = max(self.stats["arith.milgram_err_max"], milgram_err)
        if df.cardinality != d or df.sig_mod_8 != sig:
            return f"{spec.label}: |A|={df.cardinality}, sig={df.sig_mod_8}; expected {d}, {sig}"
        if not rel.passed:
            return f"{spec.label}: Weil relations fail, max error {rel_err:.3g}"
        if milgram_err > MILGRAM_TOL:
            return f"{spec.label}: Milgram error {milgram_err:.3g}"
        if sum(tr.eigT_multiplicities.values()) != d:
            return f"{spec.label}: T eigenvalue multiplicities do not sum to {d}"
        if abs(tr.trT - gauss) > MILGRAM_TOL * d:
            return f"{spec.label}: tr(rho(T)) {tr.trT} != Gauss sum {gauss}"
        return None


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    elapsed_s: float


def run_child(argv, env, timeout=CLI_TIMEOUT_S):
    """Run a child to completion; returns its exit code, output and peak RSS.

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    killer = threading.Timer(timeout, proc.kill)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        killer.join()
        proc.stdout.close()
        proc.stderr.close()
    return CliResult(proc.returncode, out, err[0] if err else b"", usage.ru_maxrss,
                     perf_counter() - start)


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


class CliMix:
    """One op = one `nlrank` invocation: short verbs and long `rank` sweeps.

    With `in_process` set, the same argv list is replayed through
    `nlrank.cli.dispatch` instead of a child process (the traced run).
    """

    min_rounds = 2

    def __init__(self, pkg, rng, tiny=False):
        self.pkg = pkg
        self.env = child_env(pkg.src)
        self.in_process = False
        self.inputs = self._argv_list(rng, tiny)
        self.stats = {}
        self._expected = {}
        self._stdout = {}

    @staticmethod
    def _argv_list(rng, tiny):
        def rng_range(lo, hi, width_lo, width_hi):
            a = rng.randint(lo, hi)
            return a, a + rng.randint(width_lo, width_hi)

        # the short verbs are drawn twice (once when tiny): their op times
        # are mostly start-up, and the percentiles of those need many samples
        short = []
        for _ in range(1 if tiny else 2):
            a, b = rng_range(2, 400, 5, 20)
            short.append(["rank", "--from", str(a), "--to", str(b), "--format", "csv"])
            if not tiny:
                a, b = rng_range(2, 400, 5, 20)
                short.append(["rank", "--from", str(a), "--to", str(b)])
                a, b = rng_range(2, 400, 5, 20)
                short.append(["rank", "--from", str(a), "--to", str(b), "--format", "json"])
                g = rng.randint(100_000, 200_000)
                short.append(["rank", "--from", str(g), "--to", str(g)])
            short.append(["nl", "--g", str(rng.randint(2, 30)), "--dmax", str(rng.randint(5, 15)),
                          "--hmax", str(rng.randint(5, 15)), "--format", "csv"])
            if not tiny:
                short.append(["nl", "--g", str(rng.randint(2, 30)),
                              "--dmax", str(rng.randint(5, 15)),
                              "--hmax", str(rng.randint(5, 15))])
                short.append(["lattice", "info", "--name", "Lambda_g", "--g",
                              str(rng.randint(2, 1000)), "--format", "json"])
                short.append(["lattice", "info", "--name", "U(N)", "--N",
                              str(rng.randint(2, 50)), "--format", "json"])
                short.append(["lattice", "info", "--name", "K3", "--format", "json"])
                short.append(["lattice", "info", "--name", rng.choice(["E8", "minusE8"]),
                              "--format", "json"])
                short.append(["dim", "--g", str(rng.randint(2, 200))])
            short.append(["dim", "--g", str(rng.randint(2, 200)), "--format", "json"])
            short.append(["weil", "verify", "--name", "Lambda_g", "--g", str(rng.randint(2, 12)),
                          "--format", "json"])
            if not tiny:
                short.append(["weil", "verify", "--name", "U(N)", "--N", str(rng.randint(2, 6)),
                              "--format", "json"])
            for _ in range(1 if tiny else 2):
                a, b = rng_range(2, 60, 3, 3)
                short.append(["crosscheck", "--from", str(a), "--to", str(b)])
        rng.shuffle(short)

        # long sweeps: one range serially and with --jobs 2, and one range
        # above the numpy limit of frac_square_sum (pure-Python branch)
        hi = rng.randint(40, 60) if tiny else rng.randint(13_500, 14_000)
        big = rng.randint(1_000_001, 1_000_010) if tiny else rng.randint(2_000_000, 2_001_000)
        sweep = ["rank", "--from", "2", "--to", str(hi), "--format", "csv"]
        sweeps = [sweep, sweep + ["--jobs", "2"],
                  ["rank", "--from", str(big), "--to", str(big if tiny else big + 2),
                   "--format", "csv"]]
        argv_list = short + sweeps
        return argv_list

    @property
    def child_ops(self):
        return not self.in_process

    def describe(self):
        return {"argv": [["nlrank"] + argv for argv in self.inputs]}

    def warm_up(self):
        self.op(["rank", "--from", "2", "--to", "3"])

    def op(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            code = self.pkg.cli.dispatch(list(argv), out=out, err=err)
            return CliResult(code, out.getvalue().encode(), err.getvalue().encode(), 0,
                             perf_counter() - start)
        return run_child([sys.executable, "-m", "nlrank.cli", *argv], self.env)

    # -- checks ------------------------------------------------------------
    def _rank(self, g):
        if g not in self._expected:
            rep = self.pkg.rank.picard_rank(g)
            self._expected[g] = (rep.g, rep.alpha, rep.beta, rep.fracsum.numerator,
                                 rep.fracsum.denominator, rep.sqcount, rep.rank)
        return self._expected[g]

    def check(self, i, argv, res):
        if res.returncode != 0:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"{' '.join(argv)}: exit code {res.returncode} {tail}"
        text = res.stdout.decode()
        verb = argv[0]
        first = 2 if verb in ("lattice", "weil") else 1  # after the verb and sub-verb
        opts = dict(zip(argv[first::2], argv[first + 1::2]))
        try:
            if verb == "rank":
                problem = self._check_rank(i, argv, opts, text, res.stdout)
            elif verb == "crosscheck":
                problem = self._check_crosscheck(opts, text)
            elif verb == "dim":
                problem = self._check_dim(opts, text)
            elif verb == "nl":
                problem = self._check_nl(opts, text)
            elif verb == "lattice":
                problem = self._check_lattice(opts, text)
            else:
                problem = self._check_weil(opts, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unparseable output: {type(exc).__name__}: {exc}"
        return None if problem is None else f"{' '.join(argv)}: {problem}"

    def _check_rank(self, i, argv, opts, text, raw):
        lo, hi = int(opts["--from"]), int(opts["--to"])
        fmt = opts.get("--format", "pretty")
        rows = _parse_rank(text, fmt)
        if [r[0] for r in rows] != list(range(lo, hi + 1)):
            return f"{len(rows)} rows, expected genera {lo}..{hi}"
        for pos in sorted({0, len(rows) // 2, len(rows) - 1}):
            if rows[pos] != self._rank(rows[pos][0]):
                return f"row {rows[pos]} != library {self._rank(rows[pos][0])}"
        if "--jobs" in opts:
            twin = self._stdout.get(tuple(argv[: argv.index("--jobs")]))
            if twin is not None and twin != raw:
                return "stdout differs from the --jobs 1 run of the same range"
        else:
            self._stdout[tuple(argv)] = raw
        return None

    def _check_crosscheck(self, opts, text):
        lo, hi = int(opts["--from"]), int(opts["--to"])
        lines = text.splitlines()
        if len(lines) != hi - lo + 1:
            return f"{len(lines)} lines for {hi - lo + 1} genera"
        for g, line in zip(range(lo, hi + 1), lines):
            kv = dict(f.split("=") for f in line.split()[:-1])
            if not line.endswith(" ok") or int(kv["g"]) != g \
                    or int(kv["rank_formula"]) != self._rank(g)[-1]:
                return f"bad line {line!r}"
        return None

    def _check_dim(self, opts, text):
        g = int(opts["--g"])
        if opts.get("--format") == "json":
            obj = json.loads(text)
            d, dim = obj["d"], obj["dim"]
        else:
            kv = dict(f.split("=") for f in text.split())
            d, dim = int(kv["d"]), int(kv["dim"])
        # the closed form is the independent route to the same dimension
        if d != 2 * g - 2 or dim != self._rank(g)[-1] - 1:
            return f"d={d}, dim={dim}; closed form gives dim {self._rank(g)[-1] - 1}"
        return None

    def _check_nl(self, opts, text):
        g, dmax, hmax = int(opts["--g"]), int(opts["--dmax"]), int(opts["--hmax"])
        if opts.get("--format") == "csv":
            rows = [(int(r["h"]), int(r["d"]), int(r["delta"]),
                     Fraction(int(r["n_num"]), int(r["n_den"])), int(r["gamma"]))
                    for r in csv.DictReader(io.StringIO(text))]
        else:
            rows = []
            for line in text.splitlines():
                kv = dict(f.split("=") for f in line.split() if "=" in f)
                rows.append((int(kv["h"]), int(kv["d"]), int(kv["delta"]),
                             Fraction(kv["n"]), int(kv["gamma"])))
        expected = sum(1 for d in range(dmax + 1) for h in range(hmax + 1)
                       if d * d - 4 * (g - 1) * (h - 1) >= 0)
        if len(rows) != expected:
            return f"{len(rows)} labels, expected {expected}"
        oracle = self.pkg.nl.projection_oracle
        for h, d, delta, n, gamma in rows:
            if delta != d * d - 4 * (g - 1) * (h - 1) or gamma != d % (2 * g - 2) \
                    or n != oracle(g, h, d):
                return f"label (h={h}, d={d}) disagrees with the projection oracle"
        return None

    def _check_lattice(self, opts, text):
        obj = json.loads(text)
        name = opts["--name"]
        if name == "Lambda_g":
            want = (21, [2, 19], 2 * int(opts["--g"]) - 2)
        elif name == "U(N)":
            want = (2, [1, 1], int(opts["--N"]) ** 2)
        elif name == "K3":
            want = (22, [3, 19], 1)
        else:
            want = (8, [8, 0] if name == "E8" else [0, 8], 1)
        got = (obj["rank"], obj["signature"], obj["disc_cardinality"])
        return None if got == want else f"got {got}, expected {want}"

    def _check_weil(self, opts, text):
        obj = json.loads(text)
        if opts["--name"] == "Lambda_g":
            d = 2 * int(opts["--g"]) - 2
        else:
            d = int(opts["--N"]) ** 2
        if obj["pass"] is not True or obj["dimension"] != d:
            return f"pass={obj['pass']}, dimension={obj['dimension']}, expected {d}"
        return None


def _parse_rank(text, fmt):
    if fmt == "csv":
        return [(int(r["g"]), int(r["alpha"]), int(r["beta"]), int(r["fracsum_num"]),
                 int(r["fracsum_den"]), int(r["sqcount"]), int(r["rank"]))
                for r in csv.DictReader(io.StringIO(text))]
    if fmt == "json":
        return [(o["g"], o["alpha"], o["beta"], o["fracsum"][0], o["fracsum"][1],
                 o["sqcount"], o["rank"]) for o in json.loads(text)]
    rows = []
    for line in text.splitlines():
        kv = dict(f.split("=") for f in line.split())
        num, den = kv["fracsum"].split("/")
        rows.append((int(kv["g"]), int(kv["alpha"]), int(kv["beta"]), int(num), int(den),
                     int(kv["sqcount"]), int(kv["rank"])))
    return rows


WORKLOADS = {
    "crosscheck-small": CrosscheckSmall,
    "crosscheck-large": CrosscheckLarge,
    "weil-forms": WeilForms,
    "cli-mix": CliMix,
}
