"""Benchmark of the nlrank package: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  Workloads, metric names, units and
each workload's reason are read from `BENCHMARK.json` at the repository root.

A run sets up (imports the package, draws the seeded inputs, warms up), then
repeats the workload's round of ops, one at a time from one client (a closed
loop), until `--seconds` have passed.  Every result is checked; a wrong
result, an exception or a nonzero exit code is a failure and is counted, not
fatal.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` makes an untraced pass and a traced pass of about `--seconds / 2`
each and prints the per-layer metrics: per-function calls and self time per
round, each module's share of op wall time, and the tracing overhead.  Spans
are written to `perfbench/out/`.

Output: human-readable lines, one JSON line `{"record": ...}` holding the
seed, the generated inputs, the environment and the details behind each
number, and last the result line
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

# BLAS on one thread, set before numpy is first imported here or in a child.
# The load is one client on one thread; a second BLAS thread on a small shared
# machine makes each matrix product wait for whichever core another tenant
# holds, and spins after it, so the run would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is timed in this process and in fresh child processes; the median
# of all of them is setup_s
SETUP_PROBES = 12
# samples the tail percentile leaves beyond it in a workload's `min_rounds`
# rounds, the fewest whole rounds a run makes
TAIL_BEYOND = 10
# the tail percentile is capped here: beyond p95, a run on a small shared
# machine measures other tenants' interference more than the program
TAIL_CAP = 95.0
STARTUP_REPEATS = 5
# grid on which the Beta weights of the Harrell-Davis estimate are integrated
HD_GRID = 1 << 16
# machine-speed calibration: a fixed probe with no nlrank code is timed
# between ops, at most once every CAL_EVERY_S of measuring; op timings are
# reported at the speed where one probe takes its reference time.  The probe
# is a pure-Python kernel (reference CAL_REF_MS), or where each op is a child
# process the start-up of a bare interpreter (CAL_REF_CHILD_MS): the kernel
# does not track child start-up, which moved by 10% against it between runs
CAL_EVERY_S = 0.25
CAL_REF_MS = 6.0
CAL_REF_CHILD_MS = 40.0


class HarnessError(Exception):
    """The benchmark cannot run here (no package source, no BENCHMARK.json)."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def load_package():
    """Import nlrank from src/ of this checkout; returns its modules."""
    if not (SRC / "nlrank" / "__init__.py").is_file():
        raise HarnessError(f"no package source at {SRC / 'nlrank'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nlrank
    from nlrank import arith, cli, cuspdim, lattices, nl, rank, weil

    if Path(nlrank.__file__).resolve().parent != (SRC / "nlrank").resolve():
        raise HarnessError(f"imported nlrank from {nlrank.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        arith=arith, cli=cli, cuspdim=cuspdim, lattices=lattices, nl=nl, rank=rank,
        weil=weil, src=SRC,
    )


def set_up(name, seed, tiny=False):
    """Import, draw inputs, warm up.  Returns (workload, seconds taken)."""
    start = perf_counter()
    pkg = load_package()
    wl = workloads.WORKLOADS[name](pkg, random.Random(seed), tiny=tiny)
    wl.warm_up()
    return wl, perf_counter() - start


def probe_setup(name, seed):
    """Set-up time of a fresh process, as reported by that process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 2000):
        acc += Fraction(i % 97, i % 89 + 1)
        seen[i % 101] = seen.get(i % 101, 0) + i * i % 7
    return acc, seen


def calibrate(wl, calls=2):
    """Wall time of the workload's calibration probe, in ms."""
    if wl.child_ops:
        return workloads.run_child([sys.executable, "-c", "pass"], wl.env).elapsed_s * 1e3
    t0 = perf_counter_ns()
    for _ in range(calls):
        _kernel()
    return (perf_counter_ns() - t0) / 1e6 / calls


# -- measuring ---------------------------------------------------------------


class Pass:
    """One measured pass: op latencies, failures and rounds completed.

    Latencies include failed ops, which took their time too; ops_per_s counts
    only checked ones.
    """

    def __init__(self):
        self.latencies_ms = []
        self.ok = 0
        self.attempted = 0
        self.failures = []
        self.rounds = 0
        self.busy_s = 0.0
        self.max_child_rss_kb = 0
        self.results = []  # (input index, result) of the last round
        self.cal_ms = []  # calibration probe times taken during the pass
        self.cal_index = []  # per op, how many probe times preceded it


def run_pass(wl, seconds, tracer=None, min_rounds=None, max_rounds=None):
    """Repeat whole rounds of the workload until `seconds` have passed.

    At least `min_rounds` rounds are made (by default the workload's own).
    """
    if min_rounds is None:
        min_rounds = wl.min_rounds
    p = Pass()
    p.cal_ms.append(calibrate(wl))
    start = last_cal = perf_counter()
    op_id = 0
    while True:
        p.results = []
        for i, x in enumerate(wl.inputs):
            p.attempted += 1
            p.cal_index.append(len(p.cal_ms))
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    res = wl.op(x)
                else:
                    with tracer.op(op_id):
                        res = wl.op(x)
                err = None
            except Exception as exc:  # a failed op is counted, never fatal
                res, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter_ns() - t0
            op_id += 1
            p.busy_s += dt / 1e9
            p.latencies_ms.append(dt / 1e6)
            if err is None:
                try:
                    err = wl.check(i, x, res)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is None:
                p.ok += 1
                p.results.append((i, res))
                p.max_child_rss_kb = max(p.max_child_rss_kb, getattr(res, "maxrss_kb", 0))
            else:
                p.failures.append(err)
            if perf_counter() - last_cal >= CAL_EVERY_S:
                p.cal_ms.append(calibrate(wl))
                last_cal = perf_counter()
        p.rounds += 1
        if max_rounds is not None and p.rounds >= max_rounds:
            break
        if perf_counter() - start >= seconds and p.rounds >= min_rounds:
            break
    p.cal_ms.append(calibrate(wl))
    return p


def tail_percentile(round_size, min_rounds):
    """The tail percentile of a workload: the highest one, up to TAIL_CAP, with
    ten samples beyond it in `min_rounds` rounds, or None if there is none.

    It is fixed per workload, so that it does not move with the number of
    rounds a run happens to make.  It leaves k + 1/2 ops of a round beyond it,
    so that it falls in the middle of one input's samples, not on the edge
    between two inputs of different cost.
    """
    k = math.ceil(TAIL_BEYOND / min_rounds - 0.5)
    if k + 0.5 >= round_size:
        return None
    return min(TAIL_CAP, 100.0 * (1 - (k + 0.5) / round_size))


def harrell_davis(samples, q):
    """Harrell-Davis estimate of the q-quantile (0 < q < 1) of `samples`.

    The mean of the order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution.  It draws on every sample near the quantile, not on one,
    so on a few dozen noisy op times it varies much less between runs than
    a nearest-rank percentile does.
    """
    import numpy as np

    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = (np.arange(HD_GRID) + 0.5) / HD_GRID
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.rint(np.arange(n + 1) * (HD_GRID / n)).astype(int)
    return float(np.diff(cdf[edges]) @ xs)


def tail(latencies, round_size, min_rounds):
    """Tail latency; returns (value, percentile, samples beyond it)."""
    n = len(latencies)
    pct = tail_percentile(round_size, min_rounds)
    if pct is None:
        return max(latencies), 100.0, 0
    beyond = min(n - 1, math.ceil(round(n * (1 - pct / 100), 9)))
    return harrell_davis(latencies, pct / 100), pct, beyond


def probe_ms_during_ops(p):
    """The calibration probe's time over a pass, weighted by op time.

    Each op is given the mean of the probe times taken just before and just
    after it, and counts by its duration: a 4 s op between two samples then
    weighs as much as the forty short ops around forty other samples.
    """
    local = [(p.cal_ms[k - 1] + p.cal_ms[k]) / 2 for k in p.cal_index]
    return sum(t * c for t, c in zip(p.latencies_ms, local)) / sum(p.latencies_ms)


def end_to_end(p, wl, setups, peak_rss_kb):
    """End-to-end metrics, with op times scaled to the reference machine speed.

    The host's speed flips between states within seconds, so the scale uses
    the probe's time while the ops ran, as the op times integrate over
    those states.  The raw values are kept in the details.
    """
    speed = (CAL_REF_CHILD_MS if wl.child_ops else CAL_REF_MS) / probe_ms_during_ops(p)
    value, pct, beyond = tail(p.latencies_ms, len(wl.inputs), wl.min_rounds)
    raw = {
        "ops_per_s": p.ok / p.busy_s,
        "op_p50_ms": harrell_davis(p.latencies_ms, 0.5),
        "op_tail_ms": value,
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": raw["ops_per_s"] / speed,
        "op_p50_ms": raw["op_p50_ms"] * speed,
        "op_tail_ms": raw["op_tail_ms"] * speed,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    details = {
        "raw": raw,
        "speed_vs_reference": speed,
        "calibration_ms": p.cal_ms,
        "setup_samples_s": setups,
        "ops": p.attempted,
        "ops_checked": p.ok,
        "rounds": p.rounds,
        "min_rounds": wl.min_rounds,
        "op_p50_samples": len(p.latencies_ms),
        "op_tail_percentile": round(pct, 2),
        "op_tail_samples_beyond": beyond,
        "percentile_estimator": "Harrell-Davis",
        "fail_ratio": len(p.failures) / p.attempted,
        "failures": p.failures[:10],
        "busy_s": p.busy_s,
    }
    return metrics, details


# -- the traced run ----------------------------------------------------------


def _hooks():
    def cusp(tracer, rep):
        if rep.parity_ok:
            tracer.count("cuspdim.elements", rep.d)
            residual = abs(rep.boundary_terms["raw_value"] - rep.dim)
            tracer.peak("cuspdim.snap_residual_max", residual)

    def weil_rep(tracer, w):
        d = w.dimension
        tracer.count("weil.elements", d)
        # rhoT, rhoS and rhoZ as dense complex128 d x d matrices (computed)
        tracer.count("weil.dense_bytes", 3 * 16 * d * d)

    def labels(tracer, result):
        tracer.count("nl.labels", len(result))

    return {
        "cuspdim.dim_cusp_df": cusp,
        "weil.build_weil_rep": weil_rep,
        "nl.enumerate_nl": labels,
    }


def _median_wall(argv, env, repeats=STARTUP_REPEATS):
    times = []
    for _ in range(repeats):
        res = workloads.run_child(argv, env)
        if res.returncode != 0:
            raise HarnessError(f"{argv} exited {res.returncode}")
        times.append(res.elapsed_s * 1e3)
    return statistics.median(times)


def startup_metrics(env):
    """cli.interp_ms, cli.import_ms and cli.import_numpy_ms from child timings."""
    py = sys.executable
    interp = _median_wall([py, "-c", "pass"], env)
    imported = _median_wall([py, "-c", "import nlrank.cli"], env)
    numpy_ms = []
    for _ in range(3):
        res = workloads.run_child([py, "-X", "importtime", "-c", "import nlrank.cli"], env)
        for line in res.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_ms.append(int(parts[1]) / 1e3)
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.import_numpy_ms": statistics.median(numpy_ms) if numpy_ms else 0.0,
    }


def per_layer(wl, name, seed, seconds):
    is_cli = name == "cli-mix"
    sub = None
    startup = dict.fromkeys(("cli.interp_ms", "cli.import_ms", "cli.import_numpy_ms"), 0.0)
    if is_cli:
        # start-up and the user-visible sweeps come from child processes
        startup = startup_metrics(wl.env)
        sub = run_pass(wl, 0, max_rounds=1)
        wl.in_process = True
    # a cli-mix round is long: one untraced and one traced round suffice
    max_rounds = 1 if is_cli else None
    untraced = run_pass(wl, seconds / 2, min_rounds=1, max_rounds=max_rounds)
    tracer = Tracer(hooks=_hooks())
    with tracer:
        traced = run_pass(wl, seconds / 2, tracer=tracer, min_rounds=1,
                          max_rounds=max_rounds)
    self_ns, calls, loose_ns, wall_ns = tracer.attribute()
    rounds = traced.rounds

    m = {}
    for fn, ns in self_ns.items():
        m[f"{fn}.self_ms"] = ns / 1e6 / rounds
    for fn, n in calls.items():
        m[f"{fn}.calls"] = n / rounds
    for mod, fns in LAYERS.items():
        for fn in fns:
            m.setdefault(f"{mod}.{fn}.self_ms", 0.0)
            m.setdefault(f"{mod}.{fn}.calls", 0.0)
    shares = {mod: sum(self_ns.get(f"{mod}.{fn}", 0.0) for fn in fns) / wall_ns
              for mod, fns in LAYERS.items()}
    unattributed = loose_ns / wall_ns
    reconcile = abs(sum(shares.values()) + unattributed - 1.0)
    if reconcile > 1e-9:
        raise HarnessError(f"layer self times do not add up to op wall time ({reconcile})")
    for mod, share in shares.items():
        m[f"share.{mod}"] = share
    m["trace.unattributed_share"] = unattributed
    m["trace.overhead_ratio"] = (traced.attempted / traced.busy_s) / (
        untraced.attempted / untraced.busy_s)

    counters = dict(tracer.counters)
    counters.update(tracer.maxima)
    for key in ("cuspdim.elements", "weil.elements", "weil.dense_bytes", "nl.labels"):
        m[key] = counters.get(key, 0.0) / rounds
    m["cuspdim.snap_residual_max"] = counters.get("cuspdim.snap_residual_max", 0.0)
    elements = counters.get("cuspdim.elements", 0.0)
    m["cuspdim.ns_per_element"] = (
        self_ns.get("cuspdim.dim_cusp_df", 0.0) / elements if elements else 0.0)
    m["weil.relation_err_max"] = wl.stats.get("weil.relation_err_max", 0.0)
    m["arith.milgram_err_max"] = wl.stats.get("arith.milgram_err_max", 0.0)

    m.update(startup)
    m["cli.startup_share_p50"] = 0.0
    m["rank.rank_table.jobs2_speedup"] = 0.0
    if sub is not None:
        p50 = statistics.median(sub.latencies_ms)
        m["cli.startup_share_p50"] = (m["cli.interp_ms"] + m["cli.import_ms"]) / p50
        by_argv = {tuple(wl.inputs[i]): r.elapsed_s for i, r in sub.results}
        for argv, t in by_argv.items():
            serial = by_argv.get(argv[: argv.index("--jobs")]) if "--jobs" in argv else None
            if serial is not None:
                m["rank.rank_table.jobs2_speedup"] = serial / t

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    passes = [p for p in (sub, untraced, traced) if p is not None]
    details = {
        "rounds_traced": rounds,
        "rounds_untraced": untraced.rounds,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": [f for p in passes for f in p.failures][:10],
        "fail_ratio": sum(len(p.failures) for p in passes) / sum(p.attempted for p in passes),
        "per_layer_normalisation": "calls, self_ms and counts are per round of inputs",
        "layer_values": m,
        "weil.dense_bytes": "computed as 3*16*d^2 per representation, not measured",
    }
    return m, details, passes


# -- environment and output --------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def environment(loadavg):
    """Versions, CPU and BLAS thread settings, and the load average at start."""
    import numpy

    cpu = re.search(r"^model name\s*:\s*(.*)$", _read("/proc/cpuinfo"), re.M)
    threads = re.search(r"^Threads:\s*(\d+)", _read("/proc/self/status"), re.M)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": int(threads.group(1)) if threads else None,
        "cpu_model": cpu.group(1) if cpu else platform.processor(),
        "loadavg_at_start": loadavg,
    }


def measure(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (record, result line)."""
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if name not in why:
        raise HarnessError(f"unknown workload {name!r}; choose from {sorted(why)}")
    loadavg = _read("/proc/loadavg").split()[:3]
    wl, setup_s = set_up(name, seed, tiny)
    env = environment(loadavg)

    if trace:
        values, details, passes = per_layer(wl, name, seed, seconds)
        wanted = spec["per_layer"]
    else:
        setups = [setup_s] + [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        p = run_pass(wl, seconds)
        if name == "cli-mix":
            peak_kb = p.max_child_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values, details = end_to_end(p, wl, setups, peak_kb)
        passes = [p]
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    record = {
        "workload": name,
        "why": why[name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": wl.describe(),
        "environment": env,
        "details": details,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def report_lines(record, result):
    d = record["details"]
    lines = [f"{record['workload']} seed={record['seed']}: {record['why']}"]
    for key, m in result["metrics"].items():
        note = ""
        if key == "op_p50_ms":
            note = f"  (n={d['op_p50_samples']})"
        elif key == "op_tail_ms":
            note = (f"  (p{d['op_tail_percentile']}, {d['op_tail_samples_beyond']} samples"
                    f" beyond, n={d['ops']})")
        lines.append(f"  {key:<40} {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"  {'fail_ratio':<40} {d['fail_ratio']:.6g} ratio"
                 f"  ({result['failed']}/{result['attempted']})")
    for msg in d["failures"]:
        lines.append(f"  FAILED: {msg}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            load_spec()
            _, setup_s = set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in report_lines(record, result):
        print(line)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
