"""Layer spans recorded from the benchmark's side of the package boundary.

`Tracer.install()` rebinds each public function listed in `LAYERS` in every
`nlrank` module that holds a reference to it, so a call is traced wherever
its caller looks the name up (`nlrank.rank.frac_square_sum` as well as
`nlrank.arith.frac_square_sum`).  The package itself is not edited.

Each span records its name, start, end, parent span and op id.  Spans stay in
memory until `write()`.  Self time is attributed by a sweep over span
boundaries: every instant of an op goes to the innermost open span, split
evenly when spans on several threads are innermost at once (the thread pool
in `rank_table`), or to "unattributed" when no span is open.  The per-name
self times plus the unattributed time therefore add up to the op wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

# module -> public functions wrapped.  Names outside the benchmark's metric
# list (catalog, dim_cusp, table_to_csv, ...) are wrapped so that their time
# counts towards their own module's share instead of their caller's.
LAYERS = {
    "lattices": [
        "signature",
        "smith_normal_form",
        "discriminant_form",
        "lambda_lattice",
        "catalog",
        "direct_sum",
    ],
    "cuspdim": ["picard_rank_via_cusp", "dim_cusp", "dim_cusp_df"],
    "weil": ["build_weil_rep", "verify_relations", "traces"],
    "arith": ["frac_square_sum", "square_count", "jacobi", "gauss_sum"],
    "rank": ["picard_rank", "rank_table", "table_to_csv", "table_to_json"],
    "nl": ["enumerate_nl", "labels_to_csv"],
    "cli": ["dispatch"],
}
MODULES = tuple(LAYERS)


class Tracer:
    """Span recorder; `install()` wraps the package, `uninstall()` restores it."""

    def __init__(self, hooks=None):
        self.spans = []  # [name, start_ns, end_ns, parent_record, op_id]
        self.ops = []  # (op_id, start_ns, end_ns)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        # span name -> hook(tracer, result), run after the span closes
        self.hooks = dict(hooks or {})
        self._op_id = None
        self._local = threading.local()
        self._main_stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------
    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's first span hangs off the span that is open
                # on the main thread (the rank_table call that fanned out)
                parent = self._main_stack[-1] if self._main_stack else None
            rec = [name, 0, 0, parent, self._op_id]
            self.spans.append(rec)
            stack.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def op(self, op_id):
        """Context manager marking one op of the workload."""
        return _Op(self, op_id)

    def count(self, key, value=1):
        self.counters[key] += value

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    # -- patching ----------------------------------------------------------
    def install(self):
        mods = [importlib.import_module(f"nlrank.{m}") for m in MODULES]
        holders = [importlib.import_module("nlrank")] + mods
        for mod_name, names in LAYERS.items():
            home = importlib.import_module(f"nlrank.{mod_name}")
            for fn_name in names:
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, attr, wrapped)
                            self._restore.append((holder, attr, orig))
        return self

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------
    def attribute(self):
        """Self time per span name and unattributed time, summed over ops.

        Returns (self_ns by name, calls by name, unattributed_ns, wall_ns).
        """
        by_op = defaultdict(list)
        for rec in self.spans:
            by_op[rec[4]].append(rec)
        self_ns = defaultdict(float)
        calls = defaultdict(int)
        unattributed = 0.0
        wall = 0
        for op_id, start, end in self.ops:
            recs = by_op.get(op_id, [])
            for rec in recs:
                calls[rec[0]] += 1
            selfs, loose = _sweep(recs, start, end)
            for name, ns in selfs.items():
                self_ns[name] += ns
            unattributed += loose
            wall += end - start
        return self_ns, calls, unattributed, wall

    def write(self, path):
        """Write ops and spans as gzipped JSON lines.

        The first line names the columns; then one `["op", id, start_ns,
        end_ns]` row per op and one `["span", index, name, start_ns, end_ns,
        parent index, op id]` row per span.
        """
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"op": ["id", "start_ns", "end_ns"],
                                 "span": ["index", "name", "start_ns", "end_ns",
                                          "parent", "op"]}) + "\n")
            for op_id, start, end in self.ops:
                fh.write(json.dumps(["op", op_id, start, end]) + "\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                parent_i = None if parent is None else index[id(parent)]
                fh.write(json.dumps(["span", i, name, start, end, parent_i, op_id]) + "\n")


class _Op:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer._op_id = self.op_id
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        self.tracer.ops.append((self.op_id, self.start, end))
        self.tracer._op_id = None


def _depth(rec, memo):
    key = id(rec)
    if key not in memo:
        memo[key] = 0 if rec[3] is None else 1 + _depth(rec[3], memo)
    return memo[key]


def _sweep(recs, op_start, op_end):
    """Attribute [op_start, op_end] to innermost open spans; see module doc."""
    memo = {}
    pos = {id(rec): i for i, rec in enumerate(recs)}
    events = []
    for i, rec in enumerate(recs):
        if rec[2] <= rec[1]:
            continue  # zero-length span: nothing to attribute
        depth = _depth(rec, memo)
        # at equal times: ends before starts, deeper ends and shallower starts first
        events.append((rec[1], 1, depth, i))
        events.append((rec[2], 0, -depth, i))
    events.sort()
    live = {i for _, _, _, i in events}
    active_children = defaultdict(int)
    innermost = set()
    selfs = defaultdict(float)
    loose = 0.0
    prev = op_start
    for t, is_start, _, i in events:
        t = min(max(t, op_start), op_end)
        dt = t - prev
        if dt > 0:
            if innermost:
                share = dt / len(innermost)
                for j in innermost:
                    selfs[recs[j][0]] += share
            else:
                loose += dt
        prev = t
        parent = recs[i][3]
        parent_i = None if parent is None else pos.get(id(parent))
        if parent_i not in live:
            parent_i = None
        if is_start:
            innermost.add(i)
            if parent_i is not None:
                active_children[parent_i] += 1
                innermost.discard(parent_i)
        else:
            innermost.discard(i)
            if parent_i is not None:
                active_children[parent_i] -= 1
                if active_children[parent_i] == 0:
                    innermost.add(parent_i)
    loose += max(op_end - prev, 0)
    return selfs, loose
