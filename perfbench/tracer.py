"""Span wrappers installed on superuce from outside the program.

Tracer.install() replaces every public module-level function of each
layer module, at every module that imported it by name, and a few
methods, with a wrapper.  A call that enters a layer from another
(or from the benchmark) opens a span; a call that stays inside its
layer runs without one, but its counters still count.  Inner-loop
helpers are left alone: wrapping vec_add_scaled's millions of calls
would cost more than the layers it measures.

A layer's self time is the time of its spans minus the time of their
child spans and of the counting done inside them.  Counting time is
kept apart as count_s; a timer (build_s, validate_s, ...) is the
inclusive time of the outermost call of its functions, also without
counting time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "algebra", "cyclic", "uce", "matrices", "limits", "cli")

SKIP = {"vec_add_scaled", "vector_parity"}

METHODS = {
    "linalg": {"Echelon": ("insert", "reduce")},
    "algebra": {"GradedLinearMap": ("rank", "compose", "identity")},
    "limits": {"DirectedSystem": ("transition",)},
}

TIMERS = {
    "uce.b_relations": "uce.relations_s",
    "uce.build_uce": "uce.build_s",
    "uce.uce_of_morphism": "uce.lift_s",
    "uce.h2_cohomology_oracle": "uce.oracle_s",
    "algebra.validate_lie": "algebra.validate_s",
    "algebra.validate_assoc": "algebra.validate_s",
    "algebra.check_morphism": "algebra.morphism_check_s",
    "algebra.GradedLinearMap.rank": "algebra.map_s",
    "algebra.GradedLinearMap.compose": "algebra.map_s",
    "algebra.GradedLinearMap.identity": "algebra.map_s",
    "cli.parse_algebra": "cli.parse_s",
}


def clusters(rows) -> tuple:
    """(column-connected clusters, rows of the largest, distinct columns)."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        cols = iter(row)
        first = next(cols, None)
        if first is None:
            continue
        parent.setdefault(first, first)
        a = find(first)
        for c in cols:
            parent.setdefault(c, c)
            b = find(c)
            if b != a:
                parent[b] = a
    sizes: dict = defaultdict(int)
    for row in rows:
        if row:
            sizes[find(next(iter(row)))] += 1
    return len(sizes), max(sizes.values(), default=0), len(parent)


def _count_rows(c, rows, ambient, rank) -> None:
    n, largest, columns = clusters(rows)
    c["linalg.rows_in"] += len(rows)
    c["linalg.nnz_in"] += sum(len(r) for r in rows)
    c["linalg.rank_out"] += rank
    c["linalg.ambient_cols"] += columns if ambient is None else ambient
    c["linalg.clusters"] += n
    c["linalg.largest_cluster_rows"] = max(c["linalg.largest_cluster_rows"], largest)


# Row counters read a linalg call's rows and rank where the call enters
# linalg, so rows passed on inside the layer are not counted twice.
def _quotient_space(c, entry, args, kwargs, result):
    if entry:
        _count_rows(c, _arg(args, kwargs, 1, "spanning"), _arg(args, kwargs, 0, "ambient_dim"),
                    len(result.pivots))


def _echelon_rows(c, entry, args, kwargs, result):
    if entry:
        _count_rows(c, _arg(args, kwargs, 0, "rows"), None, len(result))


def _rank_of_rows(c, entry, args, kwargs, result):
    if entry:
        _count_rows(c, _arg(args, kwargs, 0, "rows"), None, result)


def _kernel_basis(c, entry, args, kwargs, result):
    if entry:
        m = _arg(args, kwargs, 0, "matrix")
        _count_rows(c, m.rows, m.ncols, m.ncols - len(result))


def _rref(c, entry, args, kwargs, result):
    if entry:
        m = _arg(args, kwargs, 0, "matrix")
        _count_rows(c, m.rows, m.ncols, result[2])


def _insert(c, entry, args, kwargs, result):
    c["linalg.echelon_inserts"] += 1


def _b_relations(c, entry, args, kwargs, result):
    c["uce.relation_rows"] += len(result)
    c["uce.relation_nnz"] += sum(len(r) for r in result)


def _validate_lie(c, entry, args, kwargs, result):
    d = _arg(args, kwargs, 0, "L").dim
    c["algebra.validate_calls"] += 1
    c["algebra.validate_triples"] += d * (d + 1) * (2 * d + 1) // 6  # i <= j, i <= k


def _validate_assoc(c, entry, args, kwargs, result):
    d = _arg(args, kwargs, 0, "A").dim
    c["algebra.validate_calls"] += 1
    c["algebra.validate_triples"] += d ** 3


def _transition(c, entry, args, kwargs, result):
    c["limits.transitions"] += 1
    if _arg(args, kwargs, 1, "i") == _arg(args, kwargs, 2, "j"):
        c["limits.identity_transitions"] += 1


def _build_family(c, entry, args, kwargs, result):
    c["matrices.family_dim_sum"] += result.algebra.dim


def _emit_report(c, entry, args, kwargs, result):
    # bytes written, less the digits of the measured time in the timing block
    seconds = _arg(args, kwargs, 0, "report").get("timing", {}).get("seconds")
    varying = 0 if seconds is None else len(json.dumps(seconds))
    c["cli.report_bytes"] += len(_arg(args, kwargs, 2, "stream").getvalue().encode()) - varying


def _calls(key):
    def hook(c, entry, args, kwargs, result):
        c[key] += 1
    return hook


HOOKS = {
    "linalg.quotient_space": _quotient_space,
    "linalg.echelon_rows": _echelon_rows,
    "linalg.rank_of_rows": _rank_of_rows,
    "linalg.kernel_basis": _kernel_basis,
    "linalg.rref": _rref,
    "linalg.Echelon.insert": _insert,
    "uce.b_relations": _b_relations,
    "uce.build_uce": _calls("uce.builds"),
    "uce.uce_of_morphism": _calls("uce.lifts"),
    "uce.h2_cohomology_oracle": _calls("uce.oracle_calls"),
    "algebra.validate_lie": _validate_lie,
    "algebra.validate_assoc": _validate_assoc,
    "limits.colimit": _calls("limits.colimits"),
    "limits.DirectedSystem.transition": _transition,
    "matrices.build_family": _build_family,
    "cli.emit_report": _emit_report,
}

COUNTERS = (
    "linalg.rows_in", "linalg.nnz_in", "linalg.rank_out", "linalg.ambient_cols",
    "linalg.clusters", "linalg.largest_cluster_rows", "linalg.echelon_inserts",
    "uce.relation_rows", "uce.relation_nnz", "uce.builds", "uce.lifts", "uce.oracle_calls",
    "algebra.validate_calls", "algebra.validate_triples",
    "limits.colimits", "limits.transitions", "limits.identity_transitions",
    "matrices.family_dim_sum", "cli.report_bytes",
)


MAXIMA = {"linalg.largest_cluster_rows"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans, self times, timers and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.names: list = []
        self.stack: list = []  # open spans: [layer, index, start, covered]
        self.self_s: dict = defaultdict(float)
        self.timers: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)  # of the running job
        self.job_counters: dict = {}
        self.count_s = 0.0
        self.job = None
        self._depth: dict = defaultdict(int)

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the layers of the already imported superuce package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "superuce" or name.startswith("superuce."))]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"superuce.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in SKIP):
                    wrapped[obj] = self._wrap(layer, f"{layer}.{name}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = vars(cls)[meth]
                    key = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(layer, key, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(layer, key, raw))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def _wrap(self, layer, key, func):
        name_id = len(self.names)
        self.names.append(key)
        hook = HOOKS.get(key)
        timer = TIMERS.get(key)
        stack = self.stack

        def call(*args, **kwargs):
            if timer is None and stack and stack[-1][0] == layer:
                # the hot path: no span, and the hooks of calls inside a
                # layer are plain increments, too cheap to time
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(self.counters, False, args, kwargs, result)
                return result
            return self._call(layer, name_id, hook, timer, func, args, kwargs)

        return call

    def _call(self, layer, name_id, hook, timer, func, args, kwargs):
        stack, clock = self.stack, time.perf_counter
        if timer is not None:
            self._depth[timer] += 1
            outer = self._depth[timer] == 1
            t0, c0 = clock(), self.count_s
        try:
            entry = not (stack and stack[-1][0] == layer)
            if entry:
                result = self._span(layer, name_id, func, args, kwargs)
            else:
                result = func(*args, **kwargs)
            if hook is not None:
                h0 = clock()
                hook(self.counters, entry, args, kwargs, result)
                spent = clock() - h0
                self.count_s += spent
                if stack:
                    stack[-1][3] += spent
            return result
        finally:
            if timer is not None:
                self._depth[timer] -= 1
                if outer:
                    self.timers[timer] += clock() - t0 - (self.count_s - c0)

    # ---------------------------------------------------------------- spans

    def _span(self, layer, name_id, func, args, kwargs):
        stack, spans = self.stack, self.spans
        index = len(spans)
        parent = stack[-1][1] if stack else -1
        spans.append(None)
        frame = [layer, index, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[2]
            self.self_s[layer] += duration - frame[3]
            if stack:
                stack[-1][3] += duration
            spans[index] = (name_id, frame[2], end, parent, self.job)

    def run_job(self, job_id, func):
        """Run func() as the root span of one job, in the bench layer."""
        self.job = job_id
        self.counters = defaultdict(int)
        name_id = len(self.names)
        self.names.append(f"bench.{job_id}")
        try:
            return self._span("bench", name_id, func, (), {})
        finally:
            self.job_counters[job_id] = dict(self.counters)
            self.job = None

    def totals(self) -> dict:
        """Counters of all jobs: sums, or the largest value for a maximum."""
        out: dict = defaultdict(int)
        for counters in self.job_counters.values():
            for key, value in counters.items():
                out[key] = max(out[key], value) if key in MAXIMA else out[key] + value
        return dict(out)

    def span_records(self) -> list:
        return [{"name": self.names[n], "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]
