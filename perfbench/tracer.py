"""Outside-in tracer for the geocontact layers.

The tracer wraps every public function defined in each layer module and
rebinds the wrapper in every ``geocontact.*`` namespace that holds the same
function object (``flow`` and ``field`` import ``christoffel`` by name, the
CLI imports ``run_theorem`` and ``diagnose_point``), so calls between layers
go through the wrappers. Nothing in the package changes; ``uninstall``
restores every binding.

Each wrapped call records a span (function, start, end, parent span, op id)
and counters taken from its arguments and result. Spans stay in memory until
``write_spans``. A layer's self time is the time of its spans minus the time
of their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "verify", "flow", "field", "curvature", "geometry", "expr", "catalog")

#: functions whose batch rows are counted as points: (argument index, name)
_POINT_ARGS = {
    "expr.eval_scalar": (1, "p"),
    "expr.eval_dual": (1, "p"),
    "geometry.metric_partials": (1, "p"),
    "geometry.frames_at": (0, "g"),
    "curvature.christoffel": (1, "p"),
    "curvature.christoffel_with_partials": (1, "p"),
    "field.contact_defect_grid": (2, "points"),
    "flow.rk4_step": (2, "y"),
}

#: trailing axes of one row of a point argument (1 for a point or a state)
_ROW_AXES = {"geometry.frames_at": 2}

_CLI_COMMANDS = ("analyze", "orbit", "verify", "volume")
_THEOREMS = ("T3.1", "C3.2", "T5.1", "C5.2", "T6.1")

#: every per-layer metric, with its unit and better direction
PER_LAYER = (
    ("expr.calls", "count", "lower"),
    ("expr.points", "count", "lower"),
    ("expr.self_s", "s", "lower"),
    ("expr.us_per_call", "us", "lower"),
    ("geometry.metric_partials.calls", "count", "lower"),
    ("geometry.metric_partials.points", "count", "lower"),
    ("geometry.frame_at.calls", "count", "lower"),
    ("geometry.frames_at.points", "count", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("curvature.christoffel.calls", "count", "lower"),
    ("curvature.christoffel.points", "count", "lower"),
    ("curvature.stencil_ratio", "ratio", "lower"),
    ("curvature.sectional.calls", "count", "lower"),
    ("curvature.christoffel.bytes_computed", "bytes", "lower"),
    ("curvature.self_s", "s", "lower"),
    ("field.diagnose_point.calls", "count", "lower"),
    ("field.diagnoses_per_point", "ratio", "lower"),
    ("field.contact_defect_grid.points", "count", "lower"),
    ("field.self_s", "s", "lower"),
    ("flow.integrate_orbit.calls", "count", "lower"),
    ("flow.rk4_step.calls", "count", "lower"),
    ("flow.rows_per_step", "ratio", "higher"),
    ("flow.truncated", "count", "lower"),
    ("flow.self_s", "s", "lower"),
    *((f"verify.{t}.s", "s", "lower") for t in _THEOREMS),
    ("verify.self_s", "s", "lower"),
    *((f"cli.{c}.s", "s", "lower") for c in _CLI_COMMANDS),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("catalog.builtin.calls", "count", "lower"),
    ("catalog.builtin.s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def _rows(value, row_axes=1):
    shape = np.shape(value)
    return int(np.prod(shape[:-row_axes])) if len(shape) > row_axes else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ratio(num, den):
    """num / den, or 0 when the layer did no such work."""
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters of calls into the geocontact layers."""

    def __init__(self):
        self.names = []          # function id -> "layer.function"
        self.spans = []          # (function id, start, end, parent span, op id)
        self.calls = []          # call count per function id
        self.seconds = []        # inclusive seconds per function id
        self.counters = defaultdict(float)
        self.op = -1
        self._stack = []         # (span index, function id) of open spans
        self._patches = []       # (module, attribute, original)
        self._distinct = set()   # (manifold, field, point) diagnosed in this op
        self.distinct_by_op = {}  # op id -> distinct points diagnosed in it

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"geocontact.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "geocontact" and not mod_name.startswith("geocontact."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def begin_op(self, op_id):
        """Start an op: later spans carry its id and distinct points restart."""
        self.op = op_id
        self._distinct = set()

    # -- recording ----------------------------------------------------------

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.seconds.append(0.0)
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = getattr(self, "_hook_" + qualname.replace(".", "_"), None)
        point_arg = _POINT_ARGS.get(qualname)
        row_axes = _ROW_AXES.get(qualname, 1)
        points_key = qualname + ".points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent, parent_fid = stack[-1] if stack else (-1, -1)
            spans.append(None)
            stack.append((idx, fid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.op)
                self.calls[fid] += 1
                self.seconds[fid] += end - start
            if point_arg is not None:
                counters[points_key] += _rows(_arg(args, kwargs, *point_arg), row_axes)
            if hook is not None:
                hook(args, kwargs, result, end - start, parent_fid)
            return result
        return wrapper

    def _hook_curvature_christoffel(self, args, kwargs, result, dur, parent_fid):
        self.counters["curvature.christoffel.bytes_computed"] += np.asarray(result).nbytes
        if parent_fid >= 0 and self.names[parent_fid] == "curvature.christoffel_with_partials":
            self.counters["curvature.christoffel.stencil_points"] += \
                _rows(_arg(args, kwargs, 1, "p"))

    def _hook_field_diagnose_point(self, args, kwargs, result, dur, parent_fid):
        man, unit_field = _arg(args, kwargs, 0, "man"), _arg(args, kwargs, 1, "X")
        point = np.asarray(_arg(args, kwargs, 2, "p"), dtype=float)
        self._distinct.add((man.name, unit_field.name, point.tobytes()))
        self.distinct_by_op[self.op] = len(self._distinct)

    def _hook_flow_integrate_orbit(self, args, kwargs, result, dur, parent_fid):
        self.counters["flow.truncated"] += bool(result.truncated)

    def _hook_verify_run_theorem(self, args, kwargs, result, dur, parent_fid):
        self.counters[f"verify.{_arg(args, kwargs, 1, 'theorem')}.s"] += dur

    # -- results ------------------------------------------------------------

    def _function(self, qualname):
        """(calls, inclusive seconds) of one wrapped function."""
        fid = self.names.index(qualname)
        return self.calls[fid], self.seconds[fid]

    def self_times(self):
        """{layer: (spans, self seconds)}."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {layer: [0, 0.0] for layer in LAYERS}
        for (fid, start, end, _, _), inner in zip(self.spans, child):
            row = table[self.names[fid].split(".", 1)[0]]
            row[0] += 1
            row[1] += end - start - inner
        return {layer: tuple(row) for layer, row in table.items()}

    def self_time_table(self):
        """Plain-text self-time table, one row per layer."""
        times = self.self_times()
        total = sum(self_s for _, self_s in times.values()) or 1.0
        lines = [f"{'layer':<10} {'spans':>10} {'self_s':>10} {'self%':>6}"]
        for layer, (spans, self_s) in times.items():
            lines.append(f"{layer:<10} {spans:>10d} {self_s:>10.3f} {100.0 * self_s / total:>6.1f}")
        return "\n".join(lines)

    def metrics(self, report_bytes, overhead_frac):
        """Every per-layer metric of ``PER_LAYER``, by name."""
        c = self.counters
        self_s = {layer: row[1] for layer, row in self.self_times().items()}
        scalar_calls, scalar_s = self._function("expr.eval_scalar")
        dual_calls, dual_s = self._function("expr.eval_dual")
        expr_calls = scalar_calls + dual_calls
        rk4_calls, _ = self._function("flow.rk4_step")
        diagnoses, _ = self._function("field.diagnose_point")
        distinct = sum(self.distinct_by_op.values())
        out = {
            "expr.calls": expr_calls,
            "expr.points": c["expr.eval_scalar.points"] + c["expr.eval_dual.points"],
            "expr.us_per_call": 1e6 * _ratio(scalar_s + dual_s, expr_calls),
            "geometry.metric_partials.calls": self._function("geometry.metric_partials")[0],
            "geometry.metric_partials.points": c["geometry.metric_partials.points"],
            "geometry.frame_at.calls": self._function("geometry.frame_at")[0],
            "geometry.frames_at.points": c["geometry.frames_at.points"],
            "curvature.christoffel.calls": self._function("curvature.christoffel")[0],
            "curvature.christoffel.points": c["curvature.christoffel.points"],
            "curvature.stencil_ratio": _ratio(c["curvature.christoffel.stencil_points"],
                                              c["curvature.christoffel_with_partials.points"]),
            "curvature.sectional.calls": self._function("curvature.sectional")[0],
            "curvature.christoffel.bytes_computed": c["curvature.christoffel.bytes_computed"],
            "field.diagnose_point.calls": diagnoses,
            "field.diagnoses_per_point": _ratio(diagnoses, distinct),
            "field.contact_defect_grid.points": c["field.contact_defect_grid.points"],
            "flow.integrate_orbit.calls": self._function("flow.integrate_orbit")[0],
            "flow.rk4_step.calls": rk4_calls,
            "flow.rows_per_step": _ratio(c["flow.rk4_step.points"], rk4_calls),
            "flow.truncated": c["flow.truncated"],
            "cli.report_bytes": report_bytes,
            "catalog.builtin.calls": self._function("catalog.builtin")[0],
            "catalog.builtin.s": self._function("catalog.builtin")[1],
            "trace_overhead_frac": overhead_frac,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        for theorem in _THEOREMS:
            out[f"verify.{theorem}.s"] = c[f"verify.{theorem}.s"]
        for command in _CLI_COMMANDS:
            out[f"cli.{command}.s"] = self._function(f"cli.cmd_{command}")[1]
        return {name: out[name] for name, _, _ in PER_LAYER}

    def calls_by_op(self):
        """{op id: {function: calls}} from the spans, with distinct diagnosed points."""
        out = defaultdict(lambda: defaultdict(int))
        for fid, _, _, _, op in self.spans:
            out[op][self.names[fid]] += 1
        for op, distinct in self.distinct_by_op.items():
            out[op]["field.distinct_points"] = distinct
        return {op: dict(calls) for op, calls in out.items()}

    def write_spans(self, path):
        """All spans as gzipped CSV: function, start and end (seconds), parent, op."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1, newline="\n") as fh:
            fh.write("span,function,start_s,end_s,parent,op\n")
            for i, (fid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{self.names[fid]},{start - base:.9f},{end - base:.9f},"
                         f"{parent},{op}\n")
