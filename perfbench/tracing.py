"""Per-layer spans and counters, installed around rrpfermat's public
functions from outside the package.

Each wrapped function is replaced under every name a caller binds it to
(`bareiss_det` in intlinalg, classnumber and cycfield; `is_squarefree` in
numutil, cli, criteria, splitting and descent; `__mul__` and its `__rmul__`
alias), so every call goes through the wrapper.  A span records its name,
start and end (perf_counter_ns), parent span, op id, the exception type it
raised and, for the integer linear algebra, the matrix row count.  Spans
stay in memory until the run ends.  The three hottest kernels get counters
only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute or Class.method)
SPANS = {
    "cli.main": ("cli", "main"),
    "criteria.check_corollary_Q": ("criteria", "check_corollary_Q"),
    "criteria.check_corollary_quad": ("criteria", "check_corollary_quad"),
    "criteria.check_four_hypotheses": ("criteria", "check_four_hypotheses"),
    "classnumber.maillet_h_minus": ("classnumber", "maillet_h_minus"),
    "classnumber.load_hplus_table": ("classnumber", "load_hplus_table"),
    "classnumber.table_digest": ("classnumber", "table_digest"),
    "intlinalg.bareiss_det": ("intlinalg", "bareiss_det"),
    "intlinalg.row_lattice_index": ("intlinalg", "row_lattice_index"),
    "cycfield.build_field": ("cycfield", "build_field"),
    "cycfield.norm": ("cycfield", "RealCyclotomicField.norm"),
    "ffpoly.ddf_degrees": ("ffpoly", "ddf_degrees"),
    "ffpoly.least_irreducible": ("ffpoly", "least_irreducible"),
    "galoisring.is_square_pi_r": ("galoisring", "is_square_pi_r"),
    "galoisring.gr_sqrt": ("galoisring", "gr_sqrt"),
    "splitting.split_2_in_Qplus": ("splitting", "split_2_in_Qplus"),
    "splitting.split_2_in_Kplus": ("splitting", "split_2_in_Kplus"),
    "splitting.split_2_in_quadratic": ("splitting", "split_2_in_quadratic"),
    "splitting.split_r_in_Qplus": ("splitting", "split_r_in_Qplus"),
    "splitting.check_r_inert_in_quadratic": ("splitting", "check_r_inert_in_quadratic"),
    "descent.norm_necessary_condition": ("descent", "norm_necessary_condition"),
    "frey.frey_curve": ("frey", "frey_curve"),
    "frey.invariants": ("frey", "invariants"),
    "frey.coprimality_check": ("frey", "coprimality_check"),
    "frey.conductor_support_outside_S": ("frey", "conductor_support_outside_S"),
    "numutil.is_squarefree": ("numutil", "is_squarefree"),
}

# Called thousands of times per op, so counted but not timed.
COUNTERS = {
    "cycfield.CycInt.__mul__": ("cycfield", "CycInt.__mul__"),
    "galoisring.GaloisRingElem.__mul__": ("galoisring", "GaloisRingElem.__mul__"),
    "ffpoly.f2_mulmod": ("ffpoly", "f2_mulmod"),
}

# Spans that record the number of matrix rows of their first argument.
SIZED = {"intlinalg.bareiss_det", "intlinalg.row_lattice_index"}

_CRITERIA = [s for s in SPANS if s.startswith("criteria.")]
_SPLITTING = [s for s in SPANS if s.startswith("splitting.")]
_TABLE = ["classnumber.load_hplus_table", "classnumber.table_digest"]
_CURVE = ["frey.frey_curve", "frey.invariants"]

# Per-layer metric -> (kind, spans or counter); names and units are those of
# per_layer in BENCHMARK.json, which also lists the three trace.* metrics that
# runner.py adds.  Kinds:
#   ms      self time of the spans, ms per pass
#   calls   number of spans per pass
#   per_op  number of spans per op
#   rows    largest row count seen
#   count   counter per pass
#   raised  spans that raised the named exception, per pass
LAYER_METRICS = {
    "cli.self_ms": ("ms", ["cli.main"]),
    "criteria.self_ms": ("ms", _CRITERIA),
    "criteria.calls": ("calls", _CRITERIA),
    "classnumber.maillet_ms": ("ms", ["classnumber.maillet_h_minus"]),
    "classnumber.maillet_calls": ("calls", ["classnumber.maillet_h_minus"]),
    "classnumber.table_ms": ("ms", _TABLE),
    "classnumber.table_loads_per_op": ("per_op", _TABLE),
    "intlinalg.bareiss_ms": ("ms", ["intlinalg.bareiss_det"]),
    "intlinalg.bareiss_calls": ("calls", ["intlinalg.bareiss_det"]),
    "intlinalg.bareiss_dim_max": ("rows", ["intlinalg.bareiss_det"]),
    "intlinalg.lattice_ms": ("ms", ["intlinalg.row_lattice_index"]),
    "intlinalg.lattice_calls": ("calls", ["intlinalg.row_lattice_index"]),
    "intlinalg.lattice_rows_max": ("rows", ["intlinalg.row_lattice_index"]),
    "cycfield.build_ms": ("ms", ["cycfield.build_field"]),
    "cycfield.builds_per_op": ("per_op", ["cycfield.build_field"]),
    "cycfield.norm_ms": ("ms", ["cycfield.norm"]),
    "cycfield.norm_calls": ("calls", ["cycfield.norm"]),
    "cycfield.mul_calls": ("count", "cycfield.CycInt.__mul__"),
    "ffpoly.ddf_ms": ("ms", ["ffpoly.ddf_degrees"]),
    "ffpoly.ddf_per_op": ("per_op", ["ffpoly.ddf_degrees"]),
    "ffpoly.least_irreducible_ms": ("ms", ["ffpoly.least_irreducible"]),
    "ffpoly.least_irreducible_calls": ("calls", ["ffpoly.least_irreducible"]),
    "ffpoly.f2_mulmod_calls": ("count", "ffpoly.f2_mulmod"),
    "galoisring.sqrt_ms": ("ms", ["galoisring.is_square_pi_r", "galoisring.gr_sqrt"]),
    "galoisring.sqrt_calls": ("calls", ["galoisring.gr_sqrt"]),
    "galoisring.mul_calls": ("count", "galoisring.GaloisRingElem.__mul__"),
    "splitting.ms": ("ms", _SPLITTING),
    "splitting.calls": ("calls", _SPLITTING),
    "descent.normres_ms": ("ms", ["descent.norm_necessary_condition"]),
    "descent.normres_calls": ("calls", ["descent.norm_necessary_condition"]),
    "frey.curve_ms": ("ms", _CURVE),
    "frey.coprimality_ms": ("ms", ["frey.coprimality_check"]),
    "frey.conductor_ms": ("ms", ["frey.conductor_support_outside_S"]),
    "frey.unfactored": ("raised", ["frey.conductor_support_outside_S"]),
    "numutil.squarefree_ms": ("ms", ["numutil.is_squarefree"]),
    "numutil.squarefree_per_op": ("per_op", ["numutil.is_squarefree"]),
}

RAISED = "UnfactoredCofactorError"


class Tracer:
    """Collects spans and counters while installed; `uninstall` restores
    every original binding."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index, op id, exception, rows)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                rows = len(args[0]) if sized else None
                spans[index] = (name, start, end, parent, self.op, raised, rows)
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        modules = [importlib.import_module("rrpfermat." + m)
                   for m in ("cli", "criteria", "classnumber", "intlinalg", "cycfield",
                             "ffpoly", "galoisring", "splitting", "descent", "frey",
                             "numutil")]
        modules.append(sys.modules["rrpfermat"])
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, (module, attr) in table.items():
                owner = sys.modules["rrpfermat." + module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._rebind([cls], vars(cls)[attr], make(name, vars(cls)[attr]))
                else:
                    self._rebind(modules, getattr(owner, attr), make(name, getattr(owner, attr)))

    def _rebind(self, owners, original, wrapper):
        """Point every name bound to `original` in `owners` at `wrapper`."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, passes: int, ops: int, factors: list[float]) -> dict:
        """Every LAYER_METRICS value, normalised per pass or per op; self
        times are scaled by the speed factor of their op (see runner.py)."""
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        raised: Counter = Counter()
        rows: Counter = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, exc, size in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, op, exc, size), inner in zip(self.spans, child_ns):
            self_ns[name] += (end - start - inner) * factors[op]
            calls[name] += 1
            if exc == RAISED:
                raised[name] += 1
            if size is not None:
                rows[name] = max(rows[name], size)
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind == "ms":
                value = sum(self_ns[s] for s in source) / passes / 1e6
            elif kind == "calls":
                value = sum(calls[s] for s in source) / passes
            elif kind == "per_op":
                value = sum(calls[s] for s in source) / ops
            elif kind == "rows":
                value = max(rows[s] for s in source)
            elif kind == "count":
                value = self.counts[source] / passes
            else:
                value = sum(raised[s] for s in source) / passes
            out[metric] = value
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, exc, size in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "raised": exc,
                                     "rows": size}) + "\n")
