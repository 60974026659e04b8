"""Span tracer that wraps library functions from the benchmark's side.

Nothing under the library changes: `install` rebinds every named function
at each module attribute that holds it (so calls from inside the library
are caught too) and every named method on its class; `uninstall` puts the
originals back.  A span is (name, start, end, parent span, op id), with
start and end in process CPU seconds; spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import process_time as clock

# (module, attribute).  A class's __init__ is reported under the class
# name, so `graph.MetricGraph` counts graph constructions.
TARGETS = (
    ("cli", "main"),
    ("rational", "parse_rational"),
    ("rational", "format_rational"),
    ("graph", "MetricGraph.__init__"),
    ("graph", "MetricGraph.incident_ends"),
    ("graph", "MetricGraph.subdivide"),
    ("graph", "MetricGraph.star"),
    ("graph", "MetricGraph.distance"),
    ("pa_function", "PAFunction.__init__"),
    ("pa_function", "PAFunction.eval"),
    ("pa_function", "PAFunction.ddc"),
    ("pa_function", "PAFunction.outgoing_slope"),
    ("pa_function", "PAFunction.subdivide_at"),
    ("pa_function", "PAFunction.promote_interior_breakpoints"),
    ("pa_function", "PAFunction.to_json_dict"),
    ("pa_function", "linear_combine"),
    ("pa_function", "integrate"),
    ("linalg", "solve_exact"),
    ("linalg", "is_psd_exact"),
    ("potential", "green"),
    ("potential", "dirichlet_solve"),
    ("potential", "local_green_pairing"),
    ("potential", "is_subharmonic_green"),
    ("regularize", "build_regularization"),
    ("regularize", "eval_smoothed"),
    ("rationalize", "rationalize"),
    ("superforms", "Poly.__init__"),
    ("superforms", "wedge"),
    ("superforms", "d_prime"),
    ("superforms", "d_second"),
    ("superforms", "j_involution"),
    ("superforms", "pullback"),
    ("superforms", "hessian_form"),
    ("superforms", "is_positive_11"),
)
PACKAGE = "skelpot"
MODULES = tuple(dict.fromkeys(mod for mod, _ in TARGETS))
OP = "op"        # root span of every traced op; its self time is unattributed


def span_name(module: str, attr: str) -> str:
    cls, _, meth = attr.rpartition(".")
    return f"{module}.{cls if meth == '__init__' else meth}"


class Tracer:
    def __init__(self):
        self.names = [OP] + [span_name(m, a) for m, a in TARGETS]
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.solve_max_n = 0
        self.solve_max_bits = 0
        self._saved: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, nid: int, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_solve(self, args, x):
        self.solve_max_n = max(self.solve_max_n, len(args[0]))
        for v in x:
            self.solve_max_bits = max(self.solve_max_bits,
                                      v.numerator.bit_length(),
                                      v.denominator.bit_length())

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for nid, (mod, attr) in enumerate(TARGETS, start=1):
            home = sys.modules[f"{PACKAGE}.{mod}"]
            cls_name, _, meth = attr.rpartition(".")
            observe = self._observe_solve if attr == "solve_exact" else None
            if cls_name:
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(nid, orig, observe))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(nid, orig, observe)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append((0, clock(), None, -1, op_id))

    def end_op(self) -> None:
        idx = self.stack.pop()
        nid, t0, _, parent, op = self.spans[idx]
        self.spans[idx] = (nid, t0, clock(), parent, op)
        self.op = -1

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds (self = duration
        minus the durations of the span's children)."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for (nid, t0, t1, _, _), c in zip(self.spans, child):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - c
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def module_self(summary: dict) -> dict:
    out: dict = defaultdict(float)
    for name, agg in summary.items():
        if name != OP:
            out[name.split(".", 1)[0]] += agg["self_s"]
    return out
