"""Spans and counts around tropfw's public functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``tropfw`` module namespace that binds it (``from .fw import
solve_fw`` makes ``forests.solve_fw`` and ``trees.solve_fw`` separate
bindings) and on the class for methods; ``uninstall`` restores them.
The benchmark installs the tracer around single operations only, so its
own checks never appear in the trace.

A span is (name, start, end, parent span index, operation id).  Spans
stay in memory until ``dump``.  A span's self time is its duration minus
the durations of its child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name, what to count from (args, result))
SPANS = [
    ("tropfw.lp", "LinearProgram.solve", "lp.solve", None),
    ("tropfw.lp", "LinearProgram.solve_sequence", "lp.solve_sequence",
     lambda args, res: ("lp.sequence_objectives", len(args[1]))),
    ("tropfw.fw", "solve_fw", "fw.solve_fw", None),
    ("tropfw.transport", "central_cayley_cell", "transport.central_cayley_cell", None),
    ("tropfw.covector", "cell_vertices", "covector.cell_vertices",
     lambda args, res: ("covector.vertices_found", len(res))),
    ("tropfw.covector", "pseudovertices", "covector.pseudovertices",
     lambda args, res: ("covector.pseudovertices_found", len(res))),
    ("tropfw.covector", "enumerate_bounded_cells", "covector.enumerate_bounded_cells",
     lambda args, res: ("covector.cells_found", len(res))),
    ("tropfw.covector", "cell_dim", "covector.cell_dim", None),
    ("tropfw.linalg", "rank", "linalg.rank", None),
    ("tropfw.forests", "realize_cell", "forests.realize_cell", None),
    ("tropfw.trees", "consensus", "trees.consensus", None),
    ("tropfw.trees", "ultrametric_to_tree", "trees.ultrametric_to_tree", None),
]
# counted per call, no span (called too often for a span each)
COUNTERS = [
    ("tropfw.lp", "LinearProgram.add_le", "lp.rows"),
    ("tropfw.lp", "LinearProgram.add_ge", "lp.rows"),
    ("tropfw.lp", "LinearProgram.add_eq", "lp.rows"),
    ("tropfw.covector", "covector_at", "covector.covector_at_calls"),
    ("tropfw.forests", "weights_from_forest", "forests.forests_tried"),
]


def _lookup(modname, attr):
    obj = sys.modules[modname]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, count):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            self.counts[name + ".calls"] += 1
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op)
            if count is not None:
                key, k = count(args, res)
                self.counts[key] += k
            return res

        return traced

    def _count_wrapper(self, fn, key):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        wrappers = {}
        for modname, attr, name, count in SPANS:
            owner, short, fn = _lookup(modname, attr)
            wrappers[fn] = (owner, short, self._span_wrapper(fn, name, count))
        for modname, attr, key in COUNTERS:
            owner, short, fn = _lookup(modname, attr)
            wrappers[fn] = (owner, short, self._count_wrapper(fn, key))
        for fn, (owner, short, wrapper) in wrappers.items():
            if isinstance(owner, type):
                self._restore.append((owner, short, fn))
                setattr(owner, short, wrapper)
        # functions: every module namespace that binds the original
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "tropfw" or k.startswith("tropfw."))]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(val) if callable(val) else None
                if hit is not None and not isinstance(hit[0], type):
                    self._restore.append((mod, key, val))
                    setattr(mod, key, hit[2])

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per span name: (total duration, total self time)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = Counter()
        self_time = Counter()
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child[k]
        return total, self_time

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": dict(sorted(self.counts.items()))}, fh)
