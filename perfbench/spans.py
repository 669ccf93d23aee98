"""Spans around the public functions of motcalc, recorded from outside.

``Tracer.installed()`` replaces each target function (and each target
method on its class) with a wrapper that appends one span per call:
``(name, start, end, parent, pass_id, op_id, cells)``.  A function that
another module imported by name (``from .exactlin import kernel``) is
replaced in that module's namespace too, so every call site is seen.
Leaving the ``with`` block puts the originals back, so untraced passes
run the program as shipped.

Spans stay in memory until ``write`` dumps them as JSON lines.
"""

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _rref_cells(matrix, *args, **kwargs):
    return matrix.rows * matrix.cols


# (module, attribute, span name, per-call measure).  An attribute
# "Class.method" wraps a method; "Class.__init__" counts constructions
# under the class name.
TARGETS = (
    ("exactlin", "RatMatrix.rref", "exactlin.rref", _rref_cells),
    ("exactlin", "RatMatrix.det", "exactlin.det", None),
    ("exactlin", "RatMatrix.inverse", "exactlin.inverse", None),
    ("exactlin", "RatMatrix.__mul__", "exactlin.matmul", None),
    ("exactlin", "Subspace.__init__", "exactlin.Subspace", None),
    ("exactlin", "kernel", "exactlin.kernel", None),
    ("exactlin", "annihilator", "exactlin.annihilator", None),
    ("exactlin", "space_intersect", "exactlin.space_intersect", None),
    ("exactlin", "space_sum", "exactlin.space_sum", None),
    ("exactlin", "smith_normal_form", "exactlin.smith_normal_form", None),
    ("exactlin", "saturate", "exactlin.saturate", None),
    ("lattices", "GaloisLattice.__init__", "lattices.GaloisLattice", None),
    ("lattices", "tensor", "lattices.tensor", None),
    ("lattices", "dual", "lattices.dual", None),
    ("lattices", "stable_closure", "lattices.stable_closure", None),
    ("radical", "smallest_B", "radical.smallest_B", None),
    ("radical", "derived_torus_Z1", "radical.derived_torus_Z1", None),
    ("radical", "torus_Z", "radical.torus_Z", None),
    ("radical", "unipotent_radical", "radical.unipotent_radical", None),
    ("radical", "radical_cartier_dual", "radical.radical_cartier_dual", None),
    ("abelian", "annihilator_module", "abelian.annihilator_module", None),
    ("liealg", "build_E", "liealg.build_E", None),
    ("pairings", "antisymmetrize", "pairings.antisymmetrize", None),
    ("motive", "OneMotive.__init__", "motive.OneMotive", None),
    ("motive", "cartier_dual", "motive.cartier_dual", None),
    ("document", "parse_input", "document.parse_input", None),
    ("document", "serialize_document", "document.serialize_document", None),
    ("document", "check_invariants", "document.check_invariants", None),
)

# Per-layer metrics: (span name, kind).  Kinds: "calls" (count), "s"
# (inclusive seconds), "self_s" (seconds minus child spans), "cells"
# and "max_cells" (sum and max of rows*cols eliminated), "space_sums"
# (space_sum calls made directly by the span).  Each value is per
# traced pass (one analyze pass plus one check pass).
LAYER_METRICS = (
    ("exactlin.rref", "calls"), ("exactlin.rref", "self_s"),
    ("exactlin.rref", "cells"), ("exactlin.rref", "max_cells"),
    ("exactlin.Subspace", "calls"), ("exactlin.kernel", "s"),
    ("exactlin.annihilator", "s"), ("exactlin.space_intersect", "s"),
    ("exactlin.space_sum", "calls"),
    ("exactlin.det", "calls"), ("exactlin.inverse", "calls"),
    ("exactlin.matmul", "calls"), ("exactlin.matmul", "self_s"),
    ("exactlin.smith_normal_form", "self_s"), ("exactlin.saturate", "s"),
    ("lattices.GaloisLattice", "calls"), ("lattices.GaloisLattice", "self_s"),
    ("lattices.tensor", "calls"), ("lattices.dual", "calls"),
    ("lattices.stable_closure", "calls"),
    ("lattices.stable_closure", "space_sums"),
    ("lattices.stable_closure", "self_s"),
    ("radical.smallest_B", "s"), ("radical.derived_torus_Z1", "s"),
    ("radical.torus_Z", "s"), ("radical.unipotent_radical", "self_s"),
    ("radical.radical_cartier_dual", "s"),
    ("abelian.annihilator_module", "s"),
    ("liealg.build_E", "self_s"), ("pairings.antisymmetrize", "self_s"),
    ("motive.OneMotive", "calls"), ("motive.OneMotive", "self_s"),
    ("motive.cartier_dual", "self_s"),
    ("document.parse_input", "self_s"),
    ("document.serialize_document", "self_s"),
    ("document.check_invariants", "self_s"),
)

COUNT_KINDS = ("calls", "cells", "max_cells", "space_sums")

NAME, START, END, PARENT, PASS, OP, CELLS = range(7)


class Tracer:
    """Collects spans while installed; ``pass_id``/``op_id`` tag them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = None
        self.op_id = None

    def _open(self, name, cells=None):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, name, cells, time.perf_counter()

    def _close(self, opened):
        end = time.perf_counter()
        index, name, cells, start = opened
        self._stack.pop()
        # A closed span is a tuple of atoms, which the cyclic garbage
        # collector stops tracking, so a long run of spans does not slow
        # the collections that untraced passes trigger.
        self.spans[index] = (name, start, end,
                             self._stack[-1] if self._stack else -1,
                             self.pass_id, self.op_id, cells)

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(
                name, measure(*args, **kwargs) if measure else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return wrapper

    @contextlib.contextmanager
    def installed(self, package="motcalc"):
        """Wrap every target of the loaded ``package`` for the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        restore = []
        try:
            for module_name, attr, name, measure in TARGETS:
                module = sys.modules["%s.%s" % (package, module_name)]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original, measure))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, measure)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            restore.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def self_times(self):
        """Self time of each span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        return [r[END] - r[START] - c for r, c in zip(self.spans, child)]

    def per_pass(self):
        """{pass_id: {(name, kind): value}} over every recorded span."""
        selfs = self.self_times()
        totals = defaultdict(lambda: defaultdict(float))
        for record, self_s in zip(self.spans, selfs):
            t = totals[record[PASS]]
            name = record[NAME]
            t[(name, "calls")] += 1
            t[(name, "s")] += record[END] - record[START]
            t[(name, "self_s")] += self_s
            if record[CELLS] is not None:
                t[(name, "cells")] += record[CELLS]
                t[(name, "max_cells")] = max(t[(name, "max_cells")],
                                             record[CELLS])
            if record[PARENT] >= 0 and name == "exactlin.space_sum":
                parent = self.spans[record[PARENT]][NAME]
                t[(parent, "space_sums")] += 1
        return totals

    def layer_metrics(self):
        """Every LAYER_METRICS entry: median count, fastest time."""
        passes = list(self.per_pass().values())
        metrics = {}
        for name, kind in LAYER_METRICS:
            values = [p.get((name, kind), 0.0) for p in passes]
            if kind in COUNT_KINDS:
                metrics["%s.%s" % (name, kind)] = {
                    "value": int(statistics.median_low(values)),
                    "unit": "count"}
            else:
                metrics["%s.%s" % (name, kind)] = {
                    "value": min(values), "unit": "s"}
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for r in self.spans:
                handle.write(json.dumps({
                    "name": r[NAME], "start": r[START], "end": r[END],
                    "parent": r[PARENT], "pass": r[PASS], "op": r[OP],
                    "cells": r[CELLS]}) + "\n")
