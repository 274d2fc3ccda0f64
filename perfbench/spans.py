"""Spans around calls into permcsp's public functions, made from outside.

A ``Tracer`` replaces a function at the module attribute its callers look
up (``permcsp.validate.check_regularity`` is what ``reductions`` and
``solvers`` call) with a wrapper that records a span: name, start, end,
parent and the item it belongs to, plus a few exact counts taken from the
arguments and the result.  Spans stay in memory until the run ends.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from permcsp import cli, core, formats, reductions, solvers, validate

from metrics import CHECKS, PER_LAYER, SHARED


def _grid_counts(args, result):
    return {"vertices": result.side * result.side,
            "edges": int(np.count_nonzero(result.adj)) // 2}


def _cert_counts(args, result):
    return {"constraints": len(result.instance.constraints)}


def _nodes(args, result):
    return {"nodes": result.nodes_explored}


def _text_bytes(args, result):
    return {"bytes": len(args[0])}


# (module, attribute, span name, counter); one span name may be patched at
# several attributes when callers import the function by name.
TARGETS = [
    (reductions, "reduce_sat_to_coloring", "reductions.reduce_sat_to_coloring", None),
    (reductions, "reduce_coloring_to_dcnnc", "reductions.reduce_coloring_to_dcnnc", _grid_counts),
    (reductions, "reduce_dcnnc_to_dcnnb", "reductions.reduce_dcnnc_to_dcnnb", _grid_counts),
    (reductions, "reduce_dcnnb_to_perm4", "reductions.reduce_dcnnb_to_perm4", _cert_counts),
    (reductions, "reduce_clique_to_perm6", "reductions.reduce_clique_to_perm6", _cert_counts),
    (validate, "check_biclique_structure", "validate.check_biclique_structure", None),
    (validate, "check_regularity", "validate.check_regularity", None),
    (validate, "check_stability", "validate.check_stability", None),
    (solvers, "solve_sat", "solvers.solve_sat", None),
    (solvers, "solve_3coloring", "solvers.solve_3coloring", None),
    (solvers, "solve_row_clique", "solvers.solve_row_clique", None),
    (solvers, "solve_row_biclique", "solvers.solve_row_biclique", None),
    (solvers, "solve_brute", "solvers.solve_brute", _nodes),
    (solvers, "solve_dp3", "solvers.solve_dp3", _nodes),
    (solvers, "solve_convenient", "solvers.solve_convenient", _nodes),
    (core, "evaluate", "core.evaluate", None),
    (solvers, "evaluate", "core.evaluate", None),
    (cli, "evaluate", "core.evaluate", None),
    (formats, "dump_grid", "formats.dump_grid", None),
    (formats, "read_grid", "formats.read_grid", _text_bytes),
    (formats, "read_certificate", "formats.read_certificate", None),
    (formats, "write_certificate", "formats.write_certificate", None),
]


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, item, counts]
        self.stack = []
        self.item = None
        self.grids = []        # grids checked in the current item
        self.saved = []

    def begin_item(self, item):
        """Tag the spans that follow with item; forget the last item's
        grids.  Holding them until then keeps each grid's index a stable
        key: a freed grid's id() can be reused by the next one."""
        self.item = item
        self.grids = []

    def grid_key(self, grid):
        for k, seen in enumerate(self.grids):
            if seen is grid:
                return k
        self.grids.append(grid)
        return len(self.grids) - 1

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
               self.item, {}]
        self.spans.append(rec)
        self.stack.append(sid)
        rec[1] = time.perf_counter()
        try:
            yield rec[5]
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, counter):
        """The counts are taken after the span ends, so their cost falls
        in the parent's self time (for most spans the item's: the
        trace.unattributed_share), not in the traced function's."""
        def traced(*args, **kwargs):
            if name == "formats.dump_grid":
                start = args[1].tell()
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if counter is not None:
                counts.update(counter(args, result))
            if name.startswith("validate."):
                counts["grid"] = self.grid_key(args[0])
            if name == "formats.dump_grid":
                counts["bytes"] = args[1].tell() - start
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, counter in TARGETS:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved = []

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "item": s[4], "counts": s[5]} for s in self.spans]


def summarize(tracer, item_walls):
    """Per-layer metrics from the recorded spans, except cli.startup_s."""
    items = len(item_walls)
    total_wall = sum(item_walls)
    acc = defaultdict(float)
    grids = set()
    for s, self_time in zip(tracer.spans, tracer.self_times()):
        name = s[0]
        acc[name + ".self_s"] += self_time
        acc[name + ".calls"] += 1
        acc[name + ".wall_s"] += s[2] - s[1]
        for key, val in s[5].items():
            if key == "grid":
                grids.add((s[4], val))
            elif key in ("vertices", "edges"):
                acc["reductions.grid." + key] += val
            elif key == "constraints":
                acc["reductions.cert.constraints"] += val
            else:
                acc[name + "." + key] += val
    m = {name: acc[name] / items for name, _, _ in PER_LAYER}
    for name in SHARED:
        m[name + ".share"] = acc[name + ".self_s"] / total_wall
    calls = sum(acc["validate.%s.calls" % f] for f in CHECKS)
    m["validate.checks_per_grid"] = calls / len(grids) if grids else 0.0
    m["trace.throughput_per_s"] = items / total_wall
    m["trace.unattributed_share"] = acc["item.self_s"] / total_wall
    del m["cli.startup_s"]
    return m


def nesting_problems(tracer, item_walls, tolerance=0.01, floor_s=0.001):
    """Every span nests inside its parent, after its previous sibling, and
    under an "item" span of its own item; each item's self times add up to
    its wall time, which the caller measures outside the tracer.  A span
    lost, doubled, or filed under the wrong item breaks the sum.  The
    allowance, the larger of tolerance * wall and floor_s, covers the cost
    of opening and closing the item span itself (tens of microseconds)."""
    problems = []
    spans = tracer.spans
    last_end = {}
    for sid, s in enumerate(spans):
        p = s[3]
        if p is None:
            if s[0] != "item":
                problems.append("span %d (%s) has no item" % (sid, s[0]))
            continue
        parent = spans[p]
        if parent[4] != s[4] or not parent[1] <= s[1] <= s[2] <= parent[2]:
            problems.append("span %d (%s) is not inside its parent %d"
                            % (sid, s[0], p))
        if s[1] < last_end.get(p, s[1]):
            problems.append("span %d (%s) overlaps its previous sibling"
                            % (sid, s[0]))
        last_end[p] = s[2]
    total = defaultdict(float)
    for s, self_time in zip(spans, tracer.self_times()):
        total[s[4]] += self_time
    for item, wall in enumerate(item_walls):
        if abs(total[item] - wall) > max(tolerance * wall, floor_s):
            problems.append("item %d: self times sum to %.6f s, wall %.6f s"
                            % (item, total[item], wall))
    return problems
