"""Spans and counts around the public entry points of each ``lgquot`` layer.

The program is not changed: `install` replaces functions and methods in the
loaded ``lgquot`` modules with wrappers from this file.  A span records its
name, start, end and parent; a count is a plain counter.  `summary` turns
them into the per-layer metrics.  Only the worker process imports this.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# layers whose spans are subtracted from a formula's time to give its self time
INNER_LAYERS = ("partitions.", "symfunc.", "cyclotomic.")
FORMULAS = ("gw_invariant", "intersection_number", "maximal_count")

# per-layer metric name -> unit, in report order
METRICS = {
    "partitions.summation_tuples_s": "s",
    "partitions.candidates": "count",
    "partitions.points": "count",
    "partitions.yield": "ratio",
    "symfunc.point_tables": "count",
    "symfunc.point_tables_s": "s",
    "symfunc.determinant_calls": "count",
    "symfunc.determinant_s": "s",
    "symfunc.pfaffian_calls": "count",
    "symfunc.pfaffian_s": "s",
    "cyclotomic.mul": "count",
    "cyclotomic.add": "count",
    "cyclotomic.inverse": "count",
    "cyclotomic.inverse_s": "s",
    "invariants.calls": "count",
    "invariants.points_summed": "count",
    "invariants.self_s": "s",
    "oracle.gw_calls": "count",
    "oracle.gw_s": "s",
    "oracle.build_s": "s",
    "oracle.load_s": "s",
    "oracle.cache_bytes": "bytes",
    "oracle.trace_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# metrics whose values are sums of counts or times over traced processes
SUMMED = [name for name in METRICS if name not in ("partitions.yield", "trace.overhead_ratio")]


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def time_in(self, name: str) -> float:
        """Total time in spans of `name`, not counting one nested in another."""
        total = 0.0
        for index, (span_name, start, end, _parent) in enumerate(self.spans):
            if span_name == name and not self._inside(index, name):
                total += end - start
        return total

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def formula_self_time(self) -> float:
        """Formula span time minus the partitions, symfunc and cyclotomic spans inside."""
        total = 0.0
        for name, start, end, _parent in self.spans:
            if name == "invariants.formula":
                total += end - start
        for name, start, end, parent in self.spans:
            if not name.startswith(INNER_LAYERS):
                continue
            while parent >= 0:
                parent_name = self.spans[parent][0]
                if parent_name == "invariants.formula":
                    total -= end - start
                    break
                if parent_name.startswith(INNER_LAYERS):
                    break
                parent = self.spans[parent][3]
        return total

    def summary(self) -> dict:
        """The SUMMED metrics of this process (the ratios are formed after summing)."""
        c = self.counts
        return {
            "partitions.summation_tuples_s": self.time_in("partitions.summation_tuples"),
            "partitions.candidates": c["partitions.candidates"],
            "partitions.points": c["partitions.points"],
            "symfunc.point_tables": c["symfunc.point_tables"],
            "symfunc.point_tables_s": self.time_in("symfunc.point_table"),
            "symfunc.determinant_calls": c["symfunc.determinant"],
            "symfunc.determinant_s": self.time_in("symfunc.determinant"),
            "symfunc.pfaffian_calls": c["symfunc.pfaffian"],
            "symfunc.pfaffian_s": self.time_in("symfunc.pfaffian"),
            "cyclotomic.mul": c["cyclotomic.mul"],
            "cyclotomic.add": c["cyclotomic.add"],
            "cyclotomic.inverse": c["cyclotomic.inverse"],
            "cyclotomic.inverse_s": self.time_in("cyclotomic.inverse"),
            "invariants.calls": c["invariants.calls"],
            "invariants.points_summed": c["invariants.points_summed"],
            "invariants.self_s": self.formula_self_time(),
            "oracle.gw_calls": c["oracle.gw_calls"],
            "oracle.gw_s": self.time_in("oracle.gw"),
            "oracle.build_s": self.time_in("oracle.build"),
            "oracle.load_s": self.time_in("oracle.load"),
            "oracle.cache_bytes": c["oracle.cache_bytes"],
            "oracle.trace_s": self.time_in("oracle.trace"),
        }


def _replace_everywhere(original, replacement) -> None:
    """Point every name bound to `original` in a loaded lgquot module at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "lgquot" or module_name.startswith("lgquot.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of partitions, symfunc, cyclotomic, invariants and oracle."""
    import lgquot.cli  # noqa: F401  (loads every module, so all bindings are patched)
    from lgquot import cyclotomic, invariants, oracle, partitions, symfunc

    counts = tracer.counts

    # partitions: candidates from root_tuples, points from summation_tuples misses
    root_tuples = partitions.root_tuples

    def counted_root_tuples(N):
        out = root_tuples(N)
        counts["partitions.candidates"] += len(out)
        return out

    _replace_everywhere(root_tuples, counted_root_tuples)
    summation_tuples = partitions.summation_tuples

    def traced_summation_tuples(N):
        misses = summation_tuples.cache_info().misses
        out = summation_tuples(N)
        if summation_tuples.cache_info().misses > misses:
            counts["partitions.points"] += len(out)
        return out

    _replace_everywhere(summation_tuples,
                        tracer.wrap("partitions.summation_tuples", traced_summation_tuples))

    # symfunc: table construction, Jacobi-Trudi determinants, Pfaffians
    table = symfunc.PointTable
    table.__init__ = tracer.counter(
        "symfunc.point_tables", tracer.wrap("symfunc.point_table", table.__init__))
    for name in ("determinant", "pfaffian"):
        original = getattr(symfunc, name)
        _replace_everywhere(original, tracer.counter(
            f"symfunc.{name}", tracer.wrap(f"symfunc.{name}", original)))

    # the formulas look up each point's staircase Schur value once per point
    schur = table.schur

    def counted_schur(self, partition):
        stack = tracer.stack
        if stack and tracer.spans[stack[-1]][0] == "invariants.formula":
            counts["invariants.points_summed"] += 1
        return schur(self, partition)

    table.schur = counted_schur

    # cyclotomic: arithmetic counts and timed inverses
    number = cyclotomic.CyclotomicNumber
    for attr, name in (("__mul__", "mul"), ("__rmul__", "mul"),
                       ("__add__", "add"), ("__radd__", "add")):
        setattr(number, attr, tracer.counter(f"cyclotomic.{name}", getattr(number, attr)))
    number.inverse = tracer.counter(
        "cyclotomic.inverse", tracer.wrap("cyclotomic.inverse", number.inverse))

    # invariants: the three formulas
    for name in FORMULAS:
        original = getattr(invariants, name)
        _replace_everywhere(original, tracer.counter(
            "invariants.calls", tracer.wrap("invariants.formula", original)))

    # oracle: its genus-zero calls into the formulas, and traces
    oracle.gw_invariant = tracer.counter(
        "oracle.gw_calls", tracer.wrap("oracle.gw", oracle.gw_invariant))
    _replace_everywhere(oracle.trace_invariant,
                        tracer.wrap("oracle.trace", oracle.trace_invariant))
