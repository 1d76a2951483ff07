"""Span tracing of wordrep's public functions, installed from outside the
library for the traced benchmark run.

Every public function defined in one of the six library modules is replaced,
in every wordrep module that refers to it, by a wrapper that records a span
(name, start, end, parent) and the search counts of the call.  Spans stay in
flat arrays in memory until the run ends; self times are derived from them
afterwards: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

from wordrep.outcome import SearchOutcome

MODULES = ("words", "graphs", "orientation", "repnum", "enumeration", "io")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts = defaultdict(Counter)
        self.generated_forms = set()  # distinct canonical forms seen by generate

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_id = self._id(name)
        counts = self.counts[name]
        observe = {
            "orientation.neighborhood_filter": self._filter_hit,
            "graphs.canonical_form": self._canonical_form,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if isinstance(result, SearchOutcome):
                counts["nodes"] += result.nodes_expanded
                counts[result.status] += 1
            elif observe:
                observe(counts, result)
            return result

        return traced

    def _filter_hit(self, counts, result):
        counts["hits"] += result is not None

    def _canonical_form(self, counts, result):
        generate = self._ids.get("enumeration.generate")
        if any(self.name[i] == generate for i in self._stack[1:]):
            counts["in_generate"] += 1
            self.generated_forms.add(result)

    @contextlib.contextmanager
    def installed(self):
        """Swap every public library function for its traced wrapper, and
        put the originals back on exit."""
        originals = {}
        for short in MODULES:
            module = importlib.import_module(f"wordrep.{short}")
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    originals[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        patched = []
        for name, module in list(sys.modules.items()):
            if name != "wordrep" and not name.startswith("wordrep."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def layers(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        children = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - children[i]
        return out

    def write_spans(self, path):
        """One line per span: id, name, start, end (seconds from the first
        span) and the parent's id (-1 for none)."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}"
                    f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )


def per_layer_metrics(tracer, traced, untraced):
    """The benchmark's per-layer metrics from a traced pass and an untraced
    pass of the same work (`workloads.Pass` objects).

    Self times are given as shares of the time spent inside library calls,
    so that a layer that a workload never calls reads 0 rather than a
    duration.  Times here are raw: the two passes run back to back, and the
    shares and counts need no machine-speed correction.
    """
    layers = tracer.layers()
    inside = sum(
        tracer.end[i] - tracer.start[i] for i in range(len(tracer.start)) if tracer.parent[i] < 0
    )
    values = {}

    def layer(name, *fields):
        row = layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        counts = tracer.counts[name]
        for field in fields:
            if field == "calls":
                value = row["calls"]
            elif field == "self_frac":
                value = row["self_s"] / inside
            elif field == "nodes_per_s":
                value = counts["nodes"] / row["s"] if row["s"] else 0.0
            else:
                value = counts[field]
            values[f"{name}.{field}"] = value

    layer("graphs.canonical_form", "calls", "self_frac")
    layer("enumeration.generate", "self_frac")
    in_generate = tracer.counts["graphs.canonical_form"]["in_generate"]
    values["enumeration.generate.dedup_ratio"] = (
        len(tracer.generated_forms) / in_generate if in_generate else 0.0
    )
    layer("enumeration.census", "self_frac")
    values["enumeration.census.decided"] = layers.get(
        "enumeration.decide_graph", {"calls": 0}
    )["calls"]
    values["enumeration.checkpoint.bytes"] = traced.counts.get("checkpoint_bytes", 0)
    values["enumeration.checkpoint.lines"] = traced.counts.get("checkpoint_lines", 0)
    layer("orientation.neighborhood_filter", "calls", "self_frac", "hits")
    layer("orientation.find_transitive", "calls", "self_frac", "nodes")
    layer(
        "orientation.find_semi_transitive",
        "calls", "self_frac", "nodes", "refuted", "nodes_per_s",
    )
    layer(
        "repnum.find_k_uniform_word",
        "calls", "self_frac", "nodes", "refuted", "budget_exhausted", "nodes_per_s",
    )
    layer("repnum.representation_number", "calls", "self_frac")
    layer("repnum.find_pattern_avoiding_word", "calls", "self_frac", "nodes", "nodes_per_s")
    layer("words.word_to_graph", "calls", "self_frac")
    layer("graphs.automorphisms", "calls", "self_frac")
    layer("io.from_graph6", "calls", "self_frac")
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1
    return values
