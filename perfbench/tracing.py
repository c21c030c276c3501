"""In-memory spans for the traced benchmark run.

A span is (iteration, name, start, end, parent).  Spans are opened by the
benchmark around calls into a bardual layer's public functions; nothing
inside the package is instrumented.  Span names are the per-layer metric
names, and the layer is the part before the first dot.

bardual is a single-threaded exact engine: no work ever waits for a queue,
a lock or another process, so spans carry busy time only and no layer
reports a wait time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [iteration, name, start, end, parent index]
        self._stack = []
        self.iteration = 0

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([self.iteration, name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = perf_counter()

    def totals(self, iteration):
        """Inclusive seconds per span name within one iteration."""
        out = {}
        for it, name, start, end, _ in self.spans:
            if it == iteration:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def layer_self_times(self, iteration, root):
        """Self seconds per layer within the tree under span index `root`.

        A span's self time is its duration minus the time its children
        cover, so the layer self times sum to the root span's duration.
        """
        child_time = {}
        in_tree = {root}
        for idx, (_, _, start, end, parent) in enumerate(self.spans):
            if parent in in_tree:
                in_tree.add(idx)
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {}
        for idx in sorted(in_tree):
            _, name, start, end, _ = self.spans[idx]
            layer = name.split(".", 1)[0]
            own = (end - start) - child_time.get(idx, 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path):
        rows = [{"iteration": it, "name": name, "start": start, "end": end,
                 "parent": parent}
                for it, name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


class NoTracer:
    """Tracer stand-in for untraced runs: every span is a no-op."""

    _null = nullcontext()

    def span(self, name):
        return self._null
