"""In-memory spans and counters recorded around calls into the library.

Spans are opened by the benchmark's own code around each call into a
module's public functions; the library itself is not instrumented.  A
span's self time is its duration minus the durations of its direct
children, so a solver's time excludes the M(t) evaluations made through a
``TimedPath`` inside it.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Spans (name, start, end, parent) plus named counters."""

    tracing = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def path(self, path):
        return TimedPath(path, self)

    def totals(self):
        """Total and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - c
        return total, own

    def dump(self, path, **meta):
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                 for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "counts": dict(self.counts), "spans": spans}, fh)


class NullTracer:
    """Tracing off: spans cost one context-manager entry, paths pass through."""

    tracing = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, amount=1):
        pass

    def path(self, path):
        return path


class TimedPath:
    """Time-path wrapper that records every batched M(t) evaluation."""

    def __init__(self, path, tracer):
        self._path = path
        self._tracer = tracer

    def __call__(self, t):
        return self._path(t)

    def many(self, ts):
        self._tracer.count("channels.m_many_calls")
        self._tracer.count("channels.m_many_points", len(ts))
        with self._tracer.span("channels.m_many"):
            return self._path.many(ts)

    def left(self, t):
        return self._path.left(t)

    def right(self, t):
        return self._path.right(t)

    def jump_times(self, t0, t1):
        return self._path.jump_times(t0, t1)
