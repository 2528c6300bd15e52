"""In-memory spans around the benchmark's calls into tforge.

A span is (name, start, end, parent).  The name's first dotted part is the
layer: a tforge module (``designs``, ``codes``, ...) or ``bench`` for the
benchmark's own op spans, which are the parents of the module calls an op
makes.  With tracing off, ``call`` is a plain call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._open: list = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, lo: int, hi: int) -> dict:
        """Self time per span name over spans[lo:hi]: duration minus children.

        The range must hold whole subtrees, as the spans of one op do.
        """
        spans = self.spans[lo:hi]
        out: dict = defaultdict(float)
        for name, start, end, parent in spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def span_cost(samples: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    plain = Tracer(False)
    traced = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        plain.call("bench.noop", noop)
    t1 = time.perf_counter()
    for _ in range(samples):
        traced.call("bench.noop", noop)
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / samples
