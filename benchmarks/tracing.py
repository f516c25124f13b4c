"""In-memory spans around calls into the package, and the statistics on them.

A span is ``[name, start, end, parent, error]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``error`` the name of the exception
that left the span, or None.  The layer of a span is the part of its name
before the first dot, so ``model.min_offset`` belongs to ``model`` and the
root span of each workload unit, ``bench.unit``, to the benchmark's own glue.
Spans are kept in a list and written out once, after the run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = -1

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        parent = self._open
        rec = [name, 0.0, 0.0, parent, None]
        self._open = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        except Exception as exc:
            rec[4] = type(exc).__name__
            raise
        finally:
            rec[2] = perf_counter()
            self._open = parent

    def durations(self, name, completed_only=False) -> list:
        return [end - start for n, start, end, _, err in self.spans
                if n == name and not (completed_only and err)]

    def self_times(self) -> dict:
        """Seconds per layer with child spans subtracted from their parent."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - c
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "error"],
                       "spans": self.spans}, fh)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples above it (50 when n <= 20)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n > 20 else 50.0


def p50_tail(samples) -> tuple:
    """(median, tail value, tail percentile, sample count); zeros when empty."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    q = tail_percentile(n)
    p50, tail = np.percentile(np.asarray(samples, dtype=float), [50.0, q])
    return float(p50), float(tail), q, n
