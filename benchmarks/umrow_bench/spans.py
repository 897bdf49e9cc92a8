"""Spans and counts recorded by the benchmark around its calls into umrow.

Spans are ``[name, start, end, parent index, op id]`` lists kept in memory
and written out when the run ends.  A span's self time is its duration less
the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.op])
        tr._open.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


class Tracer:
    """Spans ``[name, start, end, parent index, op id]`` and counts, kept in
    memory; both stay empty when tracing is off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._open: list = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n


def self_times(spans) -> dict:
    """Seconds per span name, each span less the time its children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[k]
    return out
