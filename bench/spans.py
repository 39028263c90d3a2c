"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span (or None) and op is the identifier of the operation the
span belongs to.  The layer of a span is the part of its name before the
first dot, so ``search.worst_case_value`` belongs to ``search``.  Spans are
kept in memory and written out once, when the worker ends.

The untraced pass uses ``NULL_TRACER``, whose ``span`` is a shared no-op
context manager, so the code path is the same apart from the clock reads.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

__all__ = ["NULL_TRACER", "Tracer", "layer_of", "self_times"]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class _NullTracer:
    enabled = False
    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()


class Tracer:
    """Records nested spans; ``op`` is set by the caller before each op.
    ``clock`` is the time source, so spans can leave out probe time."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int | None, object]] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def self_times(spans) -> dict[str, float]:
    """Seconds per layer, each span counted for its duration minus the part
    its child spans cover.  Children of one parent run one after another in
    a single thread, so the covered part is the sum of their durations."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[layer_of(name)] += (end - start) - child_time[i]
    return dict(totals)
