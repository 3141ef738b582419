"""In-memory spans recorded around calls into wcl, and their self times.

A span has a name, a start, an end and the index of the span that was
open when it began (its parent).  Spans are kept in a list in the order
they opened and written out once, when the traced pass ends.  The open
span stack is per thread, so a span started on a worker thread has no
parent; its time then overlaps its caller's and shows up as a self-time
sum above the wall time.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

COUNT_SPAN = "bench.count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``wrap`` turns a function into one that opens a span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        stack.pop()
        self.spans[index].end = self.clock()

    def wrap(self, name: str, fn, count=None, around=None):
        """``fn`` inside a span called ``name``.

        ``count(args, kwargs)`` updates counters before the call, inside a
        span of its own (``bench.count``) so that its cost is charged to
        the benchmark, not to the caller or to ``fn``; a string it returns
        is appended to the span name.  ``around(fn, args, kwargs)``, if
        given, makes the call itself (to measure memory, say).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if count is not None:
                probe = self.open(COUNT_SPAN)
                try:
                    suffix = count(args, kwargs)
                finally:
                    self.close(probe)
                if suffix:
                    span_name = f"{name}.{suffix}"
            index = self.open(span_name)
            try:
                if around is not None:
                    return around(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover.  Children
    are closed spans opened later on the same thread, so they do not
    overlap and their durations add up."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def busy_times(spans: list[Span]) -> dict[str, float]:
    """Per name, the summed duration of its spans."""
    busy: dict[str, float] = {}
    for span in spans:
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
    return busy
