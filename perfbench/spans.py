"""In-memory spans recorded by the benchmark around calls into each layer.

The tracer never edits the program: it interposes on *instances*
(``setattr(obj, name, traced(getattr(obj, name)))``) or wraps callables
the benchmark itself hands to the program (rule conditions and
actions). Each thread keeps its own span stack, so a span's parent is
the innermost span open on the same thread when it started.

A layer's *self time* is its span's duration minus the part of that
interval covered by its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a root
    name: str
    start_ns: int
    end_ns: int


class Tracer:
    """Records :class:`Span` tuples; appending to a list is atomic."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent_id = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent_id, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent_id = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(Span(span_id, parent_id, name, start, end))

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A coroutine function traced per call. Tasks interleave on one
        loop thread, so these spans are roots and skip the span stack."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id = next(ids)
            start = perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append(Span(span_id, 0, name, start, perf_counter_ns()))

        return traced

    def interpose(self, obj, attribute: str, name: str) -> None:
        """Replace ``obj.attribute`` (on the instance) by a traced call."""
        setattr(obj, attribute, self.wrap(name, getattr(obj, attribute)))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def _covered(interval: tuple[int, int],
             children: Iterable[tuple[int, int]]) -> int:
    """Nanoseconds of ``interval`` covered by the union of ``children``."""
    low, high = interval
    covered = 0
    cursor = low
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class LayerTimes(NamedTuple):
    count: dict[str, int]
    total_ns: dict[str, int]
    self_ns: dict[str, int]


def layer_times(spans: Iterable[Span]) -> LayerTimes:
    """Per span name: call count, total time and self time."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent_id:
            children[span.parent_id].append((span.start_ns, span.end_ns))
    count: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for span in spans:
        duration = span.end_ns - span.start_ns
        count[span.name] += 1
        total[span.name] += duration
        own[span.name] += duration - _covered(
            (span.start_ns, span.end_ns), children.get(span.span_id, ())
        )
    return LayerTimes(dict(count), dict(total), dict(own))
