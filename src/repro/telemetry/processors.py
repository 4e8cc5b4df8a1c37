"""Telemetry processors: the built-in consumers of trace events.

* :class:`CounterProcessor` — a metrics registry of counters and
  duration histograms; the single source the
  :meth:`~repro.sentinel.Sentinel.report` counters are read from.
* :class:`TraceLogProcessor` — a ring buffer of trace events plus a
  text renderer that rebuilds the span tree (CLI ``trace``).
* :class:`TimingProcessor` — per-rule / per-event latency histograms.

Processors are synchronous and must be cheap; the hub isolates their
failures, but a slow processor still slows the instrumented paths.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from typing import Callable, Iterable, Optional

from repro.telemetry.events import (
    BatchIngested,
    BufferEviction,
    ChannelMessage,
    ConditionEvaluated,
    DetachedDispatch,
    DetachedOverflow,
    Detection,
    GlobalDetectionDelivered,
    GlobalEventReceived,
    GlobalEventSent,
    GraphPropagation,
    NotificationReceived,
    NotificationSuppressed,
    RuleExecution,
    RuleTriggered,
    SubtransactionBoundary,
    TraceEvent,
    TransactionSpan,
    WalFlush,
)


class TelemetryProcessor:
    """Base class: receives every event emitted by the hub."""

    def handle(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (files, sockets); the default has none."""


# =========================================================================
# Metrics registry
# =========================================================================

class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class LogHistogram:
    """Latency summary with power-of-two buckets from 1 µs to ~16 s.

    Lifecycle stages span five orders of magnitude — a wrapped
    ``notify`` costs ~1 µs while a detached-queue wait under load is
    tens of milliseconds — so the buckets are one per octave (≤2x
    relative error), which keeps :meth:`observe` a single bisect and
    the memory per histogram at a few hundred bytes. Every registry,
    profiler and stage histogram is one of these; the Prometheus
    renderer reads ``BOUNDS`` / ``buckets`` / ``count`` / ``total``.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    #: upper bounds (ms): 0.001 · 2^i for i in 0..24; the last is +inf
    BOUNDS = tuple(0.001 * 2.0 ** i for i in range(25))

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value_ms: float) -> None:
        self.count += 1
        self.total += value_ms
        if value_ms < self.min:
            self.min = value_ms
        if value_ms > self.max:
            self.max = value_ms
        self.buckets[bisect_left(self.BOUNDS, value_ms)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``), estimated from buckets.

        Returns the upper bound of the bucket holding the target rank,
        clamped to the observed maximum — so the estimate never exceeds
        any value actually recorded, and the relative error is bounded
        by the octave bucket ratio (≤2x).
        """
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for bound, count in zip(self.BOUNDS, self.buckets):
            cumulative += count
            if cumulative >= target:
                return min(bound, self.max)
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total_ms": round(self.total, 3),
            "mean_ms": round(self.mean, 4),
            "min_ms": round(self.min, 4) if self.count else 0.0,
            "max_ms": round(self.max, 4),
            "p50_ms": round(self.percentile(0.50), 4),
            "p95_ms": round(self.percentile(0.95), 4),
            "p99_ms": round(self.percentile(0.99), 4),
        }

    def __repr__(self) -> str:
        return (
            f"LogHistogram({self.name}, n={self.count}, "
            f"p50={self.percentile(0.5):.3f}ms)"
        )


class MetricsRegistry:
    """A flat namespace of named counters and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, LogHistogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> LogHistogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LogHistogram(name)
        return histogram

    def value(self, name: str, default: int = 0) -> int:
        """A counter's current value (``default`` if never incremented)."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    def to_dict(self) -> dict:
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }


# =========================================================================
# Built-in processors
# =========================================================================

class CounterProcessor(TelemetryProcessor):
    """Aggregates trace events into a :class:`MetricsRegistry`.

    This registry supersedes the scattered per-module stats objects
    (``DetectorStats``, ``SchedulerStats``, ...): every counter those
    structs maintained has a named equivalent here, derived from the
    same instrumentation points (see ``tests/telemetry/test_parity``).
    Span durations additionally land in per-stage histograms
    (``notify.ms``, ``rule.ms``, ``wal.flush.ms``, ...).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._handlers: dict[type, Callable] = {
            NotificationReceived: self._on_notification,
            NotificationSuppressed: self._on_suppressed,
            RuleTriggered: self._on_trigger,
            DetachedDispatch: self._on_detached,
            DetachedOverflow: self._on_detached_overflow,
            BatchIngested: self._on_batch,
            Detection: self._on_detection,
            ConditionEvaluated: self._on_condition,
            RuleExecution: self._on_rule,
            SubtransactionBoundary: self._on_subtxn,
            TransactionSpan: self._on_txn,
            WalFlush: self._on_wal_flush,
            BufferEviction: self._on_eviction,
            GlobalEventSent: self._on_global_sent,
            GlobalEventReceived: self._on_global_received,
            GlobalDetectionDelivered: self._on_global_delivered,
            ChannelMessage: self._on_channel,
        }

    def _on_notification(self, event: NotificationReceived) -> None:
        # Explicit raises are not Notify calls; DetectorStats counts
        # only the latter, and the registry mirrors that split.
        if event.source == "explicit":
            self.registry.counter("detector.raises").inc()
        else:
            self.registry.counter("detector.notifications").inc()
        self.registry.counter("detector.matched").inc(event.matched)

    def _on_suppressed(self, event: NotificationSuppressed) -> None:
        self.registry.counter("detector.notifications").inc()
        self.registry.counter("detector.suppressed").inc()

    def _on_trigger(self, event: RuleTriggered) -> None:
        self.registry.counter("rules.triggers").inc()

    def _on_detached(self, event: DetachedDispatch) -> None:
        self.registry.counter("detector.detached_dispatches").inc()

    def _on_detached_overflow(self, event: DetachedOverflow) -> None:
        self.registry.counter("detached.overflows").inc()
        self.registry.counter(f"detached.overflows.{event.policy}").inc()

    def _on_batch(self, event: BatchIngested) -> None:
        # A batch is N notifications ingested under one span; mirror the
        # per-item counters DetectorStats keeps, plus the batch count.
        self.registry.counter("detector.batches").inc()
        if event.source == "explicit":
            self.registry.counter("detector.raises").inc(event.size)
        else:
            self.registry.counter("detector.notifications").inc(event.size)
        self.registry.counter("detector.matched").inc(event.matched)

    def _on_detection(self, event: Detection) -> None:
        self.registry.counter("graph.detections").inc()
        self.registry.counter(f"graph.detections.{event.context}").inc()

    def _on_condition(self, event: ConditionEvaluated) -> None:
        self.registry.counter("rules.conditions_evaluated").inc()

    def _on_subtxn(self, event: SubtransactionBoundary) -> None:
        self.registry.counter(f"txn.sub_{event.kind}").inc()

    def _on_txn(self, event: TransactionSpan) -> None:
        self.registry.counter(f"txn.{event.outcome}").inc()

    def _on_wal_flush(self, event: WalFlush) -> None:
        self.registry.counter("wal.flushes").inc()
        self.registry.counter("wal.records").inc(event.records)

    def _on_eviction(self, event: BufferEviction) -> None:
        self.registry.counter("buffer.evictions").inc()

    def _on_global_sent(self, event: GlobalEventSent) -> None:
        self.registry.counter("global.sent").inc()

    def _on_global_received(self, event: GlobalEventReceived) -> None:
        self.registry.counter("global.received").inc()
        if not event.known:
            self.registry.counter("global.dropped").inc()

    def _on_global_delivered(self, event: GlobalDetectionDelivered) -> None:
        self.registry.counter("global.delivered").inc()

    def _on_channel(self, event: ChannelMessage) -> None:
        self.registry.counter(f"channel.{event.kind}").inc()

    def _on_rule(self, event: RuleExecution) -> None:
        r = self.registry
        if event.outcome == "completed":
            r.counter("rules.executions").inc()
        elif event.outcome == "rejected":
            r.counter("rules.condition_rejections").inc()
        elif event.outcome == "failed":
            r.counter("rules.failures").inc()

    def handle(self, event: TraceEvent) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)
        if event.is_span:
            self.registry.histogram(f"{event.stage}.ms").observe(
                event.duration_ms
            )


class TimingProcessor(TelemetryProcessor):
    """Per-rule and per-event latency histograms.

    * ``rule:<name>`` — full subtransaction latency per rule;
    * ``condition:<name>`` — condition evaluation latency per rule;
    * ``event:<name>`` — propagation latency per source event node
      (the cost of the data-flow cascade one occurrence causes);
    * ``wal.flush`` — log force latency.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def handle(self, event: TraceEvent) -> None:
        if isinstance(event, RuleExecution):
            self.registry.histogram(f"rule:{event.rule_name}").observe(
                event.duration_ms
            )
        elif isinstance(event, ConditionEvaluated):
            self.registry.histogram(f"condition:{event.rule_name}").observe(
                event.duration_ms
            )
        elif isinstance(event, GraphPropagation):
            self.registry.histogram(f"event:{event.event_name}").observe(
                event.duration_ms
            )
        elif isinstance(event, WalFlush):
            self.registry.histogram("wal.flush").observe(event.duration_ms)

    def rule_timings(self) -> dict[str, dict]:
        return {
            name[len("rule:"):]: hist.summary()
            for name, hist in self.registry.histograms.items()
            if name.startswith("rule:")
        }


class TraceLogProcessor(TelemetryProcessor):
    """Ring buffer of trace events with a span-tree text renderer.

    The buffer is a fixed-capacity ring: once full, appending a new
    event evicts the oldest one. Spans are emitted on close (children
    before parents), so eviction can orphan an event whose parent span
    closed long ago — orphans render as tree roots rather than
    disappearing. Readers snapshot the buffer exactly once under a
    lock, so rendering while rule threads are still appending never
    sees a half-updated ring.
    """

    def __init__(self, capacity: int = 4096):
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._buffer.maxlen or 0

    def handle(self, event: TraceEvent) -> None:
        with self._lock:
            self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._buffer)

    def for_trace(self, trace_id: str) -> list[TraceEvent]:
        """The buffered events belonging to one end-to-end trace."""
        return [e for e in self.events() if e.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    # -- tree rendering ------------------------------------------------------

    def roots(self) -> list[TraceEvent]:
        """Events whose parent is absent from the buffer (tree roots)."""
        pool = self.events()
        present = {e.span_id for e in pool}
        return [
            e for e in pool
            if e.parent_span_id is None or e.parent_span_id not in present
        ]

    def trees(self, events: Optional[Iterable[TraceEvent]] = None) -> list[dict]:
        """The buffered events as parent-linked trees of plain dicts.

        Each node is the event's fields (via
        :func:`~repro.telemetry.events` dataclass introspection) plus
        ``type`` and ``children``; orphans whose parents were evicted
        out of the ring become roots. This is the ``/spans`` endpoint's
        payload and the JSONL exporter's in-memory shape.
        """
        import dataclasses

        pool = self.events() if events is None else list(events)
        children = self._group(pool)

        def node(event: TraceEvent) -> dict:
            data = dataclasses.asdict(event)
            data["type"] = type(event).__name__
            data["stage"] = event.stage
            data["children"] = [
                node(child) for child in children.get(event.span_id, ())
            ]
            return data

        return [node(root) for root in children.get(None, ())]

    def _group(
        self, pool: list[TraceEvent]
    ) -> dict[Optional[int], list[TraceEvent]]:
        """Group one snapshot by parent; evicted parents map to None.

        Works from a single snapshot so the ``present`` set and the
        grouping always agree — grouping against a live ring could file
        a child under a parent that only arrived after the snapshot,
        silently dropping it from the output.
        """
        children: dict[Optional[int], list[TraceEvent]] = {}
        present = {e.span_id for e in pool}
        for event in pool:
            parent = event.parent_span_id
            key = parent if parent in present else None
            children.setdefault(key, []).append(event)
        for siblings in children.values():
            siblings.sort(key=lambda e: e.span_id)
        return children

    def render(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        """The buffered events as an indented span tree.

        Spans are emitted on close (children first); the tree is rebuilt
        from parent links and printed in start order (span-id order).
        The walk is iterative, so a trace nested thousands of spans deep
        (a long rule cascade filling the whole ring) cannot blow the
        interpreter recursion limit.
        """
        pool = self.events() if events is None else list(events)
        children = self._group(pool)

        lines: list[str] = []
        stack: list[tuple[TraceEvent, int]] = [
            (root, 0) for root in reversed(children.get(None, ()))
        ]
        while stack:
            event, depth = stack.pop()
            duration = (
                f" [{event.duration_ms:.3f}ms]" if event.is_span else ""
            )
            summary = event.summary()
            summary = f" {summary}" if summary else ""
            lines.append(
                f"{'  ' * depth}{event.stage}#{event.span_id}"
                f"{summary}{duration}"
            )
            for child in reversed(children.get(event.span_id, ())):
                stack.append((child, depth + 1))
        return "\n".join(lines) + ("\n" if lines else "")
