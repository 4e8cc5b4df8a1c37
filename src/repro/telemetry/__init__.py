"""Unified telemetry: trace spans and a metrics registry.

The observability layer the paper's BEAST measurements presuppose:
every lifecycle stage of Figure 1 (notification, graph propagation,
composite detection, condition evaluation, rule subtransactions,
detached dispatch, WAL flush, buffer eviction) emits a frozen-dataclass
trace event through a :class:`TelemetryHub` to pluggable, best-effort
:class:`TelemetryProcessor`\\ s. With no processor attached the
instrumented paths reduce to a single flag check.

Quickstart::

    from repro import Sentinel
    from repro.telemetry import TraceLogProcessor

    system = Sentinel()
    trace = system.telemetry.attach(TraceLogProcessor())
    with system.transaction():
        ...                       # signal events, fire rules
    print(trace.render())         # the span tree of that transaction

See ``docs/observability.md`` for the event taxonomy and a processor
cookbook.
"""

from repro.telemetry.events import (
    ALL_EVENT_TYPES,
    BufferEviction,
    ChannelMessage,
    ConditionEvaluated,
    DetachedDispatch,
    DetachedQueueWait,
    Detection,
    GlobalDetectionDelivered,
    GlobalEventReceived,
    GlobalEventSent,
    GraphPropagation,
    NotificationReceived,
    NotificationSuppressed,
    RuleExecution,
    RuleTriggered,
    ShardHop,
    SubtransactionBoundary,
    TraceEvent,
    TransactionSpan,
    WalFlush,
    WireRequest,
)
from repro.telemetry.hub import (
    INHERIT,
    TelemetryHub,
    TelemetrySpan,
    new_trace_id,
)
from repro.telemetry.latency import STAGES, StageLatencyProcessor
from repro.telemetry.processors import (
    Counter,
    CounterProcessor,
    LogHistogram,
    MetricsRegistry,
    TelemetryProcessor,
    TimingProcessor,
    TraceLogProcessor,
)

__all__ = [
    "TelemetryHub",
    "TelemetrySpan",
    "TelemetryProcessor",
    "CounterProcessor",
    "TimingProcessor",
    "TraceLogProcessor",
    "MetricsRegistry",
    "Counter",
    "LogHistogram",
    "StageLatencyProcessor",
    "STAGES",
    "new_trace_id",
    "TraceEvent",
    "ALL_EVENT_TYPES",
    "NotificationReceived",
    "NotificationSuppressed",
    "RuleTriggered",
    "DetachedDispatch",
    "DetachedQueueWait",
    "GraphPropagation",
    "Detection",
    "ShardHop",
    "WireRequest",
    "ConditionEvaluated",
    "RuleExecution",
    "SubtransactionBoundary",
    "TransactionSpan",
    "GlobalEventSent",
    "GlobalEventReceived",
    "GlobalDetectionDelivered",
    "ChannelMessage",
    "WalFlush",
    "BufferEviction",
    "INHERIT",
]
