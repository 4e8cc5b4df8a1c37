"""Per-stage latency histograms (HDR-style).

Each stage is a :class:`~repro.telemetry.processors.LogHistogram`
(power-of-two buckets, ≤2x relative error on percentiles).
:class:`StageLatencyProcessor` maps trace events onto the canonical
lifecycle stages of the paper's Figure 2 chain:

======== ==============================================================
stage    fed by
======== ==============================================================
ingest   ``NotificationReceived`` / ``BatchIngested`` span duration
shard_hop ``ShardHop`` channel-buffering wait
detect   ``GraphPropagation`` span duration (operator DAG cascade)
condition ``ConditionEvaluated`` span duration
action   ``RuleExecution`` duration minus condition and commit phases
action_async same, for rules on the asyncio lane (``lane == "async"``)
commit   ``RuleExecution.commit_ms`` (subtransaction commit)
detached_wait ``DetachedQueueWait`` queue-residency wait
wire     ``WireRequest`` client round-trip duration
======== ==============================================================

Attach it to a hub (``Sentinel(metrics=True)`` does, alongside the
``CounterProcessor``) and the percentiles surface in ``health()`` /
``SystemReport`` and as Prometheus histogram families on ``/metrics``.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.events import (
    BatchIngested,
    ConditionEvaluated,
    DetachedQueueWait,
    GraphPropagation,
    NotificationReceived,
    RuleExecution,
    ShardHop,
    TraceEvent,
    WireRequest,
)
from repro.telemetry.processors import LogHistogram, TelemetryProcessor

#: canonical lifecycle stages, in pipeline order
STAGES = (
    "ingest",
    "shard_hop",
    "detect",
    "condition",
    "action",
    "action_async",
    "commit",
    "detached_wait",
    "wire",
)


class StageLatencyProcessor(TelemetryProcessor):
    """Aggregates trace events into per-stage :class:`LogHistogram`\\ s."""

    def __init__(self) -> None:
        self.histograms = {stage: LogHistogram(stage) for stage in STAGES}
        self._handlers: dict[type, Callable] = {
            NotificationReceived: self._on_ingest,
            BatchIngested: self._on_ingest,
            GraphPropagation: self._on_detect,
            ConditionEvaluated: self._on_condition,
            RuleExecution: self._on_rule,
            ShardHop: self._on_shard_hop,
            DetachedQueueWait: self._on_detached_wait,
            WireRequest: self._on_wire,
        }

    def _on_ingest(self, event: TraceEvent) -> None:
        self.histograms["ingest"].observe(event.duration_ms)

    def _on_detect(self, event: GraphPropagation) -> None:
        self.histograms["detect"].observe(event.duration_ms)

    def _on_condition(self, event: ConditionEvaluated) -> None:
        self.histograms["condition"].observe(event.duration_ms)

    def _on_rule(self, event: RuleExecution) -> None:
        action_ms = event.duration_ms - event.condition_ms - event.commit_ms
        stage = "action_async" if event.lane == "async" else "action"
        self.histograms[stage].observe(max(action_ms, 0.0))
        if event.commit_ms > 0.0:
            self.histograms["commit"].observe(event.commit_ms)

    def _on_shard_hop(self, event: ShardHop) -> None:
        self.histograms["shard_hop"].observe(event.wait_ms)

    def _on_detached_wait(self, event: DetachedQueueWait) -> None:
        self.histograms["detached_wait"].observe(event.wait_ms)

    def _on_wire(self, event: WireRequest) -> None:
        self.histograms["wire"].observe(event.duration_ms)

    def handle(self, event: TraceEvent) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    def percentiles(self) -> dict[str, dict]:
        """p50/p95/p99 per stage, omitting stages with no samples."""
        return {
            stage: hist.summary()
            for stage, hist in self.histograms.items()
            if hist.count
        }

    def prometheus_lines(self, prefix: str = "sentinel") -> list[str]:
        """One labelled histogram family covering every sampled stage."""
        from repro.monitor.prometheus import render_histogram

        family = f"{prefix}_stage_latency_ms"
        lines: list[str] = []
        declared = False
        for stage in STAGES:
            hist = self.histograms[stage]
            if not hist.count:
                continue
            lines.extend(render_histogram(
                family, hist, labels={"stage": stage},
                declare=not declared,
            ))
            declared = True
        return lines
