"""Per-rule and per-node wall-time attribution with slow-rule detection.

The :class:`RuleProfiler` is a telemetry processor that answers the
operational questions the raw span stream only answers implicitly:

* *where does rule time go* — each ``RuleExecution`` span carries the
  phase breakdown the scheduler measured (``condition_ms``,
  ``commit_ms``; the remainder is action time), and the profiler
  accumulates per-rule histograms for each phase;
* *which rules are slow* — executions beyond ``slow_ms`` are kept in a
  bounded ring of :class:`SlowRuleRecord`\\ s and counted, with an
  optional callback for alerting;
* *where does event time go* — per-graph-node propagation latency
  (``GraphPropagation``) and per-context occurrence counts
  (``Detection``).

The profiler renders itself as labelled Prometheus families for the
monitor's ``/metrics``, as a dict for ``/profile``-style JSON use, and
as text for the CLI.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.telemetry.events import (
    Detection,
    GraphPropagation,
    RuleExecution,
    TraceEvent,
)
from repro.telemetry.processors import LogHistogram, TelemetryProcessor

#: phases a rule execution is split into
PHASES = ("condition", "action", "commit")


@dataclass
class SlowRuleRecord:
    """One execution that exceeded the slow threshold."""

    rule_name: str
    at: float
    duration_ms: float
    condition_ms: float
    action_ms: float
    commit_ms: float
    outcome: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_name,
            "at": self.at,
            "duration_ms": round(self.duration_ms, 4),
            "condition_ms": round(self.condition_ms, 4),
            "action_ms": round(self.action_ms, 4),
            "commit_ms": round(self.commit_ms, 4),
            "outcome": self.outcome,
        }


@dataclass
class RuleProfile:
    """Accumulated wall time for one rule, split by phase."""

    name: str
    executions: int = 0
    rejections: int = 0
    failures: int = 0
    slow: int = 0
    total: LogHistogram = field(
        default_factory=lambda: LogHistogram("total")
    )
    condition: LogHistogram = field(
        default_factory=lambda: LogHistogram("condition")
    )
    action: LogHistogram = field(
        default_factory=lambda: LogHistogram("action")
    )
    commit: LogHistogram = field(
        default_factory=lambda: LogHistogram("commit")
    )

    @property
    def total_ms(self) -> float:
        return self.total.total

    def phase(self, name: str) -> LogHistogram:
        return {"condition": self.condition, "action": self.action,
                "commit": self.commit}[name]

    def to_dict(self) -> dict:
        return {
            "rule": self.name,
            "executions": self.executions,
            "rejections": self.rejections,
            "failures": self.failures,
            "slow": self.slow,
            "total_ms": round(self.total.total, 4),
            "mean_ms": round(self.total.mean, 4),
            "max_ms": round(self.total.max, 4),
            "phases": {
                name: {
                    "total_ms": round(self.phase(name).total, 4),
                    "mean_ms": round(self.phase(name).mean, 4),
                }
                for name in PHASES
            },
        }


@dataclass
class NodeProfile:
    """Accumulated propagation time and occurrences for one graph node."""

    name: str
    operator: str = "EVENT"
    detections: dict[str, int] = field(default_factory=dict)
    propagation: LogHistogram = field(
        default_factory=lambda: LogHistogram("propagation")
    )

    def to_dict(self) -> dict:
        return {
            "event": self.name,
            "operator": self.operator,
            "detections": dict(sorted(self.detections.items())),
            "propagations": self.propagation.count,
            "propagation_ms": round(self.propagation.total, 4),
            "mean_ms": round(self.propagation.mean, 4),
        }


class RuleProfiler(TelemetryProcessor):
    """Attributes wall time to rules (by phase) and event-graph nodes.

    ``slow_ms`` sets the slow-rule threshold (None disables the
    detector); ``on_slow`` is called with each :class:`SlowRuleRecord`
    — it runs inside telemetry dispatch, so it must be cheap and must
    not signal events. The last ``max_slow`` slow records are kept.
    """

    def __init__(self, slow_ms: Optional[float] = None,
                 on_slow: Optional[Callable[[SlowRuleRecord], None]] = None,
                 max_slow: int = 256):
        self.slow_ms = slow_ms
        self.on_slow = on_slow
        self.rules: dict[str, RuleProfile] = {}
        self.nodes: dict[str, NodeProfile] = {}
        self.slow_records: deque[SlowRuleRecord] = deque(maxlen=max_slow)

    # -- event intake ------------------------------------------------------

    def handle(self, event: TraceEvent) -> None:
        if isinstance(event, RuleExecution):
            self._on_rule(event)
        elif isinstance(event, Detection):
            node = self._node(event.event_name, event.operator)
            node.detections[event.context] = (
                node.detections.get(event.context, 0) + 1
            )
        elif isinstance(event, GraphPropagation):
            node = self._node(event.event_name, event.operator)
            node.propagation.observe(event.duration_ms)

    def _node(self, name: str, operator: str) -> NodeProfile:
        node = self.nodes.get(name)
        if node is None:
            node = self.nodes[name] = NodeProfile(name, operator)
        return node

    def _on_rule(self, event: RuleExecution) -> None:
        profile = self.rules.get(event.rule_name)
        if profile is None:
            profile = self.rules[event.rule_name] = RuleProfile(
                event.rule_name
            )
        if event.outcome == "rejected":
            profile.rejections += 1
        elif event.outcome == "completed":
            profile.executions += 1
        else:
            profile.failures += 1
        action_ms = max(
            0.0, event.duration_ms - event.condition_ms - event.commit_ms
        )
        profile.total.observe(event.duration_ms)
        profile.condition.observe(event.condition_ms)
        profile.action.observe(action_ms)
        profile.commit.observe(event.commit_ms)
        if self.slow_ms is not None and event.duration_ms >= self.slow_ms:
            profile.slow += 1
            record = SlowRuleRecord(
                rule_name=event.rule_name,
                at=event.at,
                duration_ms=event.duration_ms,
                condition_ms=event.condition_ms,
                action_ms=action_ms,
                commit_ms=event.commit_ms,
                outcome=event.outcome,
            )
            self.slow_records.append(record)
            if self.on_slow is not None:
                self.on_slow(record)

    # -- views -------------------------------------------------------------

    def slowest(self, n: int = 5) -> list[RuleProfile]:
        """Rules ranked by accumulated wall time, heaviest first."""
        ranked = sorted(
            self.rules.values(), key=lambda p: p.total_ms, reverse=True
        )
        return ranked[:n]

    def to_dict(self) -> dict:
        return {
            "slow_ms": self.slow_ms,
            "rules": [p.to_dict() for p in self.slowest(len(self.rules))],
            "nodes": [
                self.nodes[name].to_dict() for name in sorted(self.nodes)
            ],
            "slow_records": [r.to_dict() for r in self.slow_records],
        }

    def report_text(self, n: int = 10) -> str:
        """Top rules by wall time with the per-phase breakdown."""
        lines = ["rule profile (total wall time, heaviest first):"]
        for profile in self.slowest(n):
            lines.append(
                f"  {profile.name}: {profile.total.total:.3f}ms over "
                f"{profile.total.count} run(s) "
                f"(mean {profile.total.mean:.3f}ms, "
                f"max {profile.total.max:.3f}ms)"
            )
            lines.append(
                "    condition {c:.3f}ms | action {a:.3f}ms | "
                "commit {m:.3f}ms".format(
                    c=profile.condition.total,
                    a=profile.action.total,
                    m=profile.commit.total,
                )
            )
        if self.slow_records:
            lines.append(
                f"slow executions (>= {self.slow_ms}ms), most recent last:"
            )
            for record in self.slow_records:
                lines.append(
                    f"  {record.rule_name}: {record.duration_ms:.3f}ms "
                    f"[{record.outcome}]"
                )
        return "\n".join(lines) + "\n"

    # -- prometheus --------------------------------------------------------

    def prometheus_lines(self, prefix: str = "sentinel") -> list[str]:
        """Labelled exposition families for the ``/metrics`` endpoint."""
        from repro.monitor.prometheus import (
            escape_label,
            render_histogram,
        )

        lines: list[str] = []
        outcome_family = f"{prefix}_rule_outcomes_total"
        if self.rules:
            lines.append(f"# TYPE {outcome_family} counter")
            for name in sorted(self.rules):
                profile = self.rules[name]
                rule = escape_label(name)
                for outcome, count in (
                    ("completed", profile.executions),
                    ("rejected", profile.rejections),
                    ("failed", profile.failures),
                ):
                    lines.append(
                        f'{outcome_family}{{rule="{rule}",'
                        f'outcome="{outcome}"}} {count}'
                    )
            phase_family = f"{prefix}_rule_phase_ms"
            declared = False
            for name in sorted(self.rules):
                profile = self.rules[name]
                for phase in PHASES:
                    lines.extend(render_histogram(
                        phase_family, profile.phase(phase),
                        labels={"rule": name, "phase": phase},
                        declare=not declared,
                    ))
                    declared = True
        if self.nodes:
            node_family = f"{prefix}_node_detections_total"
            lines.append(f"# TYPE {node_family} counter")
            for name in sorted(self.nodes):
                node = self.nodes[name]
                event = escape_label(name)
                for context, count in sorted(node.detections.items()):
                    lines.append(
                        f'{node_family}{{event="{event}",'
                        f'context="{context}"}} {count}'
                    )
        return lines
