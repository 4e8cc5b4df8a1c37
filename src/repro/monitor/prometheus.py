"""Prometheus text exposition rendered from a MetricsRegistry.

Stdlib-only: the registry already holds everything Prometheus needs
(monotonic counters and fixed-bucket latency histograms), so rendering
is pure string assembly in the text exposition format (version 0.0.4).

Naming: registry names are dotted stage paths (``rules.executions``,
``wal.flush.ms``); they become ``<prefix>_<name_with_underscores>``
with a ``_total`` suffix for counters. Histograms keep their ``_ms``
unit suffix — the registry measures milliseconds and converting to
Prometheus' preferred seconds would make the exposition disagree with
every other view of the same registry (``report()``, ``repro trace``).
Two families get labels instead of flattened names: per-context
detection counters (``graph.detections.<ctx>`` →
``..._detections_by_context_total{context="<ctx>"}``) and the
per-rule/per-event histograms of a ``TimingProcessor``-style registry
(``rule:<name>`` → ``..._rule_latency_ms{rule="<name>"}``).
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from repro.core.contexts import ParameterContext
from repro.telemetry.processors import LogHistogram, MetricsRegistry

_INVALID = re.compile(r"[^a-zA-Z0-9_]")

#: context spellings recognized in ``graph.detections.<ctx>`` counters
_CONTEXTS = tuple(ctx.value for ctx in ParameterContext)

#: ``<kind>:<instance>`` histogram families and their label names
_LABELED_FAMILIES = {
    "rule": ("rule_latency_ms", "rule"),
    "condition": ("condition_latency_ms", "rule"),
    "event": ("event_latency_ms", "event"),
}


def sanitize(name: str) -> str:
    """A registry name as a valid Prometheus metric-name fragment."""
    cleaned = _INVALID.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Numbers the exposition parsers accept (no float repr surprises)."""
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_counter(name: str, value: int | float,
                   help_text: Optional[str] = None) -> list[str]:
    lines = []
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} counter")
    lines.append(f"{name} {format_value(value)}")
    return lines


def render_gauge(name: str, value: int | float,
                 help_text: Optional[str] = None) -> list[str]:
    lines = []
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} gauge")
    lines.append(f"{name} {format_value(value)}")
    return lines


def render_histogram(name: str, histogram: LogHistogram,
                     labels: Optional[dict[str, str]] = None,
                     declare: bool = True) -> list[str]:
    """One histogram series (optionally labelled) as exposition lines."""
    label_text = ""
    if labels:
        pairs = ",".join(
            f'{key}="{escape_label(value)}"'
            for key, value in sorted(labels.items())
        )
        label_text = pairs
    lines = [f"# TYPE {name} histogram"] if declare else []
    cumulative = 0
    for bound, count in zip(histogram.BOUNDS, histogram.buckets):
        cumulative += count
        le = f'le="{format_value(float(bound))}"'
        joined = f"{label_text},{le}" if label_text else le
        lines.append(f"{name}_bucket{{{joined}}} {cumulative}")
    cumulative += histogram.buckets[-1]
    le = 'le="+Inf"'
    joined = f"{label_text},{le}" if label_text else le
    lines.append(f"{name}_bucket{{{joined}}} {cumulative}")
    brace = f"{{{label_text}}}" if label_text else ""
    lines.append(f"{name}_sum{brace} {format_value(histogram.total)}")
    lines.append(f"{name}_count{brace} {histogram.count}")
    return lines


def _context_split(name: str) -> Optional[tuple[str, str]]:
    """``graph.detections.recent`` → (``graph.detections``, ``recent``)."""
    for ctx in _CONTEXTS:
        suffix = f".{ctx}"
        if name.endswith(suffix):
            return name[: -len(suffix)], ctx
    return None


def render_registry(registry: MetricsRegistry,
                    prefix: str = "sentinel") -> list[str]:
    """Every counter and histogram of one registry, exposition-ready."""
    lines: list[str] = []

    labeled_counters: dict[str, list[tuple[str, int]]] = {}
    for name in sorted(registry.counters):
        value = registry.counters[name].value
        split = _context_split(name)
        if split is not None:
            base, ctx = split
            labeled_counters.setdefault(base, []).append((ctx, value))
            continue
        lines.extend(render_counter(f"{prefix}_{sanitize(name)}_total", value))

    for base in sorted(labeled_counters):
        family = f"{prefix}_{sanitize(base)}_by_context_total"
        lines.append(f"# TYPE {family} counter")
        for ctx, value in sorted(labeled_counters[base]):
            lines.append(
                f'{family}{{context="{escape_label(ctx)}"}} '
                f"{format_value(value)}"
            )

    declared: set[str] = set()
    for name in sorted(registry.histograms):
        histogram = registry.histograms[name]
        kind, _, instance = name.partition(":")
        if instance and kind in _LABELED_FAMILIES:
            family_suffix, label = _LABELED_FAMILIES[kind]
            family = f"{prefix}_{family_suffix}"
            lines.extend(render_histogram(
                family, histogram, labels={label: instance},
                declare=family not in declared,
            ))
            declared.add(family)
        else:
            lines.extend(render_histogram(
                f"{prefix}_{sanitize(name)}", histogram
            ))
    return lines


def render_metrics(registries: Iterable[MetricsRegistry] | MetricsRegistry,
                   prefix: str = "sentinel",
                   extra_lines: Iterable[str] = ()) -> str:
    """The full ``/metrics`` payload from one or more registries."""
    if isinstance(registries, MetricsRegistry):
        registries = (registries,)
    lines: list[str] = []
    for registry in registries:
        lines.extend(render_registry(registry, prefix=prefix))
    lines.extend(extra_lines)
    return "\n".join(lines) + ("\n" if lines else "")
