"""Interposition on a live ``Sentinel`` and the per-layer arithmetic.

Span names are the layers of the per-layer table:

``reactive``            a call into a ``Reactive`` method wrapper
``sentinel.begin``      ``Sentinel.begin``
``sentinel.commit``     ``Sentinel.commit``
``detector``            ``notify`` / ``notify_batch`` / ``raise_event(s)``
``detector.system_event`` the transaction-event signals
``scheduler``           ``RuleScheduler.run``
``rule.condition`` / ``rule.action``  every rule's callables
``nested.begin`` / ``nested.commit`` / ``nested.commit_top``
``oodb.commit`` / ``oodb.fetch``
"""

from __future__ import annotations

import inspect

from common import PER_LAYER, per
from spans import LayerTimes, Tracer


def instrument(system, tracer: Tracer) -> None:
    """Record spans around every layer entry point of ``system``.

    Rule conditions and actions are wrapped on the rule objects, for the
    rules defined now and for those defined later.
    """
    detector = system.detector
    for attribute in ("notify", "notify_batch", "raise_event", "raise_events"):
        tracer.interpose(detector, attribute, "detector")
    tracer.interpose(detector, "signal_system_event", "detector.system_event")
    tracer.interpose(detector.scheduler, "run", "scheduler")
    tracer.interpose(system, "begin", "sentinel.begin")
    tracer.interpose(system, "commit", "sentinel.commit")
    txns = system.txns
    tracer.interpose(txns, "begin_sub", "nested.begin")
    sub_commit = tracer.wrap("nested.commit", txns.commit)
    top_commit = tracer.wrap("nested.commit_top", txns.commit)
    txns.commit = lambda txn: (
        top_commit if txn.parent is None else sub_commit
    )(txn)
    if system.db is not None:
        tracer.interpose(system.db, "commit", "oodb.commit")
    for rule in system.rules.all():
        _trace_rule(tracer, rule)
    define = detector.rule

    def rule(*args, **kwargs):
        created = define(*args, **kwargs)
        _trace_rule(tracer, created)
        return created

    detector.rule = rule


def _trace_rule(tracer: Tracer, rule) -> None:
    rule.condition = tracer.wrap("rule.condition", rule.condition)
    if inspect.iscoroutinefunction(rule.action):
        rule.action = tracer.wrap_async("rule.action", rule.action)
    else:
        rule.action = tracer.wrap("rule.action", rule.action)


def counters(system) -> dict[str, int]:
    """The program's own counters that the per-layer ratios use."""
    graph = system.graph.stats
    scheduler = system.detector.scheduler.stats
    return {
        "propagations": graph.propagations,
        "detections": graph.detections,
        "executions": scheduler.executions,
        "rejections": scheduler.condition_rejections,
        "failures": scheduler.failures,
        "rule_errors": system.health()["detector"]["rule_errors"],
    }


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def layer_metrics(times: LayerTimes, moved: dict, events: int,
                  txns: int) -> dict[str, float]:
    """Every per-layer metric, zero where this run left the layer idle.

    ``moved`` is :func:`delta` of :func:`counters` over the traced pass;
    ``events`` counts the primitive events the benchmark generated.
    """
    total, own, count = times.total_ns, times.self_ns, times.count

    def us(value: float) -> float:
        return value / 1000.0

    activations = moved["executions"] + moved["rejections"] + moved["failures"]
    subtxns = count.get("nested.begin", 0)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "reactive.self_us_per_call": us(per(own.get("reactive", 0),
                                            count.get("reactive", 0))),
        "sentinel.begin_us_per_txn": us(per(total.get("sentinel.begin", 0),
                                            txns)),
        "sentinel.commit_self_us_per_txn": us(per(
            own.get("sentinel.commit", 0), txns)),
        "detector.self_us_per_event": us(per(
            own.get("detector", 0) + own.get("detector.system_event", 0),
            events)),
        "detector.propagations_per_event": per(moved["propagations"], events),
        "detector.detections_per_event": per(moved["detections"], events),
        "scheduler.self_us_per_activation": us(per(own.get("scheduler", 0),
                                                   activations)),
        "scheduler.activations_per_event": per(activations, events),
        "scheduler.condition_pass_ratio": per(
            moved["executions"], moved["executions"] + moved["rejections"]),
        "nested.us_per_subtxn": us(per(
            total.get("nested.begin", 0) + total.get("nested.commit", 0),
            subtxns)),
        "nested.subtxns_per_txn": per(subtxns, txns),
        "oodb.fetch_us": us(per(total.get("oodb.fetch", 0),
                                count.get("oodb.fetch", 0))),
        "oodb.commit_us_per_txn": us(per(own.get("oodb.commit", 0), txns)),
    })
    return metrics


def overhead_pct(traced_cpu_us: float, untraced_cpu_us: float) -> float:
    """Tracing overhead: traced against untraced CPU per event."""
    return 100.0 * (traced_cpu_us / untraced_cpu_us - 1.0)
