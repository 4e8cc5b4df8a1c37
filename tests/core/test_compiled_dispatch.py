"""The compiled dispatch fast path: ``dispatch="compiled"``.

The compiled engine flattens the event graph into per-route subscriber
arrays at first use and rebuilds them when the graph's topology stamp
moves. Everything observable — returned occurrences, trigger order,
stats, error behavior, telemetry traces — must match the interpreted
engine bit-for-bit; these tests pin that contract beyond the replay
oracle in ``test_sharding.py``.
"""

import dataclasses
import time

import pytest

from repro import Sentinel, TraceLogProcessor
from repro.core.contexts import ParameterContext
from repro.core.detector import LocalEventDetector
from repro.core.scheduler import ThreadedExecutor
from repro.errors import RuleExecutionError
from repro.transactions.nested import NestedTransactionManager


CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")
DISPATCHES = ("interpreted", "compiled")


class Account:
    oid = 77


@pytest.fixture(params=DISPATCHES)
def det(request):
    detector = LocalEventDetector(dispatch=request.param)
    yield detector
    detector.shutdown()


# =========================================================================
# The dispatch= knob
# =========================================================================

def test_dispatch_defaults_to_interpreted(monkeypatch):
    monkeypatch.delenv("REPRO_DISPATCH", raising=False)
    det = LocalEventDetector()
    try:
        assert det.dispatch == "interpreted"
        assert det.engine is None
    finally:
        det.shutdown()


def test_dispatch_env_override(monkeypatch):
    """REPRO_DISPATCH selects the engine for call sites that don't
    pass dispatch= (whole-suite CI legs)."""
    monkeypatch.setenv("REPRO_DISPATCH", "compiled")
    det = LocalEventDetector()
    try:
        assert det.dispatch == "compiled"
        assert det.engine is not None
    finally:
        det.shutdown()


def test_explicit_dispatch_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_DISPATCH", "compiled")
    det = LocalEventDetector(dispatch="interpreted")
    try:
        assert det.dispatch == "interpreted"
    finally:
        det.shutdown()


def test_unknown_dispatch_rejected():
    with pytest.raises(ValueError, match="dispatch"):
        LocalEventDetector(dispatch="jit")


def test_sentinel_facade_threads_dispatch():
    system = Sentinel(name="fast", dispatch="compiled")
    try:
        assert system.dispatch == "compiled"
        assert system.detector.engine is not None
    finally:
        system.close()


def test_interpreted_path_carries_no_engine_overhead():
    """dispatch="interpreted" must not even consult the compiled
    engine: notify/raise_event stay the plain class methods."""
    det = LocalEventDetector(dispatch="interpreted")
    try:
        assert "notify" not in det.__dict__
        assert "raise_event" not in det.__dict__
    finally:
        det.shutdown()


# =========================================================================
# Cross-mode parity beyond the replay oracle
# =========================================================================

def _pump(det):
    """A workload touching method events, instance filters, explicit
    events, composites, and every parameter context."""
    fired = []
    node = det.primitive_event("deposit", "Account", "end", "deposit")
    det.primitive_event("other", "Other", "end", "op")
    det.explicit_event("alarm")
    combo = det.define("combo", (det.event("deposit") >> det.event("alarm")))
    for ctx in CONTEXTS:
        det.rule(f"r:{ctx}", node, context=ctx,
                 action=lambda occ, c=ctx: fired.append((c, occ.at)))
    det.rule("combo", combo,
             action=lambda occ: fired.append(("combo", occ.start, occ.end)))
    acct = Account()
    occurrences = []
    for i in range(5):
        occurrences += det.notify(acct, "Account", "deposit", "end",
                                  {"amount": 10 * i})
        if i % 2 == 0:
            occurrences.append(det.raise_event("alarm", i=i))
    det.notify(None, "Unwatched", "op", "end", {})  # no route
    return fired, occurrences, det


#: rule-execution configurations beyond the plain serial one: a $RULE
#: meta-rule, an attached scheduler listener (the debugger's hook), the
#: thread-pool executor, and rules run as nested subtransactions
CONFIGS = ("plain", "rule_meta", "listener", "threaded", "nested_txn")


def _configured(dispatch, config):
    """A detector for ``config`` plus a probe list its extras fill."""
    det = LocalEventDetector(
        dispatch=dispatch,
        executor=(
            ThreadedExecutor(max_workers=4) if config == "threaded" else None
        ),
        txn_manager=(
            NestedTransactionManager() if config == "nested_txn" else None
        ),
    )
    probe = []
    if config == "rule_meta":
        det.rule_execution_event("after_recent", "r:recent", "end")
        det.rule("meta", "after_recent",
                 action=lambda occ: probe.append(("meta", occ.at)))
    elif config == "listener":
        det.scheduler.listeners.append(
            lambda phase, rule, occ, info: probe.append(
                (phase, rule.name, info["depth"], info.get("satisfied"))
            )
        )
    elif config == "nested_txn":
        top = det.txn_manager.begin_top("parity")
        det.set_current_transaction(top)
        probe.append(top)
    return det, probe


@pytest.mark.parametrize("config", CONFIGS)
def test_notify_parity_across_modes(config):
    results = {}
    for dispatch in DISPATCHES:
        det, probe = _configured(dispatch, config)
        try:
            fired, occurrences, det = _pump(det)
            if config == "threaded":
                # one priority class runs concurrently on the pool
                fired = sorted(fired)
            if config == "nested_txn":
                probe = [
                    (sub.label, sub.state.value, len(sub.children))
                    for sub in probe[0].children
                ]
            results[dispatch] = {
                "fired": fired,
                "probe": probe,
                "events": [
                    (o.event_name, o.at, o.class_name, o.instance,
                     o.method_name, o.modifier, o.arguments, o.txn_id)
                    for o in occurrences
                ],
                "notifications": det.stats.notifications,
                "triggers": det.stats.triggers,
                "detections": det.graph.stats.detections,
                "propagations": det.graph.stats.propagations,
                "by_context": {
                    node.display_name: dict(node.detections_by_context)
                    for node in det.graph._nodes
                },
                "scheduler": dataclasses.asdict(det.scheduler.stats),
            }
        finally:
            det.shutdown()
    assert results["compiled"] == results["interpreted"]
    if config in ("rule_meta", "listener", "nested_txn"):
        assert results["compiled"]["probe"], "config extras never ran"


def test_instance_filter_parity(det):
    target, other = Account(), Account()
    node = det.primitive_event("dep", target, "end", "deposit")
    hits = []
    det.rule("r", node, action=lambda occ: hits.append(occ.instance))
    det.notify(other, "Account", "deposit", "end", {})
    det.notify(target, "Account", "deposit", "end", {})
    assert hits == [Account.oid]


def test_suppression_parity(det):
    det.explicit_event("probe")
    seen = []

    def nosy(occ):
        # notifications from inside a condition are suppressed
        assert det.notify(None, "Account", "deposit", "end", {}) == []
        return True

    det.primitive_event("dep", "Account", "end", "deposit")
    det.rule("r", "probe", condition=nosy, action=seen.append)
    det.raise_event("probe")
    assert len(seen) == 1
    assert det.stats.suppressed == 1


def test_unknown_modifier_parity(det):
    with pytest.raises(ValueError):
        det.notify(None, "Account", "deposit", "sideways", {})
    assert det.stats.notifications == 1  # counted before the parse


def test_raise_event_unknown_name_parity(det):
    from repro.errors import UnknownEvent

    with pytest.raises(UnknownEvent):
        det.raise_event("ghost")


def test_rule_error_policy_parity():
    results = {}
    for dispatch in DISPATCHES:
        det = LocalEventDetector(dispatch=dispatch, error_policy="abort_rule")
        try:
            det.explicit_event("e")

            def boom(occ):
                raise ValueError("boom")

            det.rule("bad", "e", action=boom)
            det.raise_event("e")
            results[dispatch] = (
                det.scheduler.stats.failures,
                [str(err) for err in det.scheduler.errors],
            )
        finally:
            det.shutdown()
    assert results["compiled"] == results["interpreted"]
    assert results["compiled"][0] == 1


def test_rule_error_raise_policy_compiled():
    det = LocalEventDetector(dispatch="compiled", error_policy="raise")
    try:
        det.explicit_event("e")

        def boom(occ):
            raise ValueError("boom")

        det.rule("bad", "e", action=boom)
        with pytest.raises(RuleExecutionError, match="action"):
            det.raise_event("e")
    finally:
        det.shutdown()


def test_nested_cascade_order_parity():
    """Actions raising further events nest depth-first identically."""
    results = {}
    for dispatch in DISPATCHES:
        det = LocalEventDetector(dispatch=dispatch)
        try:
            for name in ("a", "b", "done"):
                det.explicit_event(name)
            order = []

            def chain(occ):
                order.append("outer")
                det.raise_event("done")

            det.rule("outer", (det.event("a") & det.event("b")),
                     context="chronicle", action=chain)
            det.rule("inner", "done", action=lambda occ: order.append("inner"))
            det.raise_event("a")
            det.raise_event("b")
            results[dispatch] = order
        finally:
            det.shutdown()
    assert results["compiled"] == results["interpreted"] == ["outer", "inner"]


def test_priority_order_parity(det):
    det.explicit_event("e")
    order = []
    det.rule("low", "e", priority=1, action=lambda occ: order.append("low"))
    det.rule("high", "e", priority=9, action=lambda occ: order.append("high"))
    det.raise_event("e")
    assert order == ["high", "low"]


# =========================================================================
# Plan invalidation: topology edits take effect immediately
# =========================================================================

def test_rules_added_after_traffic_fire():
    det = LocalEventDetector(dispatch="compiled")
    try:
        det.explicit_event("e")
        det.raise_event("e")  # plan built with no subscribers
        hits = []
        det.rule("late", "e", action=hits.append)
        det.raise_event("e")
        assert len(hits) == 1
    finally:
        det.shutdown()


def test_disabled_rule_stops_firing():
    det = LocalEventDetector(dispatch="compiled")
    try:
        det.explicit_event("e")
        hits = []
        det.rule("r", "e", action=hits.append)
        det.raise_event("e")
        det.rules.disable("r")
        det.raise_event("e")
        det.rules.enable("r")
        det.raise_event("e")
        assert len(hits) == 2
    finally:
        det.shutdown()


def test_primitive_registered_after_traffic_routes():
    det = LocalEventDetector(dispatch="compiled")
    try:
        det.explicit_event("e")
        det.raise_event("e")
        node = det.primitive_event("dep", "Account", "end", "deposit")
        hits = []
        det.rule("r", node, action=hits.append)
        assert det.notify(Account(), "Account", "deposit", "end", {})
        assert len(hits) == 1
    finally:
        det.shutdown()


def test_context_change_rebuilds_fan():
    det = LocalEventDetector(dispatch="compiled")
    try:
        node = det.explicit_event("e")
        det.raise_event("e")
        hits = []
        det.rule("r", "e", context="cumulative", action=hits.append)
        det.raise_event("e")
        assert node.detections_by_context.get(
            ParameterContext.CUMULATIVE, 0) == 1
        assert len(hits) == 1
    finally:
        det.shutdown()


# =========================================================================
# Delegated paths keep full semantics
# =========================================================================

def test_detached_coupling_in_compiled_mode():
    system = Sentinel(name="fast-detached", dispatch="compiled")
    try:
        system.explicit_event("e")
        hits = []
        system.rule("d", "e", coupling="detached", action=hits.append)
        system.raise_event("e")
        system.wait_detached(timeout=10)
        assert len(hits) == 1
    finally:
        system.close()


def test_collect_mode_in_compiled_mode():
    from repro.eventlog.log import EventLog, LoggedEvent
    from repro.eventlog.replay import replay

    log = EventLog()
    log.append(LoggedEvent(
        event_name="e", at=0.0, class_name="$EXPLICIT", instance=None,
        method_name=None, modifier=None, arguments=[], txn_id=None,
    ))
    det = LocalEventDetector(dispatch="compiled")
    try:
        det.explicit_event("e")
        det.rule("r", "e", action=lambda occ: None)
        report = replay(log, det, mode="collect")
        assert report.triggered_rules() == ["r"]
    finally:
        det.shutdown()


def test_telemetry_traces_identically_in_compiled_mode():
    """With telemetry on, compiled mode hands the event to the
    interpreted path so every span and stage stamp survives."""
    shapes = {}
    for dispatch in DISPATCHES:
        system = Sentinel(name=f"traced-{dispatch}", dispatch=dispatch)
        try:
            trace = system.telemetry.attach(TraceLogProcessor())
            system.explicit_event("e")
            system.rule("r", "e", action=lambda occ: None)
            trace.clear()
            system.raise_event("e")
            shapes[dispatch] = [type(e).__name__ for e in trace.events()]
        finally:
            system.close()
    assert shapes["compiled"] == shapes["interpreted"]
    assert shapes["compiled"]  # tracing actually produced spans


def test_no_telemetry_emission_with_hub_idle():
    """Zero-overhead guard, correctness half: with no processor
    attached neither engine touches the telemetry hub."""
    for dispatch in DISPATCHES:
        det = LocalEventDetector(dispatch=dispatch)
        try:
            det.explicit_event("e")
            det.rule("r", "e", action=lambda occ: None)
            det.raise_event("e")
            assert det.telemetry.active is False
            trace = det.telemetry.attach(TraceLogProcessor())
            det.telemetry.detach(trace)
            assert trace.events() == []
        finally:
            det.shutdown()


def test_compiled_is_not_slower_than_interpreted():
    """Zero-overhead guard, timing half: the fast path must at minimum
    not lose to the interpreted engine (generous 1.5x band for noisy
    shared runners)."""

    def clock(dispatch, events=4000):
        det = LocalEventDetector(dispatch=dispatch)
        try:
            det.primitive_event("dep", "Account", "end", "deposit")
            det.rule("r", det.event("dep"), action=lambda occ: None)
            acct = Account()
            for __ in range(events // 4):  # warm caches and the plan
                det.notify(acct, "Account", "deposit", "end", {})
            start = time.perf_counter()
            for __ in range(events):
                det.notify(acct, "Account", "deposit", "end", {})
            return time.perf_counter() - start
        finally:
            det.shutdown()

    interpreted = min(clock("interpreted") for __ in range(3))
    compiled = min(clock("compiled") for __ in range(3))
    assert compiled < interpreted * 1.5
