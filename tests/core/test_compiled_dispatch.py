"""One detection engine: the removed ``dispatch=`` knob and route-table
invalidation.

Every detector runs the same ``notify``/``raise_event`` bodies; the
old engine selector raises RemovedAPIError [E2]. The route table lives
in the event graph and is maintained at node registration, so topology
edits made after traffic has flowed take effect on the next signal.
Routing and rule filtering are checked against an independent naive
reference in ``test_routing_reference.py``.
"""

import pytest

from repro import Sentinel, TraceLogProcessor
from repro.cli import main
from repro.core.contexts import ParameterContext
from repro.core.detector import LocalEventDetector
from repro.errors import RemovedAPIError, UnknownEvent


class Account:
    oid = 77


@pytest.fixture
def det():
    detector = LocalEventDetector()
    yield detector
    detector.shutdown()


# =========================================================================
# The removed dispatch= knob
# =========================================================================

@pytest.mark.parametrize("value", ["interpreted", "compiled", "jit"])
def test_dispatch_argument_is_removed(value):
    with pytest.raises(RemovedAPIError, match="delete the argument"):
        LocalEventDetector(dispatch=value)


def test_dispatch_env_is_refused(monkeypatch):
    """A stale REPRO_DISPATCH setting fails loudly at construction
    rather than being silently ignored."""
    monkeypatch.setenv("REPRO_DISPATCH", "compiled")
    with pytest.raises(RemovedAPIError, match="REPRO_DISPATCH"):
        LocalEventDetector()


def test_empty_dispatch_env_is_ignored(monkeypatch):
    monkeypatch.setenv("REPRO_DISPATCH", "")
    LocalEventDetector().shutdown()


def test_sentinel_dispatch_argument_is_removed():
    with pytest.raises(RemovedAPIError, match="one detection engine"):
        Sentinel(name="knob", dispatch="compiled")


def test_dispatch_reports_the_one_engine():
    system = Sentinel(name="engine")
    try:
        assert system.dispatch == system.detector.dispatch
        assert system.dispatch == LocalEventDetector.dispatch
    finally:
        system.close()


def test_serve_dispatch_flag_is_removed(capsys):
    code = main(["serve", "--port", "0", "--dispatch", "compiled"])
    assert code == 1
    assert "[E2]" in capsys.readouterr().err


def test_notify_and_raise_event_have_one_body(det):
    """No per-instance engine override: the class methods are what
    every detector runs."""
    assert "notify" not in det.__dict__
    assert "raise_event" not in det.__dict__
    assert not hasattr(det, "engine")


# =========================================================================
# Single-engine behaviour
# =========================================================================

def test_instance_filter(det):
    target, other = Account(), Account()
    node = det.primitive_event("dep", target, "end", "deposit")
    hits = []
    det.rule("r", node, action=lambda occ: hits.append(occ.instance))
    det.notify(other, "Account", "deposit", "end", {})
    det.notify(target, "Account", "deposit", "end", {})
    assert hits == [Account.oid]


def test_suppression(det):
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


def test_unknown_modifier(det):
    with pytest.raises(ValueError):
        det.notify(None, "Account", "deposit", "sideways", {})
    assert det.stats.notifications == 1  # counted before the parse


def test_raise_event_unknown_name(det):
    with pytest.raises(UnknownEvent):
        det.raise_event("ghost")


def test_priority_order(det):
    det.explicit_event("e")
    order = []
    det.rule("low", "e", priority=1, action=lambda occ: order.append("low"))
    det.rule("high", "e", priority=9, action=lambda occ: order.append("high"))
    det.raise_event("e")
    assert order == ["high", "low"]


def test_no_telemetry_emission_with_hub_idle():
    """Zero-overhead guard, correctness half: with no processor
    attached the engine never touches the telemetry hub."""
    det = LocalEventDetector()
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


# =========================================================================
# Route-table invalidation: topology edits take effect immediately
# =========================================================================

def test_rules_added_after_traffic_fire():
    det = LocalEventDetector()
    try:
        det.explicit_event("e")
        det.raise_event("e")  # routed with no subscribers
        hits = []
        det.rule("late", "e", action=hits.append)
        det.raise_event("e")
        assert len(hits) == 1
    finally:
        det.shutdown()


def test_disabled_rule_stops_firing():
    det = LocalEventDetector()
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
    """A node registered after an instance notify has filled the MRO
    cache is still found by the next notify."""
    det = LocalEventDetector()
    try:
        acct = Account()
        assert det.notify(acct, "Account", "deposit", "end", {}) == []
        node = det.primitive_event("dep", "Account", "end", "deposit")
        hits = []
        det.rule("r", node, action=hits.append)
        assert det.notify(acct, "Account", "deposit", "end", {})
        assert len(hits) == 1
    finally:
        det.shutdown()


def test_context_change_rebuilds_fan():
    det = LocalEventDetector()
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
