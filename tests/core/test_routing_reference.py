"""Notify routing and rule filtering against a naive reference.

Composite operators (``on_child``) run the same code in every
configuration, so what the detector can get wrong on its own is the
lookup — which primitive or explicit events a Notify or a raise
matches — and the rule filter applied to each detection. The reference
below re-derives both by brute force from the test's own record of
what it defined and enabled:

* **routing** scans every defined event and checks its class (through
  the instance's MRO: the inheritance property), instance identity,
  method and modifier;
* **rule filtering** scans every rule the test believes enabled and
  checks its event, its context (a rule fires once per occurrence, in
  its own context) and its NOW/PREVIOUS ``since``.

It reads nothing from the engine but the clock, which is a test-side
clock that sometimes does not advance on a tick — so occurrences can
land exactly on a rule's ``since`` and NOW and PREVIOUS rules differ.
Hypothesis draws class hierarchies, class- and instance-level events,
rules toggled between signals, 1 or 4 shards, and an idle or active
telemetry hub.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import Clock
from repro.core.detector import LocalEventDetector
from repro.telemetry import TraceLogProcessor

METHODS = ("m0", "m1")
MODIFIERS = ("begin", "end")
CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")


class StutterClock(Clock):
    """A discrete clock whose ticks advance by a scripted 0 or 1."""

    def __init__(self, steps: list[int]):
        self._steps = steps
        self._ticks = 0
        self._current = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._current

    def tick(self) -> float:
        with self._lock:
            self._current += self._steps[self._ticks % len(self._steps)]
            self._ticks += 1
            return self._current


@dataclass
class Event:
    name: str
    kind: str  # "class" | "instance" | "explicit"
    class_name: str = ""
    instance: object = None
    method: str = ""
    modifier: str = ""


@dataclass
class RuleModel:
    name: str
    event: Event
    context: str
    trigger_mode: str
    enabled: bool = True
    since: float = 0.0


@dataclass
class Reference:
    events: list[Event] = field(default_factory=list)
    rules: list[RuleModel] = field(default_factory=list)

    def route(self, instance, class_name, method, modifier) -> list[Event]:
        """Every defined method event a Notify matches, in (MRO
        position of its class, definition order) order."""
        if instance is None:
            candidates = [class_name]
        else:
            mro = [c.__name__ for c in type(instance).__mro__]
            candidates = mro if class_name in mro else [class_name]
        matched = []
        for event in self.events:
            if event.kind == "explicit":
                continue
            if event.method != method or event.modifier != modifier:
                continue
            if event.class_name not in candidates:
                continue
            if event.kind == "instance" and event.instance is not instance:
                continue
            matched.append((candidates.index(event.class_name), event))
        return [event for __, event in sorted(
            matched, key=lambda pair: (pair[0], self.events.index(pair[1]))
        )]

    def fired(self, event: Event, at: float) -> list[tuple]:
        return [
            (rule.name, event.name, at)
            for rule in self.rules
            if rule.enabled and rule.event is event
            and (rule.trigger_mode == "previous" or at > rule.since)
        ]

    def detections(self, event: Event) -> int:
        """One detection per context some enabled rule keeps active."""
        return len({
            rule.context for rule in self.rules
            if rule.enabled and rule.event is event
        })


@st.composite
def scenarios(draw):
    n_classes = draw(st.integers(1, 4))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n_classes)]
    n_instances = draw(st.integers(1, 3))
    instance_classes = draw(st.lists(
        st.integers(0, n_classes - 1),
        min_size=n_instances, max_size=n_instances,
    ))
    events = draw(st.lists(
        st.tuples(
            st.sampled_from(("class", "instance", "explicit")),
            st.integers(0, n_classes - 1),
            st.integers(0, n_instances - 1),
            st.sampled_from(METHODS),
            st.sampled_from(MODIFIERS),
        ),
        min_size=1, max_size=6,
    ))
    rules = draw(st.lists(
        st.tuples(
            st.integers(0, len(events) - 1),
            st.sampled_from(CONTEXTS),
            st.sampled_from(("now", "previous")),
        ),
        max_size=6,
    ))
    op = st.one_of(
        st.tuples(
            st.just("notify"),
            st.one_of(st.none(), st.integers(0, n_instances - 1)),
            st.integers(0, n_classes),  # n_classes: an unrelated class
            st.sampled_from(METHODS),
            st.sampled_from(MODIFIERS),
        ),
        st.tuples(st.just("raise"), st.integers(0, len(events) - 1)),
        st.tuples(st.just("toggle"), st.integers(0, max(len(rules) - 1, 0))),
    )
    return {
        "parents": parents,
        "instance_classes": instance_classes,
        "events": events,
        "rules": rules,
        "ops": draw(st.lists(op, min_size=1, max_size=25)),
        "steps": draw(st.lists(st.integers(0, 1), min_size=1, max_size=4)),
        "shards": draw(st.sampled_from((1, 4))),
        "traced": draw(st.booleans()),
    }


def build_classes(parents: list[int]) -> list[type]:
    classes: list[type] = []
    for i, parent in enumerate(parents):
        base = object if parent < 0 else classes[parent]
        classes.append(type(f"C{i}", (base,), {}))
    return classes


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_engine_matches_the_naive_reference(scenario):
    classes = build_classes(scenario["parents"])
    instances = [classes[i]() for i in scenario["instance_classes"]]
    class_names = [cls.__name__ for cls in classes] + ["Unrelated"]
    clock = StutterClock(scenario["steps"])
    det = LocalEventDetector(clock=clock, shards=scenario["shards"])
    if scenario["traced"]:
        det.telemetry.attach(TraceLogProcessor())
    ref = Reference()
    fired: list[tuple] = []
    try:
        seen = set()
        for i, (kind, c, n, method, modifier) in enumerate(
            scenario["events"]
        ):
            name = f"e{i}"
            if kind == "explicit":
                det.explicit_event(name)
                ref.events.append(Event(name, kind))
                continue
            target = classes[c] if kind == "class" else instances[n]
            signature = (id(target), method, modifier)
            if signature in seen:
                # The graph shares identical signatures under one node;
                # keep the reference's one-name-per-event model simple.
                ref.events.append(Event(name, "explicit"))
                det.explicit_event(name)
                continue
            seen.add(signature)
            det.primitive_event(name, target, modifier, method)
            ref.events.append(Event(
                name, kind,
                class_name=(
                    classes[c].__name__ if kind == "class"
                    else type(instances[n]).__name__
                ),
                instance=None if kind == "class" else instances[n],
                method=method, modifier=modifier,
            ))
        for i, (e, context, mode) in enumerate(scenario["rules"]):
            name = f"r{i}"
            det.rule(
                name, ref.events[e].name, context=context,
                trigger_mode=mode,
                action=lambda occ, name=name: fired.append(
                    (name, occ.event_name, occ.at)
                ),
            )
            ref.rules.append(RuleModel(
                name, ref.events[e], context, mode, since=clock.now(),
            ))

        for op in scenario["ops"]:
            fired.clear()
            triggers = det.stats.triggers
            detections = det.graph.stats.detections
            if op[0] == "toggle":
                if not ref.rules:
                    continue
                rule = ref.rules[op[1]]
                if rule.enabled:
                    det.rules.disable(rule.name)
                else:
                    det.rules.enable(rule.name)
                    rule.since = clock.now()
                rule.enabled = not rule.enabled
                continue
            if op[0] == "raise":
                event = ref.events[op[1]]
                if event.kind != "explicit":
                    continue
                occurrence = det.raise_event(event.name)
                at = clock.now()
                assert occurrence.event_name == event.name
                assert occurrence.at == at
                matched = [event]
            else:
                __, n, c, method, modifier = op
                instance = None if n is None else instances[n]
                occurrences = det.notify(
                    instance, class_names[c], method, modifier, {"k": 1}
                )
                at = clock.now()
                matched = ref.route(instance, class_names[c], method, modifier)
                assert [
                    (o.event_name, o.instance, o.class_name, o.method_name,
                     o.modifier.value, o.at)
                    for o in occurrences
                ] == [
                    (e.name, instance, class_names[c], method, modifier, at)
                    for e in matched
                ]
            expected = [hit for e in matched for hit in ref.fired(e, at)]
            assert sorted(fired) == sorted(expected)
            assert det.stats.triggers - triggers == len(expected)
            assert det.graph.stats.detections - detections == sum(
                ref.detections(e) for e in matched
            )
    finally:
        det.shutdown()
