"""``reactive_txn``: transactions of ``Reactive`` method calls through a
default in-memory ``Sentinel()``.

One closed-loop caller. Rules cover all four parameter contexts and
both immediate and deferred coupling. The wrapper, facade, telemetry,
detection, scheduler and nested commits do all the work; storage and
the wire are idle. The event graph is flushed at every commit, so a
transaction's detections depend on its own calls only: templates are
cycled and every repeat must fire exactly as the first did.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from common import BLOCK_TXNS, OUT, Blocks, Outcome, Timer, \
    failed_operations, fast, per, self_peak_rss_mb, setup_times
from layers import counters, delta, instrument, layer_metrics, overhead_pct
from reference import chronicle_seq_count, filtered_count, or_count
from spans import Tracer, layer_times

from repro import Reactive, Sentinel, event

LEDGERS = 16
TEMPLATES = 128
SETUP_REPEATS = 101
BIG = 700


class Ledger(Reactive):
    def __init__(self, name: str):
        self.name = name
        self.balance = 0

    @event(begin="posting", end="posted")
    def post(self, amount):
        self.balance += amount

    @event(end="audited")
    def audit(self, amount):
        return amount

    @event(end="moved")
    def move(self, amount):
        self.balance -= amount


#: the calls of every transaction, in a shuffled order: a fixed mix keeps
#: the work per event the same from seed to seed
MIX = ("post", "post", "audit", "audit", "move", "move")
#: primitive events each call generates, in order
CALL_EVENTS = {"post": ("posting", "posted"), "audit": ("audited",),
               "move": ("moved",)}
#: rules checked against :mod:`reference`; the others must repeat
REFERENCE_RULES = ("big_post", "audit_then_move", "audit_or_move")
REPEAT_RULES = ("post_and_move", "txn_summary")
RULES = REFERENCE_RULES + REPEAT_RULES


@dataclass
class Template:
    calls: list[tuple[int, str, int]]
    events: int
    expected: tuple[int, ...]


def make_templates(seed: int) -> list[Template]:
    rng = random.Random(seed)
    templates = []
    for __ in range(TEMPLATES):
        ops = list(MIX)
        rng.shuffle(ops)
        calls = [(rng.randrange(LEDGERS), op, rng.randint(1, 1000))
                 for op in ops]
        stream = [(name, {"amount": amount})
                  for __, op, amount in calls for name in CALL_EVENTS[op]]
        names = [name for name, __ in stream]
        expected = (
            filtered_count(stream, "posted", lambda p: p["amount"] >= BIG),
            chronicle_seq_count(names, "audited", "moved"),
            or_count(names, ("audited", "moved")),
        )
        templates.append(Template(calls, len(stream), expected))
    return templates


def build(metrics: bool = True):
    """The system under test, its ledgers and the rules' firing counts."""
    system = Sentinel(name="reactive_txn", metrics=metrics)
    events = system.register_class(Ledger)
    fired = dict.fromkeys(RULES, 0)

    def count(rule):
        def action(occurrence):
            fired[rule] += 1
        return action

    system.rule("big_post", events["posted"],
                condition=lambda occ: occ.params.value("amount") >= BIG,
                action=count("big_post"), context="recent")
    system.rule("audit_then_move", events["audited"] >> events["moved"],
                action=count("audit_then_move"), context="chronicle")
    system.rule("post_and_move", events["posted"] & events["moved"],
                action=count("post_and_move"), context="recent")
    system.rule("audit_or_move", events["audited"] | events["moved"],
                action=count("audit_or_move"), context="continuous")
    system.rule("txn_summary", events["posted"] & events["audited"],
                action=count("txn_summary"), context="cumulative",
                coupling="deferred")
    ledgers = [Ledger(f"L{i}") for i in range(LEDGERS)]
    return system, ledgers, fired


@dataclass
class Pass:
    txns: int = 0
    events: int = 0
    failed: int = 0
    mismatches: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    latencies: list[float] = field(default_factory=list)
    blocks: Blocks = field(default_factory=Blocks)

    @property
    def cpu_us_per_event(self) -> float:
        return per(self.cpu, self.events) * 1e6


def run_pass(system, ledgers, fired, templates, seconds: float,
             first_seen: dict, min_txns: int = 1, tracer=None) -> Pass:
    """Cycle the templates for ``seconds`` (and at least ``min_txns``
    transactions), checking every transaction's firing counts. The pass
    ends on a block's end."""
    result = Pass()

    def method(index: int, op: str):
        bound = getattr(ledgers[index], op)
        return bound if tracer is None else tracer.wrap("reactive", bound)

    bound = [[(method(index, op), amount)
              for index, op, amount in template.calls]
             for template in templates]
    snapshot = tuple(fired[rule] for rule in RULES)
    latencies = result.latencies
    blocks = result.blocks
    clock = time.perf_counter
    failed_at = []
    block = min(BLOCK_TXNS, len(templates))
    with Timer() as timer:
        start = clock()
        deadline = start + seconds
        blocks.mark(start, 0, 0)
        n = 0
        events = 0
        while True:
            slot = n % len(templates)
            template = templates[slot]
            begin = clock()
            try:
                with system.transaction():
                    for call, amount in bound[slot]:
                        call(amount)
            except Exception:  # noqa: BLE001 — counted, the run goes on
                result.failed += 1
                failed_at.append(len(latencies))
                latencies.append(0.0)
            else:
                latencies.append(clock() - begin)
            events += template.events
            now_fired = tuple(fired[rule] for rule in RULES)
            moved = tuple(a - b for a, b in zip(now_fired, snapshot))
            snapshot = now_fired
            if moved[:3] != template.expected:
                result.mismatches += 1
            if first_seen.setdefault(slot, moved[3:]) != moved[3:]:
                result.mismatches += 1
            n += 1
            if n % block == 0:
                now = clock()
                blocks.mark(now, events, n)
                if n >= min_txns and now >= deadline:
                    break
    result.txns = n
    result.events = events
    result.wall = timer.wall
    result.cpu = timer.cpu
    # A failed transaction never completed within the timed phase, so
    # it misses every latency limit.
    for index in failed_at:
        latencies[index] = timer.wall
    return result


def measured_pass(templates, seconds: float, first_seen: dict,
                  metrics: bool = True, tracer=None):
    """Build, warm up for one template cycle, then time one pass.

    Returns the pass, the engine that ran and the movement of the
    program's counters over the pass.
    """
    system, ledgers, fired = build(metrics)
    if tracer is not None:
        instrument(system, tracer)
    warm = run_pass(system, ledgers, fired, templates, 0.0, first_seen,
                    min_txns=len(templates), tracer=tracer)
    if tracer is not None:
        tracer.spans.clear()
    before = counters(system)
    result = run_pass(system, ledgers, fired, templates, seconds, first_seen,
                      tracer=tracer)
    after = counters(system)
    moved = delta(after, before)
    result.failed = failed_operations(warm.failed + result.failed,
                                      after["rule_errors"])
    result.mismatches += warm.mismatches
    dispatch = system.dispatch
    system.close()
    return result, dispatch, moved


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    templates = make_templates(seed)
    first_seen: dict = {}
    if trace:
        return _traced(seed, templates, seconds, first_seen)
    setups = setup_times(lambda: build()[0], SETUP_REPEATS // 2)
    result, dispatch, __ = measured_pass(templates, seconds, first_seen)
    peak_rss_mb = self_peak_rss_mb()
    setups += setup_times(lambda: build()[0], SETUP_REPEATS - len(setups))
    notes = [
        result.blocks.summary(result.latencies),
        f"{result.txns} transactions, {result.events} primitive events, "
        f"{len(templates)} templates cycled",
        f"count mismatches {result.mismatches}",
    ]
    metrics = {
        "setup_s": fast(setups),
        "peak_rss_mb": peak_rss_mb,
        **result.blocks.figures(result.latencies),
    }
    correct = result.mismatches == 0 and result.failed == 0
    return Outcome(correct, result.txns, result.failed, metrics, dispatch,
                   notes, result.blocks.rows(result.latencies))


def _traced(seed, templates, seconds, first_seen) -> Outcome:
    """Untraced, traced and ``metrics=False`` passes of one stream."""
    part = seconds / 2.0
    base, dispatch, __ = measured_pass(templates, part, first_seen)
    tracer = Tracer()
    traced, __, moved = measured_pass(templates, part, first_seen,
                                      tracer=tracer)
    bare, __, __ = measured_pass(templates, part, first_seen, metrics=False)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"reactive_txn-spans-seed{seed}.jsonl")
    metrics = layer_metrics(layer_times(tracer.spans), moved, traced.events,
                            traced.txns)
    metrics["telemetry.us_per_event"] = (
        base.cpu_us_per_event - bare.cpu_us_per_event
    )
    metrics["tracing.overhead_pct"] = overhead_pct(
        traced.cpu_us_per_event, base.cpu_us_per_event
    )
    passes = (base, traced, bare)
    failed = sum(p.failed for p in passes)
    mismatches = sum(p.mismatches for p in passes)
    notes = [
        f"cpu us/event: untraced {base.cpu_us_per_event:.1f}, traced "
        f"{traced.cpu_us_per_event:.1f}, metrics=False "
        f"{bare.cpu_us_per_event:.1f}",
        f"{len(tracer.spans)} spans over {traced.txns} traced transactions",
        f"count mismatches {mismatches}",
    ]
    return Outcome(mismatches == 0 and failed == 0,
                   sum(p.txns for p in passes), failed, metrics, dispatch,
                   notes)
