"""``durable_txn``: ``Reactive`` + ``Persistent`` accounts in a
``Sentinel(directory=...)`` with the default fsync WAL and 128-page pool.

Set-up bulk-loads ``ACCOUNTS`` accounts, a heap of at least twice the
buffer pool (checked after the run), closes the system and reopens it. Each timed transaction
fetches accounts by OID with a skewed key choice (reads), moves money
on some of them with ``mark_dirty`` (writes) and persists one audit
object (an insert). OODB, heap, buffer pool and WAL dominate; the
working set is larger than the cache. After the run the store is
reopened and every balance and the audit count are compared with the
benchmark's shadow ledger.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from common import BLOCK_TXNS, OUT, Blocks, Outcome, Timer, \
    failed_operations, fast, per, self_peak_rss_mb
from layers import counters, delta, instrument, layer_metrics, overhead_pct
from reference import chronicle_seq_count, filtered_count
from spans import Tracer, layer_times

from repro import Persistent, Reactive, Sentinel, event
from repro.storage.page import PAGE_SIZE

ACCOUNTS = 10_000
LOAD_CHUNK = 500
POOL_PAGES = 128  # Sentinel's default pool_size
OPENING_BALANCE = 10_000
FETCHES = 4
MOVES = 3
TEMPLATES = 128
#: timed transactions after which the peak memory is read: objects the
#: run persists or fetches stay resident, so the peak at the end of the
#: run would follow the run's throughput
RSS_AT_TXNS = 4096
LARGE = 400


class Account(Reactive, Persistent):
    def __init__(self, owner: str, balance: int):
        self.owner = owner
        self.balance = balance

    @event(end="deposited")
    def deposit(self, amount):
        self.balance += amount

    @event(end="withdrawn")
    def withdraw(self, amount):
        self.balance -= amount


class AuditRecord(Persistent):
    def __init__(self, seq: int, moves: int):
        self.seq = seq
        self.moves = moves


EVENT_OF = {"deposit": "deposited", "withdraw": "withdrawn"}
SIGN = {"deposit": 1, "withdraw": -1}
REFERENCE_RULES = ("large_withdrawal", "deposit_then_withdraw")
REPEAT_RULES = ("txn_audit",)
RULES = REFERENCE_RULES + REPEAT_RULES


@dataclass
class Template:
    moves: list[tuple[int, str, int]]  # (fetched position, method, amount)
    expected: tuple[int, ...]


def make_templates(seed: int) -> list[Template]:
    rng = random.Random(seed)
    templates = []
    for __ in range(TEMPLATES):
        moves = [(rng.randrange(FETCHES), rng.choice(("deposit", "withdraw")),
                  rng.randint(1, 500)) for __ in range(MOVES)]
        stream = [(EVENT_OF[op], {"amount": amount})
                  for __, op, amount in moves]
        names = [name for name, __ in stream]
        expected = (
            filtered_count(stream, "withdrawn", lambda p: p["amount"] >= LARGE),
            chronicle_seq_count(names, "deposited", "withdrawn"),
        )
        templates.append(Template(moves, expected))
    return templates


def open_system(directory):
    system = Sentinel(directory=directory, name="durable_txn")
    events = system.register_class(Account)
    system.register_class(AuditRecord)
    fired = dict.fromkeys(RULES, 0)

    def count(rule):
        def action(occurrence):
            fired[rule] += 1
        return action

    system.rule("large_withdrawal", events["withdrawn"],
                condition=lambda occ: occ.params.value("amount") >= LARGE,
                action=count("large_withdrawal"), context="recent")
    system.rule("deposit_then_withdraw",
                events["deposited"] >> events["withdrawn"],
                action=count("deposit_then_withdraw"), context="chronicle")
    system.rule("txn_audit", events["deposited"] | events["withdrawn"],
                action=count("txn_audit"), context="cumulative",
                coupling="deferred")
    return system, fired


def set_up(directory):
    """Bulk-load, close, reopen; returns the reopened system."""
    start = time.perf_counter()
    system, __ = open_system(directory)
    oids = []
    for first in range(0, ACCOUNTS, LOAD_CHUNK):
        with system.transaction() as txn:
            for index in range(first, min(ACCOUNTS, first + LOAD_CHUNK)):
                oids.append(txn.persist(
                    Account(f"acct-{index:05d}", OPENING_BALANCE)))
    system.close()
    system, fired = open_system(directory)
    return system, fired, oids, time.perf_counter() - start


def data_path(directory) -> str:
    return os.path.join(directory, "data.db")


def wal_path(directory) -> str:
    return os.path.join(directory, "wal.log")


@dataclass
class Pass:
    txns: int = 0
    events: int = 0
    failed: int = 0
    mismatches: int = 0
    audits: int = 0
    peak_rss_mb: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    latencies: list[float] = field(default_factory=list)
    blocks: Blocks = field(default_factory=Blocks)

    @property
    def cpu_us_per_event(self) -> float:
        return per(self.cpu, self.events) * 1e6


def run_pass(system, fired, oids, shadow, templates, keys, seconds,
             first_seen, tracer=None, min_txns: int = 1,
             first_seq: int = 0) -> Pass:
    result = Pass()
    snapshot = tuple(fired[rule] for rule in RULES)
    clock = time.perf_counter
    latencies = result.latencies
    blocks = result.blocks
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
            chosen = [oids[next(keys)] for __ in range(FETCHES)]
            begin = clock()
            try:
                with system.transaction() as txn:
                    if tracer is None:
                        accounts = [txn.fetch(oid) for oid in chosen]
                    else:
                        accounts = []
                        for oid in chosen:
                            with tracer.span("oodb.fetch"):
                                accounts.append(txn.fetch(oid))
                    for position, op, amount in template.moves:
                        account = accounts[position]
                        if tracer is None:
                            getattr(account, op)(amount)
                        else:
                            # Persistent state is the instance dict, so
                            # the wrapper is traced at the call site.
                            with tracer.span("reactive"):
                                getattr(account, op)(amount)
                        txn.mark_dirty(account)
                    txn.persist(AuditRecord(first_seq + n,
                                            len(template.moves)))
            except Exception:  # noqa: BLE001 — counted, the run goes on
                result.failed += 1
                failed_at.append(len(latencies))
                latencies.append(0.0)
            else:
                latencies.append(clock() - begin)
                result.audits += 1
                for position, op, amount in template.moves:
                    shadow[chosen[position]] += SIGN[op] * amount
            events += len(template.moves)
            now_fired = tuple(fired[rule] for rule in RULES)
            moved = tuple(a - b for a, b in zip(now_fired, snapshot))
            snapshot = now_fired
            if moved[:2] != template.expected:
                result.mismatches += 1
            if first_seen.setdefault(slot, moved[2:]) != moved[2:]:
                result.mismatches += 1
            n += 1
            if n % block == 0:
                now = clock()
                blocks.mark(now, events, n)
                if n == RSS_AT_TXNS:
                    result.peak_rss_mb = self_peak_rss_mb()
                if n >= min_txns and now >= deadline:
                    break
    result.txns = n
    if not result.peak_rss_mb:  # a run too short to reach RSS_AT_TXNS
        result.peak_rss_mb = self_peak_rss_mb()
    result.events = events
    result.wall = timer.wall
    result.cpu = timer.cpu
    for index in failed_at:
        latencies[index] = timer.wall
    return result


def skewed_keys(seed: int):
    """Account indexes: the cube of a uniform variate, so the first 10%
    of accounts take about 46% of the fetches."""
    rng = random.Random(seed ^ 0x5EED)
    while True:
        yield int(ACCOUNTS * rng.random() ** 3)


def verify(directory, oids, shadow, audits: int) -> list[str]:
    """Reopen the store and compare it with the shadow ledger."""
    problems = []
    system, __ = open_system(directory)
    try:
        with system.transaction() as txn:
            for oid in oids:
                balance = txn.fetch(oid).balance
                if balance != shadow[oid]:
                    problems.append(f"{oid}: {balance} != {shadow[oid]}")
            stored = len(txn.extent(AuditRecord))
        if stored != audits:
            problems.append(f"audit records {stored} != {audits}")
    finally:
        system.close()
    heap_pages = os.path.getsize(data_path(directory)) // PAGE_SIZE
    if heap_pages < 2 * POOL_PAGES:
        problems.append(f"heap is {heap_pages} pages, under twice the pool")
    return problems


@dataclass
class Measured:
    result: Pass
    dispatch: str
    setup_s: float
    moved: dict
    storage: dict
    problems: list


def measured_pass(directory, seed, templates, seconds, first_seen,
                  tracer=None) -> Measured:
    system, fired, oids, setup_s = set_up(directory)
    shadow = dict.fromkeys(oids, OPENING_BALANCE)
    keys = skewed_keys(seed)
    if tracer is not None:
        instrument(system, tracer)
    warm = run_pass(system, fired, oids, shadow, templates, keys, 0.0,
                    first_seen, tracer, min_txns=len(templates))
    if tracer is not None:
        tracer.spans.clear()
    pool = system.db.storage.buffer_pool.stats
    hits, misses = pool.hits, pool.misses
    evictions = system.health()["storage"]["buffer_evictions"]
    wal_bytes = os.path.getsize(wal_path(directory))
    before = counters(system)
    result = run_pass(system, fired, oids, shadow, templates, keys, seconds,
                      first_seen, tracer, first_seq=warm.txns)
    after = counters(system)
    moved = delta(after, before)
    storage = {
        "wal_bytes": os.path.getsize(wal_path(directory)) - wal_bytes,
        "hits": pool.hits - hits,
        "misses": pool.misses - misses,
        "evictions": system.health()["storage"]["buffer_evictions"]
        - evictions,
    }
    result.failed = failed_operations(warm.failed + result.failed,
                                      after["rule_errors"])
    result.mismatches += warm.mismatches
    dispatch = system.dispatch
    system.close()
    audits = warm.audits + result.audits
    storage["file_bytes"] = os.path.getsize(data_path(directory))
    storage["objects"] = ACCOUNTS + audits
    problems = verify(directory, oids, shadow, audits)
    return Measured(result, dispatch, setup_s, moved, storage, problems)


def _fresh_store(tag: str):
    directory = OUT / f"durable-{os.getpid()}-{tag}"
    shutil.rmtree(directory, ignore_errors=True)
    return directory


def separate_setup(tag: str, directories: list) -> float:
    """Time one set-up in a store of its own, then drop it. The timed
    pass's own set-up is the third sample, between the two."""
    directories.append(_fresh_store(f"setup-{tag}"))
    system, __, __, elapsed = set_up(directories[-1])
    system.close()
    del system
    # Free this store's objects, so the peak memory is one system's,
    # not the sum of the set-ups'.
    gc.collect()
    shutil.rmtree(directories[-1])
    return elapsed


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    templates = make_templates(seed)
    first_seen: dict = {}
    OUT.mkdir(exist_ok=True)
    directories = []
    try:
        if trace:
            return _traced(seed, templates, seconds, first_seen, directories)
        setups = [separate_setup("before", directories)]
        directories.append(_fresh_store("timed"))
        m = measured_pass(directories[-1], seed, templates, seconds,
                          first_seen)
        shutil.rmtree(directories[-1])
        setups += [m.setup_s, separate_setup("after", directories)]
    finally:
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)
    result = m.result
    notes = [
        result.blocks.summary(result.latencies),
        f"{result.txns} transactions, {result.events} primitive events, "
        f"{result.audits} audit inserts",
        f"buffer hits {m.storage['hits']}, misses {m.storage['misses']}, "
        f"evictions {m.storage['evictions']}",
        f"count mismatches {result.mismatches}; store check: "
        f"{'; '.join(m.problems[:3]) or 'ok'}",
    ]
    metrics = {
        "setup_s": fast(setups),
        "peak_rss_mb": m.result.peak_rss_mb,
        **result.blocks.figures(result.latencies),
    }
    correct = (result.mismatches == 0 and result.failed == 0
               and not m.problems)
    return Outcome(correct, result.txns, result.failed, metrics, m.dispatch,
                   notes, result.blocks.rows(result.latencies))


def _traced(seed, templates, seconds, first_seen, directories) -> Outcome:
    part = seconds / 2.0
    directories.append(_fresh_store("base"))
    base = measured_pass(directories[-1], seed, templates, part, first_seen)
    shutil.rmtree(directories[-1])
    tracer = Tracer()
    directories.append(_fresh_store("traced"))
    traced = measured_pass(directories[-1], seed, templates, part,
                           first_seen, tracer)
    tracer.dump(OUT / f"durable_txn-spans-seed{seed}.jsonl")
    result = traced.result
    storage = traced.storage
    metrics = layer_metrics(layer_times(tracer.spans), traced.moved,
                            result.events, result.txns)
    metrics.update({
        "storage.wal_bytes_per_txn": per(storage["wal_bytes"], result.txns),
        "storage.buffer_hit_rate": per(
            storage["hits"], storage["hits"] + storage["misses"]),
        "storage.evictions_per_txn": per(storage["evictions"], result.txns),
        "storage.file_bytes_per_object": per(storage["file_bytes"],
                                             storage["objects"]),
        "tracing.overhead_pct": overhead_pct(
            result.cpu_us_per_event, base.result.cpu_us_per_event),
    })
    runs = (base, traced)
    failed = sum(m.result.failed for m in runs)
    mismatches = sum(m.result.mismatches for m in runs)
    problems = [p for m in runs for p in m.problems]
    notes = [
        f"cpu us/event: untraced {base.result.cpu_us_per_event:.1f}, "
        f"traced {result.cpu_us_per_event:.1f}",
        f"{len(tracer.spans)} spans over {result.txns} traced transactions",
        f"count mismatches {mismatches}; store check: "
        f"{'; '.join(problems[:3]) or 'ok'}",
    ]
    return Outcome(mismatches == 0 and failed == 0 and not problems,
                   sum(m.result.txns for m in runs), failed, metrics,
                   base.dispatch, notes)
