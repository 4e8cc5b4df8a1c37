"""Concurrency stress: barrier-synchronized ingestion, no lost work.

All producer threads release from a barrier at once so lock stripes
actually contend. Occurrence counts are asserted per parameter context
from ``detections_by_context`` (mutated under the owning shard's lock,
so the counts themselves are the race oracle).
"""

import threading

import pytest

from repro.core.contexts import ParameterContext
from repro.core.detector import LocalEventDetector
from repro.sentinel import Sentinel

THREADS = 8
PER_THREAD = 150
CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")


def run_threads(worker, count=THREADS):
    barrier = threading.Barrier(count)
    errors = []

    def body(index):
        try:
            barrier.wait(timeout=10)
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(i,), daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "stress worker wedged"
    assert errors == [], errors


@pytest.mark.parametrize("shards", [1, 4])
def test_disjoint_producers_no_lost_occurrences(shards):
    """One event class per thread: every context sees every occurrence."""
    det = LocalEventDetector(shards=shards)
    names = [f"ev{i}" for i in range(THREADS)]
    for name in names:
        det.explicit_event(name)
        for ctx in CONTEXTS:
            det.rule(f"r_{name}:{ctx}", name, context=ctx,
                     action=lambda occ: None)

    run_threads(lambda i: [
        det.raise_event(names[i], n=k) for k in range(PER_THREAD)
    ])

    for name in names:
        node = det.graph.get(name)
        for ctx in ParameterContext:
            assert node.detections_by_context.get(ctx, 0) == PER_THREAD, (
                name, ctx
            )
    if shards > 1:
        rows = det.runtime.snapshot()
        assert sum(r["occurrences"] for r in rows) == THREADS * PER_THREAD


@pytest.mark.parametrize("shards", [1, 4])
def test_contended_single_event_no_lost_occurrences(shards):
    """Every thread hammers the same event: same-stripe contention."""
    det = LocalEventDetector(shards=shards)
    det.explicit_event("shared")
    for ctx in CONTEXTS:
        det.rule(f"r:{ctx}", "shared", context=ctx, action=lambda occ: None)

    run_threads(lambda i: [
        det.raise_event("shared", t=i, n=k) for k in range(PER_THREAD)
    ])

    node = det.graph.get("shared")
    for ctx in ParameterContext:
        assert node.detections_by_context.get(ctx, 0) == THREADS * PER_THREAD


@pytest.mark.parametrize("shards", [1, 4])
def test_same_shard_composite_under_concurrency(shards):
    """Per-thread SEQ over the thread's own event: deterministic pair
    counts per context even while other shards churn."""
    det = LocalEventDetector(shards=shards)
    names = [f"ev{i}" for i in range(THREADS)]
    pair_nodes = {}
    for name in names:
        node = det.explicit_event(name)
        # Each occurrence enters the left port and pairs (as the right
        # port) with its predecessor: N raises -> N - 1 chronicle pairs.
        pair = (node >> node)
        pair_nodes[name] = pair
        det.rule(f"seq_{name}", pair, context="chronicle",
                 action=lambda occ: None)

    run_threads(lambda i: [
        det.raise_event(names[i], n=k) for k in range(PER_THREAD)
    ])

    for name in names:
        pairs = pair_nodes[name].detections_by_context.get(
            ParameterContext.CHRONICLE, 0
        )
        assert pairs == PER_THREAD - 1, name


@pytest.mark.parametrize("shards", [1, 4])
def test_concurrent_batches(shards):
    """notify_batch from many threads: batch accounting stays exact."""
    det = LocalEventDetector(shards=shards)

    class STOCK:
        def set_price(self, price):
            self.price = price

    det.primitive_event("tick", "STOCK", "end", "set_price")
    for ctx in CONTEXTS:
        det.rule(f"tick:{ctx}", "tick", context=ctx, action=lambda occ: None)
    stock = STOCK()
    batches = 10
    size = 20

    def worker(i):
        for b in range(batches):
            out = det.notify_batch([
                (stock, "STOCK", "set_price", "end", {"price": k})
                for k in range(size)
            ])
            assert len(out) == size

    run_threads(worker)
    node = det.graph.get("tick")
    expected = THREADS * batches * size
    for ctx in ParameterContext:
        assert node.detections_by_context.get(ctx, 0) == expected
    assert det.stats.batches == THREADS * batches
    assert det.stats.notifications == expected


def test_concurrent_raises_with_detached_rules():
    """Full facade under concurrency: detached queue drains everything."""
    system = Sentinel(name="stress", shards=4, detached_workers=4)
    try:
        hits = []
        hits_lock = threading.Lock()

        def record(occ):
            with hits_lock:
                hits.append(occ.event_name)

        for i in range(4):
            system.explicit_event(f"ev{i}")
            system.rule(f"d{i}", f"ev{i}", coupling="detached",
                        action=record)

        run_threads(lambda i: [
            system.raise_event(f"ev{i % 4}") for __ in range(50)
        ])
        system.wait_detached(timeout=30)
        assert len(hits) == THREADS * 50
        assert system.detached.stats.errors == 0
    finally:
        system.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_registration_racing_notify_keeps_every_route(shards):
    """Threads define instance-level events on one shared signature while
    notifying it: no registration may be lost from the route table."""
    import sys

    class Account:
        pass

    det = LocalEventDetector(shards=shards)
    accounts = [[Account() for __ in range(40)] for __ in range(THREADS)]

    def worker(index):
        for k, account in enumerate(accounts[index]):
            det.primitive_event(f"dep{index}_{k}", account, "end", "deposit")
            det.notify(account, "Account", "deposit", "end", {})

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads(worker)
    finally:
        sys.setswitchinterval(previous)

    for index, mine in enumerate(accounts):
        for k, account in enumerate(mine):
            occurrences = det.notify(account, "Account", "deposit", "end", {})
            assert [o.event_name for o in occurrences] == [f"dep{index}_{k}"]
