"""Reference detection counts computed from the generated stream alone.

These models are independent of the engine: each is a few lines of
counting over the event names the benchmark generated, so a bug shared
by both dispatch engines still shows as a mismatch.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def or_count(stream: Iterable[str], operands: Sequence[str]) -> int:
    """OR fires once per occurrence of either operand, in every context."""
    wanted = set(operands)
    return sum(1 for name in stream if name in wanted)


def filtered_count(stream: Iterable[tuple[str, dict]], event: str,
                   condition: Callable[[dict], bool]) -> int:
    """A primitive-event rule whose condition passes ``condition``."""
    return sum(1 for name, params in stream
               if name == event and condition(params))


def chronicle_seq_count(stream: Iterable[str], initiator: str,
                        terminator: str) -> int:
    """``initiator ; terminator`` in the chronicle context.

    FIFO pairing: each terminator consumes the oldest pending
    initiator; a terminator with nothing pending is dropped.
    """
    pending = 0
    fired = 0
    for name in stream:
        if name == initiator:
            pending += 1
        elif name == terminator and pending:
            pending -= 1
            fired += 1
    return fired


def recent_and_count(stream: Iterable[str], left: str, right: str) -> int:
    """``left ^ right`` in the recent context.

    The latest occurrence of each side is kept, never consumed, so
    every arrival after the other side has been seen once fires.
    """
    seen = {left: False, right: False}
    fired = 0
    for name in stream:
        if name in seen:
            seen[name] = True
            other = right if name == left else left
            if seen[other]:
                fired += 1
    return fired
