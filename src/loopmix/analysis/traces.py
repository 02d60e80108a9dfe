"""Transmission traces, the join predicate, and the anonymity condition.

A trace is the adversary's view of one message crossing the network: a chain
of (sender, time, handle, recipient) records with matching endpoints and
strictly increasing times. Two traces that meet at the same honest node with
interleaved timing could have swapped their suffixes unnoticed; chaining such
swaps through cover-drop traces is what makes a pair of challenge messages
provably interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Set, Tuple

from ..bounds import count


@dataclass(frozen=True)
class Transmission:
    sender: str
    time: float
    handle: str
    recipient: str


Trace = Tuple[Transmission, ...]


def validate_trace(trace: Sequence[Transmission]) -> Trace:
    """Check linkage and time order."""
    if len(trace) < 1:
        raise ValueError("empty trace")
    for a, b in zip(trace, trace[1:]):
        if a.recipient != b.sender:
            raise ValueError(
                f"broken link: {a.recipient!r} handed off by {b.sender!r}"
            )
        if not a.time < b.time:
            raise ValueError(f"times not strictly increasing at {b.time}")
    return tuple(trace)


def trace_join(tr_x: Sequence[Transmission], tr_y: Sequence[Transmission], i: int) -> bool:
    """Whether tr_x and tr_y join at hop i (1-based).

    True iff both reach the same recipient at hop i and each arrives there
    before the other one leaves, so the two messages overlapped inside that
    node and could have swapped.
    """
    validate_trace(tr_x)
    validate_trace(tr_y)
    # hop i needs a successor in both traces
    count("i", i, lo=1, hi=min(len(tr_x), len(tr_y)) - 1)
    return _join_ok(tr_x, tr_y, i)


def _join_ok(tr_x: Trace, tr_y: Trace, i: int) -> bool:
    x_i, y_i = tr_x[i - 1], tr_y[i - 1]
    return (
        x_i.recipient == y_i.recipient
        and x_i.time < tr_y[i].time
        and y_i.time < tr_x[i].time
    )


def _chain_reaches(
    start: Trace,
    target_dest: str,
    drop_traces: Sequence[Trace],
    compromised: Set[str],
) -> bool:
    """Depth-first search for a join chain from start to a drop trace ending
    at target_dest, with at least one join, strictly increasing join hops,
    and every join node honest."""
    length = len(start)
    # Joins are only useful strictly inside the path: hop 1 is the sender's
    # own provider link and the last hop already fixes the destination.
    stack = [(start, 2, False)]
    seen = set()
    while stack:
        current, lowest, joined = stack.pop()
        if joined and current[-1].recipient == target_dest:
            return True
        for idx, candidate in enumerate(drop_traces):
            if candidate is current:
                continue
            for hop in range(lowest, length):
                if candidate[hop - 1].recipient in compromised:
                    continue
                if not _join_ok(current, candidate, hop):
                    continue
                key = (idx, hop + 1)
                if key not in seen:
                    seen.add(key)
                    stack.append((candidate, hop + 1, True))
    return False


def anonymity_condition_holds(
    challenge_traces: Tuple[Trace, Trace],
    drop_traces: Iterable[Trace],
    compromised: Iterable[str],
) -> bool:
    """Whether the two challenge traces are provably interchangeable.

    Requires a chain of cover-drop traces carrying the first challenge to the
    second one's destination provider and, symmetrically, the second to the
    first one's destination, every swap happening inside an honest node.
    """
    tr_c, tr_d = challenge_traces
    drops = [validate_trace(t) for t in drop_traces]
    tr_c = validate_trace(tr_c)
    tr_d = validate_trace(tr_d)
    lengths = {len(t) for t in drops} | {len(tr_c), len(tr_d)}
    if len(lengths) != 1:
        raise ValueError("all traces must have equal length")
    bad = set(compromised)
    return _chain_reaches(tr_c, tr_d[-1].recipient, drops, bad) and _chain_reaches(
        tr_d, tr_c[-1].recipient, drops, bad
    )
