"""Provider role: ingress/egress relay plus per-client offline inboxes.

A provider relays packets like any mix, but terminal packets land here:
deliveries are queued per recipient and cover traffic is silently discarded.
Clients fetch their queue with authenticated pull requests; every response
carries exactly the same number of fixed-size items, real ones topped up with
random dummies, so the provider's answer length never leaks inbox state.
"""

from __future__ import annotations

import secrets
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from . import packet as pkt
from .mixnode import MixConfig, MixNode
from .transport import PULL_ITEM_LEN

REAL = "REAL"
DUMMY = "DUMMY"

DEFAULT_INBOX_CAPACITY = 10_000


class UnknownClient(ValueError):
    pass


class BadToken(ValueError):
    pass


@dataclass(frozen=True)
class PullItem:
    kind: str
    blob: bytes

    def __post_init__(self):
        if self.kind not in (REAL, DUMMY):
            raise ValueError("kind must be REAL or DUMMY")
        if len(self.blob) != PULL_ITEM_LEN:
            raise ValueError("pull items are fixed size")


@dataclass(frozen=True)
class PullResponse:
    client_id: str
    items: Tuple[PullItem, ...]
    n_real: int


Inboxes = Dict[str, Deque[bytes]]


def on_packet_result(
    result: pkt.ProcessResult,
    inboxes: Inboxes,
    now: float,
    capacity: int = DEFAULT_INBOX_CAPACITY,
    counters: Optional[dict] = None,
) -> Inboxes:
    """Route one terminal processing result into the inbox table.

    Deliveries for known clients are appended (oldest evicted past capacity),
    cover drops and unknown recipients are counted and discarded. Mutates and
    returns inboxes.
    """
    if isinstance(result, pkt.Drop):
        if counters is not None:
            counters["dropped_cover"] = counters.get("dropped_cover", 0) + 1
        return inboxes
    if isinstance(result, pkt.Deliver):
        queue = inboxes.get(result.recipient_id)
        if queue is None:
            if counters is not None:
                counters["unknown_recipient"] = counters.get("unknown_recipient", 0) + 1
            return inboxes
        if len(result.payload) != PULL_ITEM_LEN:
            if counters is not None:
                counters["bad_payload"] = counters.get("bad_payload", 0) + 1
            return inboxes
        queue.append(bytes(result.payload))
        if len(queue) > capacity:
            queue.popleft()
            if counters is not None:
                counters["evicted"] = counters.get("evicted", 0) + 1
        return inboxes
    raise TypeError("relay results do not terminate at a provider")


def handle_pull(
    client_id: str, inboxes: Inboxes, C: int, rng
) -> Tuple[PullResponse, Inboxes]:
    """Serve one pull: up to C queued blobs in FIFO order, padded to exactly C.

    Dummies are fresh random blobs and the item order is shuffled, so position
    and count reveal nothing. Mutates and returns inboxes.
    """
    if C < 1:
        raise ValueError("C must be at least 1")
    queue = inboxes.get(client_id)
    if queue is None:
        raise UnknownClient(client_id)
    n_real = min(len(queue), C)
    items = [PullItem(REAL, queue.popleft()) for _ in range(n_real)]
    items += [PullItem(DUMMY, rng.randbytes(PULL_ITEM_LEN)) for _ in range(C - n_real)]
    rng.shuffle(items)
    return PullResponse(client_id, tuple(items), n_real), inboxes


@dataclass
class ProviderConfig:
    mix: MixConfig
    pull_max_items: int = 5
    inbox_capacity: int = DEFAULT_INBOX_CAPACITY
    # client_id -> pull auth token
    client_tokens: Dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self):
        if self.pull_max_items < 1:
            raise ValueError("pull_max_items must be at least 1")
        if self.inbox_capacity < 1:
            raise ValueError("inbox_capacity must be at least 1")


class Provider:
    """A mix node augmented with inbox storage and pull handling."""

    def __init__(self, cfg: ProviderConfig):
        self.cfg = cfg
        self.node = MixNode(cfg.mix)
        self.node.terminal_handler = self._on_terminal
        self.inboxes: Inboxes = {cid: deque() for cid in cfg.client_tokens}
        self.counters: dict = {}
        self.pulls_served = 0

    def _on_terminal(self, result: pkt.ProcessResult, now: float) -> None:
        on_packet_result(
            result,
            self.inboxes,
            now,
            capacity=self.cfg.inbox_capacity,
            counters=self.counters,
        )

    def on_receive(self, packet, now: float):
        return self.node.on_receive(packet, now)

    def next_release(self, now: float):
        return self.node.next_release(now)

    def authenticate(self, client_id: str, token: bytes) -> None:
        expected = self.cfg.client_tokens.get(client_id)
        if expected is None:
            raise UnknownClient(client_id)
        if not secrets.compare_digest(expected, token):
            raise BadToken(client_id)

    def on_pull(self, client_id: str, token: bytes, rng) -> PullResponse:
        self.authenticate(client_id, token)
        response, _ = handle_pull(client_id, self.inboxes, self.cfg.pull_max_items, rng)
        self.pulls_served += 1
        return response
