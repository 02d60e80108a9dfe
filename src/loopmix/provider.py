"""Provider role: ingress/egress relay plus per-client offline inboxes.

A provider relays packets like any mix, but terminal packets land here:
deliveries are queued per recipient and cover traffic is silently discarded.
Clients fetch their queue with authenticated pull requests; every response
carries exactly the same number of fixed-size items, real ones topped up with
dummies shaped like sealed envelopes, so the provider's answer never leaks
inbox state.
"""

from __future__ import annotations

import secrets
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Tuple

from . import crypto, packet as pkt
from .bounds import count
from .mixnode import MixConfig, MixNode
from .transport import PULL_ITEM_LEN

REAL = "REAL"
DUMMY = "DUMMY"
# The most items one pull may carry: each dummy costs a key build, so a pull
# of an empty inbox costs at most this many.
MAX_PULL_ITEMS = 64


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
    items: Tuple[PullItem, ...]
    n_real: int


def on_packet_result(provider: Provider, result: pkt.ProcessResult) -> None:
    """Route one terminal result into the provider's inboxes and counters.

    A delivery for a known client is appended, the oldest evicted past the
    inbox capacity; cover drops, unknown recipients and payloads of the
    wrong size are counted and discarded.
    """
    counters = provider.counters
    if isinstance(result, pkt.Drop):
        counters["dropped_cover"] += 1
        return
    if not isinstance(result, pkt.Deliver):
        raise TypeError("relay results do not terminate at a provider")
    queue = provider.inboxes.get(result.recipient_id)
    if queue is None:
        counters["unknown_recipient"] += 1
    elif len(result.payload) != PULL_ITEM_LEN:
        counters["bad_payload"] += 1
    else:
        queue.append(bytes(result.payload))
        if len(queue) > provider.cfg.inbox_capacity:
            queue.popleft()
            counters["evicted"] += 1


def _dummy(rng) -> bytes:
    """A pull dummy: a fresh public key, then random bytes, as a sealed
    envelope starts with its ephemeral key and goes on with ciphertext."""
    _, pub = crypto.generate_keypair(rng)
    return pub.data + rng.randbytes(PULL_ITEM_LEN - crypto.GROUP_ELEMENT_LEN)


@dataclass
class ProviderConfig:
    mix: MixConfig
    pull_max_items: int = 5
    inbox_capacity: int = 10_000
    # client_id -> pull auth token
    client_tokens: Dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self):
        count("inbox_capacity", self.inbox_capacity, lo=1)
        # each pull builds pull_max_items items, so it is bounded by the
        # most one inbox can hold and by a fixed ceiling
        count("pull_max_items", self.pull_max_items, lo=1,
              hi=min(self.inbox_capacity, MAX_PULL_ITEMS))


class Provider:
    """A mix node augmented with inbox storage and pull handling."""

    def __init__(self, cfg: ProviderConfig):
        self.cfg = cfg
        self.node = MixNode(cfg.mix)
        # looked up by name on each result, so a wrapper installed on the
        # module's on_packet_result sees every terminal result
        self.node.terminal_handler = lambda result, now: on_packet_result(self, result)
        self.inboxes: Dict[str, Deque[bytes]] = {cid: deque() for cid in cfg.client_tokens}
        self.counters = dict.fromkeys(
            ("dropped_cover", "unknown_recipient", "bad_payload", "evicted"), 0
        )
        self.pulls_served = 0

    def on_receive(self, packet, now: float):
        return self.node.on_receive(packet, now)

    def next_release(self, now: float):
        return self.node.next_release(now)

    def metrics_line(self, now: float) -> str:
        """The mix's metrics line, then the drop counters and pulls served."""
        return self.node.metrics_line(now, **self.counters, pulls_served=self.pulls_served)

    def on_pull(self, client_id: str, token: bytes, rng) -> PullResponse:
        """Serve one authenticated pull: up to pull_max_items queued blobs in
        FIFO order, padded to exactly that many.

        Dummies are shaped like sealed envelopes and the items are
        shuffled, so neither position, count nor content shows how many are
        real.
        """
        expected = self.cfg.client_tokens.get(client_id)
        if expected is None:
            raise ValueError(f"unknown client {client_id!r}")
        if not secrets.compare_digest(expected, token):
            raise ValueError(f"bad token for {client_id!r}")
        queue = self.inboxes[client_id]
        c = self.cfg.pull_max_items
        n_real = min(len(queue), c)
        items = [PullItem(REAL, queue.popleft()) for _ in range(n_real)]
        items += [PullItem(DUMMY, _dummy(rng)) for _ in range(c - n_real)]
        rng.shuffle(items)
        self.pulls_served += 1
        return PullResponse(tuple(items), n_real)
