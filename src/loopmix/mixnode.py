"""Continuous-time Poisson mix: pool scheduling, dedup, and self-loop cover.

Each accepted packet waits for its sender-chosen delay and leaves in
release-time order (FIFO on ties), which makes a loaded mix an M/M/infinity
queue: Poisson(lambda) in, Pois(lambda/mu) pool, Poisson(lambda) out. The same
MixPool container drives both the live node and the simulator.
"""

from __future__ import annotations

import heapq
import json
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Optional

from . import crypto, packet as pkt
from .bounds import non_negative, positive
from .packet import HopFlags, SphinxPacket
from .topology import ProviderDescriptor, Topology, build_onion, walk_ring

HEALTHY = "HEALTHY"
UNDER_ATTACK = "UNDER_ATTACK"

REPLAY_HORIZON_S = 3600.0

LOOP_CAP = 10_000

# a relay drops packets that arrive while its pool holds this many
QUEUE_HIGH_WATERMARK = 100_000

# the share of a mix's own loops that must come back for it to be HEALTHY
LOOP_RETURN_FRACTION = 0.8


@dataclass
class MixPool:
    """Pending messages keyed by release time, plus the replay cache."""

    pending: list = field(default_factory=list)
    replay_cache: dict = field(default_factory=dict)
    _seq: int = 0

    def __len__(self) -> int:
        return len(self.pending)

    def add(self, release_time: float, item: Any) -> None:
        heapq.heappush(self.pending, (release_time, self._seq, item))
        self._seq += 1

    def peek_time(self) -> Optional[float]:
        return self.pending[0][0] if self.pending else None

    def next_release(self, now: float):
        """Pop the earliest entry due at or before now; None when nothing is."""
        if not self.pending or self.pending[0][0] > now:
            return None
        release_time, _, item = heapq.heappop(self.pending)
        return release_time, item

    def seen_replay(self, tag: bytes, now: float) -> bool:
        """Record the tag; True when it was already in the cache."""
        horizon = now - REPLAY_HORIZON_S
        if len(self.replay_cache) > 100_000:
            for k in [k for k, t in self.replay_cache.items() if t < horizon]:
                del self.replay_cache[k]
        if tag in self.replay_cache and self.replay_cache[tag] >= horizon:
            return True
        self.replay_cache[tag] = now
        return False


@dataclass
class MixConfig:
    secret_key: bytes
    node_id: str
    addr: str
    layer_index: int
    lambda_M: float = 0.0
    mu: float = 1.0

    def __post_init__(self):
        if len(self.secret_key) != crypto.SECRET_KEY_LEN:
            raise ValueError("secret_key must be %d bytes" % crypto.SECRET_KEY_LEN)
        positive("mu", self.mu)
        non_negative("lambda_M", self.lambda_M)


def loop_health(window_loops_sent: int, window_loops_returned: int, r: float) -> str:
    if window_loops_sent < 1:
        raise ValueError("need at least one loop sent in the window")
    return HEALTHY if window_loops_returned / window_loops_sent >= r else UNDER_ATTACK


class LoopTracker:
    """Outstanding self-loops of one mix or client, and their round trips.

    A loop plaintext is marker | 16-byte nonce | emission time (">d"); the
    marker names the role (MIXLOOP1 for mixes, CLILOOP1 for clients). Past
    LOOP_CAP outstanding loops the oldest is forgotten: emission times only
    grow, so insertion order is age order. Only the latest LOOP_CAP round-trip
    times are kept.
    """

    def __init__(self, marker: bytes):
        self.marker = marker
        self.outstanding: dict[bytes, float] = {}
        self.latencies: deque[float] = deque(maxlen=LOOP_CAP)
        self.sent = 0
        self.returned = 0

    def emit(self, rng, at: float) -> bytes:
        """Register a fresh loop emitted at `at`; returns its plaintext."""
        nonce = rng.randbytes(16)
        self.outstanding[nonce] = at
        if len(self.outstanding) > LOOP_CAP:
            del self.outstanding[next(iter(self.outstanding))]
        self.sent += 1
        return self.marker + nonce + struct.pack(">d", at)

    def absorb(self, plain: bytes, now: float) -> Optional[bool]:
        """None unless plain is a loop plaintext with our marker; otherwise
        whether it closed an outstanding loop, which then counts as returned."""
        if len(plain) != len(self.marker) + 24 or not plain.startswith(self.marker):
            return None
        emitted = self.outstanding.pop(plain[len(self.marker) : -8], None)
        if emitted is None:
            return False
        self.returned += 1
        self.latencies.append(now - emitted)
        return True


class MixNode:
    """Processing node: verifies, deduplicates, pools, and emits loops."""

    loops_sent = property(lambda self: self.loops.sent)
    loops_returned = property(lambda self: self.loops.returned)

    def __init__(self, cfg: MixConfig):
        self.cfg = cfg
        self.pool = MixPool()
        self.loops = LoopTracker(b"MIXLOOP1")
        self.last_loop_first_hop = ""
        self.received = 0
        self.forwarded = 0
        self.dropped_replay = 0
        self.dropped_mac = 0
        self.dropped_overflow = 0
        # Providers install a handler for Deliver/Drop results; a plain mix
        # treats terminal packets (other than its own returning loops) as junk.
        self.terminal_handler: Optional[Callable[[pkt.ProcessResult, float], None]] = None

    def on_receive(self, packet: SphinxPacket, now: float):
        """Process one packet; returns the ProcessResult or None if dropped."""
        self.received += 1
        try:
            result = pkt.process_packet(self.key, packet)
        except (pkt.MacMismatch, pkt.MalformedPacket):
            self.dropped_mac += 1
            return None
        if self.pool.seen_replay(result.replay_tag, now):
            self.dropped_replay += 1
            return None
        if isinstance(result, pkt.Relay):
            if len(self.pool) >= QUEUE_HIGH_WATERMARK:
                self.dropped_overflow += 1
                return None
            self.pool.add(now + result.next.delay_s, result)
            return result
        if isinstance(result, pkt.Deliver) and result.recipient_id == self.cfg.node_id:
            if self.loops.absorb(result.payload, now):
                return result
        if self.terminal_handler is not None:
            self.terminal_handler(result, now)
            return result
        self.dropped_mac += 1
        return None

    @cached_property
    def key(self) -> crypto.X25519PrivateKey:
        """The node's long-term key object, built from cfg.secret_key on first
        use: building costs a base-point multiplication, which a set-up of
        many nodes that never receive should not pay."""
        return crypto.private_key(self.cfg.secret_key)

    def next_release(self, now: float):
        """Earliest due (release_time, packet, next) or None; counts it sent."""
        popped = self.pool.next_release(now)
        if popped is None:
            return None
        release_time, relay = popped
        self.forwarded += 1
        return release_time, relay.packet, relay.next

    def generate_mix_loop(self, topology: Topology, rng, now: float):
        """Build one self-loop over links that client traffic also uses.

        A mix in layer i goes through layers i+1.., a provider, layers ..i-1
        and back to itself; a provider goes through every layer and back.
        Returns (send_time, packet) with send_time = now + Exp(lambda_M).

        The loop plaintext is the packet's message, with no second seal: the
        terminal AEAD is already keyed by a secret only this mix derives, and
        since anyone can build a packet to a mix, what proves a loop is the
        nonce its tracker holds.
        """
        if self.cfg.lambda_M <= 0:
            raise ValueError("loops disabled: lambda_M is zero")

        me = topology.node(self.cfg.node_id)
        stop = topology.n_layers if isinstance(me, ProviderDescriptor) else self.cfg.layer_index
        route = [*walk_ring(topology, stop, rng), me]
        send_time = now + rng.expovariate(self.cfg.lambda_M)
        body = self.loops.emit(rng, send_time)
        loop_packet = build_onion(
            route, self.cfg.addr, HopFlags.FINAL, self.cfg.node_id, body, self.cfg.mu, rng
        )
        self.last_loop_first_hop = route[0].addr
        return send_time, loop_packet

    def health(self) -> str:
        if self.loops_sent < 1:
            return HEALTHY
        return loop_health(self.loops_sent, self.loops_returned, LOOP_RETURN_FRACTION)

    def metrics_line(self, now: float, **extra) -> str:
        """One JSON object of the node's counters at now, then extra's."""
        return json.dumps(
            {
                "time": now,
                "pool_size": len(self.pool),
                "received": self.received,
                "forwarded": self.forwarded,
                "dropped_replay": self.dropped_replay,
                "dropped_mac": self.dropped_mac,
                "dropped_overflow": self.dropped_overflow,
                "loops_sent": self.loops_sent,
                "loops_returned": self.loops_returned,
                **extra,
            }
        )
