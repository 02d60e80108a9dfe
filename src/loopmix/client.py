"""Client traffic generation: payload, loop, and drop streams plus pulls.

A client runs three independent Poisson streams. The payload stream sends the
oldest queued message, or an indistinguishable cover packet when the queue is
empty, so the aggregate emission rate never depends on real activity. Loop
packets come back to the client's own inbox and double as a liveness check;
drop packets terminate at a random provider and vanish.

Message bodies are sealed end to end for the recipient, which is also what
lets a recipient tell real mail from the random dummies that pad every pull
response: only real items decrypt.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Deque, List, Optional, Tuple

from . import crypto
from .bounds import count, non_negative, positive
from .mixnode import LoopTracker
from .packet import HopFlags
from .topology import Topology, build_onion, sample_forward_path
from .transport import PULL_ITEM_LEN

# Fixed-size sealed envelope: [32 ephemeral pub][16 tag + 4 length + body].
ENVELOPE_LEN = PULL_ITEM_LEN
_SEALED_PLAIN_LEN = ENVELOPE_LEN - crypto.GROUP_ELEMENT_LEN - crypto.AEAD_OVERHEAD
USER_MESSAGE_CAPACITY = _SEALED_PLAIN_LEN - 4

PACKET_REAL = "REAL"
PACKET_LOOP = "LOOP"
PACKET_DROP = "DROP"


def seal_envelope(recipient_pub: crypto.GroupElement, message: bytes, rng) -> bytes:
    """Encrypt message into a fixed-size blob only the recipient can open."""
    count("message length", len(message), hi=USER_MESSAGE_CAPACITY)
    plain = struct.pack(">I", len(message)) + message
    plain += bytes(_SEALED_PLAIN_LEN - len(plain))
    return crypto.e2e_seal(recipient_pub, plain, rng)


def open_envelope(key: crypto.X25519PrivateKey, blob: bytes) -> Optional[bytes]:
    """Decrypt a pull item; None when it is a dummy or not addressed to us."""
    if len(blob) != ENVELOPE_LEN:
        return None
    try:
        plain = crypto.e2e_open(key, blob)
    except crypto.GroupError:
        return None
    (length,) = struct.unpack(">I", plain[:4])
    if length > USER_MESSAGE_CAPACITY:
        return None
    return plain[4 : 4 + length]


@dataclass(frozen=True)
class Rates:
    """Poisson intensity bundle: the three client streams, mix loops, and the
    per-hop delay parameter mu (mean hop delay is 1/mu)."""

    lambda_P: float
    lambda_L: float
    lambda_D: float
    lambda_M: float
    mu: float

    def __post_init__(self):
        for name in ("lambda_P", "lambda_L", "lambda_D", "lambda_M"):
            non_negative(name, getattr(self, name))
        positive("mu", self.mu)


@dataclass
class ClientConfig:
    client_id: str
    secret_key: bytes
    provider_id: str
    token: bytes
    rates: Rates
    pull_interval_s: float = 5.0

    def __post_init__(self):
        if len(self.secret_key) != crypto.SECRET_KEY_LEN:
            raise ValueError("secret_key must be %d bytes" % crypto.SECRET_KEY_LEN)
        positive("pull_interval_s", self.pull_interval_s)


class Client:
    loops_sent = property(lambda self: self.loops.sent)
    loops_returned = property(lambda self: self.loops.returned)

    def __init__(self, cfg: ClientConfig):
        self.cfg = cfg
        self.buffer: Deque[Tuple[str, bytes]] = deque()
        self.loops = LoopTracker(b"CLILOOP1")
        self.sent_real = 0
        self.sent_payload_cover = 0
        self.drops_sent = 0
        self.received_real = 0
        self.received_dummy = 0

    @cached_property
    def key(self) -> crypto.X25519PrivateKey:
        """The client's long-term key object, built from cfg.secret_key on
        first use, like MixNode.key."""
        return crypto.private_key(self.cfg.secret_key)

    def enqueue_message(self, recipient_id: str, message: bytes) -> None:
        # checked where it is queued too, not only in the timer that seals it
        count("message length", len(message), hi=USER_MESSAGE_CAPACITY)
        self.buffer.append((recipient_id, message))

    def queue_depth(self) -> int:
        return len(self.buffer)

    def _mix_path(self, topology: Topology, dest_provider_id: str, rng):
        own = topology.provider_of(self.cfg.client_id)
        dest = topology.node(dest_provider_id)
        return sample_forward_path(topology, own, dest, rng)

    def payload_tick(self, topology: Topology, rng, now: float):
        """Emit one payload-stream packet: queued mail, else drop cover.

        Returns (packet, kind, next_tick_time) where kind is REAL or DROP.
        """
        if self.cfg.rates.lambda_P <= 0:
            raise ValueError("payload stream disabled")
        if self.buffer:
            recipient_id, message = self.buffer.popleft()
            recipient = topology.client(recipient_id)
            descriptors = self._mix_path(topology, recipient.provider_id, rng)
            body = seal_envelope(recipient.pubkey, message, rng)
            packet = build_onion(
                descriptors, "", HopFlags.FINAL, recipient_id, body, self.cfg.rates.mu, rng
            )
            self.sent_real += 1
            kind = PACKET_REAL
        else:
            packet = self._drop_packet(topology, rng)
            self.sent_payload_cover += 1
            kind = PACKET_DROP
        return packet, kind, now + rng.expovariate(self.cfg.rates.lambda_P)

    def loop_tick(self, topology: Topology, rng, now: float):
        """Emit one self-loop through the mix layers back to our own inbox.

        Returns (packet, next_tick_time).
        """
        if self.cfg.rates.lambda_L <= 0:
            raise ValueError("loop stream disabled")
        own = topology.provider_of(self.cfg.client_id)
        descriptors = self._mix_path(topology, own.id, rng)
        me = topology.client(self.cfg.client_id)
        body = seal_envelope(me.pubkey, self.loops.emit(rng, now), rng)
        packet = build_onion(
            descriptors, "", HopFlags.FINAL, self.cfg.client_id, body, self.cfg.rates.mu, rng
        )
        return packet, now + rng.expovariate(self.cfg.rates.lambda_L)

    def drop_tick(self, topology: Topology, rng, now: float):
        """Emit one drop-cover packet to a uniformly chosen provider."""
        if self.cfg.rates.lambda_D <= 0:
            raise ValueError("drop stream disabled")
        packet = self._drop_packet(topology, rng)
        self.drops_sent += 1
        return packet, now + rng.expovariate(self.cfg.rates.lambda_D)

    def _drop_packet(self, topology: Topology, rng):
        dest = topology.providers[rng.randrange(len(topology.providers))]
        descriptors = self._mix_path(topology, dest.id, rng)
        body = rng.randbytes(USER_MESSAGE_CAPACITY)
        return build_onion(
            descriptors, "", HopFlags.DROP, self.cfg.client_id, body, self.cfg.rates.mu, rng
        )

    def process_pull_items(self, blobs, now: float) -> List[bytes]:
        """Sort pull items into real mail, returned loops, and dummies."""
        messages: List[bytes] = []
        for blob in blobs:
            plain = open_envelope(self.key, blob)
            if plain is None:
                self.received_dummy += 1
                continue
            if self.loops.absorb(plain, now) is not None:
                continue
            self.received_real += 1
            messages.append(plain)
        return messages
