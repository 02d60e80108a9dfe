"""Onion packet construction and per-hop processing.

Every packet is header (alpha, beta, mac) + payload, all fixed length, so a
relay's output is bitwise indistinguishable in shape from its input. beta holds
one 57-byte routing block per hop, padded with the standard filler construction
so stripping a layer never shrinks it. The payload is a stack of stream-cipher
layers around an AEAD blob that only the delivery hop can open.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from . import crypto
from .bounds import count, non_negative
from .crypto import GroupElement

MAX_HOPS = 5
ADDR_LEN = 32
_DELAY_LEN = 8
_FLAGS_LEN = 1
BLOCK_LEN = ADDR_LEN + _DELAY_LEN + _FLAGS_LEN + crypto.MAC_LEN  # 57
BETA_LEN = MAX_HOPS * BLOCK_LEN
# One header keystream per hop secret covers beta and the block a hop appends.
_STREAM_LEN = BETA_LEN + BLOCK_LEN
HEADER_LEN = crypto.GROUP_ELEMENT_LEN + BETA_LEN + crypto.MAC_LEN
PAYLOAD_LEN = 1024
PACKET_LEN = HEADER_LEN + PAYLOAD_LEN

_LEN_FIELD = 4
# AEAD plaintext inside the payload: [recipient id][message length][message][pad]
MESSAGE_CAPACITY = PAYLOAD_LEN - crypto.AEAD_OVERHEAD - ADDR_LEN - _LEN_FIELD


class MacMismatch(ValueError):
    pass


class MalformedPacket(ValueError):
    pass


class HopFlags(enum.Enum):
    """A routing block's flags byte: relay, or one of the two terminal kinds."""

    NONE = 0
    DROP = 1
    FINAL = 8


def resolve_addr(addr: str) -> tuple[str, int]:
    """The (host, port) of a host:port address: a non-empty printable-ASCII
    host, a colon and a decimal port from 0 to 65535; ValueError otherwise."""
    host, _, port = addr.rpartition(":")
    if not (host and host.isascii() and host.isprintable() and port.isascii()
            and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"bad address {addr!r}, want host:port")
    return host, int(port)


@dataclass(frozen=True)
class HopSpec:
    """Plaintext routing metadata revealed to one hop.

    The one rule for what a hop may hold, on the sending and the relaying
    side alike: a finite delay of at least 0; flags NONE, DROP or FINAL; and
    a host:port address of at most 31 bytes, which only a terminal (DROP or
    FINAL) hop may leave empty.
    """

    next_addr: str
    delay_s: float
    flags: HopFlags = HopFlags.NONE

    def __post_init__(self):
        non_negative("delay_s", self.delay_s)
        if not isinstance(self.flags, HopFlags):
            raise ValueError(f"flags must be NONE, DROP or FINAL, not {self.flags!r}")
        if self.next_addr or self.flags is HopFlags.NONE:
            resolve_addr(self.next_addr)
            if len(self.next_addr) > ADDR_LEN - 1:
                raise ValueError("address longer than %d bytes" % (ADDR_LEN - 1))


@dataclass(frozen=True)
class SphinxHeader:
    alpha: GroupElement
    beta: bytes
    mac: bytes


@dataclass(frozen=True)
class SphinxPacket:
    header: SphinxHeader
    payload: bytes

    def to_bytes(self) -> bytes:
        return (
            self.header.alpha.data + self.header.beta + self.header.mac + self.payload
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SphinxPacket":
        if len(raw) != PACKET_LEN:
            raise MalformedPacket("packet must be %d bytes" % PACKET_LEN)
        alpha = GroupElement(raw[: crypto.GROUP_ELEMENT_LEN])
        off = crypto.GROUP_ELEMENT_LEN
        beta = raw[off : off + BETA_LEN]
        off += BETA_LEN
        mac = raw[off : off + crypto.MAC_LEN]
        return cls(SphinxHeader(alpha, beta, mac), raw[off + crypto.MAC_LEN :])


@dataclass(frozen=True)
class Relay:
    next: HopSpec
    packet: SphinxPacket
    replay_tag: bytes


@dataclass(frozen=True)
class Deliver:
    recipient_id: str
    payload: bytes
    replay_tag: bytes


@dataclass(frozen=True)
class Drop:
    replay_tag: bytes


ProcessResult = Relay | Deliver | Drop


@dataclass(frozen=True)
class SenderTrace:
    """Sender-side per-hop values exposed for tests and the vector emitter."""

    alphas: list[GroupElement]
    shared_secrets: list[bytes]


def _encode_addr(name: str) -> bytes:
    """The 32-byte name field of routing blocks, payloads and pull requests:
    a length byte, up to 31 UTF-8 bytes, zero padding."""
    raw = name.encode()
    if len(raw) > ADDR_LEN - 1:
        raise ValueError("name longer than %d bytes" % (ADDR_LEN - 1))
    return bytes([len(raw)]) + raw + b"\x00" * (ADDR_LEN - 1 - len(raw))


def _decode_addr(field: bytes) -> str:
    n = field[0]
    if n > ADDR_LEN - 1:
        raise MalformedPacket("corrupt name length")
    return field[1 : 1 + n].decode(errors="replace")


def _encode_block(hop: HopSpec, next_mac: bytes) -> bytes:
    return (
        _encode_addr(hop.next_addr)
        + struct.pack(">d", hop.delay_s)
        + bytes([hop.flags.value])
        + next_mac
    )


def _decode_block(block: bytes) -> tuple[HopSpec, bytes]:
    """The hop and next MAC in a routing block; MalformedPacket for a hop
    that HopSpec rejects."""
    try:
        hop = HopSpec(
            _decode_addr(block[:ADDR_LEN]),
            struct.unpack(">d", block[ADDR_LEN : ADDR_LEN + _DELAY_LEN])[0],
            HopFlags(block[ADDR_LEN + _DELAY_LEN]),
        )
    except ValueError as exc:
        raise MalformedPacket(f"bad routing block: {exc}") from exc
    return hop, block[ADDR_LEN + _DELAY_LEN + _FLAGS_LEN :]


def _xor(a: bytes, b: bytes) -> bytes:
    """a XOR b, for two strings of the same length."""
    x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return x.to_bytes(len(a), "little")


def _shared_secret_chain(
    path_keys: list[GroupElement], x: bytes
) -> tuple[list[GroupElement], list[bytes]] | None:
    """Alphas seen by each hop and the secrets they will derive, or None.

    alpha_0 = g^x and each hop blinds its alpha by b_i = h(alpha_i, sh_i), so
    hop i sees g^c with c the product of x and the earlier blinding factors.
    The sender keeps c mod the group order and builds one key object per hop:
    its public key is alpha_i and one exchange with the hop's key gives sh_i.
    None when a product has no clamped scalar (crypto.scalar_for); the caller
    then draws a fresh x.
    """
    alphas: list[GroupElement] = []
    secrets: list[bytes] = []
    c = crypto.clamp(x)
    key = crypto.private_key(x)
    for i, pub in enumerate(path_keys):
        alpha = crypto.public_key(key)
        sh = crypto.exchange(key, pub.point)
        alphas.append(alpha)
        secrets.append(sh)
        if i == len(path_keys) - 1:
            break
        c = c * crypto.clamp(crypto.blinding_scalar(alpha, sh)) % crypto.GROUP_ORDER
        scalar = crypto.scalar_for(c)
        if scalar is None:
            return None
        key = crypto.private_key(scalar)
    return alphas, secrets


def build_packet(
    path: list[tuple[GroupElement, HopSpec]],
    recipient_id: str,
    message: bytes,
    rng,
) -> tuple[SphinxPacket, SenderTrace]:
    """The packet that carries message along path, each hop's public key with
    the HopSpec it recovers, and the sender-side trace of alphas and shared
    secrets."""
    nu = len(path)
    count("path length", nu, lo=1, hi=MAX_HOPS)
    count("message length", len(message), hi=MESSAGE_CAPACITY)
    plain = _encode_addr(recipient_id) + struct.pack(">I", len(message)) + message

    chain = None
    while chain is None:
        x = rng.randbytes(crypto.SECRET_KEY_LEN)
        chain = _shared_secret_chain([pk for pk, _ in path], x)
    alphas, secrets = chain

    # One header keystream per hop secret; its first BETA_LEN bytes mask
    # beta_i. Filler: the residue previous hops' masks leave in beta's tail.
    # After hop i processes, the last (i+1) blocks of beta are its keystream
    # past (MAX_HOPS - i) blocks, so the final hop's beta must be built with
    # that residue already in place.
    streams = [crypto.beta_stream(sh, bytes(_STREAM_LEN)) for sh in secrets]
    phi = b""
    for i in range(nu - 1):
        phi = _xor(phi + bytes(BLOCK_LEN), streams[i][(MAX_HOPS - i) * BLOCK_LEN :])

    final_block = _encode_block(path[nu - 1][1], b"\x00" * crypto.MAC_LEN)
    pad = rng.randbytes((MAX_HOPS - nu) * BLOCK_LEN)
    beta = _xor(final_block + pad, streams[nu - 1][: BETA_LEN - len(phi)]) + phi
    mac = crypto.header_mac(crypto.mac_key(secrets[nu - 1]), beta)
    for i in range(nu - 2, -1, -1):
        block = _encode_block(path[i][1], mac)
        beta = _xor(block + beta[: BETA_LEN - BLOCK_LEN], streams[i][:BETA_LEN])
        mac = crypto.header_mac(crypto.mac_key(secrets[i]), beta)

    plain += b"\x00" * (PAYLOAD_LEN - crypto.AEAD_OVERHEAD - len(plain))
    payload = crypto.deliver_seal(secrets[nu - 1], plain)
    for i in range(nu - 1, -1, -1):
        payload = crypto.payload_stream(secrets[i], payload)

    packet = SphinxPacket(SphinxHeader(alphas[0], beta, mac), payload)
    return packet, SenderTrace(alphas, secrets)


def process_packet(key: crypto.X25519PrivateKey, packet: SphinxPacket) -> ProcessResult:
    """Strip one onion layer with the node's key object: verify, decrypt,
    blind, re-pad.

    Raises MacMismatch on any integrity failure (callers drop silently) and
    MalformedPacket on shape violations.
    """
    if len(packet.header.beta) != BETA_LEN or len(packet.payload) != PAYLOAD_LEN:
        raise MalformedPacket("wrong beta or payload length")
    if len(packet.header.mac) != crypto.MAC_LEN:
        raise MalformedPacket("wrong mac length")
    alpha = packet.header.alpha
    # parsed into a local for both exchanges, and not kept on the packet
    point = crypto.parse(alpha)
    try:
        shared = crypto.exchange(key, point)
    except crypto.GroupError as exc:
        raise MacMismatch(str(exc)) from exc
    if not crypto.macs_equal(
        crypto.header_mac(crypto.mac_key(shared), packet.header.beta),
        packet.header.mac,
    ):
        raise MacMismatch("header authentication failed")

    tag = crypto.replay_tag(shared)
    expanded = crypto.beta_stream(shared, packet.header.beta + bytes(BLOCK_LEN))
    hop, next_mac = _decode_block(expanded[:BLOCK_LEN])
    if hop.flags is HopFlags.DROP:
        return Drop(replay_tag=tag)

    payload = crypto.payload_stream(shared, packet.payload)
    if hop.flags is HopFlags.FINAL:
        try:
            plain = crypto.deliver_open(shared, payload)
        except crypto.GroupError as exc:
            raise MacMismatch("payload authentication failed") from exc
        rid = _decode_addr(plain[:ADDR_LEN])
        (n,) = struct.unpack(">I", plain[ADDR_LEN : ADDR_LEN + _LEN_FIELD])
        if n > MESSAGE_CAPACITY:
            raise MalformedPacket("corrupt message length")
        body = plain[ADDR_LEN + _LEN_FIELD : ADDR_LEN + _LEN_FIELD + n]
        return Deliver(recipient_id=rid, payload=body, replay_tag=tag)

    b = crypto.blinding_scalar(alpha, shared)
    next_alpha = GroupElement(crypto.exchange(crypto.private_key(b), point))
    next_packet = SphinxPacket(
        SphinxHeader(next_alpha, expanded[BLOCK_LEN:], next_mac), payload
    )
    return Relay(next=hop, packet=next_packet, replay_tag=tag)
