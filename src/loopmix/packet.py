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
from .crypto import GroupElement

MAX_HOPS = 5
ADDR_LEN = 32
_DELAY_LEN = 8
_FLAGS_LEN = 1
BLOCK_LEN = ADDR_LEN + _DELAY_LEN + _FLAGS_LEN + crypto.MAC_LEN  # 57
BETA_LEN = MAX_HOPS * BLOCK_LEN
HEADER_LEN = crypto.GROUP_ELEMENT_LEN + BETA_LEN + crypto.MAC_LEN
PAYLOAD_LEN = 1024
PACKET_LEN = HEADER_LEN + PAYLOAD_LEN

_ID_FIELD_LEN = 32
_LEN_FIELD = 4
# AEAD plaintext inside the payload: [recipient id][message length][message][pad]
MESSAGE_CAPACITY = PAYLOAD_LEN - crypto.AEAD_OVERHEAD - _ID_FIELD_LEN - _LEN_FIELD


class PacketError(Exception):
    pass


class PathTooLong(PacketError):
    pass


class MessageTooLarge(PacketError):
    pass


class MacMismatch(PacketError):
    pass


class MalformedPacket(PacketError):
    pass


class HopFlags(enum.Flag):
    NONE = 0
    DROP = 1
    DEBUG_REAL = 2
    DEBUG_COVER = 4
    FINAL = 8


@dataclass(frozen=True)
class HopSpec:
    """Plaintext routing metadata revealed to one hop."""

    next_addr: str
    delay_s: float
    flags: HopFlags = HopFlags.NONE

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if len(self.next_addr.encode()) > ADDR_LEN - 1:
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
    flags: HopFlags = HopFlags.FINAL


@dataclass(frozen=True)
class Drop:
    replay_tag: bytes


ProcessResult = Relay | Deliver | Drop


@dataclass(frozen=True)
class SenderTrace:
    """Sender-side per-hop values exposed for tests and the vector emitter."""

    alphas: list[GroupElement]
    shared_secrets: list[bytes]


def _encode_addr(addr: str) -> bytes:
    raw = addr.encode()
    return bytes([len(raw)]) + raw + b"\x00" * (ADDR_LEN - 1 - len(raw))


def _decode_addr(field: bytes) -> str:
    n = field[0]
    if n > ADDR_LEN - 1:
        raise MalformedPacket("corrupt address length")
    return field[1 : 1 + n].decode(errors="replace")


def _encode_block(hop: HopSpec, next_mac: bytes) -> bytes:
    return (
        _encode_addr(hop.next_addr)
        + struct.pack(">d", hop.delay_s)
        + bytes([hop.flags.value])
        + next_mac
    )


def _decode_block(block: bytes) -> tuple[HopSpec, bytes]:
    addr = _decode_addr(block[:ADDR_LEN])
    (delay,) = struct.unpack(">d", block[ADDR_LEN : ADDR_LEN + _DELAY_LEN])
    flags_byte = block[ADDR_LEN + _DELAY_LEN]
    if flags_byte > 15 or delay < 0 or delay != delay:
        raise MalformedPacket("corrupt routing block")
    hop = HopSpec(addr, delay, HopFlags(flags_byte))
    return hop, block[ADDR_LEN + _DELAY_LEN + _FLAGS_LEN :]


def _shared_secret_chain(
    path_keys: list[GroupElement], x: bytes
) -> tuple[list[GroupElement], list[bytes]]:
    """Alphas seen by each hop and the secrets they will derive.

    alpha_0 = g^x; each hop blinds it, so the sender reproduces hop i's secret
    by running the exchange once with x and once per earlier blinding factor.
    x and each blinding factor are built into a key object once and reused
    by every later hop.
    """
    alphas: list[GroupElement] = []
    secrets: list[bytes] = []
    blinds: list[crypto.X25519PrivateKey] = []
    x_key = crypto.private_key(x)
    alpha = crypto.public_key(x_key)
    for pub in path_keys:
        alphas.append(alpha)
        sh = crypto.exchange(x_key, pub)
        for b in blinds:
            sh = crypto.exchange(b, GroupElement(sh))
        secrets.append(sh)
        b_i = crypto.private_key(crypto.blinding_scalar(alpha, sh))
        blinds.append(b_i)
        alpha = GroupElement(crypto.exchange(b_i, alpha))
    return alphas, secrets


def build_packet(
    path: list[tuple[GroupElement, HopSpec]],
    recipient_id: str,
    message: bytes,
    rng,
) -> tuple[SphinxPacket, SenderTrace]:
    """create_packet plus the sender-side trace of alphas and shared secrets."""
    nu = len(path)
    if nu < 1 or nu > MAX_HOPS:
        raise PathTooLong("path length must be in 1..%d" % MAX_HOPS)
    if len(message) > MESSAGE_CAPACITY:
        raise MessageTooLarge("message exceeds %d bytes" % MESSAGE_CAPACITY)
    if len(recipient_id.encode()) > _ID_FIELD_LEN - 1:
        raise MessageTooLarge("recipient id exceeds %d bytes" % (_ID_FIELD_LEN - 1))

    x = rng.randbytes(crypto.SECRET_KEY_LEN)
    alphas, secrets = _shared_secret_chain([pk for pk, _ in path], x)
    streams = [crypto.beta_stream(sh, (MAX_HOPS + 1) * BLOCK_LEN) for sh in secrets]

    # Filler: the residue previous hops' XOR layers leave in beta's tail. After
    # hop i processes, the last (i+1) blocks of beta are stream residue, so the
    # final hop's beta must be built with that residue already in place.
    phi = b""
    for i in range(nu - 1):
        tail = streams[i][(MAX_HOPS - i) * BLOCK_LEN :]
        phi = crypto.xor_bytes(phi + b"\x00" * BLOCK_LEN, tail)

    final_block = _encode_block(path[nu - 1][1], b"\x00" * crypto.MAC_LEN)
    pad = rng.randbytes((MAX_HOPS - nu) * BLOCK_LEN)
    head = crypto.xor_bytes(
        final_block + pad, streams[nu - 1][: (MAX_HOPS - nu + 1) * BLOCK_LEN]
    )
    beta = head + phi
    mac = crypto.header_mac(crypto.mac_key(secrets[nu - 1]), beta)
    for i in range(nu - 2, -1, -1):
        block = _encode_block(path[i][1], mac)
        beta = crypto.xor_bytes(
            block + beta[: (MAX_HOPS - 1) * BLOCK_LEN],
            streams[i][: MAX_HOPS * BLOCK_LEN],
        )
        mac = crypto.header_mac(crypto.mac_key(secrets[i]), beta)

    plain = _encode_addr(recipient_id) + struct.pack(">I", len(message)) + message
    plain += b"\x00" * (PAYLOAD_LEN - crypto.AEAD_OVERHEAD - len(plain))
    payload = crypto.deliver_seal(secrets[nu - 1], plain)
    for i in range(nu - 1, -1, -1):
        payload = crypto.xor_bytes(
            payload, crypto.payload_stream(secrets[i], PAYLOAD_LEN)
        )

    packet = SphinxPacket(SphinxHeader(alphas[0], beta, mac), payload)
    return packet, SenderTrace(alphas, secrets)


def create_packet(
    path: list[tuple[GroupElement, HopSpec]],
    recipient_id: str,
    message: bytes,
    rng,
) -> SphinxPacket:
    packet, _ = build_packet(path, recipient_id, message, rng)
    return packet


def process_packet(secret_key: crypto.Scalar, packet: SphinxPacket) -> ProcessResult:
    """Strip one onion layer: verify, decrypt, blind, re-pad.

    secret_key is the node's scalar as bytes or, for a node that holds it,
    as its key object (crypto.private_key).

    Raises MacMismatch on any integrity failure (callers drop silently) and
    MalformedPacket on shape violations.
    """
    if len(packet.header.beta) != BETA_LEN or len(packet.payload) != PAYLOAD_LEN:
        raise MalformedPacket("wrong beta or payload length")
    if len(packet.header.mac) != crypto.MAC_LEN:
        raise MalformedPacket("wrong mac length")
    alpha = packet.header.alpha
    try:
        shared = crypto.exchange(secret_key, alpha)
    except crypto.GroupError as exc:
        raise MacMismatch(str(exc)) from exc
    if not crypto.macs_equal(
        crypto.header_mac(crypto.mac_key(shared), packet.header.beta),
        packet.header.mac,
    ):
        raise MacMismatch("header authentication failed")

    tag = crypto.replay_tag(shared)
    expanded = crypto.xor_bytes(
        packet.header.beta + b"\x00" * BLOCK_LEN,
        crypto.beta_stream(shared, (MAX_HOPS + 1) * BLOCK_LEN),
    )
    hop, next_mac = _decode_block(expanded[:BLOCK_LEN])
    payload = crypto.xor_bytes(
        packet.payload, crypto.payload_stream(shared, PAYLOAD_LEN)
    )

    if HopFlags.DROP in hop.flags:
        return Drop(replay_tag=tag)
    if HopFlags.FINAL in hop.flags:
        try:
            plain = crypto.deliver_open(shared, payload)
        except crypto.GroupError as exc:
            raise MacMismatch("payload authentication failed") from exc
        rid = _decode_addr(plain[:_ID_FIELD_LEN])
        (n,) = struct.unpack(">I", plain[_ID_FIELD_LEN : _ID_FIELD_LEN + _LEN_FIELD])
        if n > MESSAGE_CAPACITY:
            raise MalformedPacket("corrupt message length")
        body = plain[_ID_FIELD_LEN + _LEN_FIELD : _ID_FIELD_LEN + _LEN_FIELD + n]
        return Deliver(recipient_id=rid, payload=body, replay_tag=tag, flags=hop.flags)

    b = crypto.blinding_scalar(alpha, shared)
    next_alpha = GroupElement(crypto.exchange(b, alpha))
    next_packet = SphinxPacket(
        SphinxHeader(next_alpha, expanded[BLOCK_LEN:], next_mac), payload
    )
    return Relay(next=hop, packet=next_packet, replay_tag=tag)
