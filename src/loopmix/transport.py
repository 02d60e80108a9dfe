"""Datagram framing: one packet or pull item per UDP datagram.

Wire layout is [magic 2B][version 1B][kind 1B][body], with a fixed body size
per kind so every datagram of a given kind is the same length. The largest
frame (a relayed packet) is 1361 bytes, safely under common MTUs.
"""

from __future__ import annotations

from . import packet

MAGIC = b"LM"
VERSION = 1

KIND_PACKET = 1
KIND_PULL_REQ = 2
KIND_PULL_ITEM = 3

TOKEN_LEN = 16
NONCE_LEN = 8

PULL_REQ_LEN = packet.ADDR_LEN + TOKEN_LEN + NONCE_LEN
# A pull item carries one inbox payload padded to the packet's message capacity.
PULL_ITEM_LEN = packet.MESSAGE_CAPACITY

BODY_SIZES = {
    KIND_PACKET: packet.PACKET_LEN,
    KIND_PULL_REQ: PULL_REQ_LEN,
    KIND_PULL_ITEM: PULL_ITEM_LEN,
}

HEADER_LEN = 4


class DeframeError(ValueError):
    """A datagram that is not a frame; the runtime drops it unread."""


def frame(kind: int, body: bytes) -> bytes:
    if kind not in BODY_SIZES:
        raise ValueError("unknown kind %r" % kind)
    if len(body) != BODY_SIZES[kind]:
        raise ValueError(
            "kind %d body must be %d bytes, got %d" % (kind, BODY_SIZES[kind], len(body))
        )
    return MAGIC + bytes([VERSION, kind]) + body


def deframe(datagram: bytes) -> tuple[int, bytes]:
    if len(datagram) < HEADER_LEN:
        raise DeframeError("truncated datagram")
    if datagram[:2] != MAGIC:
        raise DeframeError("bad magic")
    if datagram[2] != VERSION:
        raise DeframeError("unsupported version %d" % datagram[2])
    kind = datagram[3]
    if kind not in BODY_SIZES:
        raise DeframeError("unknown kind %d" % kind)
    body = datagram[HEADER_LEN:]
    if len(body) != BODY_SIZES[kind]:
        raise DeframeError("wrong body size for kind %d" % kind)
    return kind, body


def encode_pull_request(client_id: str, token: bytes, nonce: bytes) -> bytes:
    if len(token) != TOKEN_LEN or len(nonce) != NONCE_LEN:
        raise ValueError("token must be 16 bytes and nonce 8 bytes")
    try:
        return packet._encode_addr(client_id) + token + nonce
    except ValueError as exc:
        raise ValueError(f"client id: {exc}") from exc


def decode_pull_request(body: bytes) -> tuple[str, bytes, bytes]:
    """(client_id, token, nonce); MalformedPacket for a corrupt id length."""
    if len(body) != PULL_REQ_LEN:
        raise DeframeError("pull request must be %d bytes" % PULL_REQ_LEN)
    client_id = packet._decode_addr(body[: packet.ADDR_LEN])
    token = body[packet.ADDR_LEN : packet.ADDR_LEN + TOKEN_LEN]
    nonce = body[packet.ADDR_LEN + TOKEN_LEN :]
    return client_id, token, nonce
