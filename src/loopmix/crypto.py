"""Group operations and symmetric primitives for the packet format.

The mix group is Curve25519 with clamped scalars (X25519). Clamping keeps every
honest element inside the prime-order subgroup generated by the base point, and
scalar multiplication commutes, so a sender can multiply a packet's blinding
factors together mod the group order and reach each hop's element with one
exchange. Elements are opaque 32-byte strings that round-trip bit-exactly.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher

# Bound once: each attribute lookup on the `algorithms` module goes through
# its deprecation hook, about a quarter of the cost of building a cipher.
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

GROUP_ELEMENT_LEN = 32
SECRET_KEY_LEN = 32
MAC_LEN = 16
TAG_LEN = 16
AEAD_OVERHEAD = 16
# Order of the prime-order subgroup the base point generates (RFC 7748 §4.1).
GROUP_ORDER = 2**252 + 27742317777372353535851937790883648493
_INV8 = pow(8, -1, GROUP_ORDER)


class GroupError(ValueError):
    """A group operation failed (bad length or degenerate element)."""


@dataclass(frozen=True)
class GroupElement:
    """Opaque encoding of a Curve25519 point."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes) or len(self.data) != GROUP_ELEMENT_LEN:
            raise GroupError("group element must be exactly 32 bytes")

    def hex(self) -> str:
        return self.data.hex()

    @functools.cached_property
    def point(self) -> X25519PublicKey:
        """This element parsed for exchange(), kept on it from the first use.

        A directory key is thus parsed once per process. A packet's alpha is
        parsed into a local with parse() instead, so that a node holding
        packets holds no parsed key (about 450 bytes each) with them.
        """
        return parse(self)

    @classmethod
    def from_hex(cls, s: str) -> "GroupElement":
        return cls(bytes.fromhex(s))


def generate_keypair(rng) -> tuple[bytes, GroupElement]:
    """Return (secret, public), the secret being rng.randbytes(32)."""
    raw = rng.randbytes(SECRET_KEY_LEN)
    return raw, public_key(private_key(raw))


def private_key(secret: bytes) -> X25519PrivateKey:
    """The key object of a 32-byte clamped scalar.

    Building one also derives its public key, a base-point multiplication
    that costs about as much as an exchange, so a scalar used more than once
    is built once and its key object held.
    """
    if len(secret) != SECRET_KEY_LEN:
        raise GroupError("secret scalar must be 32 bytes")
    return X25519PrivateKey.from_private_bytes(secret)


def public_key(key: X25519PrivateKey) -> GroupElement:
    return GroupElement(key.public_key().public_bytes_raw())


def clamp(secret: bytes) -> int:
    """The integer X25519 multiplies by for a 32-byte scalar (RFC 7748 §5)."""
    n = int.from_bytes(secret, "little")
    return (n & ~7 & ((1 << 255) - 1)) | (1 << 254)


def scalar_for(c: int) -> bytes | None:
    """A 32-byte scalar that acts on the base point's subgroup as c mod the order.

    Clamped scalars are 2^254 + 8k with k < 2^251, about half of the residues
    mod the order. X25519 keeps only the x-coordinate, which c and -c share,
    so whichever of the two fits is taken. Neither fits with probability
    about 2^-126; the caller then starts again from fresh randomness.
    """
    for v in (c, GROUP_ORDER - c):
        k = (v - (1 << 254)) * _INV8 % GROUP_ORDER
        if k < 1 << 251:
            return ((1 << 254) + 8 * k).to_bytes(SECRET_KEY_LEN, "little")
    return None


def parse(element: GroupElement) -> X25519PublicKey:
    """The point exchange() multiplies, parsed from the element's bytes."""
    return X25519PublicKey.from_public_bytes(element.data)


def exchange(key: X25519PrivateKey, point: X25519PublicKey) -> bytes:
    """Scalar-multiply point by key's clamped scalar.

    point is a directory key's GroupElement.point or parse() of an alpha or
    an ephemeral key. Raises GroupError on the all-zero result produced by
    low-order inputs; callers treat that the same as an integrity failure.
    """
    try:
        return key.exchange(point)
    except ValueError as exc:
        raise GroupError("degenerate shared secret") from exc


def _h(label: bytes, *parts: bytes) -> bytes:
    return hashlib.sha256(b"".join((label, *parts))).digest()


def blinding_scalar(alpha: GroupElement, shared: bytes) -> bytes:
    """Per-hop blinding factor b = h(alpha, shared), used as an X25519 scalar."""
    return _h(b"loopmix-blind", alpha.data, shared)


def mac_key(shared: bytes) -> bytes:
    return _h(b"loopmix-mac", shared)


def replay_tag(shared: bytes) -> bytes:
    return _h(b"loopmix-tag", shared)[:TAG_LEN]


def header_mac(key: bytes, beta: bytes) -> bytes:
    return _hmac.new(key, beta, hashlib.sha256).digest()[:MAC_LEN]


def macs_equal(a: bytes, b: bytes) -> bool:
    return _hmac.compare_digest(a, b)


def _chacha(key: bytes, nonce: bytes, data: bytes) -> bytes:
    return Cipher(ChaCha20(key, nonce), mode=None).encryptor().update(data)


def beta_stream(shared: bytes, data: bytes) -> bytes:
    """data masked with the header keystream of a hop secret (an involution)."""
    return _chacha(
        _h(b"loopmix-beta", shared), _h(b"loopmix-beta-nonce", shared)[:16], data
    )


def payload_stream(shared: bytes, data: bytes) -> bytes:
    """data masked with the payload keystream of a hop secret (an involution)."""
    return _chacha(
        _h(b"loopmix-rho", shared), _h(b"loopmix-rho-nonce", shared)[:16], data
    )


def deliver_seal(shared: bytes, plaintext: bytes) -> bytes:
    """Innermost payload layer: AEAD under the final hop's shared secret."""
    key = _h(b"loopmix-deliver", shared)
    return ChaCha20Poly1305(key).encrypt(b"\x00" * 12, plaintext, None)


def deliver_open(shared: bytes, blob: bytes) -> bytes:
    key = _h(b"loopmix-deliver", shared)
    try:
        return ChaCha20Poly1305(key).decrypt(b"\x00" * 12, blob, None)
    except InvalidTag as exc:
        raise GroupError("delivery authentication failed") from exc


def e2e_seal(recipient_pub: GroupElement, plaintext: bytes, rng) -> bytes:
    """Authenticated public-key encryption: [eph pub 32][AEAD ct+tag]."""
    eph = private_key(rng.randbytes(SECRET_KEY_LEN))
    eph_pub = public_key(eph)
    shared = exchange(eph, recipient_pub.point)
    key = _h(b"loopmix-e2e", shared, eph_pub.data, recipient_pub.data)
    ct = ChaCha20Poly1305(key).encrypt(b"\x00" * 12, plaintext, None)
    return eph_pub.data + ct


def e2e_open(recipient_key: X25519PrivateKey, blob: bytes) -> bytes:
    """Inverse of e2e_seal. Raises GroupError when authentication fails."""
    if len(blob) < GROUP_ELEMENT_LEN + AEAD_OVERHEAD:
        raise GroupError("blob too short")
    eph_pub = GroupElement(blob[:GROUP_ELEMENT_LEN])
    shared = exchange(recipient_key, parse(eph_pub))
    key = _h(b"loopmix-e2e", shared, eph_pub.data, public_key(recipient_key).data)
    try:
        return ChaCha20Poly1305(key).decrypt(
            b"\x00" * 12, blob[GROUP_ELEMENT_LEN:], None
        )
    except InvalidTag as exc:
        raise GroupError("end-to-end authentication failed") from exc
