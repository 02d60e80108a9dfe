"""Datagram framing and the pull request wire format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from loopmix import transport
from loopmix.packet import PACKET_LEN


def test_frame_deframe_round_trip_packet():
    body = random.Random(0).randbytes(PACKET_LEN)
    datagram = transport.frame(transport.KIND_PACKET, body)
    assert datagram[:2] == b"LM"
    assert datagram[2] == 1
    assert len(datagram) == PACKET_LEN + 4
    assert len(datagram) <= 1400
    assert transport.deframe(datagram) == (transport.KIND_PACKET, body)


@settings(max_examples=50)
@given(kind=st.sampled_from([transport.KIND_PACKET, transport.KIND_PULL_REQ,
                             transport.KIND_PULL_ITEM]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_all_kinds(kind, seed):
    body = random.Random(seed).randbytes(transport.BODY_SIZES[kind])
    assert transport.deframe(transport.frame(kind, body)) == (kind, body)


def test_wrong_magic_rejected():
    body = bytes(transport.BODY_SIZES[transport.KIND_PULL_REQ])
    datagram = transport.frame(transport.KIND_PULL_REQ, body)
    with pytest.raises(transport.DeframeError):
        transport.deframe(b"XX" + datagram[2:])


def test_truncated_rejected():
    body = bytes(transport.BODY_SIZES[transport.KIND_PACKET])
    datagram = transport.frame(transport.KIND_PACKET, body)
    with pytest.raises(transport.DeframeError):
        transport.deframe(datagram[:-1])
    with pytest.raises(transport.DeframeError):
        transport.deframe(datagram[:3])


def test_unknown_version_and_kind_rejected():
    body = bytes(transport.BODY_SIZES[transport.KIND_PULL_ITEM])
    datagram = bytearray(transport.frame(transport.KIND_PULL_ITEM, body))
    datagram[2] = 9
    with pytest.raises(transport.DeframeError):
        transport.deframe(bytes(datagram))
    datagram[2] = transport.VERSION
    datagram[3] = 77
    with pytest.raises(transport.DeframeError):
        transport.deframe(bytes(datagram))


def test_wrong_body_size_rejected_on_both_sides():
    with pytest.raises(ValueError, match="^kind 1 body must be 1357 bytes, got 5$"):
        transport.frame(transport.KIND_PACKET, b"short")
    good = transport.frame(transport.KIND_PULL_REQ,
                           bytes(transport.PULL_REQ_LEN))
    with pytest.raises(transport.DeframeError):
        transport.deframe(good + b"\x00")


def test_pull_request_round_trip():
    nonce = b"\x01" * transport.NONCE_LEN
    token = b"\x02" * transport.TOKEN_LEN
    body = transport.encode_pull_request("alice", token, nonce)
    assert len(body) == transport.PULL_REQ_LEN
    cid, tok, non = transport.decode_pull_request(body)
    assert (cid, tok, non) == ("alice", token, nonce)


def test_pull_request_id_too_long():
    with pytest.raises(ValueError, match="^client id: name longer than 31 bytes$"):
        transport.encode_pull_request("x" * 64, b"\x00" * 16, b"\x00" * 8)


def test_every_kind_fits_one_datagram():
    for kind, size in transport.BODY_SIZES.items():
        assert size + transport.HEADER_LEN <= 1400, kind
