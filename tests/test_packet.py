"""Onion packet construction and per-hop processing."""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from loopmix import crypto
from loopmix.crypto import GroupElement
from loopmix.packet import (
    ADDR_LEN,
    BETA_LEN,
    BLOCK_LEN,
    HEADER_LEN,
    MAX_HOPS,
    MESSAGE_CAPACITY,
    PACKET_LEN,
    PAYLOAD_LEN,
    Deliver,
    Drop,
    HopFlags,
    HopSpec,
    MacMismatch,
    MalformedPacket,
    Relay,
    SphinxHeader,
    SphinxPacket,
    _encode_addr,
    _encode_block,
    _shared_secret_chain,
    build_packet,
    process_packet,
    resolve_addr,
)


def make_path(rng, nu, final_flags=HopFlags.FINAL):
    """Each hop's key object, and the path of (public key, HopSpec) pairs."""
    secrets, pubs, hops = [], [], []
    for i in range(nu):
        sk, pub = crypto.generate_keypair(rng)
        secrets.append(crypto.private_key(sk))
        pubs.append(pub)
        hops.append(
            HopSpec(
                next_addr=f"10.0.0.{i}:9000",
                delay_s=rng.expovariate(1.0),
                flags=final_flags if i == nu - 1 else HopFlags.NONE,
            )
        )
    return secrets, list(zip(pubs, hops))


def walk(secrets, packet):
    """Process through every hop, returning (observed HopSpecs, terminal)."""
    seen = []
    current = packet
    for sk in secrets:
        result = process_packet(sk, current)
        if isinstance(result, Relay):
            seen.append(result.next)
            current = result.packet
        else:
            return seen, result
    raise AssertionError("no terminal result")


def test_constants_lock_the_wire_format():
    assert HEADER_LEN == 32 + BETA_LEN + 16
    assert PACKET_LEN == HEADER_LEN + PAYLOAD_LEN
    assert PACKET_LEN == 1357
    assert MESSAGE_CAPACITY == 972


@settings(max_examples=30, deadline=None)
@given(
    nu=st.integers(min_value=1, max_value=MAX_HOPS),
    message=st.binary(min_size=0, max_size=MESSAGE_CAPACITY),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_reproduces_hops_and_message(nu, message, seed):
    rng = random.Random(seed)
    secrets, path = make_path(rng, nu)
    packet = build_packet(path, "rcpt", message, rng)[0]
    assert len(packet.to_bytes()) == PACKET_LEN
    seen, terminal = walk(secrets, packet)
    assert [h.next_addr for h in seen] == [h.next_addr for _, h in path[:-1]]
    assert [h.delay_s for h in seen] == pytest.approx(
        [h.delay_s for _, h in path[:-1]]
    )
    assert isinstance(terminal, Deliver)
    assert terminal.recipient_id == "rcpt"
    assert terminal.payload == message


def test_all_relayed_packets_have_identical_length():
    rng = random.Random(3)
    secrets, path = make_path(rng, MAX_HOPS)
    packet = build_packet(path, "rcpt", b"x", rng)[0]
    current = packet
    for sk in secrets[:-1]:
        result = process_packet(sk, current)
        assert isinstance(result, Relay)
        current = result.packet
        assert len(current.to_bytes()) == PACKET_LEN


def test_drop_flag_terminates_without_payload():
    rng = random.Random(4)
    secrets, path = make_path(rng, 3, final_flags=HopFlags.DROP)
    packet = build_packet(path, "whoever", b"cover", rng)[0]
    _, terminal = walk(secrets, packet)
    assert isinstance(terminal, Drop)


def test_header_tamper_fails_mac():
    rng = random.Random(5)
    secrets, path = make_path(rng, 3)
    packet = build_packet(path, "rcpt", b"m", rng)[0]
    beta = bytearray(packet.header.beta)
    beta[10] ^= 0x01
    tampered = SphinxPacket(
        packet.header.__class__(packet.header.alpha, bytes(beta), packet.header.mac),
        packet.payload,
    )
    with pytest.raises(MacMismatch):
        process_packet(secrets[0], tampered)


def test_payload_tamper_fails_at_delivery():
    rng = random.Random(6)
    secrets, path = make_path(rng, 2)
    packet = build_packet(path, "rcpt", b"m", rng)[0]
    payload = bytearray(packet.payload)
    payload[100] ^= 0x01
    tampered = SphinxPacket(packet.header, bytes(payload))
    result = process_packet(secrets[0], tampered)
    assert isinstance(result, Relay)
    with pytest.raises(MacMismatch):
        process_packet(secrets[1], result.packet)


def test_wrong_key_fails_mac():
    rng = random.Random(7)
    secrets, path = make_path(rng, 2)
    packet = build_packet(path, "rcpt", b"m", rng)[0]
    wrong, _ = crypto.generate_keypair(rng)
    with pytest.raises(MacMismatch):
        process_packet(crypto.private_key(wrong), packet)


def test_malformed_sizes_rejected():
    rng = random.Random(8)
    secrets, path = make_path(rng, 1)
    packet = build_packet(path, "rcpt", b"m", rng)[0]
    with pytest.raises(MalformedPacket):
        SphinxPacket.from_bytes(packet.to_bytes()[:-1])
    short = SphinxPacket(packet.header, packet.payload[:-1])
    with pytest.raises(MalformedPacket):
        process_packet(secrets[0], short)


def test_replay_tags_differ_per_hop_and_packet():
    rng = random.Random(9)
    secrets, path = make_path(rng, 3)
    p1 = build_packet(path, "rcpt", b"m", rng)[0]
    p2 = build_packet(path, "rcpt", b"m", rng)[0]
    tags = set()
    for packet in (p1, p2):
        current = packet
        for sk in secrets:
            result = process_packet(sk, current)
            if isinstance(result, Relay):
                tags.add(result.replay_tag)
                current = result.packet
            else:
                tags.add(result.replay_tag)
    assert len(tags) == 6


def test_same_packet_same_tag():
    rng = random.Random(10)
    secrets, path = make_path(rng, 1)
    packet = build_packet(path, "rcpt", b"m", rng)[0]
    r1 = process_packet(secrets[0], packet)
    r2 = process_packet(secrets[0], packet)
    assert r1.replay_tag == r2.replay_tag


def test_blinding_chain_matches_sender_trace():
    # The sender precomputes the alpha each hop will see; the packets on the
    # wire must show exactly those group elements, all distinct.
    rng = random.Random(11)
    secrets, path = make_path(rng, MAX_HOPS)
    packet, trace = build_packet(path, "rcpt", b"m", rng)
    assert len(trace.alphas) == MAX_HOPS
    current = packet
    for i, sk in enumerate(secrets):
        assert current.header.alpha.data == trace.alphas[i].data
        assert crypto.exchange(sk, crypto.parse(current.header.alpha)) == trace.shared_secrets[i]
        result = process_packet(sk, current)
        if isinstance(result, Relay):
            current = result.packet
    assert len({a.data for a in trace.alphas}) == MAX_HOPS


def hop_by_hop_chain(path_keys, x):
    """The sender chain as each hop sees it: x, then every earlier blinding
    factor applied in turn, one exchange each."""
    alphas, secrets, blinds = [], [], []
    x = crypto.private_key(x)
    alpha = crypto.public_key(x)
    for pub in path_keys:
        alphas.append(alpha)
        sh = crypto.exchange(x, pub.point)
        for b in blinds:
            sh = crypto.exchange(b, crypto.parse(GroupElement(sh)))
        secrets.append(sh)
        blinds.append(crypto.private_key(crypto.blinding_scalar(alpha, sh)))
        alpha = GroupElement(crypto.exchange(blinds[-1], crypto.parse(alpha)))
    return alphas, secrets


@settings(max_examples=40, deadline=None)
@given(
    nu=st.integers(min_value=1, max_value=MAX_HOPS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_product_chain_matches_hop_by_hop_chain(nu, seed):
    rng = random.Random(seed)
    keys = [pub for pub, _ in make_path(rng, nu)[1]]
    x = rng.randbytes(crypto.SECRET_KEY_LEN)
    assert _shared_secret_chain(keys, x) == hop_by_hop_chain(keys, x)


def raw_hop(addr: bytes, delay: float = 0.0, flags: int = 0) -> bytes:
    """A routing block's address field, delay and flags byte, unchecked."""
    field = bytes([len(addr)]) + addr.ljust(ADDR_LEN - 1, b"\x00")
    return field + struct.pack(">d", delay) + bytes([flags])


# Routing blocks HopSpec rejects; a relay must drop each one.
HOSTILE_HOPS = {
    "port-70000": raw_hop(b"127.0.0.1:70000"),
    "non-utf8": raw_hop(b"\xff:80"),
    "non-utf8-31": raw_hop(b"\xff" * 31),  # 93 bytes once decoded
    "nul": raw_hop(b"a\x00b:80"),
    "empty-relay": raw_hop(b""),
    "inf-delay": raw_hop(b"127.0.0.1:9000", math.inf),
    "flags-2": raw_hop(b"127.0.0.1:9000", 0.0, 2),
}


def _block(hop, next_mac: bytes) -> bytes:
    return hop + next_mac if isinstance(hop, bytes) else _encode_block(hop, next_mac)


def reference_build(path, recipient_id, message, rng):
    """build_packet as it was with a stream call per filler step and per
    beta layer: 3nu - 1 header streams where one per hop secret does.

    A hop may also be raw_hop bytes, to put a hop HopSpec rejects under a
    valid MAC."""
    nu = len(path)
    chain = None
    while chain is None:
        x = rng.randbytes(crypto.SECRET_KEY_LEN)
        chain = _shared_secret_chain([pk for pk, _ in path], x)
    alphas, secrets = chain

    phi = b""
    for i in range(nu - 1):
        skip = (MAX_HOPS - i) * BLOCK_LEN
        phi = crypto.beta_stream(
            secrets[i], bytes(skip) + phi + bytes(BLOCK_LEN)
        )[skip:]

    final_block = _block(path[nu - 1][1], b"\x00" * crypto.MAC_LEN)
    pad = rng.randbytes((MAX_HOPS - nu) * BLOCK_LEN)
    beta = crypto.beta_stream(secrets[nu - 1], final_block + pad) + phi
    mac = crypto.header_mac(crypto.mac_key(secrets[nu - 1]), beta)
    for i in range(nu - 2, -1, -1):
        block = _block(path[i][1], mac)
        beta = crypto.beta_stream(
            secrets[i], block + beta[: (MAX_HOPS - 1) * BLOCK_LEN]
        )
        mac = crypto.header_mac(crypto.mac_key(secrets[i]), beta)

    plain = _encode_addr(recipient_id) + struct.pack(">I", len(message)) + message
    plain += b"\x00" * (PAYLOAD_LEN - crypto.AEAD_OVERHEAD - len(plain))
    payload = crypto.deliver_seal(secrets[nu - 1], plain)
    for i in range(nu - 1, -1, -1):
        payload = crypto.payload_stream(secrets[i], payload)
    return SphinxPacket(SphinxHeader(alphas[0], beta, mac), payload)


@pytest.mark.parametrize("flags", [HopFlags.FINAL, HopFlags.DROP], ids=["final", "drop"])
@pytest.mark.parametrize("nu", range(1, MAX_HOPS + 1))
def test_build_matches_the_reference_build(nu, flags):
    for seed in range(4):
        rng = random.Random(seed)
        _, path = make_path(rng, nu, flags)
        message = rng.randbytes(seed * 100)
        start = rng.getstate()
        packet, _ = build_packet(path, "rcpt", message, rng)
        end = rng.getstate()
        rng.setstate(start)
        expected = reference_build(path, "rcpt", message, rng)
        assert packet.to_bytes() == expected.to_bytes()
        assert rng.getstate() == end  # the same draws in the same order


def hostile_packet(hop: bytes, pub, next_pub, rng) -> SphinxPacket:
    """A packet to pub whose routing block holds hop, under a valid MAC, and
    whose next hop is the terminal next_pub."""
    path = [(pub, hop), (next_pub, HopSpec("", 0.0, HopFlags.FINAL))]
    return reference_build(path, "rcpt", b"m", rng)


_HOP_KEYS = [crypto.generate_keypair(random.Random(i)) for i in range(2)]


@settings(max_examples=300, deadline=None)
@given(
    hop=st.one_of(
        st.binary(min_size=BLOCK_LEN - crypto.MAC_LEN, max_size=BLOCK_LEN - crypto.MAC_LEN),
        st.builds(
            raw_hop,
            st.one_of(
                st.binary(max_size=ADDR_LEN - 1),
                st.builds(
                    lambda host, port: f"{host}:{port}".encode()[: ADDR_LEN - 1],
                    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24)
                    | st.text(max_size=8),
                    st.integers(min_value=0, max_value=99999),
                ),
            ),
            st.floats(min_value=0) | st.floats(),
            st.sampled_from([0, 1, 8]) | st.integers(min_value=0, max_value=255),
        ),
    )
)
def test_any_routing_block_is_relayed_only_when_it_can_be_sent(hop):
    (secret, pub), (_, next_pub) = _HOP_KEYS
    packet = hostile_packet(hop, pub, next_pub, random.Random(0))
    try:
        result = process_packet(crypto.private_key(secret), packet)
    except (MacMismatch, MalformedPacket):
        return
    if isinstance(result, Relay):
        assert math.isfinite(result.next.delay_s) and result.next.delay_s >= 0
        resolve_addr(result.next.next_addr)


def test_hop_rule():
    for addr, flags in [("", HopFlags.DROP), ("", HopFlags.FINAL), ("h:0", HopFlags.NONE),
                        ("x" * 25 + ":65535", HopFlags.FINAL)]:
        HopSpec(addr, 0.0, flags)
    for addr, delay, flags in [
        ("", 0.0, HopFlags.NONE),
        ("h:1", -1.0, HopFlags.NONE),
        ("h:1", math.nan, HopFlags.NONE),
        ("h:1", math.inf, HopFlags.NONE),
        ("h:1", 0.0, 9),  # the DROP and FINAL bits
        ("h:65536", 0.0, HopFlags.NONE),
        ("h:", 0.0, HopFlags.FINAL),
        (":1", 0.0, HopFlags.NONE),
        ("h\u00e9:1", 0.0, HopFlags.NONE),
        ("h\t:1", 0.0, HopFlags.NONE),
        ("h:\u00b2", 0.0, HopFlags.NONE),
        ("x" * 26 + ":65535", 0.0, HopFlags.NONE),
    ]:
        with pytest.raises(ValueError):
            HopSpec(addr, delay, flags)


def test_failed_scalar_encoding_draws_a_fresh_x(monkeypatch):
    rng = random.Random(21)
    secrets, path = make_path(rng, 4)
    draws = random.Random()
    draws.setstate(rng.getstate())
    first_x, second_x = draws.randbytes(32), draws.randbytes(32)
    failures = []
    original = crypto.scalar_for

    def fail_once(c):
        if not failures:
            failures.append(c)
            return None
        return original(c)

    monkeypatch.setattr(crypto, "scalar_for", fail_once)
    packet, trace = build_packet(path, "rcpt", b"again", rng)
    assert len(failures) == 1
    first, second = crypto.private_key(first_x), crypto.private_key(second_x)
    assert trace.alphas[0] == crypto.public_key(second) != crypto.public_key(first)
    assert packet.header.alpha == trace.alphas[0]
    seen, terminal = walk(secrets, packet)
    assert [hop for _, hop in path[:-1]] == seen
    assert isinstance(terminal, Deliver) and terminal.payload == b"again"


def test_relayed_bytes_look_uniform():
    # A GPA comparing input and output of a hop should see unrelated bytes.
    rng = random.Random(12)
    secrets, path = make_path(rng, 3)
    packet = build_packet(path, "rcpt", bytes(MESSAGE_CAPACITY), rng)[0]
    result = process_packet(secrets[0], packet)
    a = packet.to_bytes()
    b = result.packet.to_bytes()
    differing = sum(
        bin(x ^ y).count("1") for x, y in zip(a[32:], b[32:])
    )
    total_bits = (PACKET_LEN - 32) * 8
    assert 0.45 < differing / total_bits < 0.55


def test_path_and_message_limits():
    rng = random.Random(13)
    secrets, path = make_path(rng, MAX_HOPS)
    message_limit = f"^message length must be at least 0 and at most {MESSAGE_CAPACITY}$"
    with pytest.raises(ValueError, match=message_limit):
        build_packet(path, "rcpt", bytes(MESSAGE_CAPACITY + 1), rng)[0]
    sk, pub = crypto.generate_keypair(rng)
    too_long = path + [(pub, HopSpec("10.0.0.9:1", 0.1, HopFlags.FINAL))]
    path_limit = f"^path length must be at least 1 and at most {MAX_HOPS}$"
    for bad in (too_long, []):
        with pytest.raises(ValueError, match=path_limit):
            build_packet(bad, "rcpt", b"", rng)[0]


def test_committed_vectors_replay(packet_vectors):
    # The committed file freezes whole packets; rebuilding the chain from the
    # stored secret keys must reproduce every alpha and the delivered message.
    assert packet_vectors["cases"], "vector file is empty"
    for case in packet_vectors["cases"]:
        secrets = [crypto.private_key(bytes.fromhex(s)) for s in case["node_secret_keys"]]
        packet = SphinxPacket.from_bytes(bytes.fromhex(case["packet"]))
        current = packet
        for i, sk in enumerate(secrets):
            assert current.header.alpha.data.hex() == case["per_hop_alpha"][i]
            assert case["per_hop_alpha"][i] == case["sender_alphas"][i]
            result = process_packet(sk, current)
            if i < len(secrets) - 1:
                assert isinstance(result, Relay)
                assert result.next.next_addr == case["hops"][i]["next_addr"]
                current = result.packet
            else:
                assert isinstance(result, Deliver)
                assert result.recipient_id == case["recipient_id"]
                assert result.payload.hex() == case["final_payload"]


def test_vectors_regenerate_identically(packet_vectors):
    from loopmix.cli import generate_vectors

    regenerated = generate_vectors(packet_vectors["seed"], len(packet_vectors["cases"]))
    assert regenerated == packet_vectors
