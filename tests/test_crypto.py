"""X25519 key objects: how often each scalar is built and each point parsed,
where each is built, and how many stream ciphers a packet costs."""

import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from loopmix import crypto
from loopmix.mixnode import MixConfig, MixNode
from loopmix.packet import Drop, HopFlags, Relay, build_packet, process_packet

from test_mixnode import relay_packet
from test_packet import make_path, walk


@pytest.fixture
def builds(monkeypatch):
    """Records every X25519 key object built from scalar bytes."""
    calls = []
    original = X25519PrivateKey.from_private_bytes

    def counting(data):
        calls.append(bytes(data))
        return original(data)

    monkeypatch.setattr(X25519PrivateKey, "from_private_bytes", staticmethod(counting))
    return calls


@pytest.fixture
def parses(monkeypatch):
    """Records every X25519 point parsed from its 32 bytes."""
    calls = []
    original = X25519PublicKey.from_public_bytes

    def counting(data):
        calls.append(bytes(data))
        return original(data)

    monkeypatch.setattr(X25519PublicKey, "from_public_bytes", staticmethod(counting))
    return calls


@pytest.fixture
def streams(monkeypatch):
    """Records the name of every header or payload stream cipher call."""
    calls = []
    for name in ("beta_stream", "payload_stream"):
        original = getattr(crypto, name)

        def counting(shared, data, name=name, original=original):
            calls.append(name)
            return original(shared, data)

        monkeypatch.setattr(crypto, name, counting)
    return calls


# Points of small order: the exchange with any scalar yields all zeros.
LOW_ORDER = [bytes(32), (1).to_bytes(32, "little")]


def test_five_hop_build_makes_one_key_per_scalar(builds, monkeypatch):
    rng = random.Random(1)
    secrets, path = make_path(rng, 5)
    exchanges = []
    original = crypto.exchange

    def counting(key, point):
        exchanges.append(point)
        return original(key, point)

    monkeypatch.setattr(crypto, "exchange", counting)
    builds.clear()
    packet, _ = build_packet(path, "rcpt", b"hello", rng)
    # x for hop 0, then the running product of blinds for each later hop;
    # each key meets only its own hop's public key
    assert len(builds) == 5
    assert exchanges == [pub.point for pub, _ in path]
    _, terminal = walk(secrets, packet)
    assert terminal.payload == b"hello"


def test_scalar_for_is_clamped_and_acts_as_the_residue():
    rng = random.Random(7)
    g = crypto.public_key(crypto.private_key(crypto.scalar_for(1))).point
    for _ in range(50):
        c = rng.randrange(1, crypto.GROUP_ORDER)
        scalar = crypto.scalar_for(c)
        assert crypto.clamp(scalar) == int.from_bytes(scalar, "little")
        assert crypto.clamp(scalar) % crypto.GROUP_ORDER in (c, crypto.GROUP_ORDER - c)
        # the same element as multiplying by c in two steps
        a = rng.randrange(1, crypto.GROUP_ORDER)
        b = c * pow(a, -1, crypto.GROUP_ORDER) % crypto.GROUP_ORDER
        step = crypto.scalar_for(a), crypto.scalar_for(b)
        if None not in step:
            first, second = map(crypto.private_key, step)
            two_step = crypto.exchange(second, crypto.public_key(first).point)
            assert crypto.exchange(crypto.private_key(scalar), g) == two_step


def test_scalar_for_gives_none_when_neither_sign_fits():
    # k for c and for -c sum to l - 2^252 (mod l); with k = 2^251 + that sum
    # for c, -c gets l - 2^251, and both are out of range.
    delta = crypto.GROUP_ORDER - 2**252
    c = (2**254 + 8 * (2**251 + delta)) % crypto.GROUP_ORDER
    assert crypto.scalar_for(c) is None
    assert crypto.scalar_for(crypto.GROUP_ORDER - c) is None


def test_seal_builds_one_key_and_held_open_builds_none(builds):
    rng = random.Random(2)
    sk, pub = crypto.generate_keypair(rng)
    key = crypto.private_key(sk)
    builds.clear()
    blob = crypto.e2e_seal(pub, b"m" * 40, rng)
    assert len(builds) == 1
    builds.clear()
    assert crypto.e2e_open(key, blob) == b"m" * 40
    assert builds == []


def test_mix_node_builds_one_key_per_relayed_packet(builds):
    rng = random.Random(3)
    sk, pub = crypto.generate_keypair(rng)
    node = MixNode(MixConfig(sk, "m0", "127.0.0.1:9001", 0))
    packets = [relay_packet(pub, 0.5, rng) for _ in range(6)]
    builds.clear()
    assert isinstance(node.on_receive(packets[0], now=0.0), Relay)
    assert len(builds) == 2  # the held key, then the packet's blinding scalar
    for i, packet in enumerate(packets[1:], start=1):
        builds.clear()
        assert isinstance(node.on_receive(packet, now=float(i)), Relay)
        assert len(builds) == 1


def test_node_set_up_builds_no_key(builds):
    sk, _ = crypto.generate_keypair(random.Random(4))
    builds.clear()
    MixNode(MixConfig(sk, "m0", "127.0.0.1:9001", 0))
    assert builds == []


def test_exchange_builds_no_key_and_parses_no_point(builds, parses):
    rng = random.Random(5)
    sk, _ = crypto.generate_keypair(rng)
    key = crypto.private_key(sk)
    _, pub = crypto.generate_keypair(rng)
    point = pub.point
    alpha = crypto.parse(crypto.generate_keypair(rng)[1])
    builds.clear()
    parses.clear()
    assert crypto.exchange(key, point) != crypto.exchange(key, alpha)
    assert builds == [] and parses == []


@pytest.mark.parametrize("point", LOW_ORDER, ids=["zero", "one"])
def test_low_order_element_rejected(point):
    key = crypto.private_key(crypto.generate_keypair(random.Random(6))[0])
    with pytest.raises(crypto.GroupError):
        crypto.exchange(key, crypto.parse(crypto.GroupElement(point)))
    with pytest.raises(crypto.GroupError):
        crypto.e2e_open(key, point + bytes(crypto.AEAD_OVERHEAD + 8))


def test_bad_scalar_length_is_a_group_error():
    for bad in (b"", bytes(31), bytes(33)):
        with pytest.raises(crypto.GroupError):
            crypto.private_key(bad)


@pytest.mark.parametrize("nu", range(1, 6))
def test_build_takes_one_header_and_one_payload_stream_per_hop(nu, streams):
    rng = random.Random(nu)
    _, path = make_path(rng, nu)
    build_packet(path, "rcpt", b"m", rng)
    assert streams.count("beta_stream") == nu
    assert streams.count("payload_stream") == nu


def test_a_path_key_is_parsed_once_per_process(parses):
    rng = random.Random(8)
    secrets, path = make_path(rng, 5)
    build_packet(path, "rcpt", b"first", rng)
    assert parses == [pub.data for pub, _ in path]
    parses.clear()
    packet, _ = build_packet(path, "rcpt", b"second", rng)
    assert parses == []
    _, terminal = walk(secrets, packet)
    assert terminal.payload == b"second"


def test_relay_hop_parses_its_alpha_once_and_keeps_it_nowhere(parses):
    rng = random.Random(9)
    secrets, path = make_path(rng, 3)
    packet, _ = build_packet(path, "rcpt", b"m", rng)
    parses.clear()
    result = process_packet(secrets[0], packet)
    assert isinstance(result, Relay)
    assert parses == [packet.header.alpha.data]
    # a node holding packets holds no parsed point with them
    assert "point" not in vars(packet.header.alpha)
    assert "point" not in vars(result.packet.header.alpha)


def test_drop_terminal_peels_no_payload(streams):
    rng = random.Random(10)
    secrets, path = make_path(rng, 1, final_flags=HopFlags.DROP)
    packet, _ = build_packet(path, "cover", b"", rng)
    streams.clear()
    assert isinstance(process_packet(secrets[0], packet), Drop)
    assert streams == ["beta_stream"]
