"""Provider inboxes, drop sinking, and the padded pull protocol."""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from loopmix.mixnode import MixConfig
from loopmix.packet import Deliver, Drop, HopFlags, HopSpec, Relay, create_packet
from loopmix.provider import (
    DUMMY,
    REAL,
    BadToken,
    ProviderConfig,
    PullItem,
    UnknownClient,
    handle_pull,
    on_packet_result,
)
from loopmix.transport import PULL_ITEM_LEN


def deliver(recipient, payload_byte=b"m"):
    body = payload_byte * PULL_ITEM_LEN
    return Deliver(recipient_id=recipient, payload=body, replay_tag=b"t" * 16, flags=0)


def test_deliver_appends_to_recipient_inbox():
    inboxes = {"bob": deque()}
    on_packet_result(deliver("bob"), inboxes, now=0.0)
    assert len(inboxes["bob"]) == 1


def test_drop_stores_nothing_and_counts():
    inboxes = {"bob": deque()}
    counters = {}
    on_packet_result(Drop(replay_tag=b"t" * 16), inboxes, now=0.0, counters=counters)
    assert len(inboxes["bob"]) == 0
    assert counters["dropped_cover"] == 1


def test_unknown_recipient_leaves_inboxes_unchanged():
    inboxes = {"bob": deque([b"x" * PULL_ITEM_LEN])}
    counters = {}
    on_packet_result(deliver("mallory"), inboxes, now=0.0, counters=counters)
    assert list(inboxes) == ["bob"]
    assert len(inboxes["bob"]) == 1
    assert counters["unknown_recipient"] == 1


def test_wrong_size_payload_rejected():
    inboxes = {"bob": deque()}
    counters = {}
    short = Deliver(recipient_id="bob", payload=b"tiny", replay_tag=b"t" * 16, flags=0)
    on_packet_result(short, inboxes, now=0.0, counters=counters)
    assert len(inboxes["bob"]) == 0
    assert counters["bad_payload"] == 1


def test_relay_result_is_a_programming_error():
    relay = Relay(next=HopSpec("a:1", 0.1, HopFlags.NONE), packet=None, replay_tag=b"")
    with pytest.raises(TypeError):
        on_packet_result(relay, {"bob": deque()}, now=0.0)


def test_capacity_evicts_oldest():
    inboxes = {"bob": deque()}
    counters = {}
    for i in range(4):
        on_packet_result(
            deliver("bob", bytes([i])), inboxes, now=0.0, capacity=3, counters=counters
        )
    assert counters["evicted"] == 1
    assert [q[0] for q in inboxes["bob"]] == [1, 2, 3]


@pytest.mark.parametrize("n_queued", [0, 2, 5, 7])
def test_pull_pads_to_exactly_c(n_queued):
    rng = random.Random(1)
    queued = [bytes([i]) * PULL_ITEM_LEN for i in range(n_queued)]
    inboxes = {"alice": deque(queued)}
    response, inboxes = handle_pull("alice", inboxes, C=5, rng=rng)
    assert len(response.items) == 5
    assert all(len(item.blob) == PULL_ITEM_LEN for item in response.items)
    assert response.n_real == min(n_queued, 5)
    reals = [item.blob for item in response.items if item.kind == REAL]
    assert sorted(reals) == sorted(queued[:5])
    assert list(inboxes["alice"]) == queued[5:]


def test_pull_returns_reals_fifo():
    # shuffling hides order on the wire, but the set popped is the oldest C
    rng = random.Random(2)
    queued = [bytes([i]) * PULL_ITEM_LEN for i in range(7)]
    inboxes = {"alice": deque(queued)}
    response, _ = handle_pull("alice", inboxes, C=5, rng=rng)
    reals = {item.blob for item in response.items if item.kind == REAL}
    assert reals == set(queued[:5])


def test_pull_unknown_client_and_bad_c():
    with pytest.raises(UnknownClient):
        handle_pull("ghost", {"alice": deque()}, C=5, rng=random.Random(0))
    with pytest.raises(ValueError):
        handle_pull("alice", {"alice": deque()}, C=0, rng=random.Random(0))


@pytest.mark.parametrize("field", ["pull_max_items", "inbox_capacity"])
@pytest.mark.parametrize("value", [0, -5])
def test_provider_config_rejects_empty_pulls_and_inboxes(field, value):
    # C = 0 would fail every pull; a capacity below 1 would evict each delivery
    mix = MixConfig(bytes(32), "prov-0", "127.0.0.1:9200", 0)
    with pytest.raises(ValueError, match=field):
        ProviderConfig(mix, **{field: value})
    assert ProviderConfig(mix, **{field: 1})


def test_pull_item_validation():
    with pytest.raises(ValueError):
        PullItem("JUNK", b"x" * PULL_ITEM_LEN)
    with pytest.raises(ValueError):
        PullItem(REAL, b"short")


@settings(max_examples=40, deadline=None)
@given(
    n_queued=st.integers(min_value=0, max_value=12),
    c=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pull_response_size_never_leaks_inbox_state(n_queued, c, seed):
    rng = random.Random(seed)
    inboxes = {"alice": deque(rng.randbytes(PULL_ITEM_LEN) for _ in range(n_queued))}
    response, _ = handle_pull("alice", inboxes, C=c, rng=rng)
    assert len(response.items) == c
    assert {len(item.blob) for item in response.items} == {PULL_ITEM_LEN}
    assert sum(1 for i in response.items if i.kind == DUMMY) == c - min(n_queued, c)


def test_real_items_conserved_over_lifetime(network):
    _, net = network
    provider = net.runtimes["prov-0"].provider
    provider.cfg.inbox_capacity = 6
    rng = random.Random(9)
    delivered = 0
    real_returned = 0
    for step in range(60):
        if rng.random() < 0.7:
            provider._on_terminal(deliver("alice", rng.randbytes(1)), now=float(step))
            delivered += 1
        else:
            response = provider.on_pull("alice", net.runtimes["alice"].client.cfg.token, rng)
            real_returned += response.n_real
    evicted = provider.counters.get("evicted", 0)
    remaining = len(provider.inboxes["alice"])
    assert real_returned + remaining + evicted == delivered


def test_provider_authentication(network):
    _, net = network
    provider = net.runtimes["prov-0"].provider
    token = net.runtimes["alice"].client.cfg.token
    provider.authenticate("alice", token)
    with pytest.raises(BadToken):
        provider.authenticate("alice", bytes(16))
    with pytest.raises(UnknownClient):
        provider.authenticate("nobody", token)
    with pytest.raises(UnknownClient):
        provider.on_pull("nobody", token, random.Random(0))


def test_terminal_packets_land_in_inboxes(network):
    topology, net = network
    provider = net.runtimes["prov-0"].provider
    prov_desc = topology.node("prov-0")
    rng = random.Random(4)

    mail = [(prov_desc.pubkey, HopSpec("c:1", 0.1, HopFlags.FINAL))]
    body = rng.randbytes(PULL_ITEM_LEN)
    assert isinstance(provider.on_receive(create_packet(mail, "alice", body, rng), 0.0), Deliver)
    assert list(provider.inboxes["alice"]) == [body]

    cover = [(prov_desc.pubkey, HopSpec("c:1", 0.1, HopFlags.DROP | HopFlags.FINAL))]
    junk = rng.randbytes(PULL_ITEM_LEN)
    assert isinstance(provider.on_receive(create_packet(cover, "alice", junk, rng), 1.0), Drop)
    assert list(provider.inboxes["alice"]) == [body]
    assert provider.counters["dropped_cover"] == 1
