"""Provider inboxes, drop sinking, and the padded pull protocol."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from loopmix import crypto, provider as provider_module
from loopmix.mixnode import MixConfig
from loopmix.packet import Deliver, Drop, HopFlags, HopSpec, Relay, build_packet
from loopmix.provider import (
    DUMMY,
    MAX_PULL_ITEMS,
    REAL,
    Provider,
    ProviderConfig,
    PullItem,
    on_packet_result,
)
from loopmix.transport import PULL_ITEM_LEN

SECRET, PUBKEY = crypto.generate_keypair(random.Random(0))
TOKEN = bytes(range(16))


def make_provider(queued=(), **cfg):
    """A provider for alice and bob, with `queued` already in alice's inbox."""
    mix = MixConfig(SECRET, "prov-0", "127.0.0.1:9200", 0)
    provider = Provider(ProviderConfig(mix, client_tokens={"alice": TOKEN, "bob": TOKEN}, **cfg))
    provider.inboxes["alice"].extend(queued)
    return provider


def deliver(recipient, payload_byte=b"m"):
    body = payload_byte * PULL_ITEM_LEN
    return Deliver(recipient_id=recipient, payload=body, replay_tag=b"t" * 16)


def test_deliver_appends_to_recipient_inbox():
    provider = make_provider()
    on_packet_result(provider, deliver("bob"))
    assert len(provider.inboxes["bob"]) == 1


def test_counters_start_at_zero():
    assert make_provider().counters == {
        "dropped_cover": 0,
        "unknown_recipient": 0,
        "bad_payload": 0,
        "evicted": 0,
    }


def test_drop_stores_nothing_and_counts():
    provider = make_provider()
    on_packet_result(provider, Drop(replay_tag=b"t" * 16))
    assert not any(provider.inboxes.values())
    assert provider.counters["dropped_cover"] == 1


def test_unknown_recipient_leaves_inboxes_unchanged():
    provider = make_provider([b"x" * PULL_ITEM_LEN])
    on_packet_result(provider, deliver("mallory"))
    assert list(provider.inboxes) == ["alice", "bob"]
    assert len(provider.inboxes["alice"]) == 1
    assert provider.counters["unknown_recipient"] == 1


def test_wrong_size_payload_rejected():
    provider = make_provider()
    short = Deliver(recipient_id="bob", payload=b"tiny", replay_tag=b"t" * 16)
    on_packet_result(provider, short)
    assert len(provider.inboxes["bob"]) == 0
    assert provider.counters["bad_payload"] == 1


def test_relay_result_is_a_programming_error():
    relay = Relay(next=HopSpec("a:1", 0.1, HopFlags.NONE), packet=None, replay_tag=b"")
    with pytest.raises(TypeError):
        on_packet_result(make_provider(), relay)


def test_capacity_evicts_oldest():
    provider = make_provider(pull_max_items=3, inbox_capacity=3)
    for i in range(4):
        on_packet_result(provider, deliver("bob", bytes([i])))
    assert provider.counters["evicted"] == 1
    assert [q[0] for q in provider.inboxes["bob"]] == [1, 2, 3]


@pytest.mark.parametrize("n_queued", [0, 2, 5, 7])
def test_pull_pads_to_exactly_c(n_queued):
    queued = [bytes([i]) * PULL_ITEM_LEN for i in range(n_queued)]
    provider = make_provider(queued, pull_max_items=5)
    response = provider.on_pull("alice", TOKEN, random.Random(1))
    assert len(response.items) == 5
    assert all(len(item.blob) == PULL_ITEM_LEN for item in response.items)
    assert response.n_real == min(n_queued, 5)
    reals = [item.blob for item in response.items if item.kind == REAL]
    assert sorted(reals) == sorted(queued[:5])
    assert list(provider.inboxes["alice"]) == queued[5:]


def test_pull_returns_reals_fifo():
    # shuffling hides order on the wire, but the set popped is the oldest C
    queued = [bytes([i]) * PULL_ITEM_LEN for i in range(7)]
    provider = make_provider(queued, pull_max_items=5)
    response = provider.on_pull("alice", TOKEN, random.Random(2))
    reals = {item.blob for item in response.items if item.kind == REAL}
    assert reals == set(queued[:5])


def test_pull_items_all_start_with_a_public_key():
    # a real item is a sealed envelope, whose first 32 bytes are an x25519
    # public key, and byte 31 of a public key never has its top bit set; a
    # dummy must not differ there
    provider = make_provider()
    rng = random.Random(3)
    items = []
    for _ in range(400):
        if rng.random() < 0.2:
            envelope = crypto.e2e_seal(PUBKEY, bytes(PULL_ITEM_LEN - 48), rng)
            provider.inboxes["alice"].append(envelope)
        items += provider.on_pull("alice", TOKEN, rng).items
    assert sum(item.kind == REAL for item in items) > 0
    assert sum(item.kind == DUMMY for item in items) > 1000
    assert all(item.blob[31] < 0x80 for item in items)


def test_pull_unknown_client_and_bad_c():
    with pytest.raises(ValueError, match="^unknown client 'ghost'$"):
        make_provider().on_pull("ghost", TOKEN, random.Random(0))
    with pytest.raises(ValueError):
        make_provider(pull_max_items=0)


def test_provider_authentication():
    provider = make_provider([b"x" * PULL_ITEM_LEN])
    with pytest.raises(ValueError, match="^bad token for 'alice'$"):
        provider.on_pull("alice", bytes(16), random.Random(0))
    with pytest.raises(ValueError, match="^unknown client 'nobody'$"):
        provider.on_pull("nobody", TOKEN, random.Random(0))
    assert len(provider.inboxes["alice"]) == 1
    assert provider.pulls_served == 0
    assert provider.on_pull("alice", TOKEN, random.Random(0)).n_real == 1
    assert provider.pulls_served == 1


@pytest.mark.parametrize("field", ["pull_max_items", "inbox_capacity"])
@pytest.mark.parametrize("value", [0, -5])
def test_provider_config_rejects_empty_pulls_and_inboxes(field, value):
    # C = 0 would fail every pull; a capacity below 1 would evict each delivery
    mix = MixConfig(bytes(32), "prov-0", "127.0.0.1:9200", 0)
    with pytest.raises(ValueError, match=field):
        ProviderConfig(mix, **{field: value})
    assert ProviderConfig(mix, **{"pull_max_items": 1, field: 1})


def test_pull_max_items_has_a_ceiling():
    # bounded by the inbox capacity alone, one pull could build 2**53 dummies
    mix = MixConfig(bytes(32), "prov-0", "127.0.0.1:9200", 0)
    assert ProviderConfig(mix, pull_max_items=MAX_PULL_ITEMS, inbox_capacity=2**53)
    message = f"^pull_max_items must be at least 1 and at most {MAX_PULL_ITEMS}$"
    for capacity in (10_000, 2**53):
        with pytest.raises(ValueError, match=message):
            ProviderConfig(mix, pull_max_items=MAX_PULL_ITEMS + 1, inbox_capacity=capacity)
    with pytest.raises(ValueError, match="at most 3$"):
        ProviderConfig(mix, pull_max_items=4, inbox_capacity=3)


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
    provider = make_provider([rng.randbytes(PULL_ITEM_LEN) for _ in range(n_queued)],
                             pull_max_items=c)
    response = provider.on_pull("alice", TOKEN, rng)
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
    for _ in range(60):
        if rng.random() < 0.7:
            on_packet_result(provider, deliver("alice", rng.randbytes(1)))
            delivered += 1
        else:
            response = provider.on_pull("alice", net.runtimes["alice"].client.cfg.token, rng)
            real_returned += response.n_real
    evicted = provider.counters["evicted"]
    remaining = len(provider.inboxes["alice"])
    assert real_returned + remaining + evicted == delivered


def test_terminal_packets_land_in_inboxes(network):
    topology, net = network
    provider = net.runtimes["prov-0"].provider
    prov_desc = topology.node("prov-0")
    rng = random.Random(4)

    mail = [(prov_desc.pubkey, HopSpec("c:1", 0.1, HopFlags.FINAL))]
    body = rng.randbytes(PULL_ITEM_LEN)
    assert isinstance(provider.on_receive(build_packet(mail, "alice", body, rng)[0], 0.0), Deliver)
    assert list(provider.inboxes["alice"]) == [body]

    cover = [(prov_desc.pubkey, HopSpec("c:1", 0.1, HopFlags.DROP))]
    junk = rng.randbytes(PULL_ITEM_LEN)
    assert isinstance(provider.on_receive(build_packet(cover, "alice", junk, rng)[0], 1.0), Drop)
    assert list(provider.inboxes["alice"]) == [body]
    assert provider.counters["dropped_cover"] == 1


def test_terminal_results_go_through_the_module_function(monkeypatch):
    # tracing wraps provider.on_packet_result by name; a provider must call
    # it through the module, not hold the function it saw at construction
    provider = make_provider()
    seen = []
    monkeypatch.setattr(provider_module, "on_packet_result", lambda p, r: seen.append((p, r)))
    rng = random.Random(5)
    cover = [(PUBKEY, HopSpec("c:1", 0.1, HopFlags.DROP))]
    result = provider.on_receive(build_packet(cover, "alice", b"", rng)[0], 0.0)
    assert isinstance(result, Drop)
    assert seen == [(provider, result)]
    assert provider.counters["dropped_cover"] == 0
