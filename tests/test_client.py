"""Client streams: FIFO buffer, cover generation, envelopes, and pulls."""

import math
import random

import pytest
import scipy.stats as stats

from loopmix import crypto
from loopmix.client import (
    PACKET_DROP,
    PACKET_REAL,
    USER_MESSAGE_CAPACITY,
    Client,
    ClientConfig,
    Rates,
    open_envelope,
    seal_envelope,
)
from loopmix.packet import PACKET_LEN, Drop, Relay, process_packet

from conftest import build_network

TOO_LONG = f"^message length must be at least 0 and at most {USER_MESSAGE_CAPACITY}$"


def small_net(**kwargs):
    defaults = dict(
        layers=1,
        per_layer=3,
        n_providers=3,
        client_specs=(("a", "prov-0"), ("b", "prov-1")),
    )
    defaults.update(kwargs)
    return build_network(**defaults)


def walk_packet(topology, net, packet, first_id):
    """Peel hops with keys built from the raw secrets, returning (node ids,
    delays, terminal result)."""
    id_of = {d.addr: d.id for d in topology.all_nodes()}
    ids, delays = [first_id], []
    while True:
        key = crypto.private_key(net.runtimes[ids[-1]].mix.cfg.secret_key)
        result = process_packet(key, packet)
        if not isinstance(result, Relay):
            return ids, delays, result
        delays.append(result.next.delay_s)
        packet = result.packet
        ids.append(id_of[result.next.next_addr])


def test_envelope_round_trip():
    rng = random.Random(0)
    sk, pub = crypto.generate_keypair(rng)
    sk = crypto.private_key(sk)
    blob = seal_envelope(pub, b"hello bob", rng)
    assert len(blob) == 972
    assert open_envelope(sk, blob) == b"hello bob"

    other_sk, _ = crypto.generate_keypair(rng)
    assert open_envelope(crypto.private_key(other_sk), blob) is None
    assert open_envelope(sk, rng.randbytes(972)) is None
    assert open_envelope(sk, b"short") is None
    with pytest.raises(ValueError, match=TOO_LONG):
        seal_envelope(pub, b"x" * (USER_MESSAGE_CAPACITY + 1), rng)


def test_buffer_is_fifo():
    topology, net = small_net()
    client = net.runtimes["a"].client
    rng = random.Random(1)
    client.enqueue_message("b", b"first")
    client.enqueue_message("b", b"second")
    assert client.queue_depth() == 2

    bob_sk = crypto.private_key(net.runtimes["b"].client.cfg.secret_key)
    out = []
    for _ in range(2):
        packet, kind, _ = client.payload_tick(topology, rng, now=0.0)
        assert kind == PACKET_REAL
        _, _, terminal = walk_packet(topology, net, packet, "prov-0")
        out.append(open_envelope(bob_sk, terminal.payload))
    assert out == [b"first", b"second"]
    assert client.queue_depth() == 0
    assert client.sent_real == 2

    with pytest.raises(ValueError, match=TOO_LONG):
        client.enqueue_message("b", b"y" * (USER_MESSAGE_CAPACITY + 1))


def test_thousand_enqueues():
    client = Client(
        ClientConfig(
            client_id="a",
            secret_key=b"\x01" * 32,
            provider_id="prov-0",
            token=b"\x02" * 16,
            rates=Rates(1, 1, 1, 0, 1),
        )
    )
    for i in range(1000):
        client.enqueue_message("b", b"%d" % i)
    assert client.queue_depth() == 1000


def test_empty_buffer_emits_drop_cover():
    topology, net = small_net()
    client = net.runtimes["a"].client
    packet, kind, _ = client.payload_tick(topology, random.Random(2), now=0.0)
    assert kind == PACKET_DROP
    assert client.sent_payload_cover == 1
    _, _, terminal = walk_packet(topology, net, packet, "prov-0")
    assert isinstance(terminal, Drop)


def test_drop_routing_statistics():
    # 2400 drop covers on a 1-layer/3-mix/3-provider net: layer nodes and
    # destination providers should both be uniform, per-hop delays Exp(mu).
    topology, net = small_net()
    client = net.runtimes["a"].client
    rng = random.Random(3)
    mix_counts = {f"mix-0-{j}": 0 for j in range(3)}
    prov_counts = {f"prov-{j}": 0 for j in range(3)}
    delays = []
    now = 0.0
    for _ in range(2400):
        packet, now = client.drop_tick(topology, rng, now)
        ids, hop_delays, terminal = walk_packet(topology, net, packet, "prov-0")
        assert isinstance(terminal, Drop)
        mix_counts[ids[1]] += 1
        prov_counts[ids[2]] += 1
        delays.extend(hop_delays)

    # binomial 5 sigma around n/3
    bound = 5 * math.sqrt(2400 * (1 / 3) * (2 / 3))
    for count in mix_counts.values():
        assert abs(count - 800) < bound
    for count in prov_counts.values():
        assert abs(count - 800) < bound

    mu = client.cfg.rates.mu
    ks = stats.kstest(delays, "expon", args=(0, 1 / mu))
    assert ks.pvalue > 0.01


def test_payload_gaps_poisson_regardless_of_buffer():
    topology, net = small_net()
    client = net.runtimes["a"].client
    rng = random.Random(4)
    # preload half the run with real mail so both branches contribute
    for i in range(5000):
        client.enqueue_message("b", b"m%d" % i)
    gaps, now = [], 0.0
    for _ in range(10_000):
        _, _, nxt = client.payload_tick(topology, rng, now)
        gaps.append(nxt - now)
        now = nxt
    ks = stats.kstest(gaps, "expon", args=(0, 1 / client.cfg.rates.lambda_P))
    assert ks.pvalue > 0.01


@pytest.mark.parametrize("stream", ["loop", "drop"])
def test_cover_stream_gaps_exponential(stream):
    topology, net = small_net()
    client = net.runtimes["a"].client
    rng = random.Random(5)
    tick = client.loop_tick if stream == "loop" else client.drop_tick
    rate = client.cfg.rates.lambda_L if stream == "loop" else client.cfg.rates.lambda_D
    gaps, now = [], 0.0
    for _ in range(3000):
        _, nxt = tick(topology, rng, now)
        gaps.append(nxt - now)
        now = nxt
    ks = stats.kstest(gaps, "expon", args=(0, 1 / rate))
    assert ks.pvalue > 0.01


def test_merged_output_is_superposed_poisson():
    # the union of the three streams should look Poisson(sum of rates)
    topology, net = small_net()
    client = net.runtimes["a"].client
    rng = random.Random(6)
    rates = client.cfg.rates
    nxt = {"P": 0.1, "L": 0.2, "D": 0.3}
    events = []
    for _ in range(10_000):
        stream = min(nxt, key=nxt.get)
        now = nxt[stream]
        events.append(now)
        if stream == "P":
            _, _, nxt["P"] = client.payload_tick(topology, rng, now)
        elif stream == "L":
            _, nxt["L"] = client.loop_tick(topology, rng, now)
        else:
            _, nxt["D"] = client.drop_tick(topology, rng, now)
    gaps = [b - a for a, b in zip(events, events[1:])]
    total = rates.lambda_P + rates.lambda_L + rates.lambda_D
    ks = stats.kstest(gaps, "expon", args=(0, 1 / total))
    assert ks.pvalue > 0.01


def test_busy_and_idle_clients_look_identical():
    # light two-sample check; the acceptance suite runs the 10^4 version
    topology, net = small_net()
    rng = random.Random(7)
    busy, idle = net.runtimes["a"].client, net.runtimes["b"].client
    for i in range(700):
        busy.enqueue_message("b", b"m%d" % i)

    def emission_trace(client):
        gaps, lengths, now = [], set(), 0.0
        for _ in range(600):
            packet, _, nxt = client.payload_tick(topology, rng, now)
            gaps.append(nxt - now)
            lengths.add(len(packet.to_bytes()))
            now = nxt
        return gaps, lengths

    busy_gaps, busy_lengths = emission_trace(busy)
    idle_gaps, idle_lengths = emission_trace(idle)
    assert busy_lengths == idle_lengths == {PACKET_LEN}
    ks = stats.ks_2samp(busy_gaps, idle_gaps)
    assert ks.pvalue > 0.01


def test_client_loop_round_trip(network):
    topology, net = network
    client = net.runtimes["alice"].client
    provider = net.runtimes["prov-0"].provider
    rng = random.Random(8)

    packet, _ = client.loop_tick(topology, rng, now=0.0)
    net.send(topology.node("prov-0").addr, packet)
    net.run()
    assert len(net.log) == topology.n_layers + 2
    assert net.log[0][1:3] == ("net", "prov-0") and net.log[-1][2] == "prov-0"
    assert len(provider.inboxes["alice"]) == 1

    response = provider.on_pull("alice", client.cfg.token, rng)
    mail = client.process_pull_items([i.blob for i in response.items], now=3.5)
    assert mail == []
    assert client.loops_returned == 1
    assert list(client.loops.latencies) == [pytest.approx(3.5)]
    assert client.received_dummy == len(response.items) - 1


def test_real_mail_round_trip(network):
    topology, net = network
    alice, bob = net.runtimes["alice"].client, net.runtimes["bob"].client
    rng = random.Random(9)
    alice.enqueue_message("bob", b"see you at noon")
    packet, kind, _ = alice.payload_tick(topology, rng, now=0.0)
    assert kind == PACKET_REAL
    net.send(topology.node("prov-0").addr, packet)
    net.run()
    assert net.log[-1][2] == "prov-1"

    provider = net.runtimes["prov-1"].provider
    response = provider.on_pull("bob", bob.cfg.token, rng)
    mail = bob.process_pull_items([i.blob for i in response.items], now=1.0)
    assert mail == [b"see you at noon"]
    assert bob.received_real == 1


def test_disabled_streams_raise():
    topology, net = small_net(rates=Rates(0.0, 0.0, 0.0, 0.0, 2.0))
    client = net.runtimes["a"].client
    rng = random.Random(10)
    with pytest.raises(ValueError):
        client.payload_tick(topology, rng, 0.0)
    with pytest.raises(ValueError):
        client.loop_tick(topology, rng, 0.0)
    with pytest.raises(ValueError):
        client.drop_tick(topology, rng, 0.0)
    assert client.loops_sent == 0


def test_rates_validation():
    with pytest.raises(ValueError):
        Rates(-1.0, 0, 0, 0, 1.0)
    with pytest.raises(ValueError):
        Rates(0, math.inf, 0, 0, 1.0)
    with pytest.raises(ValueError):
        Rates(0, 0, 0, 0, 0.0)
    with pytest.raises(ValueError):
        Rates(0, 0, 0, 0, math.nan)


def test_pull_interval_must_be_positive():
    # a client with an infinite or nan interval never pulls
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="pull_interval_s must be positive and finite"):
            ClientConfig(
                client_id="a",
                secret_key=b"\x01" * 32,
                provider_id="p",
                token=b"\x02" * 16,
                rates=Rates(1, 1, 1, 0, 1),
                pull_interval_s=bad,
            )


def test_secret_key_must_be_32_bytes():
    with pytest.raises(ValueError):
        ClientConfig(
            client_id="a",
            secret_key=b"\x01" * 31,
            provider_id="p",
            token=b"\x02" * 16,
            rates=Rates(1, 1, 1, 0, 1),
        )
