"""Mix node behaviour: pooling, dedup, loops, health, and the queue law."""

import json
import math
import random
import struct

import pytest
import scipy.stats as stats

from loopmix import crypto, mixnode
from loopmix.mixnode import (
    HEALTHY,
    LOOP_CAP,
    UNDER_ATTACK,
    LoopTracker,
    MixConfig,
    MixNode,
    MixPool,
    loop_health,
)
from loopmix.crypto import GroupElement
from loopmix.packet import (
    HopFlags,
    HopSpec,
    MacMismatch,
    Relay,
    SphinxHeader,
    SphinxPacket,
    build_packet,
    process_packet,
)
from loopmix.simulator.queues import run_pool_experiment
from loopmix.topology import sample_forward_path

from conftest import build_network
from test_packet import HOSTILE_HOPS, hostile_packet


def make_mix(seed=0, mu=1.0, **cfg_kwargs):
    rng = random.Random(seed)
    sk, pub = crypto.generate_keypair(rng)
    cfg = MixConfig(
        secret_key=sk,
        node_id="m0",
        addr="127.0.0.1:9001",
        layer_index=0,
        mu=mu,
        **cfg_kwargs,
    )
    return MixNode(cfg), pub, rng


def relay_packet(pub, delay, rng, next_addr="10.0.0.9:9000"):
    """Two-hop packet whose first hop is the mix under test."""
    _, pub2 = crypto.generate_keypair(rng)
    path = [
        (pub, HopSpec(next_addr=next_addr, delay_s=delay, flags=HopFlags.NONE)),
        (pub2, HopSpec(next_addr="10.0.0.8:9000", delay_s=0.1, flags=HopFlags.FINAL)),
    ]
    return build_packet(path, "rcpt", b"x", rng)[0]


def test_on_receive_schedules_at_now_plus_delay():
    node, pub, rng = make_mix()
    packet = relay_packet(pub, 1.5, rng)
    result = node.on_receive(packet, now=10.0)
    assert isinstance(result, Relay)
    assert len(node.pool) == 1
    assert node.pool.peek_time() == pytest.approx(11.5)


def test_duplicate_packet_discarded():
    node, pub, rng = make_mix()
    packet = relay_packet(pub, 1.0, rng)
    assert node.on_receive(packet, now=0.0) is not None
    assert node.on_receive(packet, now=0.5) is None
    assert len(node.pool) == 1
    assert node.dropped_replay == 1


def test_bad_mac_counted_and_pool_unchanged():
    node, pub, rng = make_mix()
    packet = relay_packet(pub, 1.0, rng)
    raw = bytearray(packet.to_bytes())
    raw[40] ^= 0xFF

    assert node.on_receive(SphinxPacket.from_bytes(bytes(raw)), now=0.0) is None
    assert len(node.pool) == 0
    assert node.dropped_mac == 1


def test_low_order_alpha_is_a_mac_mismatch_counted_and_dropped():
    # an alpha of all zeros gives the all-zero shared secret, which the
    # exchange refuses; process_packet reports it as a MAC failure
    node, pub, rng = make_mix()
    packet = relay_packet(pub, 1.0, rng)
    zero = SphinxPacket(SphinxHeader(GroupElement(bytes(32)), packet.header.beta,
                                     packet.header.mac), packet.payload)
    with pytest.raises(MacMismatch, match="degenerate shared secret"):
        process_packet(node.key, zero)
    assert node.on_receive(zero, now=0.0) is None
    assert node.dropped_mac == 1
    assert len(node.pool) == 0


@pytest.mark.parametrize("hop", HOSTILE_HOPS.values(), ids=HOSTILE_HOPS.keys())
def test_hostile_hop_dropped_and_counted(hop):
    node, pub, rng = make_mix()
    _, next_pub = crypto.generate_keypair(rng)
    assert node.on_receive(hostile_packet(hop, pub, next_pub, rng), now=0.0) is None
    assert node.dropped_mac == 1
    assert len(node.pool) == 0


def test_pool_next_release_timing():
    pool = MixPool()
    pool.add(11.5, "a")
    pool.add(12.0, "b")
    assert pool.next_release(11.6) == (11.5, "a")
    assert pool.next_release(11.6) is None
    assert pool.next_release(12.4) == (12.0, "b")


def test_pool_equal_release_times_pop_in_arrival_order():
    pool = MixPool()
    pool.add(5.0, "first")
    pool.add(5.0, "second")
    assert pool.next_release(5.0) == (5.0, "first")
    assert pool.next_release(5.0) == (5.0, "second")


def test_emission_order_follows_release_time_not_arrival():
    node, pub, rng = make_mix()
    slow = relay_packet(pub, 5.0, rng, next_addr="10.0.0.1:1")
    fast = relay_packet(pub, 1.0, rng, next_addr="10.0.0.2:1")
    node.on_receive(slow, now=0.0)
    node.on_receive(fast, now=0.1)
    assert node.next_release(0.5) is None
    release, _, hop = node.next_release(1.2)
    assert release == pytest.approx(1.1)
    assert hop.next_addr == "10.0.0.2:1"
    release, _, hop = node.next_release(6.0)
    assert release == pytest.approx(5.0)
    assert hop.next_addr == "10.0.0.1:1"
    assert node.forwarded == 2


def test_no_replay_tag_forwarded_twice():
    node, pub, rng = make_mix(seed=3)
    packets = [relay_packet(pub, 0.5, rng) for _ in range(30)]
    feeds = packets + rng.choices(packets, k=40)
    rng.shuffle(feeds)
    tags = []
    for i, packet in enumerate(feeds):
        result = node.on_receive(packet, now=i * 0.01)
        if result is not None:
            tags.append(result.replay_tag)
    assert len(tags) == 30
    assert len(set(tags)) == 30
    assert node.dropped_replay == 40
    assert len(node.pool) == 30


def test_overflow_drops_above_watermark(monkeypatch):
    monkeypatch.setattr(mixnode, "QUEUE_HIGH_WATERMARK", 5)
    node, pub, rng = make_mix()
    results = [node.on_receive(relay_packet(pub, 1.0, rng), now=0.0) for _ in range(8)]
    assert len(node.pool) == 5
    assert node.dropped_overflow == 3
    assert results[5:] == [None, None, None]


def test_deliver_at_plain_mix_is_junk():
    node, pub, rng = make_mix()
    path = [(pub, HopSpec("10.0.0.8:1", 0.2, HopFlags.FINAL))]
    packet = build_packet(path, "not-this-mix", b"hi", rng)[0]
    assert node.on_receive(packet, now=0.0) is None
    assert node.dropped_mac == 1
    assert len(node.pool) == 0


def test_pool_law_mean_distribution_and_output():
    # M/M/inf: Poisson(20) in, Exp(2) hold -> pool ~ Poisson(10), output
    # gaps Exp(20). Desk-scale version of the acceptance run.
    lam, mu = 20.0, 2.0
    run = run_pool_experiment(lam, mu, duration=400.0, seed=5)
    assert run.time_avg_size == pytest.approx(lam / mu, abs=0.6)

    sizes = run.sampled_sizes[20:]
    n = len(sizes)
    mean = lam / mu
    # categories {<=4}, {5}, ..., {15}, {>=16} keep every expected count > 5
    lo, hi = 5, 16
    observed = [0] * (hi - lo + 2)
    for s in sizes:
        observed[min(max(s - lo + 1, 0), hi - lo + 1)] += 1
    expected = (
        [stats.poisson.cdf(lo - 1, mean)]
        + [stats.poisson.pmf(k, mean) for k in range(lo, hi)]
        + [stats.poisson.sf(hi - 1, mean)]
    )
    expected = [p_k * n for p_k in expected]
    _, p = stats.chisquare(observed, f_exp=expected)
    assert p > 0.01

    departures = [t for t in run.departure_times if t > 20.0]
    gaps = [b - a for a, b in zip(departures, departures[1:])]
    ks = stats.kstest(gaps, "expon", args=(0, 1 / lam))
    assert ks.pvalue > 0.01


def test_mix_loop_gaps_are_exponential():
    topology, net = build_network(
        layers=1, per_layer=1, n_providers=1, client_specs=(("a", "prov-0"),)
    )
    node = net.runtimes["mix-0-0"].mix
    rng = random.Random(11)
    now, gaps = 0.0, []
    for _ in range(10_000):
        send_time, _ = node.generate_mix_loop(topology, rng, now)
        gaps.append(send_time - now)
        now = send_time
    ks = stats.kstest(gaps, "expon", args=(0, 1 / node.cfg.lambda_M))
    assert ks.pvalue > 0.01
    assert node.loops_sent == 10_000


def test_returned_loop_recognized(network, monkeypatch):
    # a loop's plaintext sits directly under the terminal AEAD, whose key
    # only this node derives, so neither its build nor its return runs an
    # end-to-end seal or open
    calls = []
    for name in ("e2e_seal", "e2e_open"):

        def counted(*args, real=getattr(crypto, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(crypto, name, counted)
    topology, net = network
    node = net.runtimes["mix-0-0"].mix
    send_time, packet = node.generate_mix_loop(topology, random.Random(7), now=0.0)
    net.run(until=send_time)
    net.send(node.last_loop_first_hop, packet)
    net.run()
    assert net.log[-1][2] == "mix-0-0"
    assert node.loops_returned == 1
    assert node.loops.latencies[0] > 0
    assert node.health() == HEALTHY
    assert calls == []


def test_forged_loop_to_a_mix_is_junk():
    # anyone can build a packet to a mix; only a nonce the tracker holds
    # makes a loop
    node, pub, rng = make_mix()
    node.loops.emit(rng, at=0.0)
    forged = b"MIXLOOP1" + rng.randbytes(16) + struct.pack(">d", 0.0)
    path = [(pub, HopSpec("10.0.0.8:1", 0.2, HopFlags.FINAL))]
    assert node.on_receive(build_packet(path, "m0", forged, rng)[0], now=1.0) is None
    assert node.dropped_mac == 1
    assert node.loops_returned == 0
    assert len(node.loops.outstanding) == 1


def test_every_loop_hop_is_a_link_client_traffic_uses():
    topology, net = build_network()
    rng = random.Random(21)
    traffic_links = set()
    for _ in range(500):
        ends = [rng.choice(topology.providers) for _ in range(2)]
        ids = [d.id for d in sample_forward_path(topology, *ends, rng)]
        traffic_links.update(zip(ids, ids[1:]))

    for node_id in [d.id for d in topology.all_nodes()]:
        node = net.runtimes[node_id].mix
        node.cfg.lambda_M = 1.0
        now = net.time()
        for _ in range(25):
            now, packet = node.generate_mix_loop(topology, rng, now)
            net.run(until=now)
            logged = len(net.log)
            net.send(node.last_loop_first_hop, packet)
            net.run()
            _, sources, ids, _ = zip(*net.log[logged:])
            ids = (node_id, *ids)
            assert sources == ("net", *ids[1:-1])
            assert len(ids) == topology.n_layers + 2
            assert set(zip(ids, ids[1:])) <= traffic_links, ids
        assert node.loops_returned == node.loops_sent == 25


def test_loop_tracker_evicts_exactly_the_oldest():
    tracker, rng = LoopTracker(b"TESTLOOP"), random.Random(1)
    plains = [tracker.emit(rng, float(i)) for i in range(LOOP_CAP + 7)]
    assert len(tracker.outstanding) == LOOP_CAP
    assert [tracker.absorb(p, 1e6) for p in plains[:7]] == [False] * 7
    assert all(tracker.absorb(p, 1e6) for p in plains[7:])
    assert tracker.returned == LOOP_CAP and tracker.sent == LOOP_CAP + 7


def test_loop_tracker_counts_each_known_loop_once():
    tracker, rng = LoopTracker(b"TESTLOOP"), random.Random(2)
    plain = tracker.emit(rng, 1.0)
    unknown = LoopTracker(b"TESTLOOP").emit(rng, 1.0)
    assert tracker.absorb(unknown, 2.0) is False
    assert tracker.absorb(b"OTHRLOOP" + plain[8:], 2.0) is None
    assert tracker.absorb(plain[:-1], 2.0) is None
    assert tracker.absorb(plain, 3.5) is True
    assert tracker.absorb(plain, 4.0) is False
    assert tracker.returned == 1 and list(tracker.latencies) == [2.5]


def test_loop_tracker_latency_record_is_bounded():
    tracker, rng = LoopTracker(b"TESTLOOP"), random.Random(3)
    for i in range(LOOP_CAP + 50):
        assert tracker.absorb(tracker.emit(rng, float(i)), i + 0.5)
    assert len(tracker.latencies) == LOOP_CAP
    assert tracker.returned == LOOP_CAP + 50


def test_lambda_m_zero_never_builds_loops(network):
    topology, net = network
    node = net.runtimes["prov-0"].mix
    assert node.cfg.lambda_M == 0.0
    with pytest.raises(ValueError):
        node.generate_mix_loop(topology, random.Random(0), now=0.0)
    assert node.loops_sent == 0


def test_loop_path_must_fit_hop_budget():
    # a directory whose client paths fit a packet fits every loop path too
    topology, net = build_network(
        layers=3, per_layer=1, n_providers=1, client_specs=(("a", "prov-0"),)
    )
    net.runtimes["prov-0"].mix.cfg.lambda_M = 1.0
    for node_id in ("mix-0-0", "mix-2-0", "prov-0"):
        net.runtimes[node_id].mix.generate_mix_loop(topology, random.Random(0), now=0.0)
    with pytest.raises(ValueError, match="^layers: at most 3 layers fit the packet hop budget$"):
        build_network(layers=4, per_layer=1, n_providers=1, client_specs=(("a", "prov-0"),))


def test_loop_health_thresholds():
    assert loop_health(100, 90, 0.8) == HEALTHY
    assert loop_health(100, 50, 0.8) == UNDER_ATTACK
    assert loop_health(10, 10, 1.0) == HEALTHY
    with pytest.raises(ValueError):
        loop_health(0, 0, 0.8)


def test_config_validation():
    sk, _ = crypto.generate_keypair(random.Random(0))
    base = dict(secret_key=sk, node_id="m", addr="a:1", layer_index=0)
    with pytest.raises(ValueError):
        MixConfig(**base, mu=0.0)
    with pytest.raises(ValueError):
        MixConfig(**base, lambda_M=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            MixConfig(**base, mu=bad)
        with pytest.raises(ValueError, match="lambda_M must be non-negative and finite"):
            MixConfig(**base, lambda_M=bad)
    with pytest.raises(ValueError):
        MixConfig(**{**base, "secret_key": sk[:31]})


def test_metrics_line_schema():
    node, pub, rng = make_mix()
    node.on_receive(relay_packet(pub, 1.0, rng), now=0.0)
    line = json.loads(node.metrics_line(12.5))
    assert set(line) == {
        "time",
        "pool_size",
        "received",
        "forwarded",
        "dropped_replay",
        "dropped_mac",
        "dropped_overflow",
        "loops_sent",
        "loops_returned",
    }
    assert line["time"] == 12.5
    assert line["pool_size"] == 1
    assert line["received"] == 1
