"""Acceptance suite: one test per headline requirement.

Each test prints a single PASS line with the measured figures, so a verbose
run doubles as a results report. The checks cover exact packet round trips,
closed forms confirmed by independent Monte-Carlo estimators, queue and
entropy laws on the event-driven pool, anonymity trends from the seeded
simulator, and a live loopback deployment pushed past 300 packets/s. All
randomness is seeded; tolerances are the documented acceptance bounds.
"""

from __future__ import annotations

import asyncio
import gc
import math
import multiprocessing
import random
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from loopmix import crypto, transport
from loopmix.analysis.montecarlo import (
    departure_entropies_exact,
    departure_entropies_incremental,
    pool_race_estimate_with_loops,
)
from loopmix.analysis.pools import (
    PoolObservation,
    pool_match_prob,
    pool_match_prob_with_loops,
)
from loopmix.analysis.traces import (
    Transmission,
    anonymity_condition_holds,
    trace_join,
    validate_trace,
)
from loopmix.client import Rates
from loopmix.packet import (
    MESSAGE_CAPACITY,
    Deliver,
    HopFlags,
    HopSpec,
    Relay,
    build_packet,
    process_packet,
)
from loopmix.runtime import build_runtime, resolve_addr
from loopmix.simulator import (
    SimConfig,
    TraceSimConfig,
    run_entropy_experiment,
    run_epsilon_batch,
    run_latency_experiment,
    run_pool_experiment,
    run_trace_experiment,
)
from loopmix.topology import ClientDescriptor, MixDescriptor, ProviderDescriptor

from conftest import build_network, make_directory


def _report(criterion: int, detail: str) -> None:
    print(f"\nPASS criterion {criterion:02d}: {detail}")


def test_c01_packet_round_trip_property_suite():
    rng = random.Random(101)
    keys = [crypto.generate_keypair(rng) for _ in range(12)]
    held = [crypto.private_key(sk) for sk, _ in keys]
    started = time.perf_counter()
    for _ in range(1000):
        nu = rng.randint(1, 5)
        picks = rng.sample(range(len(keys)), nu)
        message = rng.randbytes(rng.randint(0, MESSAGE_CAPACITY))
        recipient = f"user-{rng.randrange(1000)}"
        specs = [
            HopSpec(f"10.0.0.{hop}:4000", rng.random() * 3, HopFlags.NONE)
            for hop in range(nu - 1)
        ]
        specs.append(HopSpec("", 0.0, HopFlags.FINAL))
        packet = build_packet(
            [(keys[i][1], spec) for i, spec in zip(picks, specs)],
            recipient,
            message,
            rng,
        )[0]
        for hop, i in enumerate(picks):
            result = process_packet(held[i], packet)
            if hop < nu - 1:
                assert isinstance(result, Relay)
                assert result.next == specs[hop]
                packet = result.packet
            else:
                assert isinstance(result, Deliver)
                assert result.recipient_id == recipient
                assert result.payload == message
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"1000 round trips over path lengths 1-5 exact in {elapsed:.2f}s")


def test_c02_match_probability_oracle_grid():
    gen = np.random.default_rng(2024)
    started = time.perf_counter()
    cells = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for l in range(1, 6):
                probs = pool_match_prob(PoolObservation(n, k, l))
                # the closed forms, written out so this check stands alone
                assert probs.p_initial == pytest.approx(k / (n * (l + k)), abs=1e-15)
                assert probs.p_late == pytest.approx(1 / (l + k), abs=1e-15)
                est_initial, est_late = pool_race_estimate_with_loops(
                    n, k, l, 1.0, 0.0, 100_000, gen
                )[:2]
                assert est_initial == pytest.approx(probs.p_initial, abs=0.01)
                assert est_late == pytest.approx(probs.p_late, abs=0.01)
                cells += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        2,
        f"{cells} (n,k,l) cells: 1e5-trial race within ±0.01 of the closed forms "
        f"in {elapsed:.1f}s",
    )


def test_c03_loop_variant_oracle_grid():
    gen = np.random.default_rng(777)
    started = time.perf_counter()
    cells = 0
    for mu in (0.5, 1.0, 2.0):
        for lam in (0.0, 1.0, 4.0):
            for n, k, l in ((2, 1, 1), (3, 2, 1), (5, 3, 2)):
                probs = pool_match_prob_with_loops(PoolObservation(n, k, l), mu, lam)
                denom = (k + l) * mu + lam
                assert probs.p_initial == pytest.approx((k / n) * mu / denom, abs=1e-15)
                assert probs.p_late == pytest.approx(mu / denom, abs=1e-15)
                assert probs.p_loop == pytest.approx(lam / denom, abs=1e-15)
                est = pool_race_estimate_with_loops(n, k, l, mu, lam, 100_000, gen)
                assert est[0] == pytest.approx(probs.p_initial, abs=0.01)
                assert est[1] == pytest.approx(probs.p_late, abs=0.01)
                assert est[2] == pytest.approx(probs.p_loop, abs=0.01)
                cells += 1
    # without the loop stream the variant must collapse to the plain forms
    for n in range(1, 6):
        for k in range(1, n + 1):
            for l in range(1, 6):
                plain = pool_match_prob(PoolObservation(n, k, l))
                for mu in (0.5, 1.0, 2.0):
                    looped = pool_match_prob_with_loops(PoolObservation(n, k, l), mu, 0.0)
                    assert abs(looped.p_initial - plain.p_initial) <= 1e-12
                    assert abs(looped.p_late - plain.p_late) <= 1e-12
                    assert looped.p_loop == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        3,
        f"{cells} (mu,lambda_M,pool) cells within ±0.01; lambda_M=0 reduction "
        f"exact to 1e-12 in {elapsed:.1f}s",
    )


def test_c04_pool_queue_law():
    started = time.perf_counter()
    run = run_pool_experiment(100.0, 10.0, 10_000.0, seed=4)
    assert run.time_avg_size == pytest.approx(10.0, abs=0.3)

    # occupancy vs Pois(10): complete partition with every expected count > 5
    sizes = np.asarray(run.sampled_sizes[100:])
    lo, hi = 4, 16
    observed = (
        [int(np.sum(sizes <= lo))]
        + [int(np.sum(sizes == v)) for v in range(lo + 1, hi)]
        + [int(np.sum(sizes >= hi))]
    )
    probs = (
        [stats.poisson.cdf(lo, 10.0)]
        + [stats.poisson.pmf(v, 10.0) for v in range(lo + 1, hi)]
        + [stats.poisson.sf(hi - 1, 10.0)]
    )
    chi = stats.chisquare(observed, f_exp=np.array(probs) * sizes.size)
    assert chi.pvalue > 0.01

    # in steady state the departure stream is Poisson at the arrival rate
    departures = np.asarray(run.departure_times)
    gaps = np.diff(departures[departures > 100.0])
    ks = stats.kstest(gaps, "expon", args=(0.0, 1 / 100.0))
    assert ks.pvalue > 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        4,
        f"time-avg size {run.time_avg_size:.3f}, occupancy chi2 p={chi.pvalue:.3f}, "
        f"departure-gap KS p={ks.pvalue:.3f} over 1e4s in {elapsed:.1f}s",
    )


def test_c05_incremental_entropy_matches_direct_oracle():
    rng = random.Random(55)
    for _ in range(200):
        events, pool = [], 0
        while len(events) < 50:
            if pool == 0 or rng.random() < 0.55:
                events.append("A")
                pool += 1
            else:
                events.append("D")
                pool -= 1
        incremental = departure_entropies_incremental(events)
        exact = departure_entropies_exact(events)
        assert len(incremental) == len(exact) > 0
        for a, b in zip(incremental, exact):
            assert abs(a - b) <= 1e-9
    # a pool filled in one burst stays uniform, so every release reads log2(k)
    for k in (1, 2, 3, 4, 8, 16, 32, 64):
        entropies = departure_entropies_incremental(["A"] * k + ["D"] * k)
        assert entropies == [math.log2(k)] * k
    _report(
        5,
        "200 random 50-event logs match the direct distribution oracle to 1e-9; "
        "uniform-pool closure exact",
    )


def test_c06_entropy_trends():
    started = time.perf_counter()

    def steady(lam: float, mu: float) -> float:
        runs = [run_entropy_experiment(lam, mu, 100.0, seed).steady_mean for seed in range(50)]
        return float(np.mean(runs))

    over_lambda = [steady(lam, 1.0) for lam in (10.0, 20.0, 40.0, 80.0)]
    assert all(b > a for a, b in zip(over_lambda, over_lambda[1:]))

    over_inverse_mu = [steady(20.0, 1.0 / inv) for inv in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(over_inverse_mu, over_inverse_mu[1:]))

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(
        6,
        "steady entropy strictly increases over lambda "
        f"({', '.join(f'{h:.2f}' for h in over_lambda)}) and over 1/mu "
        f"({', '.join(f'{h:.2f}' for h in over_inverse_mu)}), 50 sims/point, "
        f"in {elapsed:.0f}s",
    )


def test_c07_epsilon_trends():
    started = time.perf_counter()

    def config(mu: float, layers: int, corrupt: float, seed: int):
        return SimConfig(
            seed=seed,
            U=100,
            rates=Rates(2.0, 0.0, 0.0, 0.0, mu),
            layers=layers,
            nodes_per_layer=3,
            corrupt_fraction=corrupt,
            burn_in=25.0,
            run_time=100.0,
            challenge=(0, 1),
        )

    # common seeds across configs so differences come from the parameters
    configs = [config(0.5, 3, 0.0, 700), config(2.0, 3, 0.0, 700)]
    configs += [config(1.0, layers, 0.0, 710) for layers in (1, 2, 3, 4)]
    configs += [config(1.0, 3, 0.0, 720), config(1.0, 3, 0.3, 720)]
    # each batch is seeded, so which worker runs it changes nothing; leaving
    # the with block ends both workers, also when a batch fails
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        batches = list(pool.map(run_epsilon_batch, configs, [100] * len(configs), timeout=1800.0))
    slow_mix, fast_mix, *layer_batches, clean, corrupted = batches
    assert slow_mix.mean < fast_mix.mean

    by_layers = [b.mean for b in layer_batches]
    assert all(b <= a for a, b in zip(by_layers, by_layers[1:]))

    assert corrupted.mean >= clean.mean

    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    _report(
        7,
        f"mean eps {slow_mix.mean:.3f} (mu=0.5) < {fast_mix.mean:.3f} (mu=2.0); "
        f"layers 1-4 non-increasing ({', '.join(f'{e:.3f}' for e in by_layers)}); "
        f"30% corrupt {corrupted.mean:.3f} >= clean {clean.mean:.3f}; "
        f"100 reps each, on 2 workers, in {elapsed:.0f}s",
    )


def test_c08_latency_gamma_fit():
    samples = run_latency_experiment(2.0, 4, 10_000, seed=8)
    mean = float(np.mean(samples))
    std = float(np.std(samples, ddof=1))
    assert mean == pytest.approx(2.0, abs=0.05)
    assert std == pytest.approx(1.0, abs=0.05)
    ks = stats.kstest(samples, stats.gamma(4, scale=0.5).cdf)
    assert ks.pvalue > 0.01
    _report(
        8,
        f"4-hop latency mean {mean:.3f}, std {std:.3f}, "
        f"KS vs Gamma(4, rate 2) p={ks.pvalue:.3f} over 1e4 messages",
    )


def _build_live_deployment(mu: float):
    """A directory and each entry's runtime: 6 mixes, 4 providers, 20 clients."""
    clients = [(f"client-{c}", f"prov-{c % 4}") for c in range(20)]
    topology, secrets = make_directory(random.Random(900), 3, 2, 4, clients, first_port=24610)
    settings = {
        MixDescriptor: dict(lambda_M=1.0, mu=mu),
        ProviderDescriptor: dict(lambda_M=0.0, mu=mu),
        ClientDescriptor: dict(rates=Rates(0.5, 0.2, 0.2, 0.0, mu), pull_interval_s=5.0),
    }
    rngs = {d.id: random.Random(i) for i, d in enumerate(topology.all_nodes())}
    rngs.update((d.id, random.Random(5000 + c)) for c, d in enumerate(topology.clients))
    runtimes = {
        d.id: build_runtime(topology, d.id, secrets[d.id], rngs[d.id], **settings[type(d)])
        for d in (*topology.all_nodes(), *topology.clients)
    }
    return topology, runtimes


async def _run_live_smoke() -> str:
    topology, runtimes = _build_live_deployment(mu=5.0)
    node_runtimes = [runtimes[d.id] for d in topology.all_nodes()]
    client_runtimes = [runtimes[d.id] for d in topology.clients]
    target = runtimes["mix-0-0"]
    target_mix = target.mix
    handling_s, handling_cpu_s = [], []

    # per-packet handling time: everything from deframed datagram to pooled
    # packet and armed release timer. The thread's CPU time is read outside
    # the wall-clock span, and tells a slow call the node worked through
    # from one the host did not schedule.
    def timed(kind, body, source, handle=target.on_datagram):
        cpu = time.thread_time()
        started = time.perf_counter()
        handle(kind, body, source)
        handling_s.append(time.perf_counter() - started)
        handling_cpu_s.append(time.thread_time() - cpu)

    target.on_datagram = timed
    try:
        for desc in topology.all_nodes():
            await runtimes[desc.id].start(*resolve_addr(desc.addr))
        for desc in topology.clients:
            await runtimes[desc.id].start()

        # one fixed route through the target mix, fresh onion per packet
        pub = {d.id: d.pubkey for d in topology.all_nodes()}
        addr = {d.id: d.addr for d in topology.all_nodes()}
        build_rng = random.Random(9900)
        datagrams = []
        for _ in range(10_850):
            hops = [
                (pub["mix-0-0"], HopSpec(addr["mix-1-0"], build_rng.expovariate(50.0), HopFlags.NONE)),
                (pub["mix-1-0"], HopSpec(addr["mix-2-0"], build_rng.expovariate(50.0), HopFlags.NONE)),
                (pub["mix-2-0"], HopSpec(addr["prov-0"], build_rng.expovariate(50.0), HopFlags.NONE)),
                (pub["prov-0"], HopSpec("", 0.0, HopFlags.DROP)),
            ]
            packet = build_packet(hops, "cover", b"", build_rng)[0]
            datagrams.append(transport.frame(transport.KIND_PACKET, packet.to_bytes()))

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        target = resolve_addr(addr["mix-0-0"])
        timing = {}

        def blast():
            rate = 350.0
            t0 = time.perf_counter()
            for i, datagram in enumerate(datagrams):
                due = t0 + i / rate
                while True:
                    lag = due - time.perf_counter()
                    if lag <= 0:
                        break
                    time.sleep(min(0.001, lag))
                sock.sendto(datagram, target)
            timing["elapsed"] = time.perf_counter() - t0

        received_before = target_mix.received
        gc.collect()
        gc.disable()
        sender = threading.Thread(target=blast)
        sender.start()
        try:
            while sender.is_alive():
                await asyncio.sleep(0.25)
        finally:
            sender.join()
            gc.enable()
        await asyncio.sleep(3.0)
        sock.close()

        elapsed = timing["elapsed"]
        window = target_mix.received - received_before
        rate = window / elapsed
        assert 29.0 <= elapsed < 45.0
        assert rate >= 300.0

        mac_failures = sum(rt.mix.dropped_mac for rt in node_runtimes)
        assert mac_failures == 0

        times = np.asarray(handling_s)
        assert times.size >= window
        mean_ms = float(np.mean(times)) * 1e3
        p999_ms = float(np.quantile(times, 0.999)) * 1e3
        cpu_p999_ms = float(np.quantile(handling_cpu_s, 0.999)) * 1e3
        assert mean_ms <= 5.0
        assert p999_ms <= 5.0, f"p99.9 {p999_ms:.2f}ms of wall time, {cpu_p999_ms:.2f}ms of CPU"

        # the blast packets actually traverse the full path into prov-0
        absorbed = runtimes["prov-0"].provider.counters.get("dropped_cover", 0)
        assert absorbed >= 8000
        # organic client loops complete the full circuit and come back
        assert sum(rt.client.loops_returned for rt in client_runtimes) >= 1

        return (
            f"mix-0-0 processed {window} packets in {elapsed:.1f}s "
            f"({rate:.0f}/s), 0 MAC failures, per-packet mean {mean_ms:.2f}ms "
            f"p99.9 {p999_ms:.2f}ms (CPU {cpu_p999_ms:.2f}ms)"
        )
    finally:
        for rt in runtimes.values():
            rt.stop()


def test_c09_live_throughput_smoke():
    detail = asyncio.run(_run_live_smoke())
    _report(9, detail)


def test_c10_unobservable_payload_stream():
    make = lambda: build_network(
        seed=10,
        layers=1,
        per_layer=3,
        n_providers=3,
        client_specs=(("a", "prov-0"), ("b", "prov-1")),
        rates=Rates(3.0, 1.0, 1.0, 0.0, 2.0),
    )
    (topology, idle_net), (_, busy_net) = make(), make()
    idle, busy = idle_net.runtimes["a"].client, busy_net.runtimes["a"].client
    for i in range(10_000):
        busy.enqueue_message("b", f"note {i}".encode())

    def wire_trace(client, seed: int, sends: int):
        rng = random.Random(seed)
        gaps, lengths, now = [], set(), 0.0
        for _ in range(sends):
            packet, _, next_at = client.payload_tick(topology, rng, now)
            lengths.add(len(transport.frame(transport.KIND_PACKET, packet.to_bytes())))
            gaps.append(next_at - now)
            now = next_at
        return np.asarray(gaps), lengths

    idle_gaps, idle_lengths = wire_trace(idle, 1001, 10_000)
    busy_gaps, busy_lengths = wire_trace(busy, 1002, 10_000)
    assert busy.sent_real == 10_000 and idle.sent_real == 0
    ks = stats.ks_2samp(idle_gaps, busy_gaps)
    assert ks.pvalue > 0.01
    assert idle_lengths == busy_lengths and len(idle_lengths) == 1
    _report(
        10,
        f"empty vs full buffer: gap KS p={ks.pvalue:.3f} over 1e4 sends each, "
        f"all datagrams {idle_lengths.pop()} bytes",
    )


def test_c11_pull_protocol():
    recovered = []
    for size in (0, 2, 5, 7):
        topology, net = build_network(
            seed=11,
            layers=1,
            per_layer=3,
            n_providers=2,
        )
        alice, bob = net.runtimes["alice"].client, net.runtimes["bob"].client
        provider = net.runtimes["prov-1"].provider
        rng = random.Random(42 + size)
        expected = [f"mail {i}".encode() for i in range(size)]
        for body in expected:
            alice.enqueue_message("bob", body)
        for _ in range(size):
            packet, kind, _ = alice.payload_tick(topology, rng, 0.0)
            assert kind == "REAL"
            net.send(topology.node("prov-0").addr, packet)
            net.run()
        assert [dst for _, _, dst, _ in net.log].count("prov-1") == size
        assert len(provider.inboxes["bob"]) == size

        response = provider.on_pull("bob", bob.cfg.token, rng)
        assert len(response.items) == 5
        assert {len(item.blob) for item in response.items} == {972}
        messages = bob.process_pull_items([item.blob for item in response.items], 1.0)
        assert len(messages) == min(size, 5)
        # the response is shuffled, so compare contents, not order
        assert sorted(messages) == sorted(expected[:5])
        assert bob.received_real == min(size, 5)
        assert bob.received_dummy == 5 - min(size, 5)
        recovered.append(len(messages))
    _report(
        11,
        f"inbox sizes (0,2,5,7) with C=5: always 5 items of 972 bytes, "
        f"{recovered} real messages recovered",
    )


def _chain(*hops):
    return tuple(
        Transmission(sender, when, f"h{i}", recipient)
        for i, (sender, when, recipient) in enumerate(hops)
    )


def test_c12_trace_join_suite():
    started = time.perf_counter()
    # join predicate on hand-built overlaps
    early = _chain(("u1", 1.0, "p1"), ("p1", 2.0, "m1"), ("m1", 3.0, "p2"))
    late = _chain(("u2", 1.5, "p3"), ("p3", 2.5, "m1"), ("m1", 3.5, "p4"))
    assert trace_join(early, late, 2)
    assert trace_join(late, early, 2)
    # second message reaches m1 only after the first has already left
    missed = _chain(("u2", 1.5, "p3"), ("p3", 3.4, "m1"), ("m1", 3.5, "p4"))
    assert not trace_join(early, missed, 2)
    elsewhere = _chain(("u2", 1.5, "p3"), ("p3", 2.5, "m9"), ("m9", 3.5, "p4"))
    assert not trace_join(early, elsewhere, 2)
    with pytest.raises(ValueError, match="^i must be at least 1 and at most 2$"):
        trace_join(early, late, 3)

    # interchangeability on a hand-built instance, one swap chain each way
    tr_c = _chain(("uc", 1.0, "pa"), ("pa", 2.0, "m1"), ("m1", 3.0, "m2"), ("m2", 4.0, "px"))
    tr_d = _chain(("ud", 1.0, "pc"), ("pc", 2.0, "m3"), ("m3", 3.0, "m4"), ("m4", 4.0, "py"))
    drop_a = _chain(("ua", 1.1, "pb"), ("pb", 2.1, "m1"), ("m1", 3.1, "m5"), ("m5", 4.1, "py"))
    drop_b = _chain(("ub", 1.1, "pd"), ("pd", 2.1, "m3"), ("m3", 3.1, "m6"), ("m6", 4.1, "px"))
    assert anonymity_condition_holds((tr_c, tr_d), [drop_a, drop_b], set())
    assert not anonymity_condition_holds((tr_c, tr_d), [drop_a, drop_b], {"m1"})
    assert not anonymity_condition_holds((tr_c, tr_d), [drop_a, drop_b], {"m3"})
    assert anonymity_condition_holds((tr_c, tr_d), [drop_a, drop_b], {"m9"})
    assert not anonymity_condition_holds((tr_c, tr_d), [], set())

    # monotone in cover, antitone in compromise, over randomized trace sets
    rng = random.Random(12)
    checks = 0
    for seed in range(125):
        run = run_trace_experiment(
            TraceSimConfig(seed=seed, n_users=16, hops=3, lambda_D=1.0, duration=8.0)
        )
        challenge = run.challenge
        drops = list(run.drop_traces)
        mix_ids = sorted(run.mixes)
        for trace in drops + list(challenge):
            validate_trace(trace)
        for _ in range(4):
            larger = rng.sample(drops, rng.randint(0, len(drops)))
            smaller = rng.sample(larger, rng.randint(0, len(larger)))
            compromised = set(rng.sample(mix_ids, rng.randint(0, 2)))
            if anonymity_condition_holds(challenge, smaller, compromised):
                assert anonymity_condition_holds(challenge, larger, compromised)
            checks += 1
        for _ in range(4):
            drop_set = rng.sample(drops, rng.randint(0, len(drops)))
            broad = set(rng.sample(mix_ids, rng.randint(0, len(mix_ids))))
            narrow = set(rng.sample(sorted(broad), rng.randint(0, len(broad))))
            if anonymity_condition_holds(challenge, drop_set, broad):
                assert anonymity_condition_holds(challenge, drop_set, narrow)
            checks += 1
    assert checks == 1000
    elapsed = time.perf_counter() - started
    _report(
        12,
        f"hand-built join and interchangeability cases pass; {checks} randomized "
        f"monotonicity checks in {elapsed:.1f}s",
    )
