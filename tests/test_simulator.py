"""Seeded experiment harnesses: label flow, latency, queues, trace logs."""

import dataclasses
import functools
import hashlib
import heapq
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.stats as stats

from loopmix.client import Rates
from loopmix.simulator import (
    LabelDistribution,
    SimConfig,
    TraceSimConfig,
    run_epsilon_batch,
    run_epsilon_experiment,
    run_latency_experiment,
    run_pool_experiment,
    run_trace_experiment,
)
from loopmix.simulator import epsilon
from loopmix.simulator.epsilon import LabelFlowResult, simulate_label_flow
from loopmix.analysis.traces import validate_trace
from loopmix.bounds import MAX_COUNT, MAX_EVENTS

RATES = Rates(lambda_P=2.0, lambda_L=1.0, lambda_D=1.0, lambda_M=0.5, mu=1.0)


def small_cfg(**overrides):
    base = dict(
        seed=1,
        U=10,
        rates=RATES,
        layers=2,
        nodes_per_layer=2,
        corrupt_fraction=0.0,
        burn_in=3.0,
        run_time=15.0,
        challenge=(0, 1),
    )
    base.update(overrides)
    return SimConfig(**base)


def test_label_flow_is_deterministic():
    a = simulate_label_flow(small_cfg())
    b = simulate_label_flow(small_cfg())
    assert a.epsilon == b.epsilon or (math.isnan(a.epsilon) and math.isnan(b.epsilon))
    assert a.pool_masses == b.pool_masses
    assert a.emitted == b.emitted
    assert a.corrupt == b.corrupt
    c = simulate_label_flow(small_cfg(seed=2))
    assert c.pool_masses != a.pool_masses


def test_label_mass_is_conserved():
    small = [simulate_label_flow(small_cfg(run_time=30.0, corrupt_fraction=0.3))]
    for result in small + grid_results(label_flow_grid) + grid_results(edge_grid):
        for i in range(3):
            resident = sum(mass[i] for mass in result.pool_masses)
            total = result.delivered[i] + resident + result.in_corrupt[i]
            assert total == pytest.approx(result.emitted[i], rel=1e-12, abs=0)


def test_stationary_fill_puts_each_message_at_its_own_layer_at_time_0():
    # simulate_label_flow sums a filled message's delays from time 0, so its
    # own mix must be on its route and its delays before its layer exactly
    # +0.0: the chunk plan sorts event times by their bits.
    cfg = small_cfg(layers=4, nodes_per_layer=3)
    fill = epsilon.stationary_fill(cfg, np.random.default_rng(3))
    layer = fill.mix // cfg.nodes_per_layer
    assert set(layer.tolist()) == {0, 1, 2, 3}
    np.testing.assert_array_equal(fill.route[np.arange(len(layer)), layer], fill.mix)
    before = np.arange(cfg.layers) < layer[:, None]
    assert before.any() and (fill.delay[before] == 0.0).all()
    assert not np.signbit(fill.delay).any()
    assert (fill.delay[~before] > 0.0).all()


def heap_label_flow(cfg, rng):
    """The label flow event by event, over the event set simulate_label_flow
    draws: the corrupt set, the stationary fill and every chunk's draws come
    from epsilon's own draw functions, with rng in the same state.

    Every event goes through one heap keyed (t, layer, kind, seq). So at one
    instant the challenge refills (layer -1) come first, and at one pool the
    arrivals (kind 0) come before the departures (kind 1); a departure's
    arrival at the next layer is made on the spot. A pool keeps its label
    masses and count as sums: an arrival adds its masses, and a departure
    takes each mass over the count. Returns the result and the honest pools'
    event log: ("A", mix, t, dist) per arrival and ("D", mix, t) per
    departure.
    """
    l, w = cfg.layers, cfg.nodes_per_layer
    n_mixes = l * w
    end = cfg.burn_in + cfg.run_time
    corrupt = epsilon.corrupt_mixes(cfg, rng)
    fill = epsilon.stationary_fill(cfg, rng)
    chunks = list(epsilon.draw_chunks(cfg, rng))
    s0, s1 = cfg.challenge
    pools = [[0.0, 0.0, 0.0] for _ in range(n_mixes)]
    count = [0] * n_mixes
    delivered, emitted = [0.0, 0.0, 0.0], [0, 0, len(fill.mix)]
    buffered = {s0: 0, s1: 0}
    events, heap, seq = [], [], itertools.count()
    REFILL, EMIT, LOOP, DEPART = range(4)

    def arrive(t, dep, mix, layer, route, delay, dist, on):
        held = dist if mix in corrupt else None
        if held is None:
            for i in range(3):
                pools[mix][i] += dist[i]
            count[mix] += 1
            events.append(("A", mix, t, dist))
        heapq.heappush(heap, (dep, layer, 1, next(seq), DEPART,
                              (mix, layer, route, delay, held, on)))

    for mix, route, delay in zip(fill.mix.tolist(), fill.route.tolist(), fill.delay.tolist()):
        layer = mix // w
        arrive(0.0, delay[layer], mix, layer, route, delay, (0.0, 0.0, 1.0), layer < l - 1)
    for k in itertools.count():
        if k and cfg.burn_in + k >= end:
            break
        heapq.heappush(heap, (cfg.burn_in + k, -1, 0, next(seq), REFILL, None))
    for chunk in chunks:
        for i, t in enumerate(chunk.t.tolist()):
            heapq.heappush(heap, (t, 0, 0, next(seq), EMIT, (chunk, i)))
        for i, (mix, t) in enumerate(zip(chunk.loop_mix.tolist(), chunk.loop_t.tolist())):
            heapq.heappush(heap, (t, mix // w, 0, next(seq), LOOP, (chunk, i)))

    while heap and heap[0][0] <= end:
        t, layer, _, _, kind, data = heapq.heappop(heap)
        if kind == REFILL:
            buffered[s0] += 1
            buffered[s1] += 1
        elif kind == EMIT:
            chunk, i = data
            sender = int(chunk.sender[i])
            label = 2
            if chunk.payload[i] and sender in buffered and buffered[sender] > 0:
                buffered[sender] -= 1
                label = 0 if sender == s0 else 1
            emitted[label] += 1
            dist = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))[label]
            route, delay = chunk.route[i].tolist(), chunk.delay[i].tolist()
            arrive(t, t + delay[0], route[0], 0, route, delay, dist, l > 1)
        elif kind == LOOP:
            chunk, i = data
            emitted[2] += 1
            arrive(t, t + float(chunk.loop_delay[i]), int(chunk.loop_mix[i]), layer, None, None,
                   (0.0, 0.0, 1.0), False)
        else:
            mix, layer, route, delay, held, on = data
            if held is None:
                c = count[mix]
                out = tuple(mass / c for mass in pools[mix])
                for i in range(3):
                    pools[mix][i] -= out[i]
                count[mix] = c - 1
                events.append(("D", mix, t))
            else:
                out = held
            if on:
                nxt = layer + 1
                arrive(t, t + delay[nxt], route[nxt], nxt, route, delay, out, nxt < l - 1)
            else:
                for i in range(3):
                    delivered[i] += out[i]

    in_corrupt = [0.0, 0.0, 0.0]
    for entry in heap:
        if entry[4] == DEPART and entry[5][4] is not None:
            for i in range(3):
                in_corrupt[i] += entry[5][4][i]
    last_layer = range(n_mixes - w, n_mixes)
    candidates = [m for m in last_layer if m not in corrupt and count[m] > 0]
    if not candidates:
        final_mix, final_pool, eps = None, None, math.nan
    else:
        final_mix = candidates[int(rng.integers(len(candidates)))]
        c = count[final_mix]
        final_pool = LabelDistribution(*(min(mass / c, 1.0) for mass in pools[final_mix]))
        eps = epsilon.epsilon_of(final_pool.p_S0, final_pool.p_S1)
    result = LabelFlowResult(
        eps, final_mix, final_pool, corrupt, tuple(emitted),
        [tuple(pool) for pool in pools], list(count), tuple(in_corrupt), tuple(delivered),
    )
    return result, events


def assert_close_result(batched, heap):
    # integers exactly, floats to 1e-9 relative (nan equal to nan)
    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-9) or (math.isnan(a) and math.isnan(b))

    for name in ("final_mix", "corrupt", "emitted", "pool_counts"):
        assert getattr(batched, name) == getattr(heap, name), name
    assert close(batched.epsilon, heap.epsilon)
    pairs = [(batched.in_corrupt, heap.in_corrupt), (batched.delivered, heap.delivered)]
    pairs += zip(batched.pool_masses, heap.pool_masses)
    if heap.final_pool is not None:
        pairs.append((dataclasses.astuple(batched.final_pool),
                      dataclasses.astuple(heap.final_pool)))
    for got, want in pairs:
        assert all(map(close, got, want)), (got, want)


def test_per_message_replay_matches_aggregate_pools():
    # one honest mix, full event log: replaying per-message label weights
    # (each departure takes 1/c of every resident's remaining weight) must
    # land on the aggregate masses both simulators tracked.
    cfg = small_cfg(layers=1, nodes_per_layer=1, run_time=20.0)
    result, events = heap_label_flow(cfg, np.random.default_rng(cfg.seed))
    assert_close_result(simulate_label_flow(cfg), result)
    weights: list = []
    for event in events:
        if event[0] == "A":
            weights.append([1.0, event[3]])
        else:
            c = sum(w for w, _ in weights)
            keep = 1.0 - 1.0 / round(c)
            for entry in weights:
                entry[0] *= keep
    for i in range(3):
        replayed = sum(w * dist[i] for w, dist in weights)
        assert replayed == pytest.approx(result.pool_masses[0][i], abs=1e-9)


def test_batched_flow_matches_the_event_heap():
    grid = itertools.product((1, 2, 3, 4), (0.0, 0.3), (0.0, 1.5), (1, 2), (1, 3))
    configs = [
        small_cfg(
            seed=seed,
            U=20,
            rates=Rates(2.0, 0.5, 0.5, lambda_M, 1.0),
            layers=layers,
            nodes_per_layer=width,
            corrupt_fraction=corrupt,
            run_time=10.0,
        )
        for layers, corrupt, lambda_M, seed, width in grid
    ]
    # the shape c07 measures epsilon on, over a shorter run of two chunks
    configs += [
        small_cfg(
            seed=seed,
            U=100,
            rates=Rates(2.0, 0.0, 0.0, 0.0, mu),
            layers=layers,
            nodes_per_layer=3,
            corrupt_fraction=corrupt,
            burn_in=5.0,
            run_time=10.0,
        )
        for layers, mu, corrupt, seed in itertools.product(
            (1, 2, 3), (0.5, 2.0), (0.0, 0.3), (1, 2, 3)
        )
    ]
    for cfg in configs:
        heap, _ = heap_label_flow(cfg, np.random.default_rng(cfg.seed))
        assert_close_result(simulate_label_flow(cfg), heap)


class CoarseRng:
    """np.random.default_rng, but a uniform draw is rounded down to whole
    seconds, though not below the start of its interval, and an exponential
    draw is rounded to whole seconds."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low, high, size):
        return np.maximum(low, np.floor(self.rng.uniform(low, high, size)))

    def exponential(self, scale, size):
        return np.round(self.rng.exponential(scale, size))


def test_batched_flow_breaks_ties_like_the_event_heap(monkeypatch):
    # Emissions and loop injections land on whole seconds or chunk edges,
    # every delay is a whole number of seconds, and a chunk holds about 4
    # messages. So many arrivals and departures meet at one instant at one
    # pool, at chunk edges, at a challenge refill and at the end of the
    # run. Both simulators run a pool's arrivals before its departures at
    # one instant, and a refill before an emission.
    ln2 = math.log(2.0)
    monkeypatch.setattr(epsilon, "default_rng", CoarseRng)
    monkeypatch.setattr(epsilon, "_CHUNK_MESSAGES", 4)
    ties = 0
    for layers, corrupt, seed in itertools.product((1, 3), (0.0, 0.3), (1, 2)):
        cfg = small_cfg(
            seed=seed,
            U=2,
            rates=Rates(ln2 / 2, 0.0, 0.0, ln2, ln2),
            layers=layers,
            nodes_per_layer=3,
            corrupt_fraction=corrupt,
        )
        heap, events = heap_label_flow(cfg, CoarseRng(seed))
        assert_close_result(simulate_label_flow(cfg), heap)
        arrived = {(e[1], e[2]) for e in events if e[0] == "A"}
        ties += sum((e[1], e[2]) in arrived for e in events if e[0] == "D")
    assert ties > 100


def test_label_free_layers_are_counted_not_solved(monkeypatch):
    # c07's shape over a burn-in of more than two chunks: before burn_in no
    # layer holds a label, so those chunks only count. With a payload rate
    # of 0.1 labels are rare, so after burn_in a layer's pools may hold a
    # label that none of its arrivals in a chunk carries; such a layer must
    # still be solved, or its departures would leave unlabeled.
    solves, chunks = [], []
    solve, draw = epsilon._solve_pools, epsilon.draw_chunks

    def counted_solve(mass, rows):
        # the rows' sources: the pools' averages, then the arrivals' masses
        pools, arrivals = np.delete(rows.src, rows.arrivals), rows.src[rows.arrivals]
        solves.append(bool(mass[:2, pools].any()) and not mass[:2, arrivals].any())
        return solve(mass, rows)

    def counted_draw(cfg, rng):
        for chunk in draw(cfg, rng):
            chunks.append(chunk.stop)
            yield chunk

    monkeypatch.setattr(epsilon, "_solve_pools", counted_solve)
    monkeypatch.setattr(epsilon, "draw_chunks", counted_draw)
    pools_only = 0
    grid = itertools.product((1, 3), (0.0, 0.3), (0.0, 1.5), ((2.0, 10.0), (0.1, 25.0)))
    for seed, (layers, corrupt, lambda_M, (lambda_P, run_time)) in enumerate(grid, 1):
        cfg = small_cfg(
            seed=seed,
            U=100,
            rates=Rates(lambda_P, 2.0 - lambda_P, 0.0, lambda_M, 1.0),
            layers=layers,
            nodes_per_layer=3,
            corrupt_fraction=corrupt,
            burn_in=15.0,
            run_time=run_time,
        )
        heap, _ = heap_label_flow(cfg, np.random.default_rng(cfg.seed))
        solves.clear()
        chunks.clear()
        assert_close_result(simulate_label_flow(cfg), heap)
        assert sum(stop <= cfg.burn_in for stop in chunks) >= 2
        assert len(solves) < layers * len(chunks)
        pools_only += sum(solves)
    assert pools_only > 0


def reference_label_flow(cfg, rng):
    """The label flow as an event-by-event simulator drew it before the
    batched one: every event in one heap, and every draw through the
    stdlib's rng.expovariate, rng.randrange and rng.random. It draws in
    another order than simulate_label_flow, so only the distributions of
    the two can agree."""
    fill_rng = np.random.default_rng(cfg.seed)
    l, w = cfg.layers, cfg.nodes_per_layer
    n_mixes = l * w
    rates = cfg.rates
    mu = rates.mu
    n_corrupt = round(cfg.corrupt_fraction * n_mixes)
    last_layer = range((l - 1) * w, n_mixes)
    while True:
        corrupt = frozenset(rng.sample(range(n_mixes), n_corrupt))
        if any(m not in corrupt for m in last_layer):
            break
    s0, s1 = cfg.challenge
    per_sender = rates.lambda_P + rates.lambda_L + rates.lambda_D
    total_rate = cfg.U * per_sender
    p_payload = rates.lambda_P / per_sender
    end = cfg.burn_in + cfg.run_time
    pool0, pool1, poolu = [0.0] * n_mixes, [0.0] * n_mixes, [0.0] * n_mixes
    count = [0] * n_mixes
    in_corrupt, delivered, emitted = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0, 0, 0]
    buffers = {s0: 0, s1: 0}
    heap = []
    seq = 0
    EMIT, DEPART, REFILL, MIXLOOP = range(4)

    def push(t, kind, data):
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, data))
        seq += 1

    def arrive(t, mix, layer, path, dist):
        if mix in corrupt:
            for i in range(3):
                in_corrupt[i] += dist[i]
            push(t + rng.expovariate(mu), DEPART, (mix, layer, path, dist))
        else:
            pool0[mix] += dist[0]
            pool1[mix] += dist[1]
            poolu[mix] += dist[2]
            count[mix] += 1
            push(t + rng.expovariate(mu), DEPART, (mix, layer, path, None))

    per_mix_rate = total_rate / w + rates.lambda_M
    for mix in range(n_mixes):
        layer = mix // w
        for _ in range(int(fill_rng.poisson(per_mix_rate / mu))):
            suffix = [0] * l
            suffix[layer] = mix - layer * w
            for j in range(layer + 1, l):
                suffix[j] = rng.randrange(w)
            emitted[2] += 1
            arrive(0.0, mix, layer, tuple(suffix), (0.0, 0.0, 1.0))
    push(rng.expovariate(total_rate), EMIT, None)
    push(cfg.burn_in, REFILL, None)
    if rates.lambda_M > 0:
        for mix in range(n_mixes):
            push(rng.expovariate(rates.lambda_M), MIXLOOP, mix)

    while heap and heap[0][0] <= end:
        t, _, kind, data = heapq.heappop(heap)
        if kind == DEPART:
            mix, layer, path, dist = data
            if dist is None:
                c = count[mix]
                out = (pool0[mix] / c, pool1[mix] / c, poolu[mix] / c)
                pool0[mix] -= out[0]
                pool1[mix] -= out[1]
                poolu[mix] -= out[2]
                count[mix] = c - 1
            else:
                for i in range(3):
                    in_corrupt[i] -= dist[i]
                out = dist
            if path is None or layer == l - 1:
                for i in range(3):
                    delivered[i] += out[i]
            else:
                arrive(t, (layer + 1) * w + path[layer + 1], layer + 1, path, out)
        elif kind == EMIT:
            sender = rng.randrange(cfg.U)
            label = 2
            if rng.random() < p_payload and sender in buffers and buffers[sender] > 0:
                buffers[sender] -= 1
                label = 0 if sender == s0 else 1
            emitted[label] += 1
            dist = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))[label]
            path = tuple(rng.randrange(w) for _ in range(l))
            arrive(t, path[0], 0, path, dist)
            push(t + rng.expovariate(total_rate), EMIT, None)
        elif kind == REFILL:
            buffers[s0] += 1
            buffers[s1] += 1
            if t + 1.0 < end:
                push(t + 1.0, REFILL, None)
        else:
            emitted[2] += 1
            arrive(t, data, l - 1, None, (0.0, 0.0, 1.0))
            push(t + rng.expovariate(rates.lambda_M), MIXLOOP, data)

    candidates = [m for m in last_layer if m not in corrupt and count[m] > 0]
    if not candidates:
        final_mix, final_pool, eps = None, None, math.nan
    else:
        final_mix = candidates[rng.randrange(len(candidates))]
        c = count[final_mix]
        final_pool = LabelDistribution(
            pool0[final_mix] / c, pool1[final_mix] / c, poolu[final_mix] / c
        )
        eps = epsilon.epsilon_of(final_pool.p_S0, final_pool.p_S1)
    return LabelFlowResult(
        eps, final_mix, final_pool, corrupt, tuple(emitted),
        [(pool0[m], pool1[m], poolu[m]) for m in range(n_mixes)], list(count),
        tuple(in_corrupt), tuple(delivered),
    )



def test_recurrence_solve_matches_a_plain_loop():
    # Pools of 1 to 3 messages that now and then empty: a block's product is
    # near 1e-45, so the product over a few blocks underflows.
    rng = np.random.default_rng(5)
    size = rng.integers(1, 4, 50 * epsilon._BLOCK)
    size[rng.random(len(size)) < 0.001] = 0
    size[0] = 0
    a = size / (size + 1.0)
    b = rng.random((len(a), 3))
    y, plain = np.zeros(3), np.empty_like(b)
    for k in range(len(a)):
        plain[k] = y = a[k] * y + b[k]
    got = epsilon._scan(epsilon._factors(a), np.ascontiguousarray(b.T))
    np.testing.assert_allclose(got.T, plain, rtol=1e-9, atol=0)


def solve_pools(avg, n, arrivals, departures):
    """One layer of pools run over one chunk by _plan and _solve_pools, the
    arrivals' masses after the averages in the mass table; updates avg and
    n in place and returns the masses the departures carry."""
    (arr_pool, arr_t, arr_mass), (dep_pool, dep_t) = arrivals, departures
    h, na = len(n), len(arr_pool)
    pool, t = np.concatenate((arr_pool, dep_pool)), np.concatenate((arr_t, dep_t))
    rows = epsilon._plan(n, h, pool, t, na, h + na)[0]
    rows.src[rows.arrivals] = h + np.arange(na)
    mass = np.concatenate((avg.T, arr_mass.T, np.empty((3, rows.out.stop - h - na))), axis=1)
    epsilon._solve_pools(mass, rows)
    avg[:] = mass[:, rows.last].T
    n += np.bincount(arr_pool, minlength=h) - np.bincount(dep_pool, minlength=h)
    return mass[:, rows.departures].T


def plain_pools(avg, n, arrivals, departures):
    """solve_pools event by event: each pool's events in time order,
    arrivals before departures at one instant."""
    (arr_pool, arr_t, arr_mass), (dep_pool, dep_t) = arrivals, departures
    avg, n = avg.copy(), n.copy()
    out = np.empty((len(dep_pool), 3))
    events = [(t, 0, p, i) for i, (p, t) in enumerate(zip(arr_pool.tolist(), arr_t.tolist()))]
    events += [(t, 1, p, i) for i, (p, t) in enumerate(zip(dep_pool.tolist(), dep_t.tolist()))]
    for _, kind, p, i in sorted(events):
        if kind == 0:
            n[p] += 1
            avg[p] = avg[p] * ((n[p] - 1) / n[p]) + arr_mass[i] / n[p]
        else:
            out[i] = avg[p]
            n[p] -= 1
    return avg, n, out


def random_pool_events(rng, n, pools):
    """Arrivals to the given pools and departures of their residents and
    arrivals, on whole seconds so that many meet at one instant."""
    arrivals, departures = [], []
    for p in pools:
        # a resident departs at some instant, an arrival at or after its own
        departures += [(p, t) for t in rng.integers(0, 8, n[p]).tolist() if rng.random() < 0.6]
        for t in rng.integers(0, 8, rng.integers(0, 12)).tolist():
            arrivals.append((p, t))
            if rng.random() < 0.6:
                departures.append((p, t + int(rng.integers(0, 3))))
    for events in (arrivals, departures):
        rng.shuffle(events)
    arr_pool, arr_t = np.array(arrivals, dtype=np.int64).reshape(-1, 2).T
    dep_pool, dep_t = np.array(departures, dtype=np.int64).reshape(-1, 2).T
    arr_mass = rng.dirichlet(np.ones(3), len(arr_pool))
    return (arr_pool, arr_t.astype(float), arr_mass), (dep_pool, dep_t.astype(float))


def test_pool_solve_matches_a_plain_event_loop():
    # In each layer pool 0 has no events, pool 1 only departures of its
    # residents, two at one instant, and pool 2 starts empty. The busy
    # pools get arrivals and departures on whole seconds, so many meet at
    # one instant. The wide layers have busy pools whose index needs 16
    # and then 32 bits.
    rng = np.random.default_rng(9)
    layers = [(6, [2, 3, 4, 5]), (2**15 + 3, [2, 255, 256, 2**15 + 2]),
              (2**16 + 5, [2, 2**15, 2**16 - 1, 2**16, 2**16 + 4])]
    for h, busy in layers:
        n = rng.integers(0, 6, h)
        n[:3] = 4, 5, 0
        avg = rng.dirichlet(np.ones(3), h)
        (arr_pool, arr_t, arr_mass), (dep_pool, dep_t) = random_pool_events(rng, n, busy)
        dep_pool, dep_t = np.append(dep_pool, [1, 1, 1]), np.append(dep_t, [0.0, 4.0, 4.0])
        arrivals, departures = (arr_pool, arr_t, arr_mass), (dep_pool, dep_t)
        arrived = set(zip(arr_pool.tolist(), arr_t.tolist()))
        assert arrived & set(zip(dep_pool.tolist(), dep_t.tolist()))
        want_avg, want_n, want_out = plain_pools(avg, n, arrivals, departures)
        got_avg, got_n = avg.copy(), n.copy()
        got_out = solve_pools(got_avg, got_n, arrivals, departures)
        np.testing.assert_array_equal(got_n, want_n)
        np.testing.assert_allclose(got_avg, want_avg, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got_out, want_out, rtol=1e-9, atol=0)


def test_batched_epsilon_matches_the_stdlib_reference():
    # The two draw the same model in different orders, so their epsilons
    # must share one distribution: a two-sample KS test at alpha = 0.001 per
    # setting, over 150 fixed seeds a side, with layers, mu, the corrupt
    # fraction and lambda_M varied.
    settings = [
        dict(layers=1, rates=Rates(2.0, 0.5, 0.5, 0.0, 1.0), corrupt_fraction=0.0),
        dict(layers=2, rates=Rates(2.0, 0.5, 0.5, 0.0, 2.0), corrupt_fraction=0.3),
        dict(layers=3, rates=Rates(2.0, 0.5, 0.5, 1.5, 1.0), corrupt_fraction=0.0),
        dict(layers=2, rates=Rates(2.0, 0.5, 0.5, 0.5, 0.5), corrupt_fraction=0.3),
    ]
    for setting in settings:
        configs = [small_cfg(seed=seed, U=20, nodes_per_layer=3, burn_in=5.0, run_time=15.0,
                             **setting) for seed in range(150)]
        batched = [simulate_label_flow(cfg).epsilon for cfg in configs]
        stdlib = [reference_label_flow(cfg, random.Random(cfg.seed)).epsilon for cfg in configs]
        assert not any(map(math.isnan, batched + stdlib))
        assert stats.ks_2samp(batched, stdlib).pvalue > 0.001, setting


def test_memory_does_not_grow_with_run_time():
    # Chunks of virtual time bound what one repetition holds: ten times the
    # run time may take at most 1.5 times the traced peak. Drawing the whole
    # run at once takes about ten times.
    def traced_peak(run_time):
        cfg = small_cfg(**{**C07, "burn_in": 5.0, "run_time": run_time})
        tracemalloc.start()
        try:
            simulate_label_flow(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(250.0) <= 1.5 * traced_peak(25.0)


def test_challenge_senders_must_be_distinct_users():
    with pytest.raises(ValueError, match="^challenge senders must differ, not both 3$"):
        run_epsilon_experiment(small_cfg(challenge=(3, 3)))
    with pytest.raises(ValueError, match=r"^challenge\[1\] must be at least 0 and at most 9$"):
        run_epsilon_experiment(small_cfg(challenge=(0, 99)))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        small_cfg(U=1)
    with pytest.raises(ValueError):
        small_cfg(layers=0)
    with pytest.raises(ValueError):
        small_cfg(nodes_per_layer=0)
    with pytest.raises(ValueError):
        small_cfg(corrupt_fraction=1.0)
    with pytest.raises(ValueError):
        small_cfg(corrupt_fraction=-0.1)
    # 0.6 of one mix rounds to one corrupt mix, and the draw of the corrupt
    # set, redrawn until a last-layer mix is honest, ran forever
    with pytest.raises(ValueError, match="^corrupt_fraction rounds to all 1 mixes"):
        small_cfg(layers=1, nodes_per_layer=1, corrupt_fraction=0.6)
    small_cfg(layers=1, nodes_per_layer=1, corrupt_fraction=0.4)
    with pytest.raises(ValueError):
        small_cfg(burn_in=0.0)
    with pytest.raises(ValueError):
        small_cfg(run_time=-1.0)
    with pytest.raises(ValueError):
        small_cfg(rates=Rates(0.0, 1.0, 1.0, 0.0, 1.0))
    # a user or repetition count too large for a float raised OverflowError
    for field in ("U", "layers", "nodes_per_layer"):
        with pytest.raises(ValueError, match=f"^{field} must be at least"):
            small_cfg(**{field: 10**400})
    with pytest.raises(ValueError, match="^reps must be at least 1 and at most"):
        run_epsilon_batch(small_cfg(), 10**400)
    # numpy refused a negative seed only at the first repetition's draw
    with pytest.raises(ValueError, match="^seed must be at least 0 and at most"):
        small_cfg(seed=-1)
    with pytest.raises(ValueError, match=r"^seed \+ reps - 1 must be at least 0 and at most"):
        run_epsilon_batch(small_cfg(seed=MAX_COUNT), 2)


C07 = dict(U=100, rates=Rates(2.0, 0.0, 0.0, 0.0, 1.0), layers=3, nodes_per_layer=3,
           burn_in=25.0, run_time=100.0)


# repr(epsilon) at c07's shape, by seed and corrupt fraction, with every
# layer of every chunk solved. A layer with no label is counted, not
# solved; a solve would keep S0 and S1 at exactly +0.0, so not one bit may
# move.
C07_EPSILON = {
    (1, 0.0): "0.17608620118782056", (1, 0.3): "0.3164196577635424",
    (2, 0.0): "0.13389020517604866", (2, 0.3): "1.4658343762062618",
    (3, 0.0): "0.13004983985654275", (3, 0.3): "0.1325257072004614",
    (4, 0.0): "0.27893751598454836", (4, 0.3): "0.22200328533675387",
    (5, 0.0): "0.01790311193532215", (5, 0.3): "0.0872327871931749",
    (6, 0.0): "0.18991732904680694", (6, 0.3): "0.037319257517218984",
}


def test_c07_epsilon_is_the_same_bit_for_bit():
    for (seed, corrupt), want in C07_EPSILON.items():
        cfg = small_cfg(**C07, seed=seed, corrupt_fraction=corrupt)
        assert repr(simulate_label_flow(cfg).epsilon) == want, (seed, corrupt)


def label_flow_grid():
    """c07's shape with 1 to 4 layers, lambda_M 0 and 1.5 and corrupt
    fractions 0 and 0.3, then one run at a payload rate of 0.1."""
    grid = itertools.product((1, 2, 3, 4), (0.0, 1.5), (0.0, 0.3))
    for seed, (layers, lambda_M, corrupt) in enumerate(grid, 1):
        rates = Rates(2.0, 0.0, 0.0, lambda_M, 1.0)
        yield small_cfg(**{**C07, "rates": rates, "layers": layers}, seed=seed,
                        corrupt_fraction=corrupt)
    yield small_cfg(**{**C07, "rates": Rates(0.1, 1.9, 0.0, 0.0, 1.0)}, seed=17)


# SHA-256 of the reprs of the whole LabelFlowResult over label_flow_grid:
# epsilon alone would let pool_masses, delivered or in_corrupt drift.
LABEL_FLOW_GRID_SHA256 = "142a9bf106e957e349724f155834ccad0194101948600d2835468458fa02022b"


def test_every_result_field_is_the_same_bit_for_bit():
    digest = hashlib.sha256()
    for result in grid_results(label_flow_grid):
        digest.update(repr(result).encode())
    assert digest.hexdigest() == LABEL_FLOW_GRID_SHA256


def edge_grid():
    """Shapes label_flow_grid leaves out: a burn-in shorter than one chunk,
    so chunk 0 is solved with the whole stationary fill arriving at t = 0;
    1 and 7 mixes a layer; mu 0.5 and 4; loops with corruption at 2 layers;
    positive lambda_L and lambda_D; and a run time of 37.5."""
    shape = {**C07, "burn_in": 2.0, "run_time": 37.5}
    for seed, (width, mu) in enumerate(((1, 0.5), (7, 4.0)), 31):
        yield small_cfg(**{**shape, "nodes_per_layer": width,
                           "rates": Rates(2.0, 0.0, 0.0, 0.0, mu)}, seed=seed)
    yield small_cfg(**{**shape, "layers": 2, "rates": Rates(2.0, 0.0, 0.0, 0.7, 1.0)}, seed=33,
                    corrupt_fraction=0.3)
    yield small_cfg(**{**shape, "rates": Rates(1.0, 0.5, 0.5, 0.0, 1.0)}, seed=34)


# SHA-256 of the reprs of the whole LabelFlowResult over edge_grid.
EDGE_GRID_SHA256 = "7971f52a7a290d07390eeb75699f2c1bc02d6fc21c6d3650f4b85d3454e676ea"


def test_the_shapes_the_grid_lacks_are_the_same_bit_for_bit():
    for cfg in edge_grid():
        # labels enter in chunk 0, whose solves take the fill at t = 0
        assert cfg.burn_in < next(epsilon.draw_chunks(cfg, np.random.default_rng())).stop
    digest = hashlib.sha256()
    for result in grid_results(edge_grid):
        digest.update(repr(result).encode())
    assert digest.hexdigest() == EDGE_GRID_SHA256


@functools.cache
def grid_results(grid):
    """simulate_label_flow over every configuration of grid, run once."""
    return [simulate_label_flow(cfg) for cfg in grid()]


# SHA-256 of the reprs of every LabelFlowResult over label_flow_grid, then
# edge_grid, with delivered and in_corrupt left out: those two are sums
# over many messages, whose last bits follow the order they are summed in.
ORDER_FREE_SHA256 = "c2690ea8f0e0b02f7b7c2ddbaf5edec6ec6943b7b6da415adc26d64ecf35e14a"


def test_every_field_but_the_sums_is_the_same_bit_for_bit():
    digest = hashlib.sha256()
    for result in grid_results(label_flow_grid) + grid_results(edge_grid):
        digest.update(repr(dataclasses.replace(result, delivered=None, in_corrupt=None)).encode())
    assert digest.hexdigest() == ORDER_FREE_SHA256


def labeled_shares(result):
    """result without its four unlabeled components: the final pool's, each
    pool's, the delivered and the corrupt-held."""
    pool = result.final_pool and dataclasses.astuple(result.final_pool)[:2]
    return dataclasses.replace(result, final_pool=pool,
                               pool_masses=[mass[:2] for mass in result.pool_masses],
                               in_corrupt=result.in_corrupt[:2], delivered=result.delivered[:2])


# SHA-256 of the reprs of every LabelFlowResult over label_flow_grid, then
# edge_grid, with the unlabeled components left out: each is what remains
# of a count or a share of 1 after S0 and S1, rounded in its own way.
LABELED_SHA256 = "95449e296d6a8ff76e69d991c5fc748bdae73153da0040a5a77ac22a8fc86374"


def test_every_labeled_share_is_the_same_bit_for_bit():
    digest = hashlib.sha256()
    for result in grid_results(label_flow_grid) + grid_results(edge_grid):
        digest.update(repr(labeled_shares(result)).encode())
    assert digest.hexdigest() == LABELED_SHA256


def plain_buffered(times, burn_in, run_time):
    """Which payloads, at the given times, take a buffered message, event by
    event: one message is buffered at burn_in + k for every whole k >= 0
    below run_time, before a payload at the same instant, and a payload
    takes one if any is buffered."""
    refills = [(burn_in + k, 0) for k in range(math.ceil(run_time))]
    payloads = [(t, 1, i) for i, t in enumerate(times)]
    buffered, got = 0, [False] * len(times)
    for _, kind, *i in sorted(refills + payloads):
        if kind == 0:
            buffered += 1
        elif buffered:
            buffered -= 1
            got[i[0]] = True
    return got


def test_buffered_matches_a_direct_refill_simulation():
    # Payloads in bursts that empty the buffer, on refill instants, between
    # them and past the last refill at burn_in + 3 (run_time 3.5), fed to
    # _buffered in pieces, some of them empty, with the count taken carried.
    cfg = small_cfg(burn_in=2.0, run_time=3.5)
    times = [0.5, 1.9, 2.0, 2.0, 2.0, 2.5, 3.0, 3.0, 3.2, 4.0, 4.7, 5.0, 5.5, 6.0, 7.5, 9.0]
    for cut in ((), (3,), (2, 2, 9), (0, 5, 11, 16), tuple(range(17))):
        got, taken = [], 0
        for lo, hi in zip((0,) + cut, cut + (len(times),)):
            mask, taken = epsilon._buffered(np.array(times[lo:hi]), cfg, taken)
            assert len(mask) == hi - lo
            got += map(bool, mask)
        want = plain_buffered(times, cfg.burn_in, cfg.run_time)
        assert got == want, cut
        assert taken == sum(want) == 4


def test_expected_events_count_the_stationary_fill_and_the_mixes():
    # 25 000 messages emitted, 600 / mu filled, 9 mixes
    assert small_cfg(**C07).expected_events == 25_609
    # at mu = 6e-5 the fill alone is 10**7 messages
    with pytest.raises(ValueError, match="^one repetition: 10025009 expected events"):
        small_cfg(**{**C07, "rates": Rates(2.0, 0.0, 0.0, 0.0, 6e-5)})
    # 10**7 + 1 mixes, whose pools hold next to nothing
    with pytest.raises(ValueError, match="^one repetition: 10000001 expected events"):
        small_cfg(U=2, rates=Rates(1e-9, 0.0, 0.0, 0.0, 1.0), layers=1,
                  nodes_per_layer=MAX_EVENTS + 1)


def test_label_distribution_validation():
    LabelDistribution(0.12, 0.15, 0.73)
    with pytest.raises(ValueError):
        LabelDistribution(0.5, 0.6, 0.1)
    with pytest.raises(ValueError):
        LabelDistribution(-0.1, 0.4, 0.7)


def test_last_layer_keeps_an_honest_witness():
    for seed in range(20):
        cfg = small_cfg(seed=seed, layers=2, nodes_per_layer=2, corrupt_fraction=0.5)
        result = simulate_label_flow(cfg)
        last = {2, 3}
        assert last - set(result.corrupt), "all last-layer mixes corrupt"


def test_epsilon_batch_summary():
    batch = run_epsilon_batch(small_cfg(U=20, run_time=20.0), reps=6)
    again = run_epsilon_batch(small_cfg(U=20, run_time=20.0), reps=6)
    assert batch.values == again.values
    assert len(batch.values) == 6
    finite = [v for v in batch.values if math.isfinite(v)]
    assert batch.n_finite == len(finite)
    assert batch.mean == pytest.approx(float(np.mean(finite)))
    assert batch.std == pytest.approx(float(np.std(finite, ddof=1)))


def test_epsilon_batch_counts_infinite_repetitions(monkeypatch):
    values = iter([1.0, math.inf, math.nan])
    monkeypatch.setattr(epsilon, "run_epsilon_experiment", lambda cfg: next(values))
    batch = run_epsilon_batch(small_cfg(), reps=3)
    assert batch.n_finite == 1
    assert batch.n_inf == 1
    assert batch.mean == 1.0


def test_a_run_with_no_message_in_a_last_layer_pool_has_no_epsilon():
    # two users who send once in 100 s, into one mix that holds a message
    # for 10 ms on average: in the 2-s runs of seeds 0 to 2 no message is
    # sent and the pool starts and ends empty, so no pool can be the final one
    cfg = small_cfg(seed=0, U=2, rates=Rates(0.01, 0.0, 0.0, 0.0, 100.0), layers=1,
                    nodes_per_layer=1, burn_in=1.0, run_time=1.0)
    result = simulate_label_flow(cfg)
    assert math.isnan(result.epsilon)
    assert result.final_mix is None and result.final_pool is None
    assert result.pool_counts == [0]
    batch = run_epsilon_batch(cfg, reps=3)
    assert all(map(math.isnan, batch.values))
    assert (batch.n_finite, batch.n_inf) == (0, 0)
    assert math.isnan(batch.mean) and math.isnan(batch.std)


def test_latency_single_hop_is_exponential():
    samples = run_latency_experiment(2.0, hops=1, n_messages=20_000, seed=3)
    ks = stats.kstest(samples, "expon", args=(0, 1 / 2.0))
    assert ks.pvalue > 0.01


def test_latency_moments_and_processing_shift():
    base = run_latency_experiment(2.0, hops=4, n_messages=20_000, seed=4)
    assert float(np.mean(base)) == pytest.approx(2.0, abs=0.05)
    assert float(np.std(base)) == pytest.approx(1.0, abs=0.05)
    shifted = run_latency_experiment(2.0, hops=4, n_messages=20_000, seed=4, processing_s=0.01)
    assert np.allclose(shifted, base + 0.04)


def test_latency_validation():
    with pytest.raises(ValueError):
        run_latency_experiment(2.0, hops=0, n_messages=10, seed=0)
    with pytest.raises(ValueError):
        run_latency_experiment(2.0, hops=1, n_messages=0, seed=0)
    with pytest.raises(ValueError):
        run_latency_experiment(2.0, hops=1, n_messages=10, seed=0, processing_s=-1.0)
    with pytest.raises(ValueError, match="^n_messages must be at least 1 and at most"):
        run_latency_experiment(2.0, hops=1, n_messages=10**400, seed=0)
    # the delays of one message over 10**7 + 1 hops
    with pytest.raises(ValueError, match=r"^n_messages \* hops: 10000001 expected events"):
        run_latency_experiment(2.0, hops=MAX_EVENTS + 1, n_messages=1, seed=0)


def test_trace_run_shape_and_determinism():
    cfg = TraceSimConfig(seed=11)
    run = run_trace_experiment(cfg)
    users, providers = set(run.users), set(run.providers)
    assert len(run.challenge) == 2
    for trace in list(run.challenge) + list(run.drop_traces):
        validate_trace(trace)
        assert trace[0].sender in users
        assert {trace[0].recipient, trace[-1].recipient} <= providers
        assert len(trace) == cfg.hops + 2
    again = run_trace_experiment(TraceSimConfig(seed=11))
    assert again.challenge == run.challenge
    assert again.drop_traces == run.drop_traces


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, n_users=1)
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, duration=0.0)
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, lambda_D=-1.0)
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, hops=0)
    # 20 users at 3.72/s for 10 s: 744 drop traces at 3 hops, and at most
    # 2 * (744 * 3)**2 joins tried
    TraceSimConfig(seed=0, lambda_D=3.72)
    with pytest.raises(ValueError, match="^join search over the drop traces: 10017288 expected events"):
        TraceSimConfig(seed=0, lambda_D=3.73)
    with pytest.raises(ValueError, match="^n_users must be at least 2 and at most"):
        TraceSimConfig(seed=0, n_users=2**53 + 1)


def test_pool_experiment_validation_and_determinism():
    with pytest.raises(ValueError):
        run_pool_experiment(0.0, 1.0, 10.0, 0)
    with pytest.raises(ValueError):
        run_pool_experiment(1.0, 1.0, -5.0, 0)
    a = run_pool_experiment(10.0, 1.0, 50.0, seed=2)
    b = run_pool_experiment(10.0, 1.0, 50.0, seed=2)
    assert a.time_avg_size == b.time_avg_size
    assert a.departure_times == b.departure_times
