"""Label-flow simulation of sender indistinguishability.

Two challenge senders feed tagged payload messages into a stratified network
while everyone else supplies untagged traffic. Inside an honest mix the tags
blur: every departure carries the pool's average label distribution, which is
exactly the per-message match weighting for an exponential pool, so a pool's
average and its count are all the state it needs. Corrupt mixes forward each
message's own distribution untouched. The observable at the end is how far
apart the two labels remain in a last-layer pool, summarized as
|ln(p_S0 / p_S1)|.

Pools start from their stationary occupancy (Poisson counts, exponential
residuals) instead of an empty network, so the configured burn-in only needs
to wash out scheduling artifacts, not grow the pools.

Three facts of the model let a run be solved in bulk rather than event by
event. A message departs at its arrival time plus its own Exp(mu) draw,
whatever else is in the pool. No message goes back a layer. And a pool's
average label changes only at arrivals, avg <- c * avg + (1 - c) * x with
c = N / (N + 1), while a departure carries avg away and leaves it as it is.
So the run is cut into chunks of virtual time. Each chunk draws its
messages with their whole routes and delays, runs the layers in order, and
solves each honest pool's recurrence in vectorised blocks (_scan). A layer
with no S0 or S1 mass in its pools or its arrivals, as every layer has
before burn_in, is not solved: its counts move, and its pools and honest
departures are unlabeled. A solve would keep the S0 and S1 shares at
exactly +0.0 too, so epsilon comes out the same bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.random import default_rng

from ..analysis.pools import epsilon_of
from ..bounds import bounded_events, count, positive
from ..client import Rates


@dataclass(frozen=True)
class LabelDistribution:
    p_S0: float
    p_S1: float
    p_unlabeled: float

    def __post_init__(self):
        total = self.p_S0 + self.p_S1 + self.p_unlabeled
        if min(self.p_S0, self.p_S1, self.p_unlabeled) < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(total - 1.0) > 1e-9:
            raise ValueError("label probabilities must sum to 1")


@dataclass(frozen=True)
class SimConfig:
    seed: int
    U: int
    rates: Rates
    layers: int
    nodes_per_layer: int
    corrupt_fraction: float
    burn_in: float
    run_time: float
    challenge: Tuple[int, int]

    def __post_init__(self):
        count("seed", self.seed)
        count("U", self.U, lo=2)
        count("layers", self.layers, lo=1)
        count("nodes_per_layer", self.nodes_per_layer, lo=1)
        if not 0.0 <= self.corrupt_fraction < 1.0:
            raise ValueError("corrupt_fraction must lie in [0, 1)")
        n_mixes = self.layers * self.nodes_per_layer
        if round(self.corrupt_fraction * n_mixes) == n_mixes:
            # no draw of the corrupt set could leave a last-layer mix honest
            raise ValueError(f"corrupt_fraction rounds to all {n_mixes} mixes")
        positive("burn_in", self.burn_in)
        positive("run_time", self.run_time)
        if self.rates.lambda_P <= 0:
            raise ValueError("challenge traffic needs a positive payload rate")
        s0, s1 = self.challenge
        count("challenge[0]", s0, hi=self.U - 1)
        count("challenge[1]", s1, hi=self.U - 1)
        if s0 == s1:
            raise ValueError(f"challenge senders must differ, not both {s0}")
        bounded_events("one repetition", self.expected_events)

    @property
    def expected_events(self) -> float:
        """Messages the clients emit and the mixes loop in one repetition,
        the messages of the stationary fill, and the mixes themselves."""
        r = self.rates
        users = self.U * (r.lambda_P + r.lambda_L + r.lambda_D)
        n_mixes = self.layers * self.nodes_per_layer
        emitted = (users + n_mixes * r.lambda_M) * (self.burn_in + self.run_time)
        filled = (self.layers * users + n_mixes * r.lambda_M) / r.mu
        return emitted + filled + n_mixes


@dataclass
class LabelFlowResult:
    epsilon: float
    final_mix: Optional[int]
    final_pool: Optional[LabelDistribution]
    corrupt: frozenset
    emitted: Tuple[int, int, int]
    pool_masses: List[Tuple[float, float, float]]
    pool_counts: List[int]
    in_corrupt: Tuple[float, float, float]
    delivered: Tuple[float, float, float]


# A chunk spans the virtual time in which this many messages are expected to
# enter the network (6.25 s at c07's 200 per second), so the memory a run
# takes does not grow with its length.
_CHUNK_MESSAGES = 1250
# Arrivals per block of a recurrence solve. Every factor c = N / (N + 1) in
# a block is 0 or at least 1/2, so a block's running product of the nonzero
# ones stays above 2**-256, far from underflow.
_BLOCK = 256
_LABELS = np.eye(3)  # the masses of an S0, an S1 and an unlabeled message
_UNLABELED = _LABELS[2]


class Messages(NamedTuple):
    """Messages at one layer, one row each: the mix a message is in, its
    arrival and departure times there, its label mass, its mix and delay at
    every layer, and whether it goes on to the next layer. The mass of a
    message in an honest pool is the one it arrived with; it leaves with the
    pool's average instead."""

    mix: np.ndarray  # (n,) int
    t: np.ndarray  # (n,)
    dep: np.ndarray  # (n,)
    mass: np.ndarray  # (n, 3): S0, S1, unlabeled
    route: np.ndarray  # (n, layers) int
    delay: np.ndarray  # (n, layers)
    on: np.ndarray  # (n,) bool


class Chunk(NamedTuple):
    """The draws of one chunk of virtual time, up to stop: the emissions,
    with their senders, whether each is a payload, and their routes and
    delays; then each mix loop injected, with its delay."""

    stop: float
    t: np.ndarray
    sender: np.ndarray
    payload: np.ndarray
    route: np.ndarray
    delay: np.ndarray
    loop_mix: np.ndarray
    loop_t: np.ndarray
    loop_delay: np.ndarray


def _cat(parts) -> Messages:
    return Messages(*map(np.concatenate, zip(*parts)))


def _take(msgs: Messages, index: np.ndarray) -> Messages:
    """The rows at the integer index."""
    return Messages(*(column.take(index, axis=0) for column in msgs))


def _routes(rng, cfg: SimConfig, n: int):
    """n uniform routes, as mix indices, and their Exp(mu) delays per layer."""
    l, w = cfg.layers, cfg.nodes_per_layer
    route = rng.integers(w, size=(n, l)) + np.arange(0, l * w, w)
    return route, rng.exponential(1.0 / cfg.rates.mu, size=(n, l))


def corrupt_mixes(cfg: SimConfig, rng) -> frozenset:
    """A uniform corrupt set, redrawn until a last-layer mix is honest."""
    n_mixes = cfg.layers * cfg.nodes_per_layer
    n_corrupt = round(cfg.corrupt_fraction * n_mixes)
    last_layer = range(n_mixes - cfg.nodes_per_layer, n_mixes)
    while True:
        corrupt = frozenset(rng.choice(n_mixes, n_corrupt, replace=False).tolist())
        if any(m not in corrupt for m in last_layer):
            return corrupt


def stationary_fill(cfg: SimConfig, rng) -> Messages:
    """The messages in the pools at time 0, sorted by mix.

    Each mix sees the whole client volume spread over its layer plus its own
    loop stream, so its occupancy is Poisson(rate / mu) with Exp(mu)
    residual holding times (memoryless). Every filled message is unlabeled
    and goes on through the layers after its own.
    """
    l, w = cfg.layers, cfg.nodes_per_layer
    rates = cfg.rates
    per_mix_rate = cfg.U * (rates.lambda_P + rates.lambda_L + rates.lambda_D) / w + rates.lambda_M
    mix = np.repeat(np.arange(l * w), rng.poisson(per_mix_rate / rates.mu, size=l * w))
    n = len(mix)
    route, delay = _routes(rng, cfg, n)
    layer = mix // w
    route[np.arange(n), layer] = mix
    return Messages(mix, np.zeros(n), delay[np.arange(n), layer], np.tile(_UNLABELED, (n, 1)),
                    route, delay, layer < l - 1)


def draw_chunks(cfg: SimConfig, rng):
    """Yield the draws of each chunk of [0, burn_in + run_time] in turn.

    Emissions are a Poisson process over all users, each from a uniform user
    and a payload with probability lambda_P over the user's total rate; each
    mix injects loops as a Poisson process of rate lambda_M.
    """
    rates = cfg.rates
    n_mixes = cfg.layers * cfg.nodes_per_layer
    emit_rate = cfg.U * (rates.lambda_P + rates.lambda_L + rates.lambda_D)
    p_payload = rates.lambda_P / (rates.lambda_P + rates.lambda_L + rates.lambda_D)
    end = cfg.burn_in + cfg.run_time
    n_chunks = math.ceil(end * (emit_rate + n_mixes * rates.lambda_M) / _CHUNK_MESSAGES)
    edges = np.linspace(0.0, end, max(n_chunks, 1) + 1).tolist()
    for start, stop in zip(edges, edges[1:]):
        span = stop - start
        n = rng.poisson(emit_rate * span)
        t = rng.uniform(start, stop, n)
        sender = rng.integers(cfg.U, size=n)
        payload = rng.random(n) < p_payload
        route, delay = _routes(rng, cfg, n)
        loops = rng.poisson(rates.lambda_M * span, size=n_mixes)
        loop_mix = np.repeat(np.arange(n_mixes), loops)
        loop_t = rng.uniform(start, stop, len(loop_mix))
        loop_delay = rng.exponential(1.0 / rates.mu, len(loop_mix))
        yield Chunk(stop, t, sender, payload, route, delay, loop_mix, loop_t, loop_delay)


def _buffered(t, cfg: SimConfig, taken: int):
    """Which of one challenge sender's payloads, at times t in order, take a
    buffered message, given that `taken` were taken before.

    A refill at burn_in + k, for k = 0 and every k with burn_in + k < end,
    buffers one message, before a payload at the same instant. So a payload
    at t takes one if fewer were taken before it than the refills up to t,
    min(floor(t - burn_in) + 1, ceil(run_time)). Returns one bool per
    payload and the count taken after the last.
    """
    burn_in, refills = cfg.burn_in, math.ceil(cfg.run_time)
    got = []
    for x in t:  # a handful a chunk
        got.append(taken < min(math.floor(x - burn_in) + 1, refills))
        taken += got[-1]
    return got, taken


def _scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve y[k] = a[k] * y[k-1] + b[k] for every k, where a[0] == 0, in
    place of b.

    a has shape (n,), with n a whole number of _BLOCK entries, each 0 or in
    [1/2, 1), and b shape (n, 3), with entries >= 0. Blocks of _BLOCK
    entries are solved side by side: within a block, y = A * cumsum(b / A)
    with A the running product of a, and the rows from a reset (a == 0) on
    drop the sum before it. Then each block adds A times the last y of the
    block before to its rows before its first reset, block by block: a
    block's whole product may be as small as 2**-256, too small to divide
    by again.
    """
    n_blocks = len(a) // _BLOCK
    reset = (a == 0).reshape(n_blocks, _BLOCK)
    prod = np.cumprod(np.where(reset, 1.0, a.reshape(n_blocks, _BLOCK)), axis=1)
    y = b.reshape(n_blocks, _BLOCK, 3)
    y /= prod[..., None]
    np.cumsum(y, axis=1, out=y)
    # the first reset after a block's first row, and the first of all
    inner = np.where(reset[:, 1:].any(axis=1), reset[:, 1:].argmax(axis=1) + 1, _BLOCK)
    first = np.where(reset[:, 0], 0, inner).tolist()
    for i, k in enumerate(inner.tolist()):
        if k < _BLOCK:  # pools rarely empty, so few blocks have one
            last = np.maximum.accumulate(np.where(reset[i, k:], np.arange(k, _BLOCK), k))
            y[i, k:] -= y[i, last - 1]
    y *= prod[..., None]
    for i in range(1, n_blocks):
        k = first[i]
        y[i, :k] += prod[i, :k, None] * y[i - 1, -1]
    return b


def _solve_pools(avg, n, arrivals, departures) -> np.ndarray:
    """Run one chunk of the pools of one layer and return the masses the
    departures carry; avg and n, each pool's average label and count, are
    updated in place. arrivals is (pool, t, mass), departures (pool, t),
    with pool the index into avg and n. The caller gives a corrupt mix's
    departures their own masses instead.

    Each pool's events run in time order, arrivals before departures at one
    instant. The recurrence has one row per pool, which sets y to the
    pool's average, followed by the pool's arrivals in time order: an
    arrival of x at count N sets y <- N/(N+1) * y + x/(N+1), and a
    departure carries the y of the last row before it. The events are
    sorted by time, then stably by pool, so each one's count and row
    follow from its position in that order and the counts before its pool.
    """
    (arr_pool, arr_t, arr_mass), (dep_pool, dep_t) = arrivals, departures
    h, na, nd = len(n), len(arr_pool), len(dep_pool)
    # Times are >= +0.0, so their bits sort as they do; the low bit puts an
    # arrival before a departure at one instant. The pool sort is stable,
    # and a radix sort where the pool index fits in 16 bits.
    key = np.concatenate((arr_t, dep_t)).view(np.uint64) << np.uint64(1)
    key[na:] += np.uint64(1)
    order = np.argsort(key)
    pool = np.concatenate((arr_pool, dep_pool)).astype(np.min_scalar_type(h - 1))
    order = order.take(np.argsort(pool.take(order), kind="stable"))
    is_arr = order < na
    apos, dpos = np.flatnonzero(is_arr), np.flatnonzero(~is_arr)
    a_cnt = np.bincount(arr_pool, minlength=h)
    d_cnt = np.bincount(dep_pool, minlength=h)
    a_first, d_first = np.cumsum(a_cnt) - a_cnt, np.cumsum(d_cnt) - d_cnt
    pools = np.arange(h)
    first_row = pools + a_first
    # The i-th arrival, at position q, in pool p follows i - a_first[p]
    # arrivals and q - i - d_first[p] departures of its pool; the j-th
    # departure, at q, follows q - j - a_first[p] arrivals, so reads row
    # p + q - j. The rows run on to a whole number of blocks, each a copy
    # of row 0 at a count of 1, which no row before them reads.
    arr_row = np.arange(1, na + 1) + np.repeat(pools, a_cnt)
    src = np.zeros(-(-(h + na) // _BLOCK) * _BLOCK, np.int64)
    src[first_row] = pools
    src[arr_row] = order.take(apos) + h
    count_in = np.ones(len(src))  # 1 makes a first row's a 0 and b avg
    count_in[arr_row] = np.repeat(n - a_first + d_first + 1, a_cnt) + 2 * np.arange(na) - apos
    b = np.concatenate((avg, arr_mass)).take(src, axis=0)
    b /= count_in[:, None]
    y = _scan((count_in - 1) / count_in, b)
    dep_row = np.empty(nd, np.int64)
    dep_row[order.take(dpos) - na] = dpos - np.arange(nd) + np.repeat(pools, d_cnt)
    avg[:] = y.take(first_row + a_cnt, axis=0)
    n += a_cnt - d_cnt
    return y.take(dep_row, axis=0)


def simulate_label_flow(cfg: SimConfig) -> LabelFlowResult:
    """Run one seeded repetition and return the full label accounting.

    Every draw comes from one np.random.default_rng(cfg.seed), in a fixed
    order: the corrupt set, the stationary fill, each chunk's draws in turn
    (draw_chunks), and the final mix. So a seed fixes every field of the
    result. The draws do not depend on the label flow.

    The run is cut into chunks of virtual time in which about
    _CHUNK_MESSAGES messages enter, so its memory does not grow with
    run_time. Each chunk runs the layers in order. A layer's arrivals are
    the chunk's emissions (layer 0), the messages the layer before sent on
    in this chunk, its mixes' loop injections and, in the first chunk, the
    stationary fill. A challenge sender's payload is labeled S0 or S1 while
    the sender has a buffered message, one a second from burn_in on
    (_buffered). A layer's departures are its resident messages and
    arrivals whose departure falls in the chunk; the rest stay resident for
    the next chunk. An honest pool runs its events in time order, and at
    one instant its arrivals before its departures; a layer with no label
    in its pools or its arrivals only counts them. A corrupt mix passes
    each message's own masses through. A message leaves the network from
    the last layer, or from the pool it looped into. Events up to
    burn_in + run_time inclusive take part.
    """
    rng = default_rng(cfg.seed)
    l, w = cfg.layers, cfg.nodes_per_layer
    n_mixes = l * w
    end = cfg.burn_in + cfg.run_time
    corrupt = corrupt_mixes(cfg, rng)
    is_corrupt = np.zeros(n_mixes, bool)
    is_corrupt[list(corrupt)] = True
    corrupt_layer = is_corrupt.reshape(l, w).any(axis=1).tolist()

    avg = np.zeros((n_mixes, 3))
    n = np.zeros(n_mixes, np.int64)
    delivered = np.zeros(3)
    fill = stationary_fill(cfg, rng)
    emitted = np.array([0, 0, len(fill.mix)])
    edges = np.searchsorted(fill.mix, np.arange(0, n_mixes + 1, w))
    entering = [[_take(fill, np.arange(lo, hi))] for lo, hi in zip(edges, edges[1:])]
    resident = [_take(fill, np.arange(0))] * l
    taken = [0, 0]

    for chunk in draw_chunks(cfg, rng):
        label = np.full(len(chunk.t), 2)
        for i, sender in enumerate(cfg.challenge):
            mine = np.flatnonzero(chunk.payload & (chunk.sender == sender))
            # a handful a chunk: sorted in time, then in draw order
            payloads = sorted(zip(chunk.t[mine].tolist(), mine.tolist()))
            got, taken[i] = _buffered([t for t, _ in payloads], cfg, taken[i])
            label[[m for (_, m), g in zip(payloads, got) if g]] = i
        emitted += np.bincount(label, minlength=3)
        emitted[2] += len(chunk.loop_mix)
        entering[0].append(Messages(chunk.route[:, 0], chunk.t, chunk.t + chunk.delay[:, 0],
                                    _LABELS.take(label, axis=0), chunk.route, chunk.delay,
                                    np.full(len(label), l > 1)))
        # the loops come sorted by mix, so each layer's are one slice
        edges = np.searchsorted(chunk.loop_mix, np.arange(0, n_mixes + 1, w)).tolist()
        for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if lo == hi:  # every layer at lambda_M = 0
                continue
            loop_t = chunk.loop_t[lo:hi]
            entering[j].append(Messages(
                chunk.loop_mix[lo:hi], loop_t, loop_t + chunk.loop_delay[lo:hi],
                np.tile(_UNLABELED, (hi - lo, 1)), np.zeros((hi - lo, l), np.int64),
                np.zeros((hi - lo, l)), np.zeros(hi - lo, bool)))

        final = chunk.stop == end
        for j in range(l):
            pending = _cat([resident[j], *entering[j]])
            entering[j] = []
            k = len(resident[j].mix)  # the rest of pending arrived in this chunk
            due = pending.dep <= end if final else pending.dep < chunk.stop
            resident[j] = _take(pending, np.flatnonzero(~due))
            leave = np.flatnonzero(due)
            mix, dep = pending.mix.take(leave), pending.dep.take(leave)
            pools = slice(j * w, (j + 1) * w)
            arr_pool, dep_pool = pending.mix[k:] - j * w, mix - j * w
            if avg[pools, :2].any() or pending.mass[k:, :2].any():
                # every pool of the layer is solved; a corrupt one's average
                # is never read, and its messages leave with their own masses
                out = _solve_pools(avg[pools], n[pools],
                                   (arr_pool, pending.t[k:], pending.mass[k:]),
                                   (dep_pool, dep))
            else:
                # no label in the layer: a solve would keep its S0 and S1
                # columns at +0.0, so only the counts move
                n[pools] += np.bincount(arr_pool, minlength=w) - np.bincount(dep_pool, minlength=w)
                avg[pools] = _UNLABELED
                out = np.tile(_UNLABELED, (len(leave), 1))
            if corrupt_layer[j]:
                held = np.flatnonzero(is_corrupt[mix])
                out[held] = pending.mass.take(leave[held], axis=0)
            if j + 1 == l:  # the last layer delivers every message it sends
                delivered += out.sum(axis=0)
                continue
            on = pending.on.take(leave)
            if not on.all():  # loops leave from the pool they looped into
                delivered += out[~on].sum(axis=0)
                leave, dep, out = leave[on], dep[on], out[on]
            route, delay = pending.route.take(leave, axis=0), pending.delay.take(leave, axis=0)
            entering[j + 1].append(Messages(route[:, j + 1], dep, dep + delay[:, j + 1], out,
                                            route, delay, np.full(len(leave), j + 2 < l)))

    in_corrupt = np.zeros(3)
    for msgs in resident:
        in_corrupt += msgs.mass[is_corrupt[msgs.mix]].sum(axis=0)
    n[is_corrupt] = 0
    masses = n[:, None] * avg
    candidates = [m for m in range(n_mixes - w, n_mixes) if not is_corrupt[m] and n[m] > 0]
    if not candidates:
        final_mix, final_pool, eps = None, None, math.nan
    else:
        final_mix = candidates[int(rng.integers(len(candidates)))]
        # a share of 1 may come out of the solve a few ulps above it
        final_pool = LabelDistribution(*np.minimum(avg[final_mix], 1.0).tolist())
        eps = epsilon_of(final_pool.p_S0, final_pool.p_S1)

    return LabelFlowResult(
        epsilon=eps,
        final_mix=final_mix,
        final_pool=final_pool,
        corrupt=corrupt,
        emitted=tuple(emitted.tolist()),
        pool_masses=[tuple(row) for row in masses.tolist()],
        pool_counts=n.tolist(),
        in_corrupt=tuple(in_corrupt.tolist()),
        delivered=tuple(delivered.tolist()),
    )


def run_epsilon_experiment(cfg: SimConfig) -> float:
    """One seeded repetition; returns epsilon at a random honest final mix."""
    return simulate_label_flow(cfg).epsilon


@dataclass
class EpsilonBatch:
    mean: float
    std: float
    n_finite: int
    n_inf: int
    values: List[float] = field(repr=False)


def check_epsilon_batch(cfg: SimConfig, reps: int) -> None:
    """ValueError unless run_epsilon_batch(cfg, reps) may run: at least one
    repetition, every seed it uses a count, and its events within the cap."""
    count("reps", reps, lo=1)
    count("seed + reps - 1", cfg.seed + reps - 1)
    bounded_events(f"{reps} repetitions", reps * cfg.expected_events)


def run_epsilon_batch(cfg: SimConfig, reps: int) -> EpsilonBatch:
    """Average epsilon over reps seeded runs, skipping degenerate ones.

    A repetition whose final pool lacks one of the labels entirely yields an
    infinite epsilon and is excluded from the moments, like the nan from an
    empty candidate pool; n_finite reports how many repetitions counted and
    n_inf how many were infinite, the adversary's best case.
    """
    check_epsilon_batch(cfg, reps)
    values = [run_epsilon_experiment(replace(cfg, seed=cfg.seed + i)) for i in range(reps)]
    finite = [v for v in values if math.isfinite(v)]
    n_inf = sum(map(math.isinf, values))
    if not finite:
        return EpsilonBatch(math.nan, math.nan, 0, n_inf, values)
    mean = sum(finite) / len(finite)
    var = sum((v - mean) ** 2 for v in finite) / max(len(finite) - 1, 1)
    return EpsilonBatch(mean, math.sqrt(var), len(finite), n_inf, values)
