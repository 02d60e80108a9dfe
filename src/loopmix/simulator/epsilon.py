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
So the run is cut into chunks of virtual time, whose events at every layer
are known before any label is: one plan lays them out (_plan), then the
layers run in order, each solving its pools' recurrences in vectorised
blocks (_scan). Pools and messages carry only their S0 and S1 shares; the
unlabeled share is what remains of 1, worked out once at the end. A layer
with no S0 or S1 in its pools or arrivals, as before burn_in, is not
solved: its departures read their pools' averages, which a solve would keep
at +0.0.
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


class Fill(NamedTuple):
    """The messages in the pools at time 0, sorted by mix, one row each: the
    mix, and the mix and delay at every layer (its own mix at its own layer,
    and a delay of 0 before it)."""

    mix: np.ndarray  # (n,) int
    route: np.ndarray  # (n, layers) int
    delay: np.ndarray  # (n, layers)


class Chunk(NamedTuple):
    """The draws of one chunk of virtual time, up to stop: the emissions, with
    their senders, whether each is a payload, their routes and delays; then
    each mix loop injected, with its delay."""

    stop: float
    t: np.ndarray
    sender: np.ndarray
    payload: np.ndarray
    route: np.ndarray
    delay: np.ndarray
    loop_mix: np.ndarray
    loop_t: np.ndarray
    loop_delay: np.ndarray


def _routes(rng, cfg: SimConfig, n: int):
    """n uniform routes, as mix indices, and their Exp(mu) delays per layer."""
    l, w = cfg.layers, cfg.nodes_per_layer
    # int32 draws take the generator's bits as int64 ones do, and faster
    route = rng.integers(w, size=(n, l), dtype=np.int32) + np.arange(0, l * w, w, dtype=np.int32)
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


def stationary_fill(cfg: SimConfig, rng) -> Fill:
    """The messages in the pools at time 0.

    Each mix sees the whole client volume spread over its layer plus its own
    loop stream, so its occupancy is Poisson(rate / mu) with Exp(mu)
    residual holding times (memoryless). Every filled message is unlabeled
    and goes on through the layers after its own. Its delays before its own
    layer are 0, so that summed in order they put it there at time 0.
    """
    l, w = cfg.layers, cfg.nodes_per_layer
    rates = cfg.rates
    per_mix_rate = cfg.U * (rates.lambda_P + rates.lambda_L + rates.lambda_D) / w + rates.lambda_M
    mix = np.repeat(np.arange(l * w), rng.poisson(per_mix_rate / rates.mu, size=l * w))
    n = len(mix)
    route, delay = _routes(rng, cfg, n)
    layer = mix // w
    route[np.arange(n), layer] = mix
    delay[np.arange(l) < layer[:, None]] = 0.0
    return Fill(mix, route, delay)


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


def _factors(a: np.ndarray) -> tuple:
    """What _scan needs of a: per block, the running product of a (a reset,
    a == 0, as 1), and it at the rows before the block's first reset; the
    rows (start, stop) from each reset past a block's first row on; and
    per block, its whole product and whether it has no reset."""
    zero = a == 0
    reset, starts = np.flatnonzero(zero), np.arange(0, len(a), _BLOCK)
    first = np.append(reset, len(a))[np.searchsorted(reset, starts)] - starts
    stop = np.minimum(np.append(reset[1:], len(a)), reset // _BLOCK * _BLOCK + _BLOCK)
    prod = np.cumprod((a + zero).reshape(-1, _BLOCK), axis=1)
    head = prod * (np.arange(_BLOCK) < first[:, None])
    segments = [(r, s) for r, s in zip(reset.tolist(), stop.tolist()) if r % _BLOCK]
    return prod, head, segments, prod[:, -1].tolist(), (first >= _BLOCK).tolist()


def _scan(f: tuple, b: np.ndarray) -> np.ndarray:
    """Solve y[k] = a[k] * y[k-1] + b[k] for every k in place of b, (rows, n)
    and >= 0, with f the factors (_factors) of a, n a whole number of
    blocks, each entry 0 or in [1/2, 1), a[0] == 0. Within a block,
    y = A * cumsum(b / A) with A the running product of a, and the rows from
    a reset on drop the sum before it. Then each block adds A times the
    last y of the block before to its rows before its first reset, block by
    block: a block's whole product may be too small to divide by again."""
    prod, head, segments, scale, whole = f
    y = b.reshape(len(b), -1, _BLOCK)
    y /= prod
    np.cumsum(y, axis=2, out=y)
    for start, stop in reversed(segments):  # each reads a row the ones before change
        b[:, start:stop] -= b[:, start - 1:start]
    y *= prod
    if len(scale) > 1:  # block 0 starts with a reset
        carry, end = [], [0.0] * len(b)
        for y_end, s, no_reset in zip(y[:, :-1, -1].T.tolist(), scale, whole):
            end = [y + s * c for y, c in zip(y_end, end)] if no_reset else y_end
            carry.append(end)
        y[:, 1:] += head[1:] * np.array(carry).T[:, :, None]
    return b


class Rows(NamedTuple):
    """One layer's recurrence rows over one chunk, as _plan lays them out."""

    src: np.ndarray  # the mass table column each row's mass comes from
    count_in: np.ndarray  # the count N + 1 each row meets
    scan: tuple  # the factors of the rows' a = N / (N + 1) (_factors)
    arrivals: np.ndarray  # the row of each of the layer's arrivals
    out: slice  # the table columns the rows are solved into
    departures: np.ndarray  # the column each of the layer's departures reads
    last: np.ndarray  # the column of each pool's last row


def _plan(n, w: int, pool, t, na: int, first: int) -> List[Rows]:
    """Lay out one chunk's recurrence rows for the pools of every layer, w a
    layer, as the columns `first` on of a mass table whose first len(n) are
    the pools' averages, at counts n before the chunk. The events are na
    arrivals, then departures, each listed layer by layer, at times t in
    pools `pool`, indices into n. A layer's rows start at a block boundary
    with one row per pool, which sets y to its average, then its arrivals
    in time order: one of x at count N sets y <- N/(N+1) * y + x/(N+1), and
    a departure, after the arrivals at its instant, carries the y of the
    last row before it. Unread rows at count 2 fill the last block. The
    caller sets the arrivals' rows' sources.
    """
    h = len(n)
    # Times are >= +0.0, so their bits sort as they do; the low bit puts an
    # arrival before a departure at one instant. The pool sort is a radix sort.
    key = t.view(np.uint64) << np.uint64(1)
    key[na:] += np.uint64(1)
    order = np.argsort(key)
    pool = pool.astype(np.min_scalar_type(h - 1), copy=False)
    by_pool = pool.take(order)
    stable = np.argsort(by_pool, kind="stable")
    order = order.take(stable)
    by_pool = by_pool.take(stable)
    arrived = order < na
    seen = np.cumsum(arrived)  # the arrivals up to each event
    apos = np.flatnonzero(arrived)
    a_cnt = np.bincount(pool[:na], minlength=h)
    d_cnt = np.bincount(pool[na:], minlength=h)
    a_end, d_end = np.cumsum(a_cnt), np.cumsum(d_cnt)
    a_first = a_end - a_cnt
    size = w + a_end[w - 1::w] - a_first[::w]
    pad = -size % _BLOCK
    base = np.arange(h) + np.repeat(np.cumsum(pad) - pad, w)
    # Pool p's first row is base[p] + a_first[p]. An event with `seen`
    # arrivals up to it, in p, is at (an arrival) or reads (a departure)
    # row base[p] + seen; the i-th arrival, at q, meets count
    # n - a_first + d_first + 2i - q + 1.
    row = base.take(by_pool) + seen
    src = np.repeat(np.arange(0, h, w), size + pad)
    src[base + a_first] = np.arange(h)
    count_in = np.full(len(src), 2.0)
    count_in[base + a_first] = 1  # a first row's a is 0, and its b the average
    met = np.repeat(n - a_first + d_end - d_cnt + 1, a_cnt) + 2 * np.arange(na) - apos
    count_in[row.take(apos)] = met
    at = np.empty(len(order), np.int64)
    at[order] = row
    prod, head, segments, scale, whole = _factors((count_in - 1) / count_in)
    r = [0] + np.cumsum(size + pad).tolist()
    a = [0] + a_end[w - 1::w].tolist()
    d = [na] + (na + d_end[w - 1::w]).tolist()
    last = base + a_end + first
    plan = []
    for j, (lo, hi) in enumerate(zip(r, r[1:])):
        blocks = slice(lo // _BLOCK, hi // _BLOCK)
        inner = [(s - lo, e - lo) for s, e in segments if lo <= s < hi]
        plan.append(Rows(src[lo:hi], count_in[lo:hi],
                         (prod[blocks], head[blocks], inner, scale[blocks], whole[blocks]),
                         at[a[j]:a[j + 1]] - lo, slice(first + lo, first + hi),
                         at[d[j]:d[j + 1]] + first, last[j * w:(j + 1) * w]))
    return plan


def _solve_pools(mass, rows: Rows) -> None:
    """Solve one layer's pools over one chunk (_plan) into its table columns."""
    b = mass.take(rows.src, axis=1)
    b /= rows.count_in
    mass[:, rows.out] = _scan(rows.scan, b)


def simulate_label_flow(cfg: SimConfig) -> LabelFlowResult:
    """Run one seeded repetition and return the full label accounting.

    Every draw comes from one np.random.default_rng(cfg.seed), in a fixed
    order: the corrupt set, the stationary fill, each chunk's draws in turn
    (draw_chunks) and the final mix. A challenge sender's payload is
    labeled while the sender has a buffered message, one a second from
    burn_in on (_buffered). Events up to burn_in + run_time take part. The
    messages in flight are (times, route), a column each: the arrival at
    each layer, the last one the departure from the last; the mix at each
    layer, then the layers it enters and leaves the network at. A chunk's
    events are their times within it at the layers between. The S0 and S1
    shares each arrived with follow the pools' averages in `mass`. They are
    in the order they entered the network: those still in flight from the
    chunk before, then the chunk's emissions, then its loops.
    """
    rng = default_rng(cfg.seed)
    l, w = cfg.layers, cfg.nodes_per_layer
    h = l * w
    end = cfg.burn_in + cfg.run_time
    corrupt = corrupt_mixes(cfg, rng)
    is_corrupt = np.isin(np.arange(h), list(corrupt))
    corrupt_layer = is_corrupt.reshape(l, w).any(axis=1).tolist()
    layers = np.arange(l)[:, None]
    small_int = np.min_scalar_type(max(h, l + 1))

    def enter(t, delay, mix, layer, last) -> tuple:
        """Messages entering `layer` at t; the delays are summed in order."""
        times = np.empty((l + 1, len(t)))
        times[0] = t
        for j in range(l):
            np.add(times[j], delay[j], out=times[j + 1])
        route = np.empty((l + 2, len(t)), small_int)
        route[:l], route[l], route[l + 1] = mix, layer, last
        return times, route

    fill = stationary_fill(cfg, rng)
    emitted, taken = [0, 0, len(fill.mix)], [0, 0]
    flight = enter(np.zeros(len(fill.mix)), fill.delay.T, fill.route.T, fill.mix // w, l - 1)
    # the pools' averages, then the shares of the messages in flight
    mass = np.zeros((2, h + len(fill.mix)))
    n = np.zeros(h, np.int64)
    delivered, n_delivered = np.zeros(2), 0
    start = 0.0

    for chunk in draw_chunks(cfg, rng):
        parts = [flight, enter(chunk.t, chunk.delay.T, chunk.route.T, 0, l - 1)]
        if len(chunk.loop_mix):  # leaving the network from the pool they loop into
            layer = chunk.loop_mix // w
            delay = np.select([layers < layer, layers == layer], [0.0, chunk.loop_delay], np.inf)
            parts.append(enter(chunk.loop_t, delay, chunk.loop_mix, layer, layer))
        times, route = (np.concatenate(x, axis=1) for x in zip(*parts))
        size = times.shape[1]
        cur = np.arange(h, h + size)  # the mass table column of each message
        last = route[l + 1]
        # arrivals at layer j at times[j], departures from it at times[j + 1]
        now = (times >= start) & (times <= end if chunk.stop == end else times < chunk.stop)
        passes = (layers >= route[l]) & (layers <= last)
        arr_ev, dep_ev = np.flatnonzero(now[:-1] & passes), np.flatnonzero(now[1:] & passes)
        events = np.concatenate((arr_ev, dep_ev))
        pool = route.ravel().take(events)
        na = len(arr_ev)
        a = np.searchsorted(arr_ev, np.arange(l + 1) * size).tolist()
        d = np.searchsorted(dep_ev, np.arange(l + 1) * size).tolist()

        # The mass table: the averages, the messages (the new ones enter
        # with no label) and room for the solved rows.
        flown, first = mass.shape[1], h + size
        table = np.empty((2, first + na + l * (w + _BLOCK)))
        table[:, :flown] = mass
        table[:, flown:first] = 0.0
        mass = table
        emitted[2] += len(chunk.t) + len(chunk.loop_mix)  # less the labeled
        for i, sender in enumerate(cfg.challenge):
            mine = np.flatnonzero(chunk.payload & (chunk.sender == sender))
            # a handful a chunk: sorted in time, then in draw order
            payloads = sorted(zip(chunk.t[mine].tolist(), mine.tolist()))
            got, taken[i] = _buffered([t for t, _ in payloads], cfg, taken[i])
            labeled = [flown + m for (_, m), g in zip(payloads, got) if g]
            mass[i, labeled] = 1.0
            emitted[i] += len(labeled)
            emitted[2] -= len(labeled)

        plan, kept = None, np.arange(h)  # the column of each pool's average
        for j in range(l):
            arriving = cur.take(arr_ev[a[j]:a[j + 1]] - j * size)
            leaving = dep_ev[d[j]:d[j + 1]] - j * size
            out = pool[na + d[j]:na + d[j + 1]]  # the pools' averages
            # a layer with no label keeps them at +0.0, and is not solved
            if mass[:, j * w:(j + 1) * w].any() or mass.take(arriving, axis=1).any():
                if plan is None:  # the first layer with a label lays out all
                    events[na:] += size  # a departure from j is at times[j + 1]
                    plan = _plan(n, w, pool, times.ravel().take(events), na, first)
                rows = plan[j]
                rows.src[rows.arrivals] = arriving
                # every pool of the layer is solved; a corrupt one's average
                # is never read, and its messages leave with their own masses
                _solve_pools(mass, rows)
                out = rows.departures
                kept[j * w:(j + 1) * w] = rows.last
            # only a loop leaves the network before the last layer
            gone = leaving if j + 1 == l else leaving[last.take(leaving) == j]
            if corrupt_layer[j]:
                honest = ~is_corrupt.take(pool[na + d[j]:na + d[j + 1]])
                leaving, out = leaving[honest], out[honest]
            cur[leaving] = out
            delivered += mass.take(cur.take(gone), axis=1).sum(axis=1)
            n_delivered += len(gone)
        n += np.bincount(pool[:na], minlength=h) - np.bincount(pool[na:], minlength=h)
        keep = np.flatnonzero(~now[last + 1, np.arange(size)])  # still in flight
        mass = mass.take(np.concatenate((kept, cur.take(keep))), axis=1)
        flight = (times.take(keep, 1), route.take(keep, 1))
        start = chunk.stop

    avg, (times, route) = mass[:, :h], flight
    at = (times[1:] <= end).sum(axis=0)  # the layer each message is held at
    held = is_corrupt[route[at, np.arange(len(at))]]
    n[is_corrupt] = 0
    candidates = [m for m in range(h - w, h) if not is_corrupt[m] and n[m] > 0]
    if not candidates:
        final_mix, final_pool, eps = None, None, math.nan
    else:
        final_mix = candidates[int(rng.integers(len(candidates)))]
        # a share of 1 may come out of the solve a few ulps above it
        p_S0, p_S1 = np.minimum(avg[:, final_mix], 1.0).tolist()
        final_pool = LabelDistribution(p_S0, p_S1, max(0.0, 1.0 - p_S0 - p_S1))
        eps = epsilon_of(p_S0, p_S1)

    def shares(s0, s1, count) -> tuple:  # the unlabeled share is what remains
        return s0, s1, count - s0 - s1

    masses = [shares(*m, c) for m, c in zip((n[:, None] * avg.T).tolist(), n.tolist())]
    in_corrupt = shares(*mass[:, h:][:, held].sum(axis=1).tolist(), int(held.sum()))
    return LabelFlowResult(eps, final_mix, final_pool, corrupt, tuple(emitted), masses, n.tolist(),
                           in_corrupt, shares(*delivered.tolist(), n_delivered))


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
