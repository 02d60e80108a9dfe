"""Label-flow simulation of sender indistinguishability.

Two challenge senders feed tagged payload messages into a stratified network
while everyone else supplies untagged traffic. Inside an honest mix the tags
blur: every departure carries the pool's average label distribution, which is
exactly the per-message match weighting for an exponential pool, so aggregate
masses are all the state a pool needs. Corrupt mixes forward each message's
own distribution untouched. The observable at the end is how far apart the
two labels remain in a last-layer pool, summarized as |ln(p_S0 / p_S1)|.

Pools start from their stationary occupancy (Poisson counts, exponential
residuals) instead of an empty network, so the configured burn-in only needs
to wash out scheduling artifacts, not grow the pools.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.pools import epsilon_of
from ..bounds import bounded_events, count, positive
from ..client import Rates


class ChallengeSendersOffline(ValueError):
    pass


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
        count("U", self.U, lo=2)
        count("layers", self.layers, lo=1)
        count("nodes_per_layer", self.nodes_per_layer, lo=1)
        if not 0.0 <= self.corrupt_fraction < 1.0:
            raise ValueError("corrupt_fraction must lie in [0, 1)")
        positive("burn_in", self.burn_in)
        positive("run_time", self.run_time)
        if self.rates.lambda_P <= 0:
            raise ValueError("challenge traffic needs a positive payload rate")
        s0, s1 = self.challenge
        if s0 == s1 or not (0 <= s0 < self.U and 0 <= s1 < self.U):
            raise ChallengeSendersOffline(f"challenge senders {s0}, {s1} not distinct senders")
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


_LABELS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # S0, S1, unlabeled
_UNLABELED = _LABELS[2]
# Heap entries are (t, seq, mix, layer, path, held): a departure from mix, or
# with layer _LOOP the mix's next loop injection. path[j] is the mix the
# message visits at layer j, from its current layer on; a mix loop has no
# path (None). held is the label mass a corrupt mix holds for the message;
# it is None for a message in an honest pool, whose label is the pool's
# average at departure.
_LOOP = -1
_NEVER = (math.inf, math.inf)  # stays in the heap, later than every event


def simulate_label_flow(cfg: SimConfig) -> LabelFlowResult:
    """Run one seeded repetition and return the full label accounting.

    The event loop draws from rng in a fixed order, so a seed fixes every
    field of the result. It inlines two stdlib draws exactly as
    random.Random computes them: expovariate(rate) is
    -log(1.0 - random()) / rate, and randrange(n) is getrandbits(k) for
    k = n.bit_length(), redrawn while it is >= n.

    Events run in (t, seq) order, one heap's order: seq is unique, so the
    order is total and ties break as one heap holding every event would
    break them. A departure relayed to the next layer, and a loop injection,
    replace the heap head with the arrival's departure (heapreplace) instead
    of popping the head and pushing the new entry. Both leave the heap the
    same set of entries, and the head was its minimum, so every later event,
    and every draw, comes in the same order; replacing sifts once, where pop
    and push sift twice.
    """
    rng = random.Random(cfg.seed)
    fill_rng = np.random.default_rng(cfg.seed)
    l, w = cfg.layers, cfg.nodes_per_layer
    n_mixes = l * w
    rates = cfg.rates
    mu = rates.mu
    lambda_M = rates.lambda_M

    n_corrupt = round(cfg.corrupt_fraction * n_mixes)
    last_layer = range((l - 1) * w, n_mixes)
    while True:
        corrupt = frozenset(rng.sample(range(n_mixes), n_corrupt))
        if any(m not in corrupt for m in last_layer):
            break
    is_corrupt = [m in corrupt for m in range(n_mixes)]

    s0, s1 = cfg.challenge
    per_sender = rates.lambda_P + rates.lambda_L + rates.lambda_D
    total_rate = cfg.U * per_sender
    p_payload = rates.lambda_P / per_sender
    end = cfg.burn_in + cfg.run_time

    pool0 = [0.0] * n_mixes
    pool1 = [0.0] * n_mixes
    poolu = [0.0] * n_mixes
    count = [0] * n_mixes
    in_corrupt = [0.0, 0.0, 0.0]
    delivered = [0.0, 0.0, 0.0]
    emitted = [0, 0, 0]

    rand = rng.random
    getrandbits = rng.getrandbits
    log = math.log
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    last = l - 1
    layer_starts = range(0, n_mixes, w)
    n_users = cfg.U
    user_bits = n_users.bit_length()
    mix_bits = w.bit_length()
    heap: List[tuple] = [_NEVER]
    seq = 0

    # Stationary fill: each mix sees the whole client volume spread over its
    # layer plus its own loop stream, so occupancy is Poisson(rate/mu) with
    # Exp(mu) residual holding times (memoryless). Every filled message is
    # unlabeled and the pools start empty, so its arrival adds 1.0 to the
    # untagged mass alone.
    per_mix_rate = total_rate / w + rates.lambda_M
    for mix in range(n_mixes):
        layer = mix // w
        for _ in range(int(fill_rng.poisson(per_mix_rate / mu))):
            path = [0] * l
            path[layer] = mix
            for j in range(layer + 1, l):
                r = getrandbits(mix_bits)
                while r >= w:
                    r = getrandbits(mix_bits)
                path[j] = j * w + r
            emitted[2] += 1
            if is_corrupt[mix]:
                in_corrupt[2] += 1.0
                held = _UNLABELED
            else:
                poolu[mix] += 1.0
                count[mix] += 1
                held = None
            heappush(heap, (-log(1.0 - rand()) / mu, seq, mix, layer, tuple(path), held))
            seq += 1

    # The pending emission and the next refill stay outside the heap, and
    # (next_t, next_seq) is whichever of the two comes first. Of two events
    # at one instant the one armed later has the larger seq and runs second.
    emit_t, emit_seq = -log(1.0 - rand()) / total_rate, seq
    refill_t, refill_seq = cfg.burn_in, seq + 1
    seq += 2
    next_t, next_seq = (refill_t, refill_seq) if refill_t < emit_t else (emit_t, emit_seq)
    if lambda_M > 0:
        for mix in range(n_mixes):
            heappush(heap, (-log(1.0 - rand()) / lambda_M, seq, mix, _LOOP, None, None))
            seq += 1
    b0 = b1 = 0  # payloads the challenge senders have buffered

    while True:
        head = heap[0]
        t = head[0]
        if t < next_t or (t == next_t and head[1] < next_seq):
            if t > end:
                break
            _, _, mix, layer, path, held = head
            if layer == _LOOP:
                emitted[2] += 1
                layer = last
                d0, d1, du = _UNLABELED
            else:
                if held is None:
                    c = count[mix]
                    d0 = pool0[mix] / c
                    d1 = pool1[mix] / c
                    du = poolu[mix] / c
                    pool0[mix] -= d0
                    pool1[mix] -= d1
                    poolu[mix] -= du
                    count[mix] = c - 1
                else:
                    d0, d1, du = held
                    in_corrupt[0] -= d0
                    in_corrupt[1] -= d1
                    in_corrupt[2] -= du
                if layer == last:
                    delivered[0] += d0
                    delivered[1] += d1
                    delivered[2] += du
                    heappop(heap)
                    continue
                layer += 1
                mix = path[layer]
        else:
            t = next_t
            if t > end:
                break
            if next_seq == refill_seq:
                b0 += 1
                b1 += 1
                if t + 1.0 < end:
                    refill_t, refill_seq = t + 1.0, seq
                    seq += 1
                else:
                    refill_t = math.inf
                next_t, next_seq = (refill_t, refill_seq) if refill_t < emit_t else (emit_t, emit_seq)
                continue
            r = getrandbits(user_bits)
            while r >= n_users:
                r = getrandbits(user_bits)
            label = 2
            if rand() < p_payload:
                if r == s0 and b0 > 0:
                    b0 -= 1
                    label = 0
                elif r == s1 and b1 > 0:
                    b1 -= 1
                    label = 1
            emitted[label] += 1
            d0, d1, du = _LABELS[label]
            hops = []
            for start in layer_starts:
                r = getrandbits(mix_bits)
                while r >= w:
                    r = getrandbits(mix_bits)
                hops.append(start + r)
            path = tuple(hops)
            layer, mix = 0, path[0]

        # The arrival of (d0, d1, du) at mix. A loop injection (path None)
        # and a relayed departure (layer > 0) replace the head they came
        # from; an emission, at layer 0, comes from outside the heap. Each
        # stream re-arms after the arrival's draw.
        if is_corrupt[mix]:
            in_corrupt[0] += d0
            in_corrupt[1] += d1
            in_corrupt[2] += du
            held = (d0, d1, du)
        else:
            pool0[mix] += d0
            pool1[mix] += d1
            poolu[mix] += du
            count[mix] += 1
            held = None
        departure = (t - log(1.0 - rand()) / mu, seq, mix, layer, path, held)
        seq += 1
        if path is None:
            heapreplace(heap, departure)
            heappush(heap, (t - log(1.0 - rand()) / lambda_M, seq, mix, _LOOP, None, None))
            seq += 1
        elif layer:
            heapreplace(heap, departure)
        else:
            heappush(heap, departure)
            emit_t, emit_seq = t - log(1.0 - rand()) / total_rate, seq
            seq += 1
            next_t, next_seq = (refill_t, refill_seq) if refill_t <= emit_t else (emit_t, emit_seq)

    candidates = [m for m in last_layer if not is_corrupt[m] and count[m] > 0]
    if not candidates:
        final_mix, final_pool, eps = None, None, math.nan
    else:
        final_mix = candidates[rng.randrange(len(candidates))]
        c = count[final_mix]
        final_pool = LabelDistribution(
            pool0[final_mix] / c, pool1[final_mix] / c, poolu[final_mix] / c
        )
        eps = epsilon_of(final_pool.p_S0, final_pool.p_S1)

    return LabelFlowResult(
        epsilon=eps,
        final_mix=final_mix,
        final_pool=final_pool,
        corrupt=corrupt,
        emitted=tuple(emitted),
        pool_masses=[(pool0[m], pool1[m], poolu[m]) for m in range(n_mixes)],
        pool_counts=list(count),
        in_corrupt=tuple(in_corrupt),
        delivered=tuple(delivered),
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


def run_epsilon_batch(cfg: SimConfig, reps: int) -> EpsilonBatch:
    """Average epsilon over reps seeded runs, skipping degenerate ones.

    A repetition whose final pool lacks one of the labels entirely yields an
    infinite epsilon and is excluded from the moments, like the nan from an
    empty candidate pool; n_finite reports how many repetitions counted and
    n_inf how many were infinite, the adversary's best case.
    """
    count("reps", reps, lo=1)
    bounded_events(f"{reps} repetitions", reps * cfg.expected_events)
    values = [run_epsilon_experiment(replace(cfg, seed=cfg.seed + i)) for i in range(reps)]
    finite = [v for v in values if math.isfinite(v)]
    n_inf = sum(map(math.isinf, values))
    if not finite:
        return EpsilonBatch(math.nan, math.nan, 0, n_inf, values)
    mean = sum(finite) / len(finite)
    var = sum((v - mean) ** 2 for v in finite) / max(len(finite) - 1, 1)
    return EpsilonBatch(mean, math.sqrt(var), len(finite), n_inf, values)
