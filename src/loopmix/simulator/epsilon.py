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
    record_events: bool = False

    def __post_init__(self):
        if self.U < 2:
            raise ValueError("need at least two senders")
        if self.layers < 1 or self.nodes_per_layer < 1:
            raise ValueError("topology must be non-empty")
        if not 0.0 <= self.corrupt_fraction < 1.0:
            raise ValueError("corrupt_fraction must lie in [0, 1)")
        if self.burn_in <= 0 or self.run_time <= 0:
            raise ValueError("burn_in and run_time must be positive")
        if self.rates.lambda_P <= 0:
            raise ValueError("challenge traffic needs a positive payload rate")


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
    events: List[tuple] = field(default_factory=list, repr=False)


_EMIT, _DEPART, _REFILL, _MIXLOOP = 0, 1, 2, 3


def simulate_label_flow(cfg: SimConfig) -> LabelFlowResult:
    """Run one seeded repetition and return the full label accounting."""
    rng = random.Random(cfg.seed)
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
    if s0 == s1 or not (0 <= s0 < cfg.U and 0 <= s1 < cfg.U):
        raise ChallengeSendersOffline(f"challenge senders {s0}, {s1} not distinct senders")

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
    buffers = {s0: 0, s1: 0}
    events: List[tuple] = []

    heap: List[tuple] = []
    seq = 0

    def push(t: float, kind: int, data) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, data))
        seq += 1

    def arrive(t: float, mix: int, layer: int, path, dist) -> None:
        if mix in corrupt:
            in_corrupt[0] += dist[0]
            in_corrupt[1] += dist[1]
            in_corrupt[2] += dist[2]
            push(t + rng.expovariate(mu), _DEPART, (mix, layer, path, dist))
        else:
            pool0[mix] += dist[0]
            pool1[mix] += dist[1]
            poolu[mix] += dist[2]
            count[mix] += 1
            push(t + rng.expovariate(mu), _DEPART, (mix, layer, path, None))
            if cfg.record_events:
                events.append(("A", mix, dist))

    # Stationary fill: each mix sees the whole client volume spread over its
    # layer plus its own loop stream, so occupancy is Poisson(rate/mu) with
    # Exp(mu) residual holding times (memoryless).
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

    push(rng.expovariate(total_rate), _EMIT, None)
    push(cfg.burn_in, _REFILL, None)
    if rates.lambda_M > 0:
        for mix in range(n_mixes):
            push(rng.expovariate(rates.lambda_M), _MIXLOOP, mix)

    while heap and heap[0][0] <= end:
        t, _, kind, data = heapq.heappop(heap)
        if kind == _DEPART:
            mix, layer, path, dist = data
            if dist is None:
                c = count[mix]
                out = (pool0[mix] / c, pool1[mix] / c, poolu[mix] / c)
                pool0[mix] -= out[0]
                pool1[mix] -= out[1]
                poolu[mix] -= out[2]
                count[mix] = c - 1
                if cfg.record_events:
                    events.append(("D", mix))
            else:
                in_corrupt[0] -= dist[0]
                in_corrupt[1] -= dist[1]
                in_corrupt[2] -= dist[2]
                out = dist
            if path is None or layer == l - 1:
                delivered[0] += out[0]
                delivered[1] += out[1]
                delivered[2] += out[2]
            else:
                nxt = layer + 1
                arrive(t, nxt * w + path[nxt], nxt, path, out)
        elif kind == _EMIT:
            sender = rng.randrange(cfg.U)
            label = 2
            if (
                rng.random() < p_payload
                and sender in buffers
                and buffers[sender] > 0
            ):
                buffers[sender] -= 1
                label = 0 if sender == s0 else 1
            emitted[label] += 1
            dist = (1.0, 0.0, 0.0) if label == 0 else (0.0, 1.0, 0.0)
            if label == 2:
                dist = (0.0, 0.0, 1.0)
            path = tuple(rng.randrange(w) for _ in range(l))
            arrive(t, path[0], 0, path, dist)
            push(t + rng.expovariate(total_rate), _EMIT, None)
        elif kind == _REFILL:
            buffers[s0] += 1
            buffers[s1] += 1
            if t + 1.0 < end:
                push(t + 1.0, _REFILL, None)
        else:
            mix = data
            emitted[2] += 1
            arrive(t, mix, l - 1, None, (0.0, 0.0, 1.0))
            push(t + rng.expovariate(rates.lambda_M), _MIXLOOP, mix)

    candidates = [m for m in last_layer if m not in corrupt and count[m] > 0]
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
        events=events,
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
    values = [run_epsilon_experiment(replace(cfg, seed=cfg.seed + i)) for i in range(reps)]
    finite = [v for v in values if math.isfinite(v)]
    n_inf = sum(map(math.isinf, values))
    if not finite:
        return EpsilonBatch(math.nan, math.nan, 0, n_inf, values)
    mean = sum(finite) / len(finite)
    var = sum((v - mean) ** 2 for v in finite) / max(len(finite) - 1, 1)
    return EpsilonBatch(mean, math.sqrt(var), len(finite), n_inf, values)
