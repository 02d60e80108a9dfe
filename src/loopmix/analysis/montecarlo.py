"""Independent estimators for the closed-form results.

Each function here re-derives a quantity by brute force: either sampling the
underlying random process (exponential clock races, Poisson pools) or walking
an event log and computing the exact match distribution directly. None of
them reuse the closed forms they are meant to check, except
departure_entropies_incremental: that is the update rule under check, kept
beside its reference departure_entropies_exact.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..bounds import bounded_events, count, non_negative, positive
from .pools import PoolObservation, entropy_step

ARRIVAL = "A"
DEPARTURE = "D"


def pool_race_estimate_with_loops(
    n: int,
    k: int,
    l: int,
    mu: float,
    lambda_M: float,
    trials: int,
    rng: np.random.Generator,
) -> Tuple[float, Optional[float], float]:
    """Empirical (p_initial, p_late, p_loop) for the observed-pool race.

    Simulates n residents with iid Exp(mu) delays, observes once n-k of them
    have left, resamples the survivors' remaining clocks (memoryless) along
    with l fresh arrivals, and races everyone and one Exp(lambda_M) clock for
    the mix's next self-loop emission, which never wins when lambda_M is 0.
    The tracked original is slot 0; it can only win if it outlived the
    observation point. p_late is None when there is no late arrival (l = 0).
    """
    PoolObservation(n, k, l)
    positive("mu", mu)
    non_negative("lambda_M", lambda_M)
    count("trials", trials, lo=1)
    bounded_events("trials * (n + k + l + 1)", trials * (n + k + l + 1))
    delays = rng.exponential(1.0 / mu, size=(trials, n))
    if k == n:
        observe_at = np.zeros(trials)
    else:
        observe_at = np.partition(delays, n - k - 1, axis=1)[:, n - k - 1]
    target_survives = delays[:, 0] > observe_at

    clocks = rng.exponential(1.0 / mu, size=(trials, k + l))
    if lambda_M > 0:
        loop_clock = rng.exponential(1.0 / lambda_M, size=(trials, 1))
    else:
        loop_clock = np.full((trials, 1), np.inf)
    race = np.hstack([clocks, loop_clock])
    winner = np.argmin(race, axis=1)
    p_initial = float(np.mean(target_survives & (winner == 0)))
    p_late = float(np.mean(winner == k)) if l > 0 else None
    p_loop = float(np.mean(winner == k + l))
    return p_initial, p_late, p_loop


def blocking_estimate(
    s: float,
    mu: float,
    lambda_M: float,
    lambda_R: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical chance the isolated target is the next emission.

    Draws the stationary pool each mix holds when real traffic is split s
    ways (real plus loop arrivals, Exp(mu) residence), then races the
    target's clock against the minimum of the residents' clocks.
    """
    if not 1 <= s < math.inf:
        raise ValueError("splitting factor s must be at least 1 and finite")
    positive("mu", mu)
    non_negative("lambda_M", lambda_M)
    non_negative("lambda_R", lambda_R)
    count("trials", trials, lo=1)
    bounded_events("3 * trials", 3 * trials)
    pool = rng.poisson((lambda_R / s + lambda_M) / mu, size=trials)
    target = rng.exponential(1.0 / mu, size=trials)
    # min of N iid Exp(mu) clocks is Exp(N*mu); empty pools never compete
    unit = rng.exponential(1.0, size=trials)
    with np.errstate(divide="ignore"):
        competitor = np.where(pool > 0, unit / (pool * mu), np.inf)
    return float(np.mean(target < competitor))


def departure_entropies_exact(events: Sequence[str]) -> List[float]:
    """Exact emission entropy at every departure of an arrival/departure log.

    Tracks, for each arrival ever seen, the probability it is still resident;
    the next departure picks uniformly among residents, so message a leaves
    with probability w_a / pool_size. Entropy is computed from that full
    distribution from scratch, making this the reference for the incremental
    update rule.
    """
    weights: List[float] = []
    pool = 0
    out: List[float] = []
    for ev in events:
        if ev == ARRIVAL:
            weights.append(1.0)
            pool += 1
        elif ev == DEPARTURE:
            if pool < 1:
                raise ValueError("departure from an empty pool")
            h = 0.0
            for w in weights:
                p = w / pool
                if p > 0.0:
                    h -= p * math.log2(p)
            out.append(h)
            keep = 1.0 - 1.0 / pool
            weights = [w * keep for w in weights]
            pool -= 1
        else:
            raise ValueError(f"unknown event {ev!r}")
    return out


def departure_entropies_incremental(events: Iterable[str]) -> List[float]:
    """Same series via the incremental update rule (pools.entropy_step).

    This is the series `sim entropy` reports; departure_entropies_exact is
    its reference.
    """
    h = 0.0
    fresh = 0
    held = 0
    out: List[float] = []
    for ev in events:
        if ev == ARRIVAL:
            fresh += 1
        elif ev == DEPARTURE:
            if fresh + held < 1:
                raise ValueError("departure from an empty pool")
            h = entropy_step(h, fresh, held)
            out.append(h)
            held = fresh + held - 1
            fresh = 0
        else:
            raise ValueError(f"unknown event {ev!r}")
    return out
