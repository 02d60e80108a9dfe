"""Steady-state behaviour of one mix pool under Poisson load.

Drives the exact MixPool container the live node uses with Poisson(lambda)
arrivals and Exp(mu) holding times, recording the time-averaged pool size,
point-in-time size samples, and departure instants. At steady state the pool
should sit at lambda/mu on average with a Poisson-shaped size distribution
and Poisson output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..analysis.montecarlo import ARRIVAL, DEPARTURE
from ..bounds import bounded_events, count, positive
from ..mixnode import MixPool

# pool sizes are sampled at t = 1, 2, …; for 1/mu well below that, samples
# are nearly independent draws from the stationary law
SAMPLE_EVERY = 1.0


def pool_events(
    lambda_in: float, mu: float, duration: float, rng
) -> Iterator[Tuple[float, str, int]]:
    """Yield (time, ARRIVAL or DEPARTURE, pool size after it) for one MixPool.

    Arrivals are Poisson(lambda_in) and each holds for Exp(mu); the stream ends
    before the first event past duration. A departure wins a tie with an
    arrival. Each arrival draws its holding time, then the next arrival gap.
    """
    pool = MixPool()
    next_arrival = rng.expovariate(lambda_in)
    while True:
        release = pool.peek_time()
        departs = release is not None and release <= next_arrival
        t = release if departs else next_arrival
        if t > duration:
            return
        if departs:
            pool.next_release(t)
            yield t, DEPARTURE, len(pool)
        else:
            pool.add(t + rng.expovariate(mu), None)
            next_arrival = t + rng.expovariate(lambda_in)
            yield t, ARRIVAL, len(pool)


@dataclass
class PoolRun:
    time_avg_size: float
    sampled_sizes: List[int] = field(repr=False)
    departure_times: List[float] = field(repr=False)


def run_pool_experiment(
    lambda_in: float,
    mu: float,
    duration: float,
    seed: int,
) -> PoolRun:
    """Simulate one pool for `duration` time units.

    sampled_sizes holds the pool size at t = SAMPLE_EVERY, 2*SAMPLE_EVERY, …
    """
    positive("lambda_in", lambda_in)
    positive("mu", mu)
    positive("duration", duration)
    count("seed", seed)
    bounded_events("lambda_in * duration", lambda_in * duration)

    area = 0.0
    last_t = 0.0
    size = 0
    next_sample = SAMPLE_EVERY
    sizes: List[int] = []
    departures: List[float] = []

    for t, kind, after in pool_events(lambda_in, mu, duration, random.Random(seed)):
        while next_sample <= t:
            sizes.append(size)
            next_sample += SAMPLE_EVERY
        area += size * (t - last_t)
        last_t, size = t, after
        if kind == DEPARTURE:
            departures.append(t)

    while next_sample <= duration:
        sizes.append(size)
        next_sample += SAMPLE_EVERY
    area += size * (duration - last_t)

    return PoolRun(area / duration, sizes, departures)
