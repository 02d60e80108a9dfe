"""Single-mix entropy experiment.

Feeds one pool with Poisson traffic and runs its event log through
analysis.montecarlo.departure_entropies_incremental: each emission is a
choice between the messages that arrived since the previous emission
(uniform) and the older residents (carrying the accumulated entropy). The
steady-state level grows with the arrival rate and with the mean delay, since
both fatten the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.montecarlo import departure_entropies_incremental
from ..bounds import bounded_events, count, positive
from .queues import DEPARTURE, pool_events


@dataclass
class EntropyRun:
    steady_mean: Optional[float]
    series: List[Tuple[float, float]] = field(repr=False)


def run_entropy_experiment(
    lambda_in: float, mu: float, duration: float, seed: int
) -> EntropyRun:
    """Simulate one mix and return (departure_time, entropy) per emission.

    steady_mean averages the entropy over departures in the second half of
    the run, past the initial fill-up transient; it is None when no
    departure falls there, as an entropy of 0 would claim a fully linkable
    pool where nothing was observed.
    """
    positive("lambda_in", lambda_in)
    positive("mu", mu)
    positive("duration", duration)
    count("seed", seed)
    bounded_events("lambda_in * duration", lambda_in * duration)

    departures: List[float] = []

    def kinds():
        for t, kind, _ in pool_events(lambda_in, mu, duration, random.Random(seed)):
            if kind == DEPARTURE:
                departures.append(t)
            yield kind

    entropies = departure_entropies_incremental(kinds())
    series = list(zip(departures, entropies))

    tail = [h for (t, h) in series if t >= duration / 2]
    steady = sum(tail) / len(tail) if tail else None
    return EntropyRun(steady_mean=steady, series=series)
