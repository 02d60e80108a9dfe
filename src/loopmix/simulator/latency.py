"""End-to-end latency model: a sum of independent exponential hop delays.

With `hops` stops at mean delay 1/mu each, total delay is Gamma(hops, mu);
an optional per-hop processing constant shifts the whole distribution.
"""

from __future__ import annotations

import numpy as np

from ..bounds import bounded_events, count, non_negative, positive


def run_latency_experiment(
    mu: float,
    hops: int,
    n_messages: int,
    seed: int,
    processing_s: float = 0.0,
) -> np.ndarray:
    """Sample n_messages end-to-end latencies over a fixed-length path."""
    positive("mu", mu)
    count("hops", hops, lo=1)
    count("n_messages", n_messages, lo=1)
    non_negative("processing_s", processing_s)
    count("seed", seed)
    bounded_events("n_messages * hops", n_messages * hops)
    rng = np.random.default_rng(seed)
    delays = rng.exponential(1.0 / mu, size=(n_messages, hops))
    return delays.sum(axis=1) + hops * processing_s
