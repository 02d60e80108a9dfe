"""Exact match probabilities and entropy bookkeeping for a Poisson pool.

An observer watches a mix that initially held n messages, sees k of those
originals still inside plus l later arrivals, and asks how likely the next
emission is any particular one of them. Exponential delays make every
resident message equally likely to leave next, which collapses the answer to
counting; the loop-aware variant adds the mix's own loop stream as one more
competing Poisson clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ..bounds import count, non_negative, positive


@dataclass(frozen=True)
class PoolObservation:
    """Snapshot of one mix pool.

    n_initial messages were mixed together when observation began,
    k_remaining of them are still inside, and l_late arrived afterwards.
    """

    n_initial: int
    k_remaining: int
    l_late: int

    def __post_init__(self):
        count("n_initial", self.n_initial, lo=1)
        count("k_remaining", self.k_remaining, lo=1, hi=self.n_initial)
        count("l_late", self.l_late)


class PoolProbs(NamedTuple):
    p_initial: float
    p_late: float


class PoolLoopProbs(NamedTuple):
    p_initial: float
    p_late: float
    p_loop: float
    p_noloop: float


def pool_match_prob(obs: PoolObservation) -> PoolProbs:
    """Chance the next emission is one given original or one given late entry.

    The originals are exchangeable, so a specific one is still present with
    probability k/n and then wins the (k+l)-way race uniformly.
    """
    resident = obs.k_remaining + obs.l_late
    return PoolProbs(
        obs.k_remaining / (obs.n_initial * resident),
        1.0 / resident,
    )


def pool_match_prob_with_loops(
    obs: PoolObservation, mu: float, lambda_M: float
) -> PoolLoopProbs:
    """Same race with the mix's self-loop stream as an extra emission source.

    Each resident message fires at rate mu and loop output adds rate
    lambda_M, so the next emission splits the total (k+l)*mu + lambda_M.
    lambda_M = 0 reduces to pool_match_prob, to within rounding.
    """
    positive("mu", mu)
    non_negative("lambda_M", lambda_M)
    resident = obs.k_remaining + obs.l_late
    total = resident * mu + lambda_M
    positive("(k + l) * mu + lambda_M", total)
    p_late = mu / total
    return PoolLoopProbs(
        (obs.k_remaining / obs.n_initial) * p_late,
        p_late,
        lambda_M / total,
        resident * mu / total,
    )


def _xlog2(p: float) -> float:
    return 0.0 if p == 0.0 else p * math.log2(p)


def entropy_step(H_prev: float, k: int, l: int) -> float:
    """Entropy of the next emission after k fresh arrivals join a pool of l
    messages whose accumulated emission entropy is H_prev.

    Decomposes as: a binary choice between the fresh group and the old pool,
    plus log2(k) if fresh (uniform over newcomers), plus the old pool's
    entropy otherwise. With the uniform closure H_prev = log2(l) this yields
    log2(k + l) exactly. Conventions: 0*log(0) = 0 and the chain starts at
    H_0 = 0.
    """
    count("k", k)
    count("l", l)
    non_negative("H_prev", H_prev)
    if k + l < 1:
        raise ValueError("need a non-empty pool")
    if l == 0:
        return math.log2(k)
    if k == 0:
        return H_prev
    total = k + l
    pk, pl = k / total, l / total
    h_choice = -_xlog2(pk) - _xlog2(pl)
    return h_choice + pk * math.log2(k) + pl * H_prev


def epsilon_of(p0: float, p1: float) -> float:
    """Indistinguishability gap |ln(p0/p1)|.

    A zero probability makes the likelihood ratio unbounded, reported as the
    +inf sentinel rather than an exception so sweeps stay total.
    """
    for p in (p0, p1):
        if not 0.0 <= p <= 1.0:
            raise ValueError("arguments must be probabilities")
    if p0 == 0.0 or p1 == 0.0:
        return math.inf
    return abs(math.log(p0 / p1))


def steady_pool_size(lambda_in: float, mu: float) -> float:
    """Mean resident count of a mix fed at lambda_in with mean delay 1/mu."""
    non_negative("lambda_in", lambda_in)
    positive("mu", mu)
    return lambda_in / mu
