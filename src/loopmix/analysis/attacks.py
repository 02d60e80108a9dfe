"""Closed forms for active-adversary success rates and link traffic.

Covers the n-1 style blocking attack (isolate a target by stopping everyone
else and watch what still flows), the patience game of delaying a packet and
betting the observed links stay otherwise quiet, and the per-link rate the
latter depends on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from ..bounds import count, non_negative, positive


def blocking_attack_prob(
    s: float, mu: float, lambda_M: float, lambda_R: float
) -> float:
    """Chance the attacker picks the target out after splitting the blockade.

    Blocking spreads residual real traffic lambda_R over s mixes, each of
    which keeps emitting its own loops at lambda_M; the target's exponential
    clock at rate mu races that background, giving s*mu/(s*lambda_M +
    lambda_R). The expression is a large-pool approximation, so values above
    1 are clamped with a warning.
    """
    if not 1 < s < math.inf:
        raise ValueError("splitting factor s must exceed 1 and be finite: s=1 means no blockade")
    positive("mu", mu)
    non_negative("lambda_M", lambda_M)
    non_negative("lambda_R", lambda_R)
    denom = s * lambda_M + lambda_R
    if denom <= 0:
        raise ValueError("attack needs competing traffic to race against")
    p = s * mu / denom
    if p > 1.0:
        warnings.warn(
            "blocking approximation exceeded 1, clamping; parameters are "
            "outside the large-pool regime",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    return p


def delay_attack_prob(k_links: int, Lambda: float, Delta: float, t: float) -> float:
    """Chance that holding a packet leaves all k observed links silent.

    Each of the k links carries Poisson traffic at per-link rate Lambda; the
    probability no confusing packet appears before the deadline decays with
    the holding time t at rate Delta, giving exp(-k*Lambda*exp(-Delta*t)/Delta).
    """
    count("k_links", k_links)
    non_negative("Lambda", Lambda)
    positive("Delta", Delta)
    non_negative("holding time t", t)
    return math.exp(-k_links * Lambda * math.exp(-Delta * t) / Delta)


@dataclass(frozen=True)
class LinkParams:
    """Deployment shape: U users, N mixes, P providers, k_links adjacent
    nodes reachable per node, paths of ell inter-node hops; each client's
    payload, loop and drop rates, and each mix's loop rate. The delay
    parameter mu is not one: a delay moves a packet in time, not between
    links."""

    U: int
    N: int
    P: int
    k_links: int
    ell: int
    lambda_P: float
    lambda_L: float
    lambda_D: float
    lambda_M: float

    def __post_init__(self):
        count("U", self.U)
        for name in ("N", "P", "k_links", "ell"):
            count(name, getattr(self, name), lo=1)
        for name in ("lambda_P", "lambda_L", "lambda_D", "lambda_M"):
            non_negative(name, getattr(self, name))


def link_rate(params: LinkParams) -> float:
    """Mean packet rate on a single inter-node link.

    Every client packet crosses ell links and that volume spreads over
    k_links * (N + P) directed links; each mix's loop stream adds its share
    on top.
    """
    client_rate = params.lambda_P + params.lambda_L + params.lambda_D
    user_term = (
        params.U * params.ell * client_rate / (params.k_links * (params.N + params.P))
    )
    loop_term = params.ell * params.lambda_M / params.k_links
    return user_term + loop_term
