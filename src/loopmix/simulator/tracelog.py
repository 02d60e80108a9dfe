"""Synthetic transmission logs for studying trace indistinguishability.

Generates the drop-message traffic a global observer would record: every user
pushes cover messages through their provider, a fixed number of mix hops, and
a uniformly chosen destination provider, with per-hop forwarding times spaced
by exponential holds. Two challenge payload traces are embedded mid-run so the
plausible-alternative check has concrete targets to chain through.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ..analysis.traces import Trace, Transmission
from ..bounds import positive


@dataclass(frozen=True)
class TraceSimConfig:
    seed: int
    n_users: int = 20
    n_providers: int = 4
    n_mixes: int = 9
    hops: int = 3
    lambda_D: float = 1.0
    mu: float = 1.0
    duration: float = 10.0

    def __post_init__(self):
        if self.n_users < 2:
            raise ValueError("need at least two users for a challenge pair")
        if self.n_providers < 1 or self.n_mixes < 1 or self.hops < 1:
            raise ValueError("topology must be non-empty")
        positive("lambda_D", self.lambda_D)
        positive("mu", self.mu)
        positive("duration", self.duration)


@dataclass
class TraceRun:
    challenge: Tuple[Trace, Trace]
    drop_traces: List[Trace]
    users: FrozenSet[str]
    providers: FrozenSet[str]
    mixes: FrozenSet[str]


def _emit_trace(
    rng: random.Random,
    sender: str,
    home: str,
    mixes: List[str],
    providers: List[str],
    hops: int,
    mu: float,
    start: float,
    handle_counter: List[int],
) -> Trace:
    path = [sender, home]
    path += [rng.choice(mixes) for _ in range(hops)]
    path.append(rng.choice(providers))
    t = start
    records = []
    for a, b in zip(path, path[1:]):
        handle_counter[0] += 1
        records.append(Transmission(a, t, f"h{handle_counter[0]}", b))
        t += rng.expovariate(mu)
    return tuple(records)


def run_trace_experiment(cfg: TraceSimConfig) -> TraceRun:
    """Simulate drop traffic plus one challenge pair and return all traces."""
    rng = random.Random(cfg.seed)
    users = [f"u{i}" for i in range(cfg.n_users)]
    providers = [f"p{i}" for i in range(cfg.n_providers)]
    mixes = [f"m{i}" for i in range(cfg.n_mixes)]
    home = {u: providers[i % cfg.n_providers] for i, u in enumerate(users)}
    counter = [0]

    drops: List[Tuple[float, Trace]] = []
    for u in users:
        t = rng.expovariate(cfg.lambda_D)
        while t < cfg.duration:
            drops.append(
                (t, _emit_trace(rng, u, home[u], mixes, providers, cfg.hops, cfg.mu, t, counter))
            )
            t += rng.expovariate(cfg.lambda_D)
    drops.sort(key=lambda pair: pair[0])

    mid = cfg.duration / 2
    s0, s1 = rng.sample(users, 2)
    tr_c = _emit_trace(rng, s0, home[s0], mixes, providers, cfg.hops, cfg.mu, mid, counter)
    tr_d = _emit_trace(rng, s1, home[s1], mixes, providers, cfg.hops, cfg.mu, mid, counter)

    return TraceRun(
        challenge=(tr_c, tr_d),
        drop_traces=[tr for _, tr in drops],
        users=frozenset(users),
        providers=frozenset(providers),
        mixes=frozenset(mixes),
    )
