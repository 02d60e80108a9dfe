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
from ..bounds import bounded_events, count, positive

N_PROVIDERS = 4
N_MIXES = 9
MU = 1.0  # per-hop delay parameter: mean hold 1/MU


@dataclass(frozen=True)
class TraceSimConfig:
    seed: int
    n_users: int = 20
    hops: int = 3
    lambda_D: float = 1.0
    duration: float = 10.0

    def __post_init__(self):
        count("seed", self.seed)
        count("n_users", self.n_users, lo=2)  # a challenge pair
        count("hops", self.hops, lo=1)
        positive("lambda_D", self.lambda_D)
        positive("duration", self.duration)
        # anonymity_condition_holds searches each direction over (drop
        # trace, hop) states, and each state tries every drop trace at every
        # later hop
        drops = self.n_users * self.lambda_D * self.duration
        bounded_events("join search over the drop traces", 2 * (drops * self.hops) ** 2)


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
        t += rng.expovariate(MU)
    return tuple(records)


def run_trace_experiment(cfg: TraceSimConfig) -> TraceRun:
    """Simulate drop traffic plus one challenge pair and return all traces."""
    rng = random.Random(cfg.seed)
    users = [f"u{i}" for i in range(cfg.n_users)]
    providers = [f"p{i}" for i in range(N_PROVIDERS)]
    mixes = [f"m{i}" for i in range(N_MIXES)]
    home = {u: providers[i % N_PROVIDERS] for i, u in enumerate(users)}
    counter = [0]

    drops: List[Tuple[float, Trace]] = []
    for u in users:
        t = rng.expovariate(cfg.lambda_D)
        while t < cfg.duration:
            drops.append((t, _emit_trace(rng, u, home[u], mixes, providers, cfg.hops, t, counter)))
            t += rng.expovariate(cfg.lambda_D)
    drops.sort(key=lambda pair: pair[0])

    mid = cfg.duration / 2
    s0, s1 = rng.sample(users, 2)
    tr_c = _emit_trace(rng, s0, home[s0], mixes, providers, cfg.hops, mid, counter)
    tr_d = _emit_trace(rng, s1, home[s1], mixes, providers, cfg.hops, mid, counter)

    return TraceRun(
        challenge=(tr_c, tr_d),
        drop_traces=[tr for _, tr in drops],
        users=frozenset(users),
        providers=frozenset(providers),
        mixes=frozenset(mixes),
    )
