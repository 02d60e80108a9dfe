"""epsilon: the study side, repetitions of the label-flow simulation.

Runs loopmix.simulator.run_epsilon_batch, the public batch entry point, in
small batches at the settings of acceptance test c07 (U=100, 3x3 mixes,
burn-in 25 s, run 100 s), so a batch that runs its repetitions in parallel
shows. One op is one repetition; an op's time is its batch's time over the
batch size. c07 is most of the test suite's time, and no other workload
touches the simulator.
"""

from __future__ import annotations

import math
import time

from loopmix import simulator
from loopmix.client import Rates
from loopmix.simulator.epsilon import SimConfig, simulate_label_flow

BATCH_REPS = 2
SEED_STRIDE = 1_000_000


def c07_config(seed: int, corrupt_fraction: float = 0.0) -> SimConfig:
    return SimConfig(
        seed=seed,
        U=100,
        rates=Rates(2.0, 0.0, 0.0, 0.0, 1.0),
        layers=3,
        nodes_per_layer=3,
        corrupt_fraction=corrupt_fraction,
        burn_in=25.0,
        run_time=100.0,
        challenge=(0, 1),
    )


class Epsilon:
    name = "epsilon"

    def setup(self, seed: int) -> None:
        self.base = seed * SEED_STRIDE
        self.next_seed = self.base
        self.values: list = []
        self.problems: list = []
        # Warm state: one repetition, so the first timed batch pays no
        # first-call costs.
        simulator.run_epsilon_batch(c07_config(self.base), 1)

    def prepare(self) -> None:
        pass

    def run_pass(self):
        started = time.perf_counter()
        batch = simulator.run_epsilon_batch(c07_config(self.next_seed), BATCH_REPS)
        elapsed = time.perf_counter() - started
        self.next_seed += BATCH_REPS
        self.values.extend(batch.values)
        return elapsed, [elapsed / BATCH_REPS] * BATCH_REPS, 0

    def check(self) -> list:
        problems = []
        bad = [v for v in self.values if not (math.isfinite(v) and v >= 0)]
        if bad:
            problems.append(f"{len(bad)} epsilon values not finite and >= 0: {bad[:3]}")
        # Label mass is conserved: what is in pools, in corrupt mixes and
        # delivered adds up to what was emitted, for each label.
        flow = simulate_label_flow(c07_config(self.base, corrupt_fraction=0.3))
        for label in range(3):
            held = sum(m[label] for m in flow.pool_masses)
            total = held + flow.in_corrupt[label] + flow.delivered[label]
            if abs(total - flow.emitted[label]) > 1e-6 * max(1, flow.emitted[label]):
                problems.append(
                    f"label {label}: pools+corrupt+delivered {total} != emitted "
                    f"{flow.emitted[label]}"
                )
        return problems

    def counted_metrics(self, total_s: dict, calls: dict) -> dict:
        batches = calls.get("simulator.batch", 0)
        if not batches:
            return {}
        overhead = total_s["simulator.batch"] - total_s.get("simulator.rep", 0.0)
        return {"simulator.batch_overhead_ms": 1000.0 * overhead / batches}

    def close(self) -> None:
        pass
