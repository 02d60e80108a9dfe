#!/usr/bin/env python3
"""Print the CPU time of one label-flow repetition at c07's shape.

c07's shape is 100 users at a payload rate of 2 per second, 3 mixes a
layer, mu 1, no corruption, a 25-s burn-in and a 100-s run. For each of 1
to 4 layers, the script times --runs in-process runs of --reps repetitions
each (seeds 0 on, the same for every run) and prints the lowest run's CPU
milliseconds per repetition. The lowest of several runs is the least
disturbed by other work on the machine.

    PYTHONPATH=src python3 scripts/label_flow_cpu.py --runs 4 --reps 30
"""

import argparse
import time

from loopmix.bounds import count
from loopmix.client import Rates
from loopmix.simulator import SimConfig
from loopmix.simulator.epsilon import simulate_label_flow


def c07_config(seed: int, layers: int) -> SimConfig:
    return SimConfig(
        seed=seed,
        U=100,
        rates=Rates(2.0, 0.0, 0.0, 0.0, 1.0),
        layers=layers,
        nodes_per_layer=3,
        corrupt_fraction=0.0,
        burn_in=25.0,
        run_time=100.0,
        challenge=(0, 1),
    )


def cpu_ms_per_rep(configs) -> float:
    started = time.process_time()
    for cfg in configs:
        simulate_label_flow(cfg)
    return (time.process_time() - started) * 1e3 / len(configs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=4)
    parser.add_argument("--reps", type=int, default=30)
    args = parser.parse_args(argv)
    try:
        count("runs", args.runs, lo=1)
        count("reps", args.reps, lo=1)
        configs = {layers: [c07_config(seed, layers) for seed in range(args.reps)]
                   for layers in (1, 2, 3, 4)}
    except ValueError as exc:
        parser.error(str(exc))

    print("layers,cpu_ms_per_rep")
    for layers, batch in configs.items():
        best = min(cpu_ms_per_rep(batch) for _ in range(args.runs))
        print(f"{layers},{best:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
