#!/usr/bin/env python3
"""Sweep the sender-indistinguishability estimate over mu, layers, corruption.

Produces one (param,mean_eps,std) CSV row per configuration, matching the
table schema `loopmix sim epsilon` emits for a single point. The three sweeps
share a centre point (mu 1, 3 layers, no corruption by default); each
distinct point is simulated once and its row repeated.
"""

import argparse
import sys

from loopmix.client import Rates
from loopmix.simulator import SimConfig, check_epsilon_batch, run_epsilon_batch


def point_config(args, mu, layers, corrupt):
    return SimConfig(
        seed=args.seed,
        U=args.users,
        rates=Rates(args.lam, 0.0, 0.0, 0.0, mu),
        layers=layers,
        nodes_per_layer=args.per_layer,
        corrupt_fraction=corrupt,
        burn_in=args.burn_in,
        run_time=args.run_time,
        challenge=(0, 1),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=100)
    parser.add_argument("--lambda", dest="lam", type=float, default=2.0)
    parser.add_argument("--mus", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    parser.add_argument("--layer-counts", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--corruptions", type=float, nargs="+", default=[0.0, 0.3])
    parser.add_argument("--per-layer", type=int, default=3)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--burn-in", type=float, default=25.0)
    parser.add_argument("--run-time", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="epsilon_sweep.csv")
    args = parser.parse_args(argv)

    points = [(mu, 3, 0.0) for mu in args.mus]
    points += [(1.0, layers, 0.0) for layers in args.layer_counts]
    points += [(1.0, 3, corrupt) for corrupt in args.corruptions]
    try:  # every input, as SimConfig and run_epsilon_batch check it, before --out is opened
        configs = {point: point_config(args, *point) for point in points}
        for cfg in configs.values():
            check_epsilon_batch(cfg, args.reps)
    except ValueError as exc:
        parser.error(str(exc))

    done = {}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("param,mean_eps,std\n")
        for point in points:
            if point not in done:
                done[point] = run_epsilon_batch(configs[point], args.reps)
            param, batch = "mu={};layers={};corrupt={}".format(*point), done[point]
            # empty fields, as `loopmix sim epsilon` writes, when no rep was finite
            mean, std = (batch.mean, batch.std) if batch.n_finite else ("", "")
            fh.write(f"{param},{mean},{std}\n")
            print(param, "->", round(batch.mean, 4), "+/-", round(batch.std, 4))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
