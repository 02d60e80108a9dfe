"""Run one loopmix benchmark workload and print its metrics.

    python3 mixbench/run.py --workload relay --seed 1 --seconds 25 --trace 0
    python3 mixbench/run.py --smoke            # every workload, a few passes

Run from the repository root. Each run sets its workload up SETUPS times
(median reported as setup_s), then times passes for --seconds seconds, each
between two runs of the reference kernel (common.py), checks the program's
outputs, and prints a table of scaled and raw figures followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
passes alternate between traced (layer functions wrapped, spans.py) and
untraced (the program's own functions), the metrics are the per-layer ones,
and spans plus a per-layer table go to mixbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import common
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUPS = 5
MIN_PASSES = 2
SMOKE_PASSES = 2

# Each names a module here holding a class of the capitalised name.
WORKLOADS = ("relay", "loopback", "network", "epsilon")


def _workload(name: str):
    """The named workload's class; imports only its module, for peak_rss_mb."""
    if not (SRC / "loopmix" / "__init__.py").is_file():
        sys.exit(f"loopmix sources not found under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    return getattr(importlib.import_module(name), name.capitalize())


def measure(workload, seed: int, seconds: float, trace: bool, passes: int | None):
    """Set up, time passes, check; returns (summary, problems, tracer)."""
    summary = common.Summary()
    kernel = workload.kernel = common.Kernel()

    def setup():
        started = time.perf_counter()
        workload.setup(seed)
        return time.perf_counter() - started, [], 0

    for i in range(SETUPS if passes is None else 1):
        if i:
            workload.close()
        summary.setups.append(common.timed_pass(kernel, setup))

    tracer = workload.tracer = spans.Tracer() if trace else None
    started = time.perf_counter()
    n = 0
    while (
        n < (passes or MIN_PASSES)
        or (passes is None and time.perf_counter() - started < seconds)
    ):
        if n:
            workload.prepare()  # setup prepared the first pass
        traced = trace and n % 2 == 0
        if traced:
            spans.install(tracer, getattr(workload, "on_datagram_enter", None))
        try:
            p = common.timed_pass(kernel, workload.run_pass, traced)
        finally:
            if traced:
                tracer.restore()
        summary.passes.append(p)
        n += 1
    problems = workload.check()
    summary.scale(kernel)
    return summary, problems, tracer


def _layer_report(workload, summary, tracer) -> dict:
    traced = [p for p in summary.passes if p.traced]
    plain = [p for p in summary.passes if not p.traced]
    ops = sum(len(p.op_raw_s) for p in traced)
    windows = [(p.start, p.end, p.factor) for p in traced]
    metrics, total_s, calls = spans.layer_metrics(tracer.spans, windows, ops)
    metrics.update({name: 0.0 for name, _ in spans.COUNTED_METRICS})
    metrics.update(workload.counted_metrics(total_s, calls))

    def per_op(ps):
        return sum(p.scaled_s for p in ps) / sum(len(p.op_raw_s) for p in ps)

    metrics["trace.overhead_pct"] = 100.0 * (per_op(traced) / per_op(plain) - 1.0)
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool, passes=None) -> dict:
    workload = _workload(name)()
    summary, problems, tracer = measure(workload, seed, seconds, trace, passes)
    workload.close()
    failed = sum(p.failed for p in summary.passes)
    attempted = sum(len(p.op_raw_s) for p in summary.passes) + failed
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    if attempted - failed < 2 * len(summary.passes):
        sys.exit(f"{name}: {failed} of {attempted} ops failed; no figures to report")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}"

    if trace:
        metrics = _layer_report(workload, summary, tracer)
        units = spans.PER_LAYER_UNITS
        tracer.write(f"{stem}-spans.jsonl")
        lines = [f"{'metric':<30}{'value':>14}  unit"]
        lines += [f"{k:<30}{v:>14.4f}  {units[k]}" for k, v in sorted(metrics.items())]
        lines.append(
            f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% scaled time per op, "
            f"{len(tracer.spans)} spans"
        )
        Path(f"{stem}-layers.txt").write_text("\n".join(lines) + "\n")
    else:
        scaled, raw = summary.figures()
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms", "peak_rss_mb": "MB"}
        metrics = scaled
        lines = [f"{'metric':<14}{'scaled':>12}{'raw':>12}  unit"]
        lines += [f"{k:<14}{scaled[k]:>12.4f}{raw[k]:>12.4f}  {units[k]}" for k in units]
        Path(f"{stem}.json").write_text(json.dumps({"scaled": scaled, "raw": raw}) + "\n")
    print(
        f"workload {name} seed {seed} passes {len(summary.passes)} "
        f"ops attempted {attempted} failed {failed} "
        f"kernel factor median {summary.median_factor():.3f} "
        f"(reference {common.REF_SPEED:.0f} rounds/s)"
    )
    print("\n".join(lines))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help="run each workload (or the one named) for a few passes with all checks",
    )
    args = ap.parse_args(argv)
    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        ok = True
        for name in names:
            result = run_one(name, args.seed, 0, bool(args.trace), passes=SMOKE_PASSES)
            ok = ok and result["correct"]
        print(json.dumps({"smoke": names, "correct": ok}))
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
