"""Seeded experiments: the live node's own pool run event by event (queues,
entropy), the label flow solved in bulk (epsilon), and sampled latencies and
transmission logs (latency, tracelog)."""

from .queues import run_pool_experiment
from .entropy import run_entropy_experiment
from .epsilon import (
    LabelDistribution,
    SimConfig,
    check_epsilon_batch,
    run_epsilon_batch,
    run_epsilon_experiment,
)
from .latency import run_latency_experiment
from .tracelog import TraceSimConfig, run_trace_experiment

__all__ = [
    "run_pool_experiment",
    "run_entropy_experiment",
    "LabelDistribution",
    "SimConfig",
    "check_epsilon_batch",
    "run_epsilon_batch",
    "run_epsilon_experiment",
    "run_latency_experiment",
    "TraceSimConfig",
    "run_trace_experiment",
]
