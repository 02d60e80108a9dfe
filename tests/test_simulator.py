"""Seeded experiment harnesses: label flow, latency, queues, trace logs."""

import math

import numpy as np
import pytest
import scipy.stats as stats

from loopmix.client import Rates
from loopmix.simulator import (
    ChallengeSendersOffline,
    LabelDistribution,
    SimConfig,
    TraceSimConfig,
    run_epsilon_batch,
    run_epsilon_experiment,
    run_latency_experiment,
    run_pool_experiment,
    run_trace_experiment,
)
from loopmix.simulator import epsilon
from loopmix.simulator.epsilon import simulate_label_flow
from loopmix.analysis.traces import validate_trace

RATES = Rates(lambda_P=2.0, lambda_L=1.0, lambda_D=1.0, lambda_M=0.5, mu=1.0)


def small_cfg(**overrides):
    base = dict(
        seed=1,
        U=10,
        rates=RATES,
        layers=2,
        nodes_per_layer=2,
        corrupt_fraction=0.0,
        burn_in=3.0,
        run_time=15.0,
        challenge=(0, 1),
    )
    base.update(overrides)
    return SimConfig(**base)


def test_label_flow_is_deterministic():
    a = simulate_label_flow(small_cfg())
    b = simulate_label_flow(small_cfg())
    assert a.epsilon == b.epsilon or (math.isnan(a.epsilon) and math.isnan(b.epsilon))
    assert a.pool_masses == b.pool_masses
    assert a.emitted == b.emitted
    assert a.corrupt == b.corrupt
    c = simulate_label_flow(small_cfg(seed=2))
    assert c.pool_masses != a.pool_masses


def test_label_mass_is_conserved():
    result = simulate_label_flow(small_cfg(run_time=30.0, corrupt_fraction=0.3))
    for i in range(3):
        resident = sum(mass[i] for mass in result.pool_masses)
        total = result.delivered[i] + resident + result.in_corrupt[i]
        assert total == pytest.approx(result.emitted[i], abs=1e-9)


def test_per_message_replay_matches_aggregate_pools():
    # one honest mix, full event log: replaying per-message label weights
    # (each departure takes 1/c of every resident's remaining weight) must
    # land on exactly the aggregate masses the simulator tracked.
    cfg = small_cfg(layers=1, nodes_per_layer=1, run_time=20.0, record_events=True)
    result = simulate_label_flow(cfg)
    weights: list = []
    for event in result.events:
        if event[0] == "A":
            weights.append([1.0, event[2]])
        else:
            c = sum(w for w, _ in weights)
            keep = 1.0 - 1.0 / round(c)
            for entry in weights:
                entry[0] *= keep
    for i in range(3):
        replayed = sum(w * dist[i] for w, dist in weights)
        assert replayed == pytest.approx(result.pool_masses[0][i], abs=1e-9)


def test_challenge_senders_must_be_distinct_users():
    with pytest.raises(ChallengeSendersOffline):
        run_epsilon_experiment(small_cfg(challenge=(3, 3)))
    with pytest.raises(ChallengeSendersOffline):
        run_epsilon_experiment(small_cfg(challenge=(0, 99)))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        small_cfg(U=1)
    with pytest.raises(ValueError):
        small_cfg(layers=0)
    with pytest.raises(ValueError):
        small_cfg(nodes_per_layer=0)
    with pytest.raises(ValueError):
        small_cfg(corrupt_fraction=1.0)
    with pytest.raises(ValueError):
        small_cfg(corrupt_fraction=-0.1)
    with pytest.raises(ValueError):
        small_cfg(burn_in=0.0)
    with pytest.raises(ValueError):
        small_cfg(run_time=-1.0)
    with pytest.raises(ValueError):
        small_cfg(rates=Rates(0.0, 1.0, 1.0, 0.0, 1.0))


def test_label_distribution_validation():
    LabelDistribution(0.12, 0.15, 0.73)
    with pytest.raises(ValueError):
        LabelDistribution(0.5, 0.6, 0.1)
    with pytest.raises(ValueError):
        LabelDistribution(-0.1, 0.4, 0.7)


def test_last_layer_keeps_an_honest_witness():
    for seed in range(20):
        cfg = small_cfg(seed=seed, layers=2, nodes_per_layer=2, corrupt_fraction=0.5)
        result = simulate_label_flow(cfg)
        last = {2, 3}
        assert last - set(result.corrupt), "all last-layer mixes corrupt"


def test_epsilon_batch_summary():
    batch = run_epsilon_batch(small_cfg(U=20, run_time=20.0), reps=6)
    again = run_epsilon_batch(small_cfg(U=20, run_time=20.0), reps=6)
    assert batch.values == again.values
    assert len(batch.values) == 6
    finite = [v for v in batch.values if math.isfinite(v)]
    assert batch.n_finite == len(finite)
    assert batch.mean == pytest.approx(float(np.mean(finite)))
    assert batch.std == pytest.approx(float(np.std(finite, ddof=1)))


def test_epsilon_batch_counts_infinite_repetitions(monkeypatch):
    values = iter([1.0, math.inf, math.nan])
    monkeypatch.setattr(epsilon, "run_epsilon_experiment", lambda cfg: next(values))
    batch = run_epsilon_batch(small_cfg(), reps=3)
    assert batch.n_finite == 1
    assert batch.n_inf == 1
    assert batch.mean == 1.0


def test_latency_single_hop_is_exponential():
    rates = Rates(1.0, 1.0, 1.0, 0.0, 2.0)
    samples = run_latency_experiment(rates, hops=1, n_messages=20_000, seed=3)
    ks = stats.kstest(samples, "expon", args=(0, 1 / rates.mu))
    assert ks.pvalue > 0.01


def test_latency_moments_and_processing_shift():
    rates = Rates(1.0, 1.0, 1.0, 0.0, 2.0)
    base = run_latency_experiment(rates, hops=4, n_messages=20_000, seed=4)
    assert float(np.mean(base)) == pytest.approx(2.0, abs=0.05)
    assert float(np.std(base)) == pytest.approx(1.0, abs=0.05)
    shifted = run_latency_experiment(rates, hops=4, n_messages=20_000, seed=4, processing_s=0.01)
    assert np.allclose(shifted, base + 0.04)


def test_latency_validation():
    rates = Rates(1.0, 1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        run_latency_experiment(rates, hops=0, n_messages=10, seed=0)
    with pytest.raises(ValueError):
        run_latency_experiment(rates, hops=1, n_messages=0, seed=0)
    with pytest.raises(ValueError):
        run_latency_experiment(rates, hops=1, n_messages=10, seed=0, processing_s=-1.0)


def test_trace_run_shape_and_determinism():
    cfg = TraceSimConfig(seed=11)
    run = run_trace_experiment(cfg)
    users, providers = set(run.users), set(run.providers)
    assert len(run.challenge) == 2
    for trace in list(run.challenge) + list(run.drop_traces):
        validate_trace(trace, users=users, providers=providers)
        assert len(trace) == cfg.hops + 2
    again = run_trace_experiment(TraceSimConfig(seed=11))
    assert again.challenge == run.challenge
    assert again.drop_traces == run.drop_traces


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, n_users=1)
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, duration=0.0)
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, lambda_D=-1.0)
    with pytest.raises(ValueError):
        TraceSimConfig(seed=0, hops=0)


def test_pool_experiment_validation_and_determinism():
    with pytest.raises(ValueError):
        run_pool_experiment(0.0, 1.0, 10.0, 0)
    with pytest.raises(ValueError):
        run_pool_experiment(1.0, 1.0, -5.0, 0)
    a = run_pool_experiment(10.0, 1.0, 50.0, seed=2)
    b = run_pool_experiment(10.0, 1.0, 50.0, seed=2)
    assert a.time_avg_size == b.time_avg_size
    assert a.departure_times == b.departure_times
