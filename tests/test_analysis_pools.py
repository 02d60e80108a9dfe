"""Closed-form pool probabilities, entropy updates, and the epsilon gap."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopmix.analysis.montecarlo import pool_race_estimate_with_loops
from loopmix.analysis.pools import (
    PoolObservation,
    entropy_step,
    epsilon_of,
    pool_match_prob,
    pool_match_prob_with_loops,
    steady_pool_size,
)
from loopmix.bounds import MAX_EVENTS

from conftest import NoDraws


def test_match_prob_small_cases():
    assert pool_match_prob(PoolObservation(2, 1, 1)) == (0.25, 0.5)
    p = pool_match_prob(PoolObservation(5, 5, 0))
    assert p.p_initial == pytest.approx(0.2)
    assert 5 * p.p_initial == pytest.approx(1.0)
    p = pool_match_prob(PoolObservation(3, 2, 1))
    assert p.p_initial == pytest.approx(2 / 9)
    assert p.p_late == pytest.approx(1 / 3)


def test_match_prob_total_probability_grid():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for l in range(0, 6):
                p = pool_match_prob(PoolObservation(n, k, l))
                assert n * p.p_initial + l * p.p_late == pytest.approx(1.0)


def test_match_prob_against_race_oracle():
    rng = np.random.default_rng(2024)
    est_init, est_late = pool_race_estimate_with_loops(3, 2, 1, 1.0, 0.0, 100_000, rng)[:2]
    exact = pool_match_prob(PoolObservation(3, 2, 1))
    assert est_init == pytest.approx(exact.p_initial, abs=0.01)
    assert est_late == pytest.approx(exact.p_late, abs=0.01)


def test_observation_validation():
    with pytest.raises(ValueError):
        PoolObservation(0, 0, 1)
    with pytest.raises(ValueError):
        PoolObservation(2, 3, 0)
    with pytest.raises(ValueError):
        PoolObservation(2, 0, 1)
    with pytest.raises(ValueError):
        PoolObservation(2, 1, -1)
    with pytest.raises(ValueError, match="^l_late must be at least 0 and at most"):
        PoolObservation(2, 1, 2**53 + 1)


def test_race_oracle_checks_its_input_before_drawing():
    # the observation as PoolObservation checks it
    with pytest.raises(ValueError, match="^k_remaining must be at least 1 and at most 2$"):
        pool_race_estimate_with_loops(2, 3, 0, 1.0, 0.0, 10, NoDraws())
    with pytest.raises(ValueError, match="^trials must be at least 1"):
        pool_race_estimate_with_loops(2, 1, 0, 1.0, 0.0, 0, NoDraws())
    # trials * (n + k + l + 1) = 10**7 + 1
    message = re.escape("trials * (n + k + l + 1): 10000001 expected events")
    with pytest.raises(ValueError, match=message):
        pool_race_estimate_with_loops(1, 1, MAX_EVENTS - 2, 1.0, 0.0, 1, NoDraws())


def test_loop_variant_formula_case():
    p = pool_match_prob_with_loops(PoolObservation(2, 1, 1), mu=1.0, lambda_M=2.0)
    assert p.p_initial == pytest.approx(0.125)
    assert p.p_late == pytest.approx(0.25)
    assert p.p_loop == pytest.approx(0.5)
    assert p.p_noloop == pytest.approx(0.5)


def test_loop_variant_reduces_when_loops_off():
    for n, k, l in [(2, 1, 1), (5, 3, 2), (4, 4, 0)]:
        obs = PoolObservation(n, k, l)
        base = pool_match_prob(obs)
        with_loops = pool_match_prob_with_loops(obs, mu=1.7, lambda_M=0.0)
        assert with_loops.p_initial == pytest.approx(base.p_initial, abs=1e-12)
        assert with_loops.p_late == pytest.approx(base.p_late, abs=1e-12)
        assert with_loops.p_loop == 0.0
        assert with_loops.p_noloop == pytest.approx(1.0)


def test_loop_variant_total_probability_grid():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for l in range(0, 4):
                for lam in (0.0, 0.5, 3.0):
                    p = pool_match_prob_with_loops(
                        PoolObservation(n, k, l), mu=1.0, lambda_M=lam
                    )
                    total = n * p.p_initial + l * p.p_late + p.p_loop
                    assert total == pytest.approx(1.0)
                    assert p.p_noloop + p.p_loop == pytest.approx(1.0)


def test_loop_variant_against_race_oracle():
    rng = np.random.default_rng(7)
    est = pool_race_estimate_with_loops(
        3, 2, 1, mu=1.0, lambda_M=1.0, trials=100_000, rng=rng
    )
    exact = pool_match_prob_with_loops(PoolObservation(3, 2, 1), mu=1.0, lambda_M=1.0)
    assert est[0] == pytest.approx(exact.p_initial, abs=0.01)
    assert est[1] == pytest.approx(exact.p_late, abs=0.01)
    assert est[2] == pytest.approx(exact.p_loop, abs=0.01)


def test_loop_variant_validation():
    obs = PoolObservation(2, 1, 1)
    with pytest.raises(ValueError):
        pool_match_prob_with_loops(obs, mu=0.0, lambda_M=1.0)
    with pytest.raises(ValueError):
        pool_match_prob_with_loops(obs, mu=1.0, lambda_M=-0.1)


def test_entropy_step_examples():
    assert entropy_step(0.0, 2, 1) == pytest.approx(math.log2(3))
    assert entropy_step(0.0, 0, 3) == 0.0
    assert entropy_step(0.0, 4, 0) == pytest.approx(2.0)


@pytest.mark.parametrize("l", [1, 2, 5, 17])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_entropy_step_uniform_closure(l, k):
    # a uniform pool stays uniform after k fresh arrivals
    assert entropy_step(math.log2(l), k, l) == pytest.approx(
        math.log2(k + l), abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(
    h_prev=st.floats(min_value=0.0, max_value=20.0),
    k=st.integers(min_value=0, max_value=50),
    l=st.integers(min_value=0, max_value=50),
)
def test_entropy_step_bounds(h_prev, k, l):
    if k + l < 1:
        return
    h = entropy_step(h_prev, k, l)
    assert h >= 0.0
    # group choice adds at most one bit on top of the larger branch term
    branch = max(math.log2(k) if k else 0.0, h_prev)
    assert h <= 1.0 + branch + 1e-9
    if l > 0 and k > 0:
        assert entropy_step(h_prev + 0.5, k, l) > h


def test_entropy_step_validation():
    with pytest.raises(ValueError):
        entropy_step(-0.1, 1, 1)
    with pytest.raises(ValueError):
        entropy_step(0.0, 0, 0)
    with pytest.raises(ValueError):
        entropy_step(0.0, -1, 2)


def test_entropy_step_counts_follow_the_count_rule():
    # a float k and an l past 2^53 were taken before the rule applied here
    with pytest.raises(ValueError, match="^k must be at least 0 and at most 9007199254740992$"):
        entropy_step(0.0, 1.5, 1)
    with pytest.raises(ValueError, match="^l must be at least 0 and at most 9007199254740992$"):
        entropy_step(0.0, 1, 2**53 + 1)


def test_epsilon_examples():
    assert epsilon_of(0.3, 0.3) == 0.0
    assert epsilon_of(0.12, 0.15) == pytest.approx(abs(math.log(0.8)))
    assert epsilon_of(0.12, 0.15) == pytest.approx(0.22314, abs=1e-5)


def test_epsilon_zero_probability_sentinel():
    assert epsilon_of(0.0, 0.5) == math.inf
    assert epsilon_of(0.5, 0.0) == math.inf
    assert epsilon_of(0.0, 0.0) == math.inf


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=1e-9, max_value=1.0),
    b=st.floats(min_value=1e-9, max_value=1.0),
)
def test_epsilon_symmetry(a, b):
    assert epsilon_of(a, b) == pytest.approx(epsilon_of(b, a))
    assert epsilon_of(a, b) >= 0.0


def test_epsilon_rejects_non_probabilities():
    with pytest.raises(ValueError):
        epsilon_of(1.2, 0.5)
    with pytest.raises(ValueError):
        epsilon_of(0.5, -0.1)
    with pytest.raises(ValueError):
        epsilon_of(math.nan, 0.5)


def test_steady_pool_size():
    assert steady_pool_size(100.0, 10.0) == 10.0
    assert steady_pool_size(0.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        steady_pool_size(1.0, 0.0)
    with pytest.raises(ValueError):
        steady_pool_size(-1.0, 1.0)
