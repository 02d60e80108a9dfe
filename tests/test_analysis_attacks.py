"""Active-adversary closed forms: blocking, delaying, and link load."""

import math

import numpy as np
import pytest

from loopmix.analysis.attacks import (
    LinkParams,
    blocking_attack_prob,
    delay_attack_prob,
    link_rate,
)
from loopmix.analysis.montecarlo import blocking_estimate
from loopmix.bounds import MAX_EVENTS

from conftest import NoDraws


def test_blocking_formula_case():
    assert blocking_attack_prob(2.0, 1.0, 1.0, 2.0) == pytest.approx(0.5)


def test_blocking_requires_a_real_split():
    with pytest.raises(ValueError):
        blocking_attack_prob(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        blocking_attack_prob(0.5, 1.0, 1.0, 2.0)


def test_blocking_clamps_with_warning():
    with pytest.warns(RuntimeWarning):
        assert blocking_attack_prob(2.0, 10.0, 1.0, 2.0) == 1.0


def test_blocking_monotone_in_loop_rate():
    values = [blocking_attack_prob(2.0, 0.2, lam, 2.0) for lam in (0.5, 1, 2, 4, 8, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.01


def test_blocking_needs_competing_traffic():
    with pytest.raises(ValueError):
        blocking_attack_prob(2.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        blocking_attack_prob(2.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        blocking_attack_prob(2.0, 1.0, -1.0, 1.0)


def test_blocking_against_pool_oracle():
    # loop traffic dominates so the large-pool approximation applies
    s, mu, lam_m, lam_r = 2.0, 1.0, 10.0, 40.0
    exact = blocking_attack_prob(s, mu, lam_m, lam_r)
    est = blocking_estimate(s, mu, lam_m, lam_r, trials=200_000, rng=np.random.default_rng(5))
    assert est == pytest.approx(exact, abs=0.02)


def test_delay_attack_formula_case():
    assert delay_attack_prob(3, 1.0, 1.0, 0.0) == pytest.approx(math.exp(-3))


def test_delay_attack_limits():
    assert delay_attack_prob(3, 1.0, 1.0, 1e9) == pytest.approx(1.0)
    assert delay_attack_prob(3, 1e9, 1.0, 0.0) == pytest.approx(0.0)
    # patience pays: success grows with holding time
    values = [delay_attack_prob(3, 1.0, 1.0, t) for t in (0.0, 1.0, 2.0, 5.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_delay_attack_validation():
    with pytest.raises(ValueError):
        delay_attack_prob(-1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        delay_attack_prob(3, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        delay_attack_prob(3, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        delay_attack_prob(3, 1.0, 1.0, -2.0)
    # a link count too large for a float raised OverflowError
    with pytest.raises(ValueError, match="^k_links must be at least 0 and at most"):
        delay_attack_prob(10**400, 1.0, 1.0, 0.0)


def per_minute_params(users=100):
    return LinkParams(
        U=users,
        N=9,
        P=4,
        k_links=3,
        ell=3,
        lambda_P=3.0,
        lambda_L=1.0,
        lambda_D=1.0,
        lambda_M=1.0,
    )


def test_link_rate_worked_example():
    # 100 users at 5 packets/min spread over 3*(9+4) links, plus loop share
    rate = link_rate(per_minute_params())
    assert rate == pytest.approx(1500 / 39 + 1)
    assert rate == pytest.approx(39.4615, abs=1e-4)


def test_link_rate_zero_traffic():
    params = LinkParams(U=0, N=9, P=4, k_links=3, ell=3, lambda_P=3.0, lambda_L=1.0,
                        lambda_D=1.0, lambda_M=0.0)
    assert link_rate(params) == 0.0


def test_link_rate_linear_in_users():
    base, doubled = per_minute_params(100), per_minute_params(200)
    loop_share = link_rate(per_minute_params(0))
    assert link_rate(doubled) - loop_share == pytest.approx(
        2 * (link_rate(base) - loop_share)
    )


def test_link_params_validation():
    rates = dict(lambda_P=1.0, lambda_L=1.0, lambda_D=1.0, lambda_M=0.0)
    with pytest.raises(ValueError):
        LinkParams(U=-1, N=9, P=4, k_links=3, ell=3, **rates)
    with pytest.raises(ValueError):
        LinkParams(U=1, N=0, P=4, k_links=3, ell=3, **rates)
    with pytest.raises(ValueError):
        LinkParams(U=1, N=9, P=0, k_links=3, ell=3, **rates)
    with pytest.raises(ValueError):
        LinkParams(U=1, N=9, P=4, k_links=0, ell=3, **rates)
    with pytest.raises(ValueError):
        LinkParams(U=1, N=9, P=4, k_links=3, ell=0, **rates)
    for name in rates:
        with pytest.raises(ValueError, match=f"^{name} must be non-negative and finite$"):
            LinkParams(U=1, N=9, P=4, k_links=3, ell=3, **{**rates, name: -1.0})
    # a count too large for a float raised OverflowError in link_rate
    with pytest.raises(ValueError, match="^U must be at least 0 and at most 9007199254740992$"):
        link_rate(LinkParams(U=10**400, N=9, P=4, k_links=3, ell=3, **rates))
    with pytest.raises(ValueError, match="^k_links must be at least 1 and at most"):
        link_rate(LinkParams(U=1, N=9, P=4, k_links=10**400, ell=3, **rates))


def test_blocking_oracle_checks_its_input_before_drawing():
    with pytest.raises(ValueError, match=r"^3 \* trials: 10000002 expected events"):
        blocking_estimate(2.0, 1.0, 1.0, 2.0, MAX_EVENTS // 3 + 1, NoDraws())
    with pytest.raises(ValueError, match="^trials must be at least 1"):
        blocking_estimate(2.0, 1.0, 1.0, 2.0, 0, NoDraws())
