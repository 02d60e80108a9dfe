"""The one rule for a number a caller gives: finite, and in range."""

import math

import pytest

from loopmix.bounds import MAX_EVENTS, bounded_events, non_negative, positive


def test_positive_takes_finite_values_above_zero():
    for x in (1e-300, 1, 2.5, 1e300):
        positive("x", x)
    for x in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^rate must be positive and finite$"):
            positive("rate", x)


def test_non_negative_takes_zero_and_finite_values_above():
    for x in (0, 0.0, 1e-300, 1e300):
        non_negative("x", x)
    for x in (-1e-300, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^delay must be non-negative and finite$"):
            non_negative("delay", x)


def test_bounded_events_takes_counts_up_to_the_cap():
    for n in (0, 1, MAX_EVENTS):
        bounded_events("n", n)
    for n in (MAX_EVENTS + 1, math.inf, math.nan):
        with pytest.raises(ValueError, match="^work: .* expected events, above the cap of 10000000$"):
            bounded_events("work", n)
