"""The one rule for a number a caller gives: finite, and in range, and for a
count: an integer, and in range up to 2**53."""

import math

import pytest

from loopmix.bounds import MAX_COUNT, MAX_EVENTS, bounded_events, count, non_negative, positive


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


def test_count_takes_integers_from_lo_to_hi():
    assert MAX_COUNT == 2**53 and float(MAX_COUNT) == MAX_COUNT
    for n in (0, 1, MAX_COUNT, True):
        count("n", n)
    count("k", 3, lo=3, hi=3)
    for n in (-1, MAX_COUNT + 1, 10**400, 1.0, 2.5, math.nan, math.inf, "3", None):
        with pytest.raises(ValueError, match="^n must be at least 0 and at most 9007199254740992$"):
            count("n", n)
    for n in (1, 4):
        with pytest.raises(ValueError, match="^k must be at least 2 and at most 3$"):
            count("k", n, lo=2, hi=3)


def test_bounded_events_takes_counts_up_to_the_cap():
    for n in (0, 1, MAX_EVENTS):
        bounded_events("n", n)
    for n in (MAX_EVENTS + 1, math.inf, math.nan):
        with pytest.raises(ValueError, match="^work: .* expected events, above the cap of 10000000$"):
            bounded_events("work", n)
