"""The one rule for a number a caller gives: finite, and in range."""

import math

import pytest

from loopmix.bounds import non_negative, positive


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
