"""What a valid number is, for every rate, delay and duration a caller gives.

Each check is one chained comparison, which nan fails as well as any value
out of range, so a bad number is a ValueError where it enters and never a
run that hangs or prints NaN.
"""

import math


def positive(name: str, x: float) -> None:
    """ValueError unless 0 < x < inf."""
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def non_negative(name: str, x: float) -> None:
    """ValueError unless 0 <= x < inf."""
    if not 0 <= x < math.inf:
        raise ValueError(f"{name} must be non-negative and finite")
