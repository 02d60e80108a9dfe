"""What a valid number is, for every rate, delay, duration and count a caller gives.

Each check is one chained comparison, which nan fails as well as any value
out of range, so a bad number is a ValueError where it enters and never a
run that hangs or prints NaN.
"""

import math

# The most events a study run may expect. At the cap, run_pool_experiment's
# list of departure times holds about 0.3 GB.
MAX_EVENTS = 10**7
# The largest count every float holds exactly, so no count overflows a float.
MAX_COUNT = 2**53


def positive(name: str, x: float) -> None:
    """ValueError unless 0 < x < inf."""
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def non_negative(name: str, x: float) -> None:
    """ValueError unless 0 <= x < inf."""
    if not 0 <= x < math.inf:
        raise ValueError(f"{name} must be non-negative and finite")


def count(name: str, n: int, lo: int = 0, hi: int = MAX_COUNT) -> None:
    """ValueError unless n is an int with lo <= n <= hi."""
    if not (isinstance(n, int) and lo <= n <= hi):
        raise ValueError(f"{name} must be at least {lo} and at most {hi}")


def bounded_events(name: str, expected: float) -> None:
    """ValueError unless the expected event count is at most MAX_EVENTS."""
    if not expected <= MAX_EVENTS:
        raise ValueError(f"{name}: {expected:.9g} expected events, above the cap of {MAX_EVENTS}")
