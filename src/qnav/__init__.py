"""qnav: hybrid quantum-classical actor-critic agent for a desk-scale
collision-free-navigation POMDP, with a noise-aware quantum simulator and
capacity analysis tools."""

import math

__version__ = "0.1.0"


class UsageError(ValueError):
    """Misuse: a bad config, flag, scene spec, shape or call order. The
    command line exits 2 on it; any other exception is a runtime failure."""


def is_int(value) -> bool:
    """An int and not a bool, as every count in a config must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_ints(config, names) -> None:
    """Raise UsageError unless each named field of ``config`` is an int: a
    count that loads as 2.5 would otherwise fail, or be recorded, mid-run."""
    for name in names:
        value = getattr(config, name)
        if not is_int(value):
            raise UsageError(f"{name} must be an integer, got {value!r}")


def check_finite(config, names) -> None:
    """Raise UsageError unless each named field of ``config`` that is set (not
    None) is a finite number: NaN fails every comparison and infinity passes
    a lower bound, so either would pass a range check and fail mid-run."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise UsageError(f"{name} must be a finite number, got {value!r}")
