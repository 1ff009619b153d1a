"""qnav: hybrid quantum-classical actor-critic agent for a desk-scale
collision-free-navigation POMDP, with a noise-aware quantum simulator and
capacity analysis tools."""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Misuse: a bad config, flag, scene spec, shape or call order. The
    command line exits 2 on it; any other exception is a runtime failure."""
