"""Exception types shared across the package, and the check of the
fields that must be finite and > 0."""

import math


def _check_finite_positive(**fields):
    """Raise a ValueError naming the first field that is not finite and > 0."""
    for name, value in fields.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


class UnstableQueueError(ValueError):
    """The queue has no statistical equilibrium for the given load."""


class InfeasibleError(RuntimeError):
    """No service equilibrium exists: the offered load exceeds what the
    network can carry at the requested rate."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge."""
