"""Exception types shared across the package, and the checks of the
fields that must be finite and > 0 or integers >= 0."""

import math
from numbers import Integral


def _check_finite_positive(**fields):
    """Raise a ValueError naming the first field that is not finite and > 0."""
    for name, value in fields.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_integer(**fields):
    """Raise a ValueError naming the first field that is a bool or no integer >= 0."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


class UnstableQueueError(ValueError):
    """The queue has no statistical equilibrium for the given load."""


class InfeasibleError(RuntimeError):
    """No service equilibrium exists: the offered load exceeds what the
    network can carry at the requested rate."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge."""
