"""Exception types shared across the package."""


class UnstableQueueError(ValueError):
    """The queue has no statistical equilibrium for the given load."""


class InfeasibleError(RuntimeError):
    """No service equilibrium exists: the offered load exceeds what the
    network can carry at the requested rate."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge."""
