"""Exception types shared across the package.

Domain violations (bad arguments, out-of-range coordinates) raise plain
ValueError; the classes below mark numerical failures that callers may
want to handle separately.
"""

from __future__ import annotations


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance within
    its panel limit, or produced a non-finite estimate.

    Carries the best available estimate so diagnostics can still report
    a number.
    """

    def __init__(self, message: str, best_estimate: float) -> None:
        super().__init__(message)
        self.best_estimate = best_estimate


class RootSearchError(RuntimeError):
    """No eigenvalue bracket could be established in the search interval,
    or a located crossing failed its determinant confirmation."""


class EigenvalueConsistencyError(RuntimeError):
    """A mode shape was requested at a torque that is not an eigenvalue."""
