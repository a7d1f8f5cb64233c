"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A series hit its term cap before the stopping rule triggered."""


class BoundNotApplicableError(DomainError):
    """A bound's hypothesis fails (e.g. damping at or above 1/D).

    Distinct from a computation failure: the bound simply says nothing
    about this parameter point.
    """


class ToleranceNotMetError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best estimate and its error bound so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message, value, abs_error_estimate, subdivisions):
        super().__init__(message)
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.subdivisions = subdivisions


class DSolverError(RuntimeError):
    """The supremum scan bracketed no interior maximum, or its root search did not settle."""
