"""Exception types shared across the package."""


class GekdeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GekdeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateSampleError(GekdeError, ValueError):
    """The sample carries no usable spread (e.g. all observations equal)."""


class BoundaryDegeneracyError(GekdeError, ValueError):
    """A kernel was requested at a point where it is undefined (RIG needs x > b)."""


class CoverageError(GekdeError, ValueError):
    """An evaluation grid does not cover the required quantile range."""


class ConvergenceError(GekdeError, RuntimeError):
    """An iteration failed to converge; carries the last iterate and residual."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class IntegrationError(GekdeError, RuntimeError):
    """A quadrature missed its tolerance, or the integral diverges."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class OptimizationError(GekdeError, RuntimeError):
    """A numerical minimisation found no valid interior solution."""
