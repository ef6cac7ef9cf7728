"""Exception types shared across the package, and the checks on its numeric arguments.

Every public numeric argument goes through one of the helpers at the end, so
that a non-number, NaN or a value out of range raises :class:`DomainError`;
every public function that computes per point turns a 0-d result into a
Python float through ``_scalar_or_array``.
"""

import math

import numpy as np

__all__ = [
    "GekdeError",
    "DomainError",
    "DegenerateSampleError",
    "BoundaryDegeneracyError",
    "CoverageError",
    "ConvergenceError",
    "IntegrationError",
    "OptimizationError",
]


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


def _real(value, what: str) -> float:
    """``value`` as a finite float, converted as ``float`` does; else DomainError.

    An ``int`` beyond the double range, which ``float`` cannot convert, is not
    finite either.
    """
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a real number, not {type(value).__name__}") from None
    except OverflowError:
        raise DomainError(f"{what} must be finite") from None
    if not math.isfinite(v):
        raise DomainError(f"{what} must be finite")
    return v


def _positive(value, what: str) -> float:
    v = _real(value, what)
    if not v > 0.0:
        raise DomainError(f"{what} must be positive and finite")
    return v


def _nonnegative(value, what: str) -> float:
    v = _real(value, what)
    if not v >= 0.0:
        raise DomainError(f"{what} must be nonnegative and finite")
    return v


def _count(value, what: str, minimum: int):
    """A count of at least ``minimum``.

    An ``int`` or numpy integer comes back unchanged, never through a float;
    anything else must be a whole number and comes back as an ``int``.
    """
    if not isinstance(value, (int, np.integer)):
        v = _real(value, what)
        if not v.is_integer():
            raise DomainError(f"{what} must be a whole number, not {v!r}")
        value = int(v)
    if value < minimum:
        raise DomainError(f"{what} must be at least {minimum}")
    return value


def _count_float(value, what: str, minimum: int) -> float:
    """A ``_count`` below 2**1020, as a float: 16 times it stays in the double range."""
    value = _count(value, what, minimum)
    if value >= 2 ** 1020:
        raise DomainError(f"{what} must be below 2**1020")
    return float(value)


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, converted as ``np.asarray`` does; NaN and inf pass.

    ``None``, which numpy would convert to NaN, is not a number here either,
    and an ``int`` beyond the double range, which numpy cannot convert, is
    out of range.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype == object and any(v is None for v in arr.flat):
            raise TypeError
        return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be real numbers") from None
    except OverflowError:
        raise DomainError(f"{what} must be real numbers within the double range") from None


def _finite_array(values, what: str, positive: bool = False) -> np.ndarray:
    """``values`` as a float array of finite numbers, all above 0 with ``positive``."""
    arr = _real_array(values, what)
    if arr.size and (not np.all(np.isfinite(arr)) or positive and np.any(arr <= 0.0)):
        raise DomainError(f"{what} must be {'positive and ' if positive else ''}finite")
    return arr


def _scalar_or_array(out):
    """A 0-d result (a numpy scalar or a 0-d array) as a Python float; arrays pass through."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)
