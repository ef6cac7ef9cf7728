"""Log-gamma, digamma, trigamma and the inverse digamma function.

Log-gamma, digamma and trigamma are scipy's ``gammaln``, ``digamma`` and
Hurwitz ``zeta(2, .)`` behind one domain validation; against high-precision
reference values digamma and trigamma are accurate to about 1e-15 absolute.
The inverse digamma is solved by Newton iteration with a two-branch initial
guess that puts every starting point within a handful of quadratically
convergent steps of the root; on arrays, each entry stops as soon as it has
converged.  It stops at an absolute residual of ``_NEWTON_TOL``, or of two
units in the last place of y where that is coarser (|y| >= 4096), and gives
up after ``_NEWTON_MAX_ITER`` steps; its iterates are positive and finite,
so it calls scipy's ``digamma`` and ``zeta(2, .)`` unvalidated.  A Python
float runs a float transcription of the array solve: the same ufuncs on
floats and the same arithmetic in the same order, so it has the bits of a
one-entry array without building one (the ``ge2`` shape of a single kernel
location is solved this way).

All functions accept scalars or numpy arrays and are pure; they can be called
concurrently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma as _scipy_digamma
from scipy.special import gammaln as _scipy_gammaln
from scipy.special import zeta as _scipy_zeta

from .errors import ConvergenceError, _finite_array, _real, _scalar_or_array

__all__ = [
    "EULER_GAMMA",
    "log_gamma",
    "digamma",
    "trigamma",
    "inverse_digamma",
]

#: Euler's constant, -psi(1).
EULER_GAMMA = 0.57721566490153286060651209008240243


#: Absolute tolerance on ``|digamma(x) - y|`` for the inverse-digamma solve.
_NEWTON_TOL = 1e-12

#: Newton steps before the inverse-digamma solve raises ConvergenceError.
_NEWTON_MAX_ITER = 100


def log_gamma(x):
    """Natural log of the gamma function, ln Gamma(x) for x > 0.

    Relative accuracy is at double-precision level except in the immediate
    neighbourhood of the zeros at x = 1 and x = 2, where the result is
    accurate in absolute terms (a limitation of any fixed-precision
    evaluation; the values at 1 and 2 themselves are exactly 0).
    """
    arr = _finite_array(x, "log_gamma argument", positive=True)
    return _scalar_or_array(_scipy_gammaln(arr))


def digamma(x):
    """Digamma function psi(x) = d ln Gamma(x) / dx for x > 0.

    scipy's ``digamma`` behind the domain validation; absolute error is
    about 1e-15 against high-precision reference values.
    """
    arr = _finite_array(x, "digamma argument", positive=True)
    return _scalar_or_array(_scipy_digamma(arr))


def trigamma(x):
    """Trigamma function psi'(x) for x > 0.

    psi'(x) is the Hurwitz zeta function zeta(2, x); scipy's ``zeta(2, x)``
    behind the domain validation.  It gives the bits of scipy's
    ``polygamma(1, x)``, which computes the same zeta after a digamma it
    discards.  Absolute error is about 1e-15 against high-precision
    reference values wherever a double can represent the value to that
    precision.
    """
    arr = _finite_array(x, "trigamma argument", positive=True)
    return _scalar_or_array(_scipy_zeta(2.0, arr))


def inverse_digamma(y):
    """Inverse of the digamma function: x > 0 with digamma(x) = y.

    Newton iteration ``x <- x - (psi(x) - y) / psi'(x)`` started from
    ``exp(y) + 1/2`` for y >= -2.22 and ``-1/(y + EULER_GAMMA)`` below;
    both branches sit within a few quadratic steps of the root.  A step
    that is not finite or not positive is replaced by halving x.  Each
    entry of an array argument iterates only until its own residual meets
    the tolerance, ``max(_NEWTON_TOL, 2 * spacing(|y|))``: 1e-12 below
    |y| = 4096, and two units in the last place of y from there on, where
    1e-12 is finer than the doubles near y.  So every entry is bit-identical
    to the scalar solve of that entry, whatever else shares the call.  A
    Python float takes a float transcription of the same iteration and
    returns a float with the same bits.

    Raises
    ------
    ConvergenceError
        If the tolerance is not reached within ``_NEWTON_MAX_ITER``
        iterations (also when the root exceeds the double range,
        y > ~709.78).  The error carries the last iterate and the largest
        residual.
    """
    if type(y) is float:
        return _inverse_digamma_float(_real(y, "inverse_digamma argument"))
    return _scalar_or_array(_inverse_digamma_array(_finite_array(y, "inverse_digamma argument")))


def _inverse_digamma_array(arr: np.ndarray) -> np.ndarray:
    """``inverse_digamma`` of a float array of finite entries, as an array of its shape.

    Its callers check the entries: the public function, or the array ``ge2``
    shape solve, whose entries come from a checked grid.
    """
    target = arr.ravel()
    tol = np.maximum(_NEWTON_TOL, 2.0 * np.spacing(np.abs(target)))
    w = np.empty_like(target)
    upper = target >= -2.22
    w[upper] = np.exp(np.minimum(target[upper], 709.0)) + 0.5
    w[~upper] = -1.0 / (target[~upper] + EULER_GAMMA)
    resid = _scipy_digamma(w) - target
    active = np.flatnonzero(~(np.abs(resid) <= tol))
    for _ in range(_NEWTON_MAX_ITER):
        if not active.size:
            return w.reshape(arr.shape)
        wa = w[active]
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = wa - resid[active] / _scipy_zeta(2.0, wa)
        bad = ~np.isfinite(nxt) | (nxt <= 0.0)
        if bad.any():
            nxt[bad] = 0.5 * wa[bad]
        w[active] = nxt
        r = _scipy_digamma(nxt) - target[active]
        resid[active] = r
        active = active[~(np.abs(r) <= tol[active])]
    worst = int(np.argmax(np.abs(resid)))
    raise _no_convergence(resid[worst], _scalar_or_array(w.reshape(arr.shape)),
                          float(np.max(np.abs(resid))))


def _inverse_digamma_float(y: float) -> float:
    """``inverse_digamma`` of one float: the array solve, transcribed bit for bit.

    The same start, stop and step, with scipy's ``digamma`` and
    ``zeta(2, .)`` and numpy's ``exp`` and ``spacing`` called on floats (on
    a scalar a ufunc runs the loop it runs on an array) and float
    arithmetic in the array path's order.  Every iterate is positive and
    finite, where both special functions are finite and the trigamma is
    positive, so nothing here divides by zero or needs an ``np.errstate``;
    an overflowing step is inf, as in numpy, and is halved.  y is finite:
    its callers check it, or take it from a finite r = x/b.
    """
    tol = max(_NEWTON_TOL, 2.0 * float(np.spacing(abs(y))))
    if y >= -2.22:
        w = float(np.exp(min(y, 709.0))) + 0.5
    else:
        w = -1.0 / (y + EULER_GAMMA)
    resid = float(_scipy_digamma(w)) - y
    for _ in range(_NEWTON_MAX_ITER):
        if abs(resid) <= tol:
            return w
        nxt = w - resid / float(_scipy_zeta(2.0, w))
        if not 0.0 < nxt < math.inf:
            nxt = 0.5 * w
        w = nxt
        resid = float(_scipy_digamma(w)) - y
    raise _no_convergence(resid, w, abs(resid))


def _no_convergence(worst, last_iterate, residual) -> ConvergenceError:
    return ConvergenceError(
        f"inverse_digamma did not converge within {_NEWTON_MAX_ITER} "
        f"iterations (residual {worst:.3e})",
        last_iterate=last_iterate,
        residual=residual,
    )
