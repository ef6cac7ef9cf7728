"""Log-gamma, digamma, trigamma and the inverse digamma function.

Log-gamma, digamma and trigamma are scipy's ``gammaln``, ``digamma`` and
Hurwitz ``zeta(2, .)`` behind one domain validation; against high-precision
reference values digamma and trigamma are accurate to about 1e-15 absolute.
The inverse digamma is solved by Newton iteration with a two-branch initial
guess that puts every starting point within a handful of quadratically
convergent steps of the root; on arrays, each entry stops as soon as it has
converged.  It stops at an absolute residual of ``_NEWTON_TOL`` and gives up
after ``_NEWTON_MAX_ITER`` steps.

All functions accept scalars or numpy arrays and are pure; they can be called
concurrently.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma as _scipy_digamma
from scipy.special import gammaln as _scipy_gammaln
from scipy.special import zeta as _scipy_zeta

from .errors import ConvergenceError, DomainError

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


def _as_positive_array(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError(f"{name} requires positive finite arguments")
    return arr


def _maybe_scalar(out, x):
    if np.ndim(x) == 0:
        return float(out)
    return out


def log_gamma(x):
    """Natural log of the gamma function, ln Gamma(x) for x > 0.

    Relative accuracy is at double-precision level except in the immediate
    neighbourhood of the zeros at x = 1 and x = 2, where the result is
    accurate in absolute terms (a limitation of any fixed-precision
    evaluation; the values at 1 and 2 themselves are exactly 0).
    """
    arr = _as_positive_array(x, "log_gamma")
    return _maybe_scalar(_scipy_gammaln(arr), x)


def digamma(x):
    """Digamma function psi(x) = d ln Gamma(x) / dx for x > 0.

    scipy's ``digamma`` behind the domain validation; absolute error is
    about 1e-15 against high-precision reference values.
    """
    arr = _as_positive_array(x, "digamma")
    return _maybe_scalar(_scipy_digamma(arr), x)


def trigamma(x):
    """Trigamma function psi'(x) for x > 0.

    psi'(x) is the Hurwitz zeta function zeta(2, x); scipy's ``zeta(2, x)``
    behind the domain validation.  It gives the bits of scipy's
    ``polygamma(1, x)``, which computes the same zeta after a digamma it
    discards.  Absolute error is about 1e-15 against high-precision
    reference values wherever a double can represent the value to that
    precision.
    """
    arr = _as_positive_array(x, "trigamma")
    return _maybe_scalar(_scipy_zeta(2.0, arr), x)


def inverse_digamma(y):
    """Inverse of the digamma function: x > 0 with digamma(x) = y.

    Newton iteration ``x <- x - (psi(x) - y) / psi'(x)`` started from
    ``exp(y) + 1/2`` for y >= -2.22 and ``-1/(y + EULER_GAMMA)`` below;
    both branches sit within a few quadratic steps of the root.  Each
    entry of an array argument iterates only until its own residual meets
    the tolerance, so every entry is bit-identical to the scalar solve of
    that entry, whatever else shares the call.

    Raises
    ------
    ConvergenceError
        If ``|psi(x) - y| <= _NEWTON_TOL`` is not reached within
        ``_NEWTON_MAX_ITER`` iterations (also when the root exceeds
        the double range, y > ~709.78).  The error carries the last
        iterate and the largest residual.
    """
    arr = np.asarray(y, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("inverse_digamma requires finite arguments")
    target = arr.ravel()
    w = np.empty_like(target)
    upper = target >= -2.22
    w[upper] = np.exp(np.minimum(target[upper], 709.0)) + 0.5
    w[~upper] = -1.0 / (target[~upper] + EULER_GAMMA)
    resid = digamma(w) - target
    active = np.flatnonzero(~(np.abs(resid) <= _NEWTON_TOL))
    for _ in range(_NEWTON_MAX_ITER):
        if not active.size:
            return _maybe_scalar(w.reshape(arr.shape), y)
        wa = w[active]
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = wa - resid[active] / trigamma(wa)
        bad = ~np.isfinite(nxt) | (nxt <= 0.0)
        if bad.any():
            nxt[bad] = 0.5 * wa[bad]
        w[active] = nxt
        r = digamma(nxt) - target[active]
        resid[active] = r
        active = active[~(np.abs(r) <= _NEWTON_TOL)]
    worst = int(np.argmax(np.abs(resid)))
    raise ConvergenceError(
        f"inverse_digamma did not converge within {_NEWTON_MAX_ITER} "
        f"iterations (residual {resid[worst]:.3e})",
        last_iterate=_maybe_scalar(w.reshape(arr.shape), y),
        residual=float(np.max(np.abs(resid))),
    )
