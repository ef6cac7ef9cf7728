"""Asymmetric kernels with support on (0, inf), evaluated in the log domain.

Six kernels are provided: the generalised-exponential kernel in its
mode-at-x parameterisation (``ge``, shape ``exp(x/b)``) and mean-at-x
parameterisation (``ge2``, shape ``nu(x/b)`` built from the inverse
digamma), Chen's two gamma kernels (``gam1``, ``gam2``), and Scaillet's
inverse-Gaussian and reciprocal inverse-Gaussian kernels (``ig``, ``rig``).

Everything is computed in the log domain: the GE shape ``exp(x/b)`` and the
gamma normalising constant overflow doubles long before the practically
useful bandwidth range is exhausted.  For shapes beyond ``exp(700)`` the
product ``(shape - 1) * log1p(-exp(-z/b))`` is regrouped as
``-exp(log_shape + log(-L))``, with the asymptotic branch
``L ~ -exp(-z/b) - exp(-2 z/b)/2`` once ``z/b > 36`` (below double epsilon).

One evaluator serves every caller.  It takes a column of locations x and a
row of data z and works in three steps: the terms that depend on x alone
(shapes, the gamma normaliser, the ``ge2`` shape from one array
inverse-digamma solve) are computed once per location, the terms that
depend on z alone (``log z``, ``z/b``, ``log(1 - exp(-z/b))``) once per
datum, and a broadcast combine forms the (locations, data) block of log
kernel values.  ``log_kernel`` is the single-location case; the estimator
runs the combine over blocks of grid rows.

References
----------
.. [1] Chen, S. X. 2000. "Probability density function estimation using
   gamma kernels." Annals of the Institute of Statistical Mathematics
   52 (3): 471-480.
.. [2] Scaillet, O. 2004. "Density estimation using inverse and reciprocal
   inverse Gaussian kernels." Journal of Nonparametric Statistics
   16 (1-2): 217-226.
.. [3] Gupta, R. D., and D. Kundu. 1999. "Generalized exponential
   distributions." Australian & New Zealand Journal of Statistics
   41 (2): 173-188.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import BoundaryDegeneracyError, DomainError
from .specfun import (
    DEFAULT_CONFIG,
    EULER_GAMMA,
    SpecFunConfig,
    inverse_digamma,
    log_gamma,
)

__all__ = [
    "Kernel",
    "DEFAULT_KERNELS",
    "log_kernel",
    "kernel_pdf",
    "ge2_shape",
    "gam2_shape",
]

_LOG2 = math.log(2.0)
_LOG_SHAPE_DIRECT_MAX = 700.0   # largest log-shape evaluated without regrouping
_ASYMPTOTIC_U = 36.0            # z/b beyond which log1p(-e^-u) = -e^-u to machine precision
_ASYMPTOTIC_Y = 36.0            # digamma argument beyond which psi-inverse(y) = e^y + 1/2 exactly


class Kernel(enum.Enum):
    """Kernel identities, with their canonical lowercase names as values."""

    GE = "ge"
    GE2 = "ge2"
    GAM1 = "gam1"
    GAM2 = "gam2"
    IG = "ig"
    RIG = "rig"

    @classmethod
    def parse(cls, name: str) -> "Kernel":
        """Map a canonical lowercase name to a kernel; reject anything else."""
        try:
            return cls(str(name).lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown kernel {name!r}; expected one of: {valid}") from None


#: Kernels entering benchmarks by default; ``ig`` is opt-in.
DEFAULT_KERNELS = (Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2, Kernel.RIG)

_GE_FAMILY = (Kernel.GE, Kernel.GE2)
_GAMMA_FAMILY = (Kernel.GAM1, Kernel.GAM2)


def _log1mexp(u):
    """log(1 - exp(-u)) for u > 0, accurate across the whole range."""
    with np.errstate(divide="ignore"):
        return np.where(u > _LOG2, np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))


def _ge2_shape(y, config):
    """GE2 shape ``nu`` and ``log nu`` at digamma targets ``y = x/b - EULER_GAMMA`` (1-D).

    Below ``_ASYMPTOTIC_Y`` the shape comes from one array inverse-digamma
    solve; ``log nu`` is meaningful only where ``nu > 0``.  Above it the
    closed form ``exp(y) - 1/2`` is used, with ``log nu`` kept finite where
    ``nu`` overflows to inf (y > 709.7).
    """
    with np.errstate(over="ignore"):
        nu = np.where(y > 709.7, math.inf, np.exp(y) - 0.5)
    log_nu = y + np.log1p(-0.5 * np.exp(-y))
    newton = y < _ASYMPTOTIC_Y
    if newton.any():
        nu_n = inverse_digamma(y[newton], config) - 1.0
        nu[newton] = nu_n
        with np.errstate(divide="ignore", invalid="ignore"):
            log_nu[newton] = np.log(nu_n)
    return nu, log_nu


def _gam2_shape(x, b):
    r = x / b
    return np.where(x >= 2.0 * b, r, 0.25 * r * r + 1.0)


class _LogKernel:
    """log K_{x,b}(z) for a column of locations x against a row of data z.

    The evaluation runs in three steps, so that no term is computed more
    often than the axis it depends on requires:

    1. per-location terms (the constructor): shapes, log-shapes, the gamma
       normaliser and the GE2 shape solve, once for every x;
    2. per-datum terms (:meth:`data`): ``log z``, ``z/b`` and
       ``log(1 - exp(-z/b))``, once for every z;
    3. the broadcast combine (:meth:`rows`) of a block of locations against
       all data.

    Every entry of the combined block goes through the same floating-point
    operations in the same order, whatever the block's size, so results do
    not depend on how a grid is split into blocks.  Locations must already
    be validated for the kernel and data must be positive and finite.
    """

    __slots__ = ("kernel", "b", "loc", "regroup")

    def __init__(self, kernel: Kernel, x: np.ndarray, b: float,
                 config: SpecFunConfig = DEFAULT_CONFIG):
        self.kernel = kernel
        self.b = b
        self.regroup = False
        if kernel in _GE_FAMILY:
            if kernel is Kernel.GE:
                log_shape = x / b
                with np.errstate(over="ignore"):
                    shape_m1 = np.expm1(log_shape)
            else:
                nu, log_shape = _ge2_shape(x / b - EULER_GAMMA, config)
                if np.any(nu <= 0.0):
                    raise DomainError("ge2 kernel requires x > 0 (shape would not be positive)")
                shape_m1 = nu - 1.0
            # beyond exp(700) the product (shape - 1) * log1p(-e^-u) is regrouped
            big = log_shape > _LOG_SHAPE_DIRECT_MAX
            self.regroup = bool(big.any())
            terms = (log_shape - math.log(b), shape_m1, log_shape, big)
        elif kernel in _GAMMA_FAMILY:
            shape = x / b + 1.0 if kernel is Kernel.GAM1 else _gam2_shape(x, b)
            terms = (shape - 1.0, shape * math.log(b), log_gamma(shape))
        elif kernel is Kernel.IG:
            terms = (x, 2.0 * b * x)
        else:
            s = x - b
            terms = (s, s / (2.0 * b))
        self.loc = tuple(t[:, None] for t in terms)  # columns, broadcast against data rows

    def data(self, z: np.ndarray) -> tuple:
        """Per-datum terms for a 1-D array of data."""
        kernel, b = self.kernel, self.b
        if kernel in _GE_FAMILY:
            u = z / b
            L = _log1mexp(u)
            log_neg_l = None
            if self.regroup:
                log_neg_l = np.where(
                    u > _ASYMPTOTIC_U,
                    -u + np.log1p(0.5 * np.exp(-u)),
                    np.log(-np.where(L < 0.0, L, -1.0)),
                )
            return u, L, log_neg_l
        if kernel in _GAMMA_FAMILY:
            return np.log(z), z / b
        c = -0.5 * math.log(2.0 * math.pi * b)
        return z, c - (1.5 if kernel is Kernel.IG else 0.5) * np.log(z)

    def rows(self, dat: tuple, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """log K for locations ``lo:hi`` against all data: a (rows, n) array."""
        kernel = self.kernel
        loc = self.loc if hi is None else tuple(t[lo:hi] for t in self.loc)
        if kernel in _GE_FAMILY:
            c0, shape_m1, log_shape, big = loc
            u, L, log_neg_l = dat
            if self.regroup and big.any():
                big = big[:, 0]
                T = np.empty((big.size, u.size))
                T[~big] = shape_m1[~big] * L
                with np.errstate(over="ignore"):
                    T[big] = -np.exp(log_shape[big] + log_neg_l)
            else:
                T = shape_m1 * L
            out = np.add(c0, T, out=T)
            out -= u
            return out
        if kernel in _GAMMA_FAMILY:
            shape_m1, shape_log_b, log_gamma_shape = loc
            log_z, zb = dat
            out = shape_m1 * log_z
            out -= zb
            out -= shape_log_b
            out -= log_gamma_shape
            return out
        z, base = dat
        if kernel is Kernel.IG:
            x, denom = loc
            with np.errstate(over="ignore"):
                q = z / x
                q -= 2.0
                q += x / z
                q /= denom
        else:
            s, half_s_over_b = loc
            q = z / s
            q -= 2.0
            q += s / z
            q *= half_s_over_b
        return np.subtract(base, q, out=q)


def _validate_point(kernel, x, b):
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("bandwidth b must be positive and finite")
    if not math.isfinite(x):
        raise DomainError("evaluation point x must be finite")
    if kernel is Kernel.RIG:
        if x <= b:
            raise BoundaryDegeneracyError(
                f"RIG kernel is undefined at x={x!r} with b={b!r}: it uses x - b as a scale"
            )
    elif kernel is Kernel.GE:
        if x < 0.0:
            raise DomainError("GE kernel requires x >= 0")
    elif x <= 0.0:
        raise DomainError(f"{kernel.value} kernel requires x > 0")


def _point_log_kernel(kernel: Kernel, x: float, b: float, config: SpecFunConfig = DEFAULT_CONFIG):
    """Validate the point (x, b) and return ``z -> log K_{x,b}(z)``.

    The location terms are computed here, once; each call of the returned
    function checks its data and computes only the per-datum terms and the
    combine, which is what a quadrature integrand needs.
    """
    _validate_point(kernel, x, b)
    ev = _LogKernel(kernel, np.array([float(x)]), b, config)

    def log_k(z):
        zarr = np.asarray(z, dtype=float)
        if zarr.ndim == 0:  # quadrature calls this once per node: keep it lean
            if not 0.0 < float(zarr) < math.inf:
                raise DomainError("kernel argument z must be positive and finite")
            return float(ev.rows(ev.data(zarr.reshape(1)))[0, 0])
        if zarr.size and (not np.all(np.isfinite(zarr)) or np.any(zarr <= 0.0)):
            raise DomainError("kernel argument z must be positive and finite")
        return ev.rows(ev.data(zarr.ravel()))[0].reshape(zarr.shape)

    return log_k


def log_kernel(kernel: Kernel, x: float, b: float, z, config: SpecFunConfig = DEFAULT_CONFIG):
    """Log of the kernel density K at datum z, for the kernel located at x.

    Parameters
    ----------
    kernel : Kernel
        Which kernel to evaluate.
    x : float
        Location of the estimator's argument.  Must be positive (``ge``
        also admits x = 0, where its shape collapses to 1 and the kernel
        is a unit-rate-1/b exponential; ``rig`` needs x > b).
    b : float
        Bandwidth, positive.
    z : float or ndarray
        Strictly positive evaluation points (the data, in estimator use).

    Returns
    -------
    float or ndarray
        ln K(z).  ``exp`` of the result matches the closed-form density
        wherever the latter is evaluable in doubles.
    """
    return _point_log_kernel(kernel, x, b, config)(z)


def kernel_pdf(kernel: Kernel, x: float, b: float, z, config: SpecFunConfig = DEFAULT_CONFIG):
    """Kernel density K(z); exp of :func:`log_kernel`."""
    return np.exp(log_kernel(kernel, x, b, z, config))


def ge2_shape(x: float, b: float, config: SpecFunConfig = DEFAULT_CONFIG) -> float:
    """Shape nu(x/b) of the mean-parameterised GE kernel.

    nu solves ``digamma(nu + 1) = x/b - EULER_GAMMA``, so that a
    GE(nu, rate 1/b) variable has mean exactly x.  Beyond
    ``x/b - EULER_GAMMA >= 36`` the closed asymptotic inverse
    ``exp(y) + 1/2`` is already exact to double precision and is used
    directly; the result overflows to inf once x/b exceeds ~710.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("bandwidth b must be positive and finite")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError("ge2_shape requires x >= 0")
    nu, _ = _ge2_shape(np.array([x / b - EULER_GAMMA]), config)
    return float(nu[0])


def gam2_shape(x: float, b: float) -> float:
    """Shape of Chen's boundary-corrected gamma kernel.

    ``x/b`` away from the origin (x >= 2b) and the quadratic splice
    ``(x/b)**2 / 4 + 1`` below it; the two branches meet at x = 2b.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("bandwidth b must be positive and finite")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError("gam2_shape requires x >= 0")
    return float(_gam2_shape(x, b))
