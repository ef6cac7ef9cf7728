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

The GE and gamma kernels share one combine,
``log K = (c0 + (shape - 1) L) - z/b``: L is ``log(1 - exp(-z/b))`` for the
GE kernels and ``log z`` for the gamma kernels, and c0 is one per-location
term, ``log shape - log b`` for GE and the whole gamma normaliser
``-(shape log b + log Gamma(shape))`` for gamma.  The combine is one
matrix product of rank 3: the location matrix has the rows
``[shape - 1, c0, 1]`` and the data matrix the columns ``[L, 1, -z/b]``, and
BLAS ``dgemm`` adds the three products of an entry in that order.  The two
unit products are exact, so every entry, infinities included, has the bits
of ``(c0 + (shape - 1) L) - z/b``.  Chen's gamma kernels need the special
function Gamma only once per location, never per entry.

The ``ig`` and ``rig`` exponents, ``(x/(2b)) (z/x - 2 + x/z)`` with scale x
or ``s = x - b``, are formed without that sum, which cancels near z = s:
``rig`` takes ``((z - s)/z) ((z - s)/(2b))`` and ``ig`` takes ``e * e/(2 b z)``
with ``e = (z - x)/x``.  Each reciprocal is a per-datum (``1/z``,
``1/(2 b z)``) or per-location (``1/x``, ``1/(2b)``) term, so an entry
costs a subtraction and multiplications.  Every factor is a ratio that
overflows only where the exponent nearly does, and the exponent is exactly
0 at z = s.  A location whose reciprocal term would overflow raises
:class:`DomainError`.

One evaluator serves every caller.  It takes a column of locations x and a
row of data z and works in three steps: the terms that depend on x alone
(shapes, the gamma normaliser, the ``ge2`` shape from one array
inverse-digamma solve) are computed once per location, the terms that
depend on z alone (``log z``, ``z/b``, ``log(1 - exp(-z/b))``) once per
datum, and the combine forms the (locations, data) block of log kernel
values: a matrix product for the GE and gamma kernels, a broadcast for
``ig`` and ``rig``.  The bandwidth may also be a column of R bandwidths, one
per sample of a stack of R samples (the replications of a Monte Carlo cell):
the location terms are then (R, locations) and the data terms (R, data),
and the combine takes one sample of the stack at a time, each entry through
the same operations as with a scalar bandwidth.  The estimator runs the
combine over blocks of grid rows; ``log_kernel`` is the single-location
case.  A single datum given as a float (a quadrature node) takes a float
transcription of the per-datum terms and the combine, on the same location
terms: the same numpy ufuncs and the same arithmetic in the same order, so
its value has the block path's bits without building an array.

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
from scipy.linalg.blas import dgemm

from .errors import BoundaryDegeneracyError, DomainError
from .specfun import EULER_GAMMA, inverse_digamma, log_gamma

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
_DBL_MAX = float(np.finfo(float).max)  # largest double
_LOG_DBL_MAX = math.log(_DBL_MAX)  # np.exp overflows to inf above this, and only there
_TINY = np.finfo(float).tiny    # smallest normal double

#: Below this x/b the GE2 shape is the inverted series of
#: ``psi(1 + nu) + EULER_GAMMA = zeta(2) nu - zeta(3) nu**2 + zeta(4) nu**3 - ...``
#: (Abramowitz & Stegun 6.3.14), whose coefficients, highest power first, are
#: ``_SERIES_NU``: nu = (6/pi**2) r + (zeta(3)/zeta(2)**3) r**2 + ... to r**5.
#: The terms left out are below 2e-18 of nu there (against a 50-digit root).
_SERIES_R = 1e-3
_SERIES_NU = (0.004810711440165366, 0.024237565814346062, 0.09212914889612564,
              0.27007198834520158, 0.6079271018540267)


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
#: The kernels that share the combine ``(c0 + (shape - 1) L) - z/b``.
_EXP_FAMILIES = _GE_FAMILY + _GAMMA_FAMILY


def _log1mexp(u):
    """log(1 - exp(-u)) for u > 0, accurate across the whole range."""
    with np.errstate(divide="ignore"):
        return np.where(u > _LOG2, np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))


def _log_each(b):
    """``math.log`` of a bandwidth, or of each entry of an array of them.

    ``np.log`` may differ from ``math.log`` in the last bit, so a batch of
    bandwidths takes the scalar function per entry and every term that
    depends on log b keeps the bits it has with a single bandwidth.
    """
    if isinstance(b, np.ndarray):
        return np.array([math.log(v) for v in b.ravel().tolist()]).reshape(b.shape)
    return math.log(b)


def _ge2_shape(r):
    """GE2 shape ``nu`` and ``log nu`` at ``r = x/b`` (an array of any shape).

    nu solves ``psi(1 + nu) = y`` with ``y = r - EULER_GAMMA``.  Below
    ``_SERIES_R`` it is the inverted series in r itself (``y`` would have
    lost r against EULER_GAMMA), below ``_ASYMPTOTIC_Y`` one array
    inverse-digamma solve; ``log nu`` is meaningful only where ``nu > 0``.
    Above it the closed form ``exp(y) - 1/2`` is used, with ``log nu`` kept
    finite where ``nu`` overflows to inf (y > 709.7).
    """
    y = r - EULER_GAMMA
    with np.errstate(over="ignore"):
        nu = np.where(y > 709.7, math.inf, np.exp(y) - 0.5)
    log_nu = y + np.log1p(-0.5 * np.exp(-y))
    series = r < _SERIES_R
    newton = (y < _ASYMPTOTIC_Y) & ~series
    with np.errstate(divide="ignore", invalid="ignore"):
        if newton.any():
            nu_n = inverse_digamma(y[newton]) - 1.0
            nu[newton] = nu_n
            log_nu[newton] = np.log(nu_n)
        if series.any():
            r_s = r[series]
            nu_s = r_s * np.polyval(_SERIES_NU, r_s)
            nu[series] = nu_s
            log_nu[series] = np.log(nu_s)
    return nu, log_nu


def _gam2_shape(x, b):
    r = x / b
    return np.where(x >= 2.0 * b, r, 0.25 * r * r + 1.0)


def _rescale_error(kernel, what, bad, x, b):
    """DomainError naming the kernel and the first (x, b) at which ``bad`` holds."""
    at = np.argwhere(bad)[0]
    b_at = b if np.ndim(b) == 0 else b.ravel()[at[0]]
    return DomainError(
        f"{kernel.value} kernel: {what} at x = {float(x[at[-1]])!r}, "
        f"b = {float(b_at)!r}; rescale the data"
    )


def _reject_inf(kernel, what, t, x, b):
    """Raise the :func:`_rescale_error` for ``what`` where a location term ``t`` is inf."""
    bad = np.isinf(t)
    if bad.any():
        raise _rescale_error(kernel, what, bad, x, b)


class _LogKernel:
    """log K_{x,b}(z) for a column of locations x against a row of data z.

    The evaluation runs in three steps, so that no term is computed more
    often than the axis it depends on requires:

    1. per-location terms (the constructor): shapes, log-shapes, the GE2
       shape solve and the constant term c0, once for every x;
    2. per-datum terms (:meth:`data`): ``log z``, ``z/b``,
       ``log(1 - exp(-z/b))`` and the reciprocals ``1/z`` (``rig``) and
       ``1/(2 b z)`` (``ig``), once for every z;
    3. the combine (:meth:`rows`) of a block of locations against all data.

    The GE and gamma families share one combine, ``(c0 + (shape - 1) L) -
    z/b``, computed as the product of the location matrix ``mat``, rows
    ``[shape - 1, c0, 1]``, and the data matrix, rows ``[L, 1, -z/b]``:
    one ``dgemm`` per block, with the bits of the formula.
    numpy's ``matmul`` would not do: it sends a one-row product to gemv,
    which sums in another order.  Only GE shapes reach the shape-1 and
    regrouped rows (``special``), whose rows of the product are written
    over.

    ``b`` is a float, or an (R, 1) column of bandwidths for a stack of R
    samples: the location terms are then (R, G) and :meth:`data` takes an
    (R, n) array, one sample per row.  Every entry of the combined block
    goes through the same floating-point operations in the same order,
    whatever the block's size and however many samples share it, so results
    do not depend on how a grid or a stack is split into blocks.  Locations
    must already be validated for the kernel and data must be positive and
    finite.  A location where x/b overflows (every kernel but ``ig``),
    2*b*x underflows or 1/x overflows (``ig``), or 1/(x - b) or 1/(2b)
    overflows (``rig``) raises :class:`DomainError`.  The ``ig`` and ``rig``
    combine is a subtraction and multiplications, and its factors are
    ratios; at z = x
    (``ig``) or z = x - b (``rig``) these guards keep every factor finite,
    so the quadratic term there is exactly 0, never ``0 * inf``.
    """

    __slots__ = ("kernel", "b", "loc", "mat", "regroup", "special")

    def __init__(self, kernel: Kernel, x: np.ndarray, b):
        self.kernel = kernel
        self.b = b
        self.regroup = self.special = False
        log_b = _log_each(b)
        if kernel is not Kernel.IG:
            with np.errstate(over="ignore"):
                r = x / b
            if not np.isfinite(r).all():
                raise _rescale_error(kernel, "x/b overflows", ~np.isfinite(r), x, b)
        if kernel in _GE_FAMILY:
            if kernel is Kernel.GE:
                log_shape = r
                with np.errstate(over="ignore"):
                    shape_m1 = np.expm1(log_shape)
            else:
                nu, log_shape = _ge2_shape(r)
                if np.any(nu <= 0.0):
                    raise _rescale_error(kernel, "x/b underflows", nu <= 0.0, x, b)
                shape_m1 = nu - 1.0
            # beyond exp(700) the product (shape - 1) * log1p(-e^-u) is
            # regrouped; at shape 1 it is 0 even where z/b underflows and
            # log1p(-e^-u) is -inf
            big = log_shape > _LOG_SHAPE_DIRECT_MAX
            special = big | (shape_m1 == 0.0)
            self.special = bool(special.any())
            self.regroup = self.special and bool(big.any())
            terms = (log_shape - log_b, shape_m1, log_shape, special)
        elif kernel in _GAMMA_FAMILY:
            shape = r + 1.0 if kernel is Kernel.GAM1 else _gam2_shape(x, b)
            terms = (-(shape * log_b + log_gamma(shape)), shape - 1.0)
        elif kernel is Kernel.IG:
            # 2*b*x >= tiny keeps 1/(2 b z) finite at z = x, where the
            # quadratic term is 0
            denom = 2.0 * b * x
            bad = denom < _TINY
            if bad.any():
                raise _rescale_error(kernel, "2*b*x underflows", bad, x, b)
            with np.errstate(over="ignore"):
                inv_x = np.broadcast_to(1.0 / x, denom.shape)
            _reject_inf(kernel, "1/x overflows", inv_x, x, b)
            terms = (np.broadcast_to(x, denom.shape), inv_x)
        else:
            # a finite 1/(x - b) keeps 1/z finite at z = x - b, where the
            # quadratic term is 0, and a finite 1/(2b) keeps it 0 there
            s = x - b
            with np.errstate(over="ignore"):
                _reject_inf(kernel, "1/(x - b) overflows", 1.0 / s, x, b)
                half_inv_b = np.broadcast_to(0.5 / b, s.shape)
            _reject_inf(kernel, "1/(2b) overflows", half_inv_b, x, b)
            terms = (s, half_inv_b)
        self.loc = tuple(t[..., None] for t in terms)  # columns, broadcast against data rows
        if kernel in _EXP_FAMILIES:
            c0, shape_m1 = self.loc[:2]
            self.mat = np.concatenate((shape_m1, c0, np.ones_like(c0)), axis=-1)

    def data(self, z: np.ndarray) -> tuple:
        """Per-datum terms: z is 1-D, or (R, n) for a column of R bandwidths.

        The GE and gamma kernels have the data matrix, rows ``[L, 1, -z/b]``
        of shape (3, n), or (R, 3, n), and ``log(-L)`` if some GE rows are
        regrouped; ``ig`` and ``rig`` have z, ``base`` and ``w``.  Every term
        but the data matrix gains an axis before its last, so that it
        broadcasts against the location columns.
        """
        kernel, b = self.kernel, self.b
        if kernel in _EXP_FAMILIES:
            mat = np.empty(z.shape[:-1] + (3, z.shape[-1]))
            L, u = mat[..., 0, :], mat[..., 2, :]
            with np.errstate(over="ignore"):  # z/b = inf is right: log K = -inf
                np.divide(z, b, out=u)
            mat[..., 1, :] = 1.0
            terms = (mat,)
            if kernel in _GAMMA_FAMILY:
                np.log(z, out=L)
            else:
                L[...] = _log1mexp(u)
                if self.regroup:
                    terms += (np.where(
                        u > _ASYMPTOTIC_U,
                        -u + np.log1p(0.5 * np.exp(-u)),
                        np.log(-np.where(L < 0.0, L, -1.0)),
                    )[..., None, :],)
            np.negative(u, out=u)
            return terms
        c = -0.5 * _log_each(2.0 * math.pi * b)
        with np.errstate(over="ignore", divide="ignore"):  # an infinite reciprocal is log K = -inf
            if kernel is Kernel.IG:
                base = c - 1.5 * np.log(z)
                # 1/(2 b z), never 0: where 2 b z overflows, 1/DBL_MAX
                w = 1.0 / np.minimum(2.0 * b * z, _DBL_MAX)
            else:
                base = c - 0.5 * np.log(z)
                w = 1.0 / z
        return z[..., None, :], base[..., None, :], w[..., None, :]

    def take(self, r: int) -> "_LogKernel":
        """The evaluator of sample ``r`` of a stack, for :meth:`rows`.

        Its location terms are (G, 1) columns, as with a scalar bandwidth;
        pass it the data terms of the same sample (``t[r]`` of each term of
        :meth:`data`), or columns of them (:func:`_columns`).
        """
        sub = object.__new__(_LogKernel)
        sub.kernel, sub.regroup, sub.special = self.kernel, self.regroup, self.special
        sub.b = self.b[r]
        sub.loc = tuple(t[r] for t in self.loc)
        if self.kernel in _EXP_FAMILIES:
            sub.mat = self.mat[r]
        return sub

    def rows(self, dat: tuple, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """log K for locations ``lo:hi`` against all data: a (rows, n) array.

        The location terms are (G, 1) columns: those of a scalar bandwidth,
        or of one sample of a stack (see :meth:`take`).  For the GE and
        gamma kernels the block is one ``dgemm`` of the location matrix
        against the data matrix; the rows of GE special locations are then
        written over with their own formula.
        """
        kernel = self.kernel
        if kernel in _EXP_FAMILIES:
            # gemm takes k in order: ((shape - 1) L + c0 * 1) + 1 * (-z/b),
            # and the two unit products are exact.  Computed transposed: the
            # Fortran (n, rows) result is the C-ordered (rows, n) block
            out = dgemm(1.0, dat[0].T, self.mat[lo:hi].T).T
            if self.special and self.loc[3][lo:hi].any():
                c0, _, log_shape, special = (t[lo:hi, 0] for t in self.loc)
                neg_u = dat[0][2]
                big = special & (log_shape > _LOG_SHAPE_DIRECT_MAX)
                if big.any():
                    with np.errstate(over="ignore"):
                        T = -np.exp(log_shape[big, None] + dat[1])
                    out[big] = (c0[big, None] + T) + neg_u
                # shape 1: (shape - 1) L is -0.0, even where L is -inf, and
                # c0 + -0.0 is c0
                one = special & ~big
                out[one] = c0[one, None] + neg_u
            return out
        loc = self.loc if hi is None else tuple(t[lo:hi] for t in self.loc)
        z, base, w = dat
        with np.errstate(over="ignore"):  # an overflowing product is log K = -inf
            if kernel is Kernel.IG:
                x, inv_x = loc
                e = np.subtract(z, x)
                e *= inv_x
                q = e * w
                q *= e
            else:
                s, half_inv_b = loc
                d = np.subtract(z, s)
                q = d * w
                d *= half_inv_b
                q *= d
        return np.subtract(base, q, out=q)


def _columns(dat: tuple, cols) -> tuple:
    """The data terms of one sample (see ``_LogKernel.take``) at columns ``cols``.

    Every term, the GE/gamma data matrix included, has its data along its last axis.
    """
    return tuple(t[:, cols] for t in dat)


def _validate_point(kernel, x, b):
    """The domain table: ``ge`` needs x >= 0, every other kernel x > 0, ``rig`` x > b."""
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("bandwidth b must be positive and finite")
    if not math.isfinite(x):
        raise DomainError("evaluation point x must be finite")
    if kernel is Kernel.GE:
        if x < 0.0:
            raise DomainError("GE kernel requires x >= 0")
    elif x <= 0.0:
        raise DomainError(f"{kernel.value} kernel requires x > 0")
    elif kernel is Kernel.RIG and x <= b:
        raise BoundaryDegeneracyError(
            f"RIG kernel is undefined at x={x!r} with b={b!r}: it uses x - b as a scale"
        )


def _float_log_kernel(ev: _LogKernel):
    """``z -> log K`` for the one location of ``ev``, on a positive finite float.

    A transcription of ``ev.rows(ev.data(...))`` for a single datum, bit for
    bit: the location terms are read once as floats, every transcendental is
    the numpy ufunc the block path applies (on a scalar it runs the same
    loop), the combine is float arithmetic in the order of the block path's
    sum (``(shape - 1) L + c0`` is ``c0 + T``, and adding ``-z/b`` is
    subtracting ``z/b``), and
    each ``np.where`` is an ``if`` that takes the same branch.  The branches
    keep every ufunc off its divide-by-zero and overflow cases, so no
    ``np.errstate`` is needed; float arithmetic itself never warns, and the
    one divisor that can be zero, an ``ig`` 2 b z that underflows, takes the
    inf that numpy's division gives it.
    """
    kernel, b = ev.kernel, ev.b
    loc = [t.item() for t in ev.loc]
    if kernel in _EXP_FAMILIES:
        c0, shape_m1 = loc[:2]
        gamma = kernel in _GAMMA_FAMILY
        log_shape, special = (0.0, False) if gamma else loc[2:]

        def log_k(z):
            u = z / b
            if gamma:
                L = float(np.log(z))
            elif u > _LOG2:
                L = float(np.log1p(-np.exp(-u)))
            elif u > 0.0:
                L = float(np.log(-np.expm1(-u)))
            else:  # z/b underflowed to 0: log(0)
                L = -math.inf
            if not special:
                T = shape_m1 * L
            elif log_shape > _LOG_SHAPE_DIRECT_MAX:
                if u > _ASYMPTOTIC_U:
                    log_neg_l = -u + float(np.log1p(0.5 * np.exp(-u)))
                else:  # here L < 0
                    log_neg_l = float(np.log(-L))
                e = log_shape + log_neg_l
                T = -math.inf if e > _LOG_DBL_MAX else -float(np.exp(e))
            else:  # shape 1, as in the block path
                T = -0.0
            return c0 + T - u

        return log_k
    c = -0.5 * math.log(2.0 * math.pi * b)  # as in ``data``
    if kernel is Kernel.IG:
        x, inv_x = loc

        def log_k(z):
            t = 2.0 * b * z
            w = 1.0 / min(t, _DBL_MAX) if t > 0.0 else math.inf
            e = (z - x) * inv_x
            return (c - 1.5 * float(np.log(z))) - (e * w) * e

        return log_k
    s, half_inv_b = loc

    def log_k(z):
        d = z - s
        return (c - 0.5 * float(np.log(z))) - (d * (1.0 / z)) * (d * half_inv_b)

    return log_k


def _point_log_kernel(kernel: Kernel, x: float, b: float):
    """Validate the point (x, b) and return ``z -> log K_{x,b}(z)``.

    The location terms are computed here, once; each call of the returned
    function checks its data and computes only the per-datum terms and the
    combine, which is what a quadrature integrand needs.  An array of data
    runs the block combine; a single datum runs ``_float_log_kernel`` and
    returns a Python float with the same bits.
    """
    _validate_point(kernel, x, b)
    ev = _LogKernel(kernel, np.array([float(x)]), b)
    at_float = _float_log_kernel(ev)

    def log_k(z):
        if type(z) is not float:
            zarr = np.asarray(z, dtype=float)
            if zarr.ndim:
                if zarr.size and (not np.all(np.isfinite(zarr)) or np.any(zarr <= 0.0)):
                    raise DomainError("kernel argument z must be positive and finite")
                return ev.rows(ev.data(zarr.ravel()))[0].reshape(zarr.shape)
            z = float(zarr)
        if not 0.0 < z < math.inf:
            raise DomainError("kernel argument z must be positive and finite")
        return at_float(z)

    return log_k


def log_kernel(kernel: Kernel, x: float, b: float, z):
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
    return _point_log_kernel(kernel, x, b)(z)


def kernel_pdf(kernel: Kernel, x: float, b: float, z):
    """Kernel density K(z); exp of :func:`log_kernel`."""
    return np.exp(log_kernel(kernel, x, b, z))


def ge2_shape(x: float, b: float) -> float:
    """Shape nu(x/b) of the mean-parameterised GE kernel.

    nu solves ``digamma(nu + 1) = x/b - EULER_GAMMA``, so that a
    GE(nu, rate 1/b) variable has mean exactly x.  Below x/b = 1e-3 nu is
    the inverted series of ``digamma(nu + 1) + EULER_GAMMA`` in x/b, which
    keeps its relative precision down to the smallest x/b.  Beyond
    ``x/b - EULER_GAMMA >= 36`` the closed asymptotic inverse
    ``exp(y) + 1/2`` is already exact to double precision and is used
    directly; the result overflows to inf once x/b exceeds ~710.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("bandwidth b must be positive and finite")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError("ge2_shape requires x >= 0")
    nu, _ = _ge2_shape(np.array([x / b]))
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
