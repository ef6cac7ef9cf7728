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
costs a subtraction and multiplications.  For a block of several samples'
grids the subtraction is one matrix product of rank 2, the location rows
``[1, -x]`` (``ig``) or ``[1, -s]`` (``rig``) against the data columns
``[z, 1]``: both products are exact and their one addition is
``z + (-s)``, so the difference has the bits of ``z - s``.  Every factor
is a ratio that overflows only where the exponent nearly does, and the
exponent is exactly 0 at z = s.  A location that fails a guard (a
reciprocal term that would overflow, say) raises :class:`DomainError` from
the one-location build, where every guard is written; of several, the
first in row-major order is reported, with its first failing guard.

One evaluator serves every caller.  It takes a column of locations x and a
row of data z and works in three steps: the terms that depend on x alone
(shapes, the gamma normaliser, the ``ge2`` shape from one array
inverse-digamma solve) are computed once per location, the terms that
depend on z alone (``log z``, ``z/b``, ``log(1 - exp(-z/b))``) once per
datum, as the rows of one array with the data along its last axis, and the
combine forms the (locations, data) block of log kernel values: a matrix
product for the GE and gamma kernels, a broadcast for ``ig`` and ``rig``
(whose difference ``z - s`` is a rank-2 product in a block of samples).
The bandwidth may also be a column of R bandwidths, one per sample of a
stack of R samples (the replications of a Monte Carlo cell): the location
terms are then (R, locations) and the data terms (R, rows, data), and the
combine takes one sample of the stack at a time, or the whole grids of
consecutive samples at once (one stacked matrix product for the GE and
gamma kernels, and for the ``ig`` and ``rig`` difference), each entry
through the same operations as with a scalar bandwidth.  The estimator
runs the combine over blocks of grid rows, or of samples; ``log_kernel``
and ``exact_estimator_moments`` are the
single-location case, whose location terms are built on Python floats
through the same branches and ufuncs, with the bits of a one-location array
build and without its fixed array cost, and a single datum is a one-entry
row through the same combine.  The GE kernels also invert their cdf in
closed form (``_ge_quantiles``), with no special function;
``exact_estimator_moments`` integrates a ``ge2`` kernel of shape below 1
in its probability through it.

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
from scipy.special import gammaln as _gammaln

from .errors import (BoundaryDegeneracyError, DomainError, _finite_array, _nonnegative,
                     _positive, _real, _scalar_or_array)
from .specfun import EULER_GAMMA, _inverse_digamma_array, _inverse_digamma_float

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
_TINY = float(np.finfo(float).tiny)  # smallest normal double

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


def _as_kernel(kernel) -> Kernel:
    """A kernel argument as a :class:`Kernel`: a member as it is, a name by ``Kernel.parse``."""
    return kernel if isinstance(kernel, Kernel) else Kernel.parse(kernel)


#: Kernels entering benchmarks by default; ``ig`` is opt-in.
DEFAULT_KERNELS = (Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2, Kernel.RIG)

_GE_FAMILY = (Kernel.GE, Kernel.GE2)
_GAMMA_FAMILY = (Kernel.GAM1, Kernel.GAM2)
#: The kernels that share the combine ``(c0 + (shape - 1) L) - z/b``.
_EXP_FAMILIES = _GE_FAMILY + _GAMMA_FAMILY


def _log1mexp(u, out=None):
    """log(1 - exp(-u)) for an array u >= 0, accurate across the whole range.

    ``log1p(-exp(-u))`` above log 2 and ``log(-expm1(-u))`` at or below it
    (NaN included), each evaluated only on its own entries: every ufunc but
    the two negations runs with ``where=`` on its form's mask, in place in
    ``out`` (a new array if None; it may be u itself), with no gather or
    scatter, and with the bits of each form evaluated on its entries alone.
    """
    big = u > _LOG2
    small = ~big
    out = np.negative(u, out=out)
    np.exp(out, out=out, where=big)
    np.expm1(out, out=out, where=small)
    np.negative(out, out=out)
    np.log1p(out, out=out, where=big)
    with np.errstate(divide="ignore"):  # log(0) = -inf at u = 0
        np.log(out, out=out, where=small)
    return out


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
    finite where ``nu`` overflows to inf (y > 709.7).  One location takes
    :func:`_ge2_shape_at` instead, in the float build of ``_LogKernel``,
    with the bits of a one-entry array here.
    """
    y = r - EULER_GAMMA
    with np.errstate(over="ignore"):
        nu = np.where(y > 709.7, math.inf, np.exp(y) - 0.5)
    log_nu = y + np.log1p(-0.5 * np.exp(-y))
    series = r < _SERIES_R
    newton = (y < _ASYMPTOTIC_Y) & ~series
    with np.errstate(divide="ignore", invalid="ignore"):
        if newton.any():
            nu_n = _inverse_digamma_array(y[newton]) - 1.0
            nu[newton] = nu_n
            log_nu[newton] = np.log(nu_n)
        if series.any():
            r_s = r[series]
            nu_s = r_s * np.polyval(_SERIES_NU, r_s)
            nu[series] = nu_s
            log_nu[series] = np.log(nu_s)
    return nu, log_nu


def _ge2_shape_at(r: float) -> tuple:
    """``_ge2_shape`` at one float r: the same branches on floats, bit for bit.

    Each ``np.where`` and mask is an ``if``, each ufunc the one the array
    path applies (on a scalar it runs the same loop), the series is the
    same ``np.polyval`` call, and the Newton branch is the float solve
    ``specfun._inverse_digamma_float``.  The branches keep ``np.exp`` from
    overflowing and ``np.log`` off 0, so no ``np.errstate`` is needed.
    """
    y = r - EULER_GAMMA
    if r < _SERIES_R:
        nu = r * float(np.polyval(_SERIES_NU, r))
        return nu, float(np.log(nu)) if nu > 0.0 else -math.inf
    if y < _ASYMPTOTIC_Y:
        nu = _inverse_digamma_float(y) - 1.0
        return nu, float(np.log(nu))
    nu = math.inf if y > 709.7 else float(np.exp(y)) - 0.5
    return nu, y + float(np.log1p(-0.5 * float(np.exp(-y))))


def _gam2_shape(x, b):
    r = x / b
    with np.errstate(over="ignore"):  # the splice overflows only where x >= 2b takes r
        return np.where(x >= 2.0 * b, r, 0.25 * r * r + 1.0)


def _rescale_at(kernel, what, x: float, b: float):
    """DomainError naming the kernel, what went wrong and the (x, b) where it did."""
    return DomainError(f"{kernel.value} kernel: {what} at x = {x!r}, b = {b!r}; rescale the data")


class _LogKernel:
    """log K_{x,b}(z) for a column of locations x against a row of data z.

    The evaluation runs in three steps, so that no term is computed more
    often than the axis it depends on requires:

    1. per-location terms (the constructor): shapes, log-shapes, the GE2
       shape solve and the constant term c0, once for every x; one location
       with a float bandwidth takes :meth:`_terms_at`, on floats;
    2. per-datum terms (:meth:`data`): ``log z``, ``z/b``,
       ``log(1 - exp(-z/b))`` and the reciprocals ``1/z`` (``rig``) and
       ``1/(2 b z)`` (``ig``), once for every z, as the rows of one array;
    3. the combine (:meth:`rows`) of a block of locations against all data.

    The GE and gamma families share one combine, ``(c0 + (shape - 1) L) -
    z/b``, computed as the product of the location matrix ``mat``, rows
    ``[shape - 1, c0, 1]``, and the data matrix, rows ``[L, 1, -z/b]``:
    one ``dgemm`` per block, with the bits of the formula.  numpy's
    ``matmul`` would not do for one block: it sends a one-row product to
    gemv, which sums in another order.  It does for a stack of samples'
    whole grids of at least 2 points each (:meth:`grids`): numpy sends each
    slice to gemm, with the bits of ``dgemm``.  Only GE shapes reach the
    shape-1 and regrouped rows (``special``), whose rows of the product are
    written over.  For ``ig`` and ``rig`` ``mat`` has the rows ``[1, -x]``
    and ``[1, -s]``, which :meth:`grids` multiplies by the data rows
    ``[z; 1]``: the stacked product gives each entry's ``z - s``, bit for
    bit, and the factors then run on the whole stack in the order of
    :meth:`rows`.

    ``b`` is a float, or an (R, 1) column of bandwidths for a stack of R
    samples: the location terms are then (R, G) and :meth:`data` takes an
    (R, n) array, one sample per row.  Every entry of the combined block
    goes through the same floating-point operations in the same order,
    whatever the block's size and however many samples share it, so results
    do not depend on how a grid or a stack is split into blocks.  Locations
    must already be validated for the kernel and data must be positive and
    finite.  A location where x/b or c0 overflows (every kernel but ``ig``;
    c0 of ``gam1``, ``gam2`` at shapes beyond about 1e305), x/b underflows
    (``ge2``), 2*b*x underflows or 1/x overflows (``ig``), or 1/(x - b) or
    1/(2b) overflows (``rig``) raises :class:`DomainError` from
    :meth:`_terms_at`, where the guards are written: an array build rebuilds
    its first failing location, row-major over sample and then grid point,
    there.  The ``ig`` and ``rig`` combine is a subtraction and
    multiplications, and its factors are ratios; at z = x (``ig``) or
    z = x - b (``rig``) these guards keep every factor finite, so the
    quadratic term there is exactly 0, never ``0 * inf``.
    """

    __slots__ = ("kernel", "b", "loc", "mat", "regroup", "special")

    def __init__(self, kernel: Kernel, x: np.ndarray, b):
        self.kernel = kernel
        self.b = b
        self.regroup = self.special = False
        if x.shape == (1,) and not isinstance(b, np.ndarray):
            terms = self._terms_at(x.item(), float(b))
            self.loc = tuple(np.array([[t]]) for t in terms)
            if kernel in _EXP_FAMILIES:
                self.mat = np.array([[terms[1], terms[0], 1.0]])
            return
        log_b = _log_each(b)
        # a location that fails a guard shows as a non-finite term or a tiny
        # 2 b x; _terms_at rebuilds the first of them and raises its error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = x / b
            if kernel in _GE_FAMILY:
                if kernel is Kernel.GE:
                    log_shape, shape_m1 = r, np.expm1(r)
                else:
                    nu, log_shape = _ge2_shape(r)
                    shape_m1 = nu - 1.0
                c0 = log_shape - log_b
                bad = ~np.isfinite(c0)
                # beyond exp(700) the product (shape - 1) * log1p(-e^-u) is
                # regrouped; at shape 1 it is 0 even where z/b underflows and
                # log1p(-e^-u) is -inf
                big = log_shape > _LOG_SHAPE_DIRECT_MAX
                special = big | (shape_m1 == 0.0)
                self.special = bool(special.any())
                self.regroup = self.special and bool(big.any())
                terms = (c0, shape_m1, log_shape, special)
            elif kernel in _GAMMA_FAMILY:
                shape = r + 1.0 if kernel is Kernel.GAM1 else _gam2_shape(x, b)
                c0 = -(shape * log_b + _gammaln(shape))
                bad = ~np.isfinite(c0)
                terms = (c0, shape - 1.0)
            elif kernel is Kernel.IG:
                # 2*b*x >= tiny keeps 1/(2 b z) finite at z = x, where the
                # quadratic term is 0; an infinite 2*b*x passes
                denom = 2.0 * b * x
                inv_x = np.broadcast_to(1.0 / x, denom.shape)
                bad = (denom < _TINY) | np.isinf(inv_x)
                terms = (np.broadcast_to(x, denom.shape), inv_x)
            else:
                # a finite 1/(x - b) keeps 1/z finite at z = x - b, where the
                # quadratic term is 0, and a finite 1/(2b) keeps it 0 there
                s = x - b
                half_inv_b = np.broadcast_to(0.5 / b, s.shape)
                bad = ~(np.isfinite(r) & np.isfinite(1.0 / s) & np.isfinite(half_inv_b))
                terms = (s, half_inv_b)
        if bad.any():
            at = np.argwhere(bad)[0]  # row-major: sample, then grid point
            self._terms_at(float(x[at[-1]]), float(b if np.ndim(b) == 0 else b.ravel()[at[0]]))
        self.loc = tuple(t[..., None] for t in terms)  # columns, broadcast against data rows
        if kernel in _EXP_FAMILIES:
            c0, shape_m1 = self.loc[:2]
            self.mat = np.concatenate((shape_m1, c0, np.ones_like(c0)), axis=-1)
        else:
            shift = self.loc[0]  # x (ig) or s (rig): the rows [1, -shift]
            self.mat = np.concatenate((np.ones_like(shift), -shift), axis=-1)

    def _terms_at(self, x: float, b: float) -> tuple:
        """The location terms of one x with a float b: the array build on floats.

        Each mask is an ``if`` and each ufunc the one the array build applies
        (on a float it runs the same loop), so every term has the bits of a
        one-location array build.  Its checks are the location guards of
        every build: an array build calls it on its first failing location.
        The GE kernels also set ``special`` and ``regroup`` here.  The branches
        keep ``np.expm1`` from overflowing below r = 709, so only beyond it is
        an ``np.errstate`` needed.
        """
        kernel = self.kernel
        if kernel is not Kernel.IG:
            r = x / b
            if not math.isfinite(r):
                raise _rescale_at(kernel, "x/b overflows", x, b)
        if kernel in _GE_FAMILY:
            if kernel is Kernel.GE:
                log_shape = r
                if r < 709.0:
                    shape_m1 = float(np.expm1(r))
                else:
                    with np.errstate(over="ignore"):
                        shape_m1 = float(np.expm1(r))
            else:
                nu, log_shape = _ge2_shape_at(r)
                if nu <= 0.0:
                    raise _rescale_at(kernel, "x/b underflows", x, b)
                shape_m1 = nu - 1.0
            big = log_shape > _LOG_SHAPE_DIRECT_MAX
            self.special = big or shape_m1 == 0.0
            self.regroup = big
            return log_shape - math.log(b), shape_m1, log_shape, self.special
        if kernel in _GAMMA_FAMILY:
            if kernel is Kernel.GAM1:
                shape = r + 1.0
            else:
                shape = r if x >= 2.0 * b else 0.25 * r * r + 1.0
            c0 = -(shape * math.log(b) + float(_gammaln(shape)))
            if not math.isfinite(c0):
                raise _rescale_at(kernel, "shape*log(b) + log Gamma(shape) overflows", x, b)
            return c0, shape - 1.0
        if kernel is Kernel.IG:
            if 2.0 * b * x < _TINY:
                raise _rescale_at(kernel, "2*b*x underflows", x, b)
            inv_x = 1.0 / x
            if inv_x == math.inf:
                raise _rescale_at(kernel, "1/x overflows", x, b)
            return x, inv_x
        s = x - b
        if s == 0.0 or math.isinf(1.0 / s):
            raise _rescale_at(kernel, "1/(x - b) overflows", x, b)
        half_inv_b = 0.5 / b
        if half_inv_b == math.inf:
            raise _rescale_at(kernel, "1/(2b) overflows", x, b)
        return s, half_inv_b

    def data(self, z: np.ndarray) -> np.ndarray:
        """Per-datum terms, one row each: z is 1-D, or (R, n) for a column of R bandwidths.

        The GE and gamma kernels have the rows ``[L, 1, -z/b]``, the data
        matrix of the product, and a fourth row ``log(-L)`` if some GE rows
        are regrouped; ``ig`` and ``rig`` have the rows ``[z, base, w, 1]``,
        whose rows 0 and 3 are the data matrix of :meth:`grids`.
        The result is (rows, n), or (R, rows, n), each row written in place;
        a sample of a stack is ``data[r]``, a data window ``dat[..., j0:j1]``
        and a set of columns ``dat[..., cols]``.
        """
        kernel, b = self.kernel, self.b
        height = 3 + self.regroup if kernel in _EXP_FAMILIES else 4
        terms = np.empty(z.shape[:-1] + (height, z.shape[-1]))
        if kernel in _EXP_FAMILIES:
            L, u = terms[..., 0, :], terms[..., 2, :]
            with np.errstate(over="ignore"):  # z/b = inf is right: log K = -inf
                np.divide(z, b, out=u)
            terms[..., 1, :] = 1.0
            if kernel in _GAMMA_FAMILY:
                np.log(z, out=L)
            else:
                _log1mexp(u, out=L)
                if self.regroup:
                    terms[..., 3, :] = np.where(
                        u > _ASYMPTOTIC_U,
                        -u + np.log1p(0.5 * np.exp(-u)),
                        np.log(-np.where(L < 0.0, L, -1.0)),
                    )
            np.negative(u, out=u)
            return terms
        terms[..., 0, :] = z
        terms[..., 3, :] = 1.0
        base, w = terms[..., 1, :], terms[..., 2, :]
        c = -0.5 * _log_each(2.0 * math.pi * b)
        with np.errstate(over="ignore", divide="ignore"):  # an infinite reciprocal is log K = -inf
            np.log(z, out=base)
            base *= 1.5 if kernel is Kernel.IG else 0.5
            np.subtract(c, base, out=base)  # c - k log z
            if kernel is Kernel.IG:
                # 1/(2 b z), never 0: where 2 b z overflows, 1/DBL_MAX
                np.minimum(np.multiply(2.0 * b, z, out=w), _DBL_MAX, out=w)
                np.divide(1.0, w, out=w)
            else:
                np.divide(1.0, z, out=w)
        return terms

    def take(self, r: int) -> "_LogKernel":
        """The evaluator of sample ``r`` of a stack, for :meth:`rows`.

        Its location terms are (G, 1) columns, as with a scalar bandwidth;
        pass it the data terms of the same sample, ``data[r]`` of
        :meth:`data`, or columns of them.
        """
        sub = object.__new__(_LogKernel)
        sub.kernel, sub.regroup, sub.special = self.kernel, self.regroup, self.special
        sub.b = self.b[r]
        sub.loc = tuple(t[r] for t in self.loc)
        sub.mat = self.mat[r]
        return sub

    def grids(self, data: np.ndarray, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """log K for the whole grids of samples ``r0:r1`` of a stack: a (samples, G, n) array.

        ``data`` is the stack's :meth:`data`, and ``out`` a (2, r1 - r0, G, n)
        array whose layers are C-ordered; the block is written into ``out[0]``
        and returned.  Each grid must have at least 2 points.  For the GE and
        gamma kernels with no special row the block is one ``np.matmul`` of
        the (samples, G, 3) location stack against the (samples, 3, n) data
        stack.  Each slice has at least 2 rows and 2 data, so numpy sends it
        to gemm, or to its own loop, k in order, and every entry has the bits
        of :meth:`rows`' ``dgemm``.  GE stacks with special rows write each
        sample's :meth:`rows` into its slot of the block, with ``out[1]`` as
        its scratch.  For ``ig`` and ``rig`` the difference ``z - s`` is one
        ``np.matmul`` of the (samples, G, 2) stack ``[1, -x]`` (``ig``) or
        ``[1, -s]`` (``rig``) against the (samples, 2, n) stack ``[z; 1]``,
        into ``out[1]``: its products are exact and its one addition is
        ``z + (-s)``.  The factors then run on the whole block in the order
        of :meth:`rows`: ``rig`` takes ``q = (d w) (d h)`` with
        ``h = 1/(2b)``, ``ig`` ``q = (e w) e`` with ``e = d (1/x)``, and
        log K is ``base - q``.
        """
        if self.special:
            for j, r in enumerate(range(r0, r1)):
                self.take(r).rows(data[r], out=out[:, j])
            return out[0]
        if self.kernel in _EXP_FAMILIES:
            return np.matmul(self.mat[r0:r1], data[r0:r1, :3], out=out[0])
        # [1, -x] (ig) or [1, -s] (rig) against the data rows [z; 1]: 1 z + (-s) 1
        d = np.matmul(self.mat[r0:r1], data[r0:r1, ::3], out=out[1])
        base, w, scale = data[r0:r1, 1:2], data[r0:r1, 2:3], self.loc[1][r0:r1]
        with np.errstate(over="ignore"):  # an overflowing product is log K = -inf
            if self.kernel is Kernel.IG:
                d *= scale  # e = (z - x)/x
                q = np.multiply(d, w, out=out[0])
                q *= d
            else:
                q = np.multiply(d, w, out=out[0])
                d *= scale  # (z - s)/(2b)
                q *= d
        return np.subtract(base, q, out=q)

    def rows(self, dat: np.ndarray, lo: int = 0, hi: int | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        """log K for locations ``lo:hi`` against all data: a (rows, n) array.

        The location terms are (G, 1) columns: those of a scalar bandwidth,
        or of one sample of a stack (see :meth:`take`); ``dat`` is that
        sample's :meth:`data`, at any of its columns.  For the GE and gamma
        kernels the block is one ``dgemm`` of the location matrix against the
        data matrix ``dat[:3]``; the rows of GE special locations are then
        written over with their own formula.

        ``out``, if given, is a (2, rows, n) array whose layers are C-ordered:
        the block is written into ``out[0]`` and returned, and ``ig`` and
        ``rig`` use ``out[1]`` as scratch.  Its old contents, NaN and inf
        included, never reach the result, whose bits are those of a call
        without it; without it, each call allocates its block.
        """
        kernel = self.kernel
        block, scratch = (None, None) if out is None else out
        if kernel in _EXP_FAMILIES:
            # gemm takes k in order: ((shape - 1) L + c0 * 1) + 1 * (-z/b),
            # and the two unit products are exact.  Computed transposed: the
            # Fortran (n, rows) result is the C-ordered (rows, n) block.  With
            # beta 0 gemm overwrites out[0] in place; f2py would copy a c that
            # is not Fortran-ordered, so the block is the return value
            if block is None:
                block = dgemm(1.0, dat[:3].T, self.mat[lo:hi].T).T
            else:
                block = dgemm(1.0, dat[:3].T, self.mat[lo:hi].T, beta=0.0, c=block.T,
                              overwrite_c=1).T
            if self.special and self.loc[3][lo:hi].any():
                c0, _, log_shape, special = (t[lo:hi, 0] for t in self.loc)
                neg_u = dat[2]
                big = special & (log_shape > _LOG_SHAPE_DIRECT_MAX)
                if big.any():
                    with np.errstate(over="ignore"):
                        T = -np.exp(log_shape[big, None] + dat[3])
                    block[big] = (c0[big, None] + T) + neg_u
                # shape 1: (shape - 1) L is -0.0, even where L is -inf, and
                # c0 + -0.0 is c0
                one = special & ~big
                block[one] = c0[one, None] + neg_u
            return block
        loc = self.loc if hi is None else tuple(t[lo:hi] for t in self.loc)
        z, base, w = dat[0:1], dat[1:2], dat[2:3]  # (1, n): one location's operands match
        with np.errstate(over="ignore"):  # an overflowing product is log K = -inf
            if kernel is Kernel.IG:
                x, inv_x = loc
                e = np.subtract(z, x, out=scratch)
                e *= inv_x
                q = np.multiply(e, w, out=block)
                q *= e
            else:
                s, half_inv_b = loc
                d = np.subtract(z, s, out=scratch)
                q = np.multiply(d, w, out=block)
                d *= half_inv_b
                q *= d
        return np.subtract(base, q, out=q)


def _ge_quantiles(ev: _LogKernel, log_u: np.ndarray):
    """z(u) and log K(z(u)) at levels u of the one GE kernel of ``ev``, given log u.

    The GE cdf ``(1 - exp(-z/b))**shape`` inverts in closed form,
    ``z(u) = -b log(1 - u**(1/shape))`` (Gupta & Kundu 1999), and there
    ``log K = log shape - log b + (1 - 1/shape) log u + log(1 - u**(1/shape))``:
    no special function.  Taking log u keeps u near 1 exact.  Where
    u**(1/shape) underflows, z is +0.0.
    """
    c0, shape_m1, log_shape = (t.item() for t in ev.loc[:3])
    inv_shape = math.exp(-log_shape)
    log_m = _log1mexp(-inv_shape * log_u)  # log(1 - u**(1/shape))
    return -ev.b * log_m, (c0 + (shape_m1 * inv_shape) * log_u) + log_m


def _validate_point(kernel, x, b):
    """The domain table: ``ge`` needs x >= 0, every other kernel x > 0, ``rig`` x > b.

    Returns x and b as floats.
    """
    b, x = _positive(b, "bandwidth b"), _real(x, "evaluation point x")
    if kernel is Kernel.GE:
        if x < 0.0:
            raise DomainError("GE kernel requires x >= 0")
    elif x <= 0.0:
        raise DomainError(f"{kernel.value} kernel requires x > 0")
    elif kernel is Kernel.RIG and x <= b:
        raise BoundaryDegeneracyError(
            f"RIG kernel is undefined at x={x!r} with b={b!r}: it uses x - b as a scale"
        )
    return x, b


def log_kernel(kernel: Kernel, x: float, b: float, z):
    """Log of the kernel density K at datum z, for the kernel located at x.

    Parameters
    ----------
    kernel : Kernel or str
        Which kernel to evaluate; a name goes through :meth:`Kernel.parse`.
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

    The one location is checked and built before z is checked; a single
    datum (a float, a numpy scalar or a 0-d array) comes back as a float.
    """
    kernel = _as_kernel(kernel)
    x, b = _validate_point(kernel, x, b)
    ev = _LogKernel(kernel, np.array([x]), b)
    zarr = _finite_array(z, "kernel argument z", positive=True)
    return _scalar_or_array(ev.rows(ev.data(zarr.ravel()))[0].reshape(zarr.shape))


def kernel_pdf(kernel: Kernel, x: float, b: float, z):
    """Kernel density K(z); exp of :func:`log_kernel`."""
    return _scalar_or_array(np.exp(log_kernel(kernel, x, b, z)))


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
    b, x = _positive(b, "bandwidth b"), _nonnegative(x, "x")
    return _ge2_shape_at(x / b)[0]


def gam2_shape(x: float, b: float) -> float:
    """Shape of Chen's boundary-corrected gamma kernel.

    ``x/b`` away from the origin (x >= 2b) and the quadratic splice
    ``(x/b)**2 / 4 + 1`` below it; the two branches meet at x = 2b.
    """
    b, x = _positive(b, "bandwidth b"), _nonnegative(x, "x")
    return float(_gam2_shape(x, b))
