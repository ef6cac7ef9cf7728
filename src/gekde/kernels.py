"""Asymmetric kernels with support on (0, inf), evaluated in the log domain.

Six kernels are provided: the generalised-exponential kernel in its
mode-at-x parameterisation (``ge``, shape ``exp(x/b)``) and mean-at-x
parameterisation (``ge2``, shape ``nu(x/b)`` built from the inverse
digamma), Chen's two gamma kernels (``gam1``, ``gam2``), and Scaillet's
inverse-Gaussian and reciprocal inverse-Gaussian kernels (``ig``, ``rig``).

Everything is computed in the log domain: the GE shape ``exp(x/b)`` and the
gamma normalising constant overflow doubles long before the practically
useful bandwidth range is exhausted.  The GE term ``L = log(1 - exp(-z/b))``
is finite for every datum: below the smallest normal double z/b has lost
its digits, and L is ``log z - log b`` there.  For shapes beyond
``exp(700)`` the product ``(shape - 1) L`` is regrouped as
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
0 at z = s.  A location that fails a guard (a reciprocal term that would
overflow, say) raises :class:`DomainError` from the one-location build,
where every guard is written; of several, the first in row-major order is
reported, with its first failing guard.

One evaluator serves every caller.  It takes a column of locations x and a
row of data z and works in three steps: the terms that depend on x alone
(shapes, the gamma normaliser, the ``ge2`` shape from one array
inverse-digamma solve) are computed once per location and stored once, in
the location matrix of the product or in one side column; the terms that
depend on z alone (``log z``, ``z/b``, ``log(1 - exp(-z/b))``) once per
datum, as the rows of one array with the data along its last axis; and the
combine forms the (locations, data) block of log kernel values.  Every
kernel's data rows lead with its product rows, a row of ones second, so
the combine starts with one product step for every kernel: the whole log K
for the GE and gamma kernels, the difference ``z + (-s)`` for ``ig`` and
``rig``, whose ratios follow.  The bandwidth may also be a column of R
bandwidths, one per sample of a stack of R samples (the replications of a
Monte Carlo cell): the location terms are then (R, locations) and the data
terms (R, rows, data).  The one combine, ``_LogKernel.rows``, takes one
sample of the stack at a time, or the whole grids of consecutive samples at
once (one stacked matrix product for every kernel), each entry through the
same operations as with a scalar bandwidth.  The estimator runs it over
blocks of grid rows, or of samples; ``log_kernel`` and
``exact_estimator_moments`` are the single-location case, whose location
terms are built on Python floats through the same branches and ufuncs,
with the bits of a one-location array build and without its fixed array
cost, and a single datum is a one-entry row through the same combine.  The
GE kernels also invert their cdf in closed form (``_ge_quantiles``), with
no special function; ``exact_estimator_moments`` integrates a ``ge2``
kernel of shape below 1 in its probability through it.

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

import contextlib
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
_NO_ERRSTATE = contextlib.nullcontext()  # reusable, where an np.errstate is not

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
    return np.where(x >= 2.0 * b, r, 0.25 * r * r + 1.0)


def _rescale_at(kernel, what, x: float, b: float):
    """DomainError naming the kernel, what went wrong and the (x, b) where it did."""
    return DomainError(f"{kernel.value} kernel: {what} at x = {x!r}, b = {b!r}; rescale the data")


class _LogKernel:
    """log K_{x,b}(z) for a column of locations x against a row of data z.

    The evaluation runs in three steps, so that no term is computed more
    often than the axis it depends on requires:

    1. per-location terms (the constructor), once for every x and each
       stored once, in ``mat`` or ``side``; one location with a float
       bandwidth takes :meth:`_terms_at`, on floats;
    2. per-datum terms (:meth:`data`): ``log z``, ``z/b``,
       ``log(1 - exp(-z/b))`` and the reciprocals ``1/z`` (``rig``) and
       ``1/(2 b z)`` (``ig``), once for every z, as the rows of one array;
    3. the combine (:meth:`rows`) of a block of locations against all data,
       for one sample or for a run of samples of a stack (:meth:`take`).

    The GE and gamma families share one combine, ``(c0 + (shape - 1) L) -
    z/b``, computed as the product of the location matrix ``mat``, rows
    ``[shape - 1, c0, 1]``, and the data matrix, rows ``[L, 1, -z/b]``:
    one ``dgemm`` per block, with the bits of the formula.  numpy's
    ``matmul`` would not do for one block: it sends a one-row product to
    gemv, which sums in another order.  It does for a stack of samples'
    whole grids of at least 2 points each (:meth:`take` of a slice): numpy
    sends each slice to gemm, with the bits of ``dgemm``.  For ``ig`` and
    ``rig`` ``mat`` has the rows ``[1, -x]`` and ``[1, -s]``, and the data
    lead with the rows ``[z; 1]``: their product is each entry's ``z - s``,
    bit for bit.  ``side`` is the (G, 1) column of the one term that
    :meth:`rows` reads beside the product: ``ig``'s 1/x, ``rig``'s 1/(2b),
    or the GE log shape, whose rows past 700 (``special``) are written over
    from the same data rows; L is finite, so a shape-1 row is ``c0 - z/b``
    bit for bit.  The gamma kernels have no side term (None).

    ``b`` is a float, or an (R, 1) column of bandwidths for a stack of R
    samples: ``mat`` and ``side`` are then (R, G, k) and (R, G, 1), and
    :meth:`data` takes an (R, n) array, one sample per row.  Every entry of
    the combined block goes through the same floating-point operations in
    the same order, whatever the block's size and however many samples share
    it, so results do not depend on how a grid or a stack is split into
    blocks.  Locations must already be validated for the kernel and data
    must be positive and finite.  A location where x/b or c0 overflows
    (every kernel but ``ig``; c0 of ``gam1``, ``gam2`` at shapes beyond
    about 1e305), x/b underflows (``ge2``), 2*b*x underflows or 1/x
    overflows (``ig``), or 1/(x - b) or 1/(2b) overflows (``rig``) raises
    :class:`DomainError` from :meth:`_terms_at`, where the guards are
    written: the array build hands it its first failing location, row-major
    over sample and then grid point.  The ``ig`` and ``rig`` combine is a
    subtraction and multiplications, and its factors are ratios; at z = x
    (``ig``) or z = x - b (``rig``) these guards keep every factor finite,
    so the quadratic term there is exactly 0, never ``0 * inf``.
    """

    __slots__ = ("kernel", "b", "mat", "side", "special")

    def __init__(self, kernel: Kernel, x: np.ndarray, b):
        self.kernel = kernel
        self.b = b
        if x.shape == (1,) and not isinstance(b, np.ndarray):
            row, side = self._terms_at(kernel, x.item(), float(b))
            self.mat = np.array([row])
            self.side = None if side is None else np.array([[side]])
            self.special = kernel in _GE_FAMILY and side > _LOG_SHAPE_DIRECT_MAX
            return
        log_b = _log_each(b)
        # a location that fails a guard shows as a non-finite term or a tiny
        # 2 b x; _terms_at rebuilds the first of them and raises its error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = x / b
            product = kernel in _EXP_FAMILIES
            mat = np.empty(r.shape + (3 if product else 2,))
            side = None if kernel in _GAMMA_FAMILY else np.empty(r.shape + (1,))
            mat[..., 2 if product else 0] = 1.0  # [shape - 1, c0, 1], or [1, -x] or [1, -s]
            if kernel in _GE_FAMILY:
                if kernel is Kernel.GE:
                    log_shape, mat[..., 0] = r, np.expm1(r)
                else:
                    nu, log_shape = _ge2_shape(r)
                    mat[..., 0] = nu - 1.0
                mat[..., 1] = log_shape - log_b
                side[..., 0] = log_shape
                bad = ~np.isfinite(mat[..., 1])
            elif kernel in _GAMMA_FAMILY:
                shape = r + 1.0 if kernel is Kernel.GAM1 else _gam2_shape(x, b)
                mat[..., 0] = shape - 1.0
                mat[..., 1] = -(shape * log_b + _gammaln(shape))
                bad = ~np.isfinite(mat[..., 1])
            elif kernel is Kernel.IG:
                # 2*b*x >= tiny keeps 1/(2 b z) finite at z = x, where the
                # quadratic term is 0; an infinite 2*b*x passes
                mat[..., 1] = -x
                side[..., 0] = 1.0 / x
                bad = (2.0 * b * x < _TINY) | np.isinf(side[..., 0])
            else:
                # a finite 1/(x - b) keeps 1/z finite at z = x - b, where the
                # quadratic term is 0, and a finite 1/(2b) keeps it 0 there
                s = x - b
                mat[..., 1] = -s
                side[..., 0] = 0.5 / b
                bad = ~(np.isfinite(r) & np.isfinite(1.0 / s) & np.isfinite(side[..., 0]))
        if bad.any():
            at = np.argwhere(bad)[0]  # row-major: sample, then grid point
            self._terms_at(kernel, float(x[at[-1]]),
                           float(b if np.ndim(b) == 0 else b.ravel()[at[0]]))
        self.mat, self.side = mat, side
        self.special = kernel in _GE_FAMILY and bool((side > _LOG_SHAPE_DIRECT_MAX).any())

    @staticmethod
    def _terms_at(kernel: Kernel, x: float, b: float) -> tuple:
        """The location terms of one x with a float b: the array build on floats.

        Returns the row of ``mat`` and the ``side`` term (None for the gamma
        kernels), and sets nothing.  Each mask is an ``if`` and each ufunc
        the one the array build applies (on a float it runs the same loop), so
        every term has the bits of a one-location array build.  Its checks
        are the location guards of every build: an array build calls it on
        its first failing location.  The branches keep ``np.expm1`` from
        overflowing below r = 709, so only beyond it is an ``np.errstate``
        needed.
        """
        if kernel is not Kernel.IG:
            r = x / b
            if not math.isfinite(r):
                raise _rescale_at(kernel, "x/b overflows", x, b)
        if kernel in _GE_FAMILY:
            if kernel is Kernel.GE:
                log_shape = r
                with np.errstate(over="ignore") if r >= 709.0 else _NO_ERRSTATE:
                    shape_m1 = float(np.expm1(r))
            else:
                nu, log_shape = _ge2_shape_at(r)
                if nu <= 0.0:
                    raise _rescale_at(kernel, "x/b underflows", x, b)
                shape_m1 = nu - 1.0
            return [shape_m1, log_shape - math.log(b), 1.0], log_shape
        if kernel in _GAMMA_FAMILY:
            if kernel is Kernel.GAM1:
                shape = r + 1.0
            else:
                shape = r if x >= 2.0 * b else 0.25 * r * r + 1.0
            c0 = -(shape * math.log(b) + float(_gammaln(shape)))
            if not math.isfinite(c0):
                raise _rescale_at(kernel, "shape*log(b) + log Gamma(shape) overflows", x, b)
            return [shape - 1.0, c0, 1.0], None
        if kernel is Kernel.IG:
            if 2.0 * b * x < _TINY:
                raise _rescale_at(kernel, "2*b*x underflows", x, b)
            inv_x = 1.0 / x
            if inv_x == math.inf:
                raise _rescale_at(kernel, "1/x overflows", x, b)
            return [1.0, -x], inv_x
        s = x - b
        if s == 0.0 or math.isinf(1.0 / s):
            raise _rescale_at(kernel, "1/(x - b) overflows", x, b)
        half_inv_b = 0.5 / b
        if half_inv_b == math.inf:
            raise _rescale_at(kernel, "1/(2b) overflows", x, b)
        return [1.0, -s], half_inv_b

    def data(self, z: np.ndarray) -> np.ndarray:
        """Per-datum terms, one row each: z is 1-D, or (R, n) for a column of R bandwidths.

        Every kernel's rows lead with the data matrix of its product, a row
        of ones second, whatever the locations.  The GE and gamma kernels
        have the rows ``[L, 1, -z/b]`` (the GE L is ``log z - log b`` where
        z/b is below the normal range); ``ig`` and ``rig`` have the rows
        ``[z, 1, base, w]``, with the base term ``c - k log z`` and the
        reciprocal w, ``1/(2 b z)`` (``ig``) or ``1/z`` (``rig``).
        The result is (rows, n), or (R, rows, n), each row written in place;
        a sample of a stack is ``data[r]``, a run of samples ``data[r0:r1]``,
        a data window ``dat[..., j0:j1]`` and a set of columns ``dat[..., cols]``.
        """
        kernel, b = self.kernel, self.b
        terms = np.empty(z.shape[:-1] + (3 if kernel in _EXP_FAMILIES else 4, z.shape[-1]))
        terms[..., 1, :] = 1.0
        if kernel in _EXP_FAMILIES:
            L, u = terms[..., 0, :], terms[..., 2, :]
            with np.errstate(over="ignore"):  # z/b = inf is right: log K = -inf
                np.divide(z, b, out=u)
            if kernel in _GAMMA_FAMILY:
                np.log(z, out=L)
            else:
                _log1mexp(u, out=L)
                # z/b below the normal range has lost its digits: L is log(z/b)
                if u.min() < _TINY:
                    np.subtract(np.log(z), _log_each(b), out=L, where=u < _TINY)
            np.negative(u, out=u)
            return terms
        terms[..., 0, :] = z
        base, w = terms[..., 2, :], terms[..., 3, :]
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

    def take(self, r: int | slice) -> "_LogKernel":
        """The evaluator of sample ``r`` of a stack, or of the samples of a slice ``r``.

        With an int ``mat`` and ``side`` are (G, k) and (G, 1), as with a
        scalar bandwidth; with a slice they are stacks: views, no copy.  Pass
        :meth:`rows` the data terms of the same samples, ``data[r]`` of
        :meth:`data`, or columns of them.  ``special`` is the whole stack's.
        """
        sub = object.__new__(_LogKernel)
        sub.kernel, sub.special = self.kernel, self.special
        sub.b, sub.mat = self.b[r], self.mat[r]
        sub.side = None if self.side is None else self.side[r]
        return sub

    def rows(self, dat: np.ndarray, lo: int = 0, hi: int | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        """log K for locations ``lo:hi`` against all data: a (rows, n) array.

        ``mat`` and ``side`` are (G, k) and (G, 1), those of a scalar
        bandwidth or of one sample of a stack, and ``dat`` is that sample's
        :meth:`data`, at any of its columns.  Of a run of samples (:meth:`take`
        of a slice) they are stacks, and ``dat`` and the block (samples, rows,
        n); with grids of at least 2 points and samples of at least 2 data,
        numpy sends each slice of a stacked ``np.matmul`` to gemm, or to its
        own loop, k in order, with the bits of ``dgemm``.

        One product step serves every kernel: of a run of samples, one
        stacked ``np.matmul`` of ``mat`` against the data's first k rows, k
        the width of ``mat``; of one sample, one ``dgemm`` (GE, gamma) or the
        broadcast ``z + (-s)`` (``ig``, ``rig``), which beats ``dgemm`` on
        long rows as the product beats it on stacks of short rows (broadcast
        against product: 16 and 20 us on 3 x 20000, 53 and 16 on 2 x 256 x 100).
        The products are exact and the one addition is ``z + (-s)``.  GE rows
        of log shape (``side``) past 700 are then written over with the
        regrouped form, from c0 (``mat[..., 1]``) and ``log(-L)`` of their
        sample's rows L and -z/b.  ``ig`` and ``rig`` share one ratio
        sequence, log K ``base - (d w) d``, and differ only in where the
        scale ``side`` goes: ``ig`` first takes ``d = (z - x) (1/x)``, and
        ``rig`` scales the last factor by ``1/(2b)``.

        ``out``, if given, is a (2, ...) array of two blocks' shape whose
        layers are C-ordered: the block is written into ``out[0]`` and
        returned, and ``ig`` and ``rig`` use ``out[1]`` as scratch.  Its old
        contents, NaN and inf included, never reach the result, whose bits are
        those of a call without it; without it, each call allocates its block.
        """
        kernel, mat = self.kernel, self.mat[..., lo:hi, :]
        block, scratch = (None, None) if out is None else (out[0], out[1])
        product = kernel in _EXP_FAMILIES
        # d is the GE and gamma block, or the ig and rig difference z - s
        if mat.ndim == 3:  # a run of samples
            # special rows may hold inf * 0 until written over; entering an
            # np.errstate costs about 2 us, so only a special stack does
            with np.errstate(invalid="ignore") if self.special else _NO_ERRSTATE:
                d = np.matmul(mat, dat[:, :mat.shape[-1]], out=block if product else scratch)
        elif product:
            # gemm takes k in order: ((shape - 1) L + c0 * 1) + 1 * (-z/b),
            # and the two unit products are exact.  dgemm computes it
            # transposed: the Fortran (n, rows) result is the C-ordered (rows,
            # n) block.  With beta 0 gemm overwrites out[0] in place; f2py would
            # copy a c that is not Fortran-ordered, so the block is the return
            # value.  Keyword arguments would cost f2py 0.4 us a call
            d = dgemm(1.0, dat[:3].T, mat.T, 0.0, None if block is None else block.T, 0, 0, 1).T
        else:
            d = np.add(dat[0:1], mat[:, 1:], out=scratch)  # z + (-s)
        if product:
            if self.special:
                c0, log_shape = mat[..., 1], self.side[..., lo:hi, 0]
                at = np.nonzero(log_shape > _LOG_SHAPE_DIRECT_MAX)
                if at[0].size:
                    # a special row at takes its sample's rows L and v = -z/b
                    L, v = dat[..., 0, :], dat[..., 2, :]
                    log_neg_l = np.where(v < -_ASYMPTOTIC_U, v + np.log1p(0.5 * np.exp(v)),
                                         np.log(-np.where(L < 0.0, L, -1.0)))
                    with np.errstate(over="ignore"):
                        T = -np.exp(log_shape[at][:, None] + log_neg_l[at[:-1]])
                    d[at] = (c0[at][:, None] + T) + v[at[:-1]]
            return d
        scale = self.side[..., lo:hi, :]  # 1/x (ig) or 1/(2b) (rig)
        base, w = dat[..., 2:3, :], dat[..., 3:4, :]  # rows (1, n), or (samples, 1, n)
        ig = kernel is Kernel.IG
        with np.errstate(over="ignore"):  # an overflowing product is log K = -inf
            if ig:
                d *= scale  # e = (z - x)/x
            q = np.multiply(d, w, out=block)
            if not ig:
                d *= scale  # (z - s)/(2b)
            q *= d
        return np.subtract(base, q, out=q)


def _ge_quantiles(ev: _LogKernel, log_u: np.ndarray):
    """z(u) and log K(z(u)) at levels u of the one GE kernel of ``ev``, given log u.

    The GE cdf ``(1 - exp(-z/b))**shape`` inverts in closed form,
    ``z(u) = -b log(1 - u**(1/shape))`` (Gupta & Kundu 1999), and there
    ``log K = log shape - log b + (1 - 1/shape) log u + log(1 - u**(1/shape))``:
    no special function.  Taking log u keeps u near 1 exact.  Where
    u**(1/shape) underflows, z is +0.0.  log shape is ``ev.side``.
    """
    (shape_m1, c0, _), log_shape = ev.mat[0].tolist(), ev.side.item()
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
