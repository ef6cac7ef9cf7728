"""Density estimation on a grid, bandwidth selection and exact diagnostics.

The estimator averages log-domain kernel evaluations over the sample.  The
kernel terms that depend on the grid point alone and those that depend on
the datum alone are computed once per call; the grid is then processed in
blocks of rows, each against the whole sample, with the block size set by a
fixed element budget.  For the GE and gamma kernels a block's log K is one
BLAS product of the location matrix and the data matrix (see
``kernels._LogKernel``); a data window or a set of probe columns is a slice
of the data terms' columns (``kernels._columns``).  One routine,
``_estimate_batch``, does this for a stack of R samples with R bandwidths
(the replications of a Monte Carlo cell): the location and data terms of
all R samples are computed in one pass, and the combine runs over blocks of
grid rows of one sample at a time; ``estimate_density`` is its one-sample
case.  Each block is
exponentiated in place and summed along its rows; the sums are divided by n
once, after the last block.
The GE kernels put most of log K below ``_EXP_ZERO``, where ``np.exp``
returns +0.0 but slowly.  A block of several rows with many such entries
writes the 0.0 itself (see ``_exp_rows``).  A one-row block (more than
``_BLOCK_ELEMENTS // 2`` data) computes only the data window its row can
reach: each row of log K is a log density in the datum, so it is unimodal
in the sorted data, and a coarse pass finds where it rises above the cut
(see ``_data_windows``).  The window is exponentiated into a row buffer
that holds +0.0 everywhere else, and the whole row is summed, so the
pairwise sum keeps its bits.  The buffer is zeroed once per sample; after
that a window re-zeroes only the entries of the previous window that it
does not cover, not the whole rest of the row.
Every grid value goes through the same operations whatever block it lands
in, so the result does not depend on how the grid is split.

Bandwidth selection offers Silverman's rule-of-thumb (one vectorised pass
serves a stack of samples), the closed-form optimum for the
mean-parameterised GE kernel, and for the mode-parameterised one the
minimiser of the approximate MISE, the root of a quartic.  ``_family_b``
maps their h to each kernel's scale (h for GE, h**2 for gamma/IG/RIG), and
``_domain_start`` is where a grid enters the kernel's domain (``rig``: x > b).

``exact_estimator_moments`` computes E[fhat(x)] and Var[fhat(x)] against a
known density on a fixed composite Gauss-Legendre node rule: one block of
the kernel evaluator and one array ``pdf`` call serve the kernel mass, the
mean and the second moment, and a coarser rule on the same nodes gives the
error estimate.  The ``ge2`` kernel with shape below 1 is integrated in its
own probability, through the GE kernels' closed-form quantile.  This is a
deterministic (Monte-Carlo-free) route to the asymptotic bias/variance
constants.

References
----------
.. [1] Silverman, B. W. 1986. "Density Estimation for Statistics and Data
   Analysis." Chapman & Hall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import (DegenerateSampleError, DomainError, IntegrationError, OptimizationError,
                     _count, _finite_array, _nonnegative, _positive, _real)
from .kernels import (_GAMMA_FAMILY, _GE_FAMILY, _TINY, Kernel, _as_kernel, _columns,
                      _ge_quantiles, _LogKernel, _rescale_at, _validate_point, gam2_shape)
from .specfun import EULER_GAMMA, digamma

__all__ = [
    "Sample",
    "Bandwidth",
    "BANDWIDTH_METHODS",
    "DensityEstimate",
    "AsymptoticRegime",
    "INTERIOR",
    "boundary_regime",
    "Moments",
    "silverman_bandwidth",
    "select_bandwidth",
    "estimate_density",
    "default_grid",
    "optimal_bandwidth_ge2",
    "numeric_bandwidth_ge",
    "asymptotic_bias",
    "asymptotic_variance",
    "exact_estimator_moments",
]

BANDWIDTH_METHODS = ("silverman", "optimal_ge2", "numeric_ge", "fixed")

#: Elements per block of the (grid rows, data) kernel matrix: 256 KB per
#: temporary.  A block's combine makes a few such temporaries, which must
#: stay within the L2 cache; at 1 << 17 the IG/RIG combines spill it and
#: take about 1.5 times as long.  With more data than this, a block is one
#: grid row.
_BLOCK_ELEMENTS = 1 << 15

#: log K at or below this exponentiates to exactly +0.0 in doubles: exp
#: rounds to zero below about -745.13, half the smallest subnormal.
_EXP_ZERO = -746.0

#: A block masks its exp only if some row is at or below ``_EXP_ZERO`` at
#: the datum of rank n // 32 from either end.  Each row of log K is unimodal
#: in the sorted data, so a row that passes has at most 1/16 of its entries
#: below the cut.  With numpy 2.4 on an AVX-512 Xeon, ``np.exp`` takes about
#: 18 ns more on such an entry than on a normal result, and masking costs
#: about 1.2 ns on every entry: below a 1/16 share the plain exp is as fast.
_PROBE_DIVISOR = 32

#: A one-row block finds its data window from log K at every 32nd datum:
#: the coarse pass costs 1/32 of the row, and the window is at most 31
#: data wider on each side than the entries ``np.exp`` would not round to 0.
_WINDOW_STRIDE = 32

#: The 16-point Gauss-Legendre rule on [-1, 1], the panel rule of
#: ``exact_estimator_moments``.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: Panels of the z-space rule: geometric ones halving toward 0 on [0, a],
#: uniform ones on [a, hi], where [lo, hi] is ``_quad_window``'s bracket, and
#: tail ones from hi, of widths (hi - lo) 2**k.  The coarse rule that gives
#: ``achieved`` halves the uniform panels and stops after half the tail ones.
_GEOMETRIC_PANELS = 30
_UNIFORM_PANELS = 64
_TAIL_PANELS = 16

#: Panels of the u-space rule of the ``ge2`` kernel with shape below 1: on
#: each side of [_U_EDGE, 1 - _U_EDGE], ``_U_LEVELS`` panels graded by
#: ``_U_RATIO`` toward u = 0 and toward u = 1, the last reaching the end;
#: ``_U_UNIFORM`` uniform panels between.  The coarse rule halves both counts.
_U_EDGE = 0.25
_U_RATIO = 0.25
_U_LEVELS = 40
_U_UNIFORM = 32

#: From this shape on, ``_half_ratio`` is the asymptotic series of
#: Gamma(k + 1/2) / Gamma(k) to the k**-4 term: the next term is below 3e-16
#: of it (and the series within 3e-16 of a 50-digit value).
_HALF_RATIO_K = 400.0

#: From this boundary constant c on, ``psi(e^c + 1) - c`` is ``e^-c / 2``: the
#: next term, ``-e^-2c / 12``, is below half an ulp of EULER_GAMMA (c > 17.47).
_BIAS_ASYMPTOTIC_C = 18.0


class Sample:
    """Validated sample of strictly positive, finite observations.

    Values are stored sorted ascending, which makes every estimate
    invariant to the ordering of the input data.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = _finite_array(values, "sample values", positive=True).ravel()
        if arr.size < 2:
            raise DomainError("a sample needs at least 2 observations")
        self.values = np.sort(arr)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, min={self.values[0]:g}, max={self.values[-1]:g})"


@dataclass(frozen=True)
class Bandwidth:
    """A bandwidth value together with the method that produced it."""

    value: float
    method: str = "fixed"

    def __post_init__(self):
        object.__setattr__(self, "value", _positive(self.value, "bandwidth"))
        if self.method not in BANDWIDTH_METHODS:
            raise DomainError(f"unknown bandwidth method {self.method!r}")


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """A kernel density estimate evaluated on a grid."""

    grid: np.ndarray
    values: np.ndarray
    kernel: Kernel
    bandwidth: Bandwidth
    n: int


@dataclass(frozen=True)
class AsymptoticRegime:
    """Interior (x/b -> inf) or boundary (x/b -> c) asymptotic regime."""

    kind: str
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("interior", "boundary"):
            raise DomainError("regime kind must be 'interior' or 'boundary'")
        object.__setattr__(self, "c", _nonnegative(self.c, "boundary constant c"))


INTERIOR = AsymptoticRegime("interior")


def boundary_regime(c: float) -> AsymptoticRegime:
    """Boundary regime with x/b -> c."""
    return AsymptoticRegime("boundary", c)


class Moments(NamedTuple):
    mean: float
    variance: float


def _coerce_bandwidth(bandwidth) -> Bandwidth:
    if isinstance(bandwidth, Bandwidth):
        return bandwidth
    return Bandwidth(bandwidth)  # converts, and raises DomainError on a non-number


def _sorted_quantile(v: np.ndarray, q: float) -> np.ndarray:
    """The q quantile, 0 < q < 1, of each sorted row of ``v``, with the bits of ``np.percentile``.

    numpy's default (linear) rule without its partition: the rows are
    sorted already, so the neighbours a, b of the virtual index q (n - 1)
    are two columns, and the value is ``a + (b - a) t``, or
    ``b - (b - a) (1 - t)`` where the fraction t is at least 1/2, as
    numpy's ``_lerp`` computes it.
    """
    at = q * (v.shape[1] - 1)
    i = math.floor(at)
    t = at - i
    a, b = v[:, i], v[:, i + 1]
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _silverman_h(values: np.ndarray) -> np.ndarray:
    """Gaussian rule-of-thumb h = 1.06 * sigma * n**(-1/5) for each row of sorted samples.

    ``values`` is (R, n), one sorted sample per row, and the result is the
    R values of h before the family mapping.  The spread is measured on each
    sample scaled by a power of two that puts its maximum in [1/2, 1), so
    the squares inside ``np.std`` neither overflow (data near 1e300) nor
    underflow (data near 1e-300).  Scaling by a power of two is exact, so h
    is bit-identical to the unscaled rule wherever the latter does not
    overflow or underflow; and every row goes through the same operations
    as a single sample would, so a row's h does not depend on the others.
    The quartiles are read off the sorted rows by ``_sorted_quantile``.
    """
    e = np.frexp(values[:, -1])[1][:, None]
    v = np.ldexp(values, -e)
    sd = np.std(v, axis=1, ddof=1)
    q75, q25 = _sorted_quantile(v, 0.75), _sorted_quantile(v, 0.25)
    sigma = np.minimum(sd, (q75 - q25) / 1.349)
    if not np.all(sigma > 0.0):
        raise DegenerateSampleError("sample has no spread; Silverman bandwidth is undefined")
    return np.ldexp(1.06 * sigma * values.shape[1] ** -0.2, e[:, 0])


def _family_b(kernel: Kernel, h: np.ndarray) -> np.ndarray:
    """The kernel's bandwidths for an array of Gaussian-comparable h: h or h**2."""
    if kernel in _GE_FAMILY:
        return h
    with np.errstate(over="ignore"):
        b = h * h
    bad = ~((b >= _TINY) & (b < math.inf))
    if bad.any():
        at = float(h[bad][0])
        cause = "overflows" if at * at == math.inf else "underflows"
        raise DomainError(
            f"{kernel.value} bandwidth: h**2 {cause} at h = {at!r}; rescale the data"
        )
    return b


def silverman_bandwidth(sample: Sample, kernel: Kernel) -> Bandwidth:
    """Rule-of-thumb bandwidth, mapped to the kernel family's scale.

    h = 1.06 * sigma * n**(-1/5) with sigma = min(sd, IQR/1.349); the GE
    kernels use h directly, the gamma/IG/RIG family uses h**2.  ``kernel``
    is a :class:`Kernel` or its name, as in every public function.
    """
    b = _family_b(_as_kernel(kernel), _silverman_h(sample.values[None, :]))
    return Bandwidth(float(b[0]), "silverman")


def default_grid(sample: Sample, size: int = 512) -> np.ndarray:
    """Default evaluation grid: equally spaced, covering the sample support."""
    hi = 1.1 * sample.values[-1]
    lo = max(0.5 * sample.values[0], 1e-6 * sample.values[-1])
    return np.linspace(lo, hi, _count(size, "grid size", 1))


def _validate_grid(kernel: Kernel, grid, b: float) -> np.ndarray:
    """``grid`` as a 1-D array: finite, strictly increasing, its first point in the domain at b."""
    grid = np.atleast_1d(_finite_array(grid, "grid points"))
    if grid.size == 0:
        raise DomainError("evaluation grid is empty")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid points must be strictly increasing")
    _validate_point(kernel, float(grid[0]), b)
    return grid


def _domain_start(kernel: Kernel, grid: np.ndarray, b):
    """Per bandwidth, the index of the first grid point in the domain (``rig``: above b)."""
    if kernel is Kernel.RIG:
        return np.searchsorted(grid, b, side="right")
    return np.zeros(np.shape(b), dtype=np.intp)


def _exp_rows(block: np.ndarray, masked: bool) -> None:
    """Exponentiate a block of log K in place, bit-identical to ``np.exp``.

    With ``masked``, entries at or below ``_EXP_ZERO`` are set to 0.0, the
    value ``np.exp`` gives them, without passing through it.  NaN is never
    below the cut, so it goes through ``np.exp`` on either path.
    """
    if masked:
        below = block <= _EXP_ZERO
        np.exp(block, out=block, where=~below)
        block[below] = 0.0
    else:
        np.exp(block, out=block)


def _data_windows(ev: _LogKernel, dat: tuple, n: int):
    """Per grid row, the data window [start, stop) outside which log K <= ``_EXP_ZERO``.

    ``ev`` and ``dat`` are one sample's evaluator and data terms, the data
    sorted.  A row of log K is a log density in the datum, so it is unimodal
    in the sorted data, and its entries above any level form one run.  A row
    above the cut at the probe columns of ``_PROBE_DIVISOR`` has at most 1/16
    of its entries below it and is whole, [0, n).  The other rows are
    evaluated at every ``_WINDOW_STRIDE``-th datum, from the first, in row
    chunks of ``_BLOCK_ELEMENTS // 2`` entries, fewer than one grid row
    holds, so the pass needs less memory than a row's combine.  The
    coarse points at or below the cut on either side of those above it (or,
    with none above, of the coarse maximum) lie on the row's flanks, so
    every datum beyond them is at or below the cut too; a run that reaches
    the last coarse point keeps the data after it.  The 0.87 between
    the cut and -745.13, where ``np.exp`` stops rounding to +0.0, absorbs the
    rounding wobble of a flank.  A row with a NaN or a non-finite coarse
    maximum is whole.
    """
    k = n // _PROBE_DIVISOR
    whole = (ev.rows(_columns(dat, [k, n - 1 - k])) > _EXP_ZERO).all(axis=1)
    start = np.zeros(whole.size, dtype=np.intp)
    stop = np.full(whole.size, n, dtype=np.intp)
    need = np.flatnonzero(~whole)
    if not need.size:
        return start, stop
    cols = np.arange(0, n, _WINDOW_STRIDE)
    coarse_dat = _columns(dat, cols)
    last = cols.size - 1
    chunk = max(1, _BLOCK_ELEMENTS // 2 // cols.size)
    for lo in range(need[0], need[-1] + 1, chunk):
        coarse = ev.rows(coarse_dat, lo, lo + chunk)
        top = coarse > _EXP_ZERO
        peak = coarse.max(axis=1)
        top |= ~top.any(axis=1, keepdims=True) & (coarse == peak[:, None])
        first = top.argmax(axis=1)
        final = last - top[:, ::-1].argmax(axis=1)
        j0 = np.where(first > 0, cols[first - 1] + 1, 0)
        j1 = np.where(final < last, cols[np.minimum(final + 1, last)], n)
        windowed = np.isfinite(peak) & ~whole[lo:lo + chunk]
        start[lo:lo + chunk] = np.where(windowed, j0, 0)
        stop[lo:lo + chunk] = np.where(windowed, j1, n)
    return start, stop


def _estimate_batch(values: np.ndarray, kernel: Kernel, b: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Estimates of R samples on one grid: an (R, G) array.

    ``values`` is (R, n), one sorted sample per row, ``b`` holds the R
    bandwidths and ``grid`` has passed ``_validate_grid``.  The location
    terms are computed once for all (sample, grid point) pairs and the data
    terms once per datum; the combine then runs, sample by sample, over
    blocks of grid rows within the ``_BLOCK_ELEMENTS`` budget.  Each row
    goes through the operations of a single-sample call, so a sample's
    estimate does not depend on which others share the batch.

    With more than ``_BLOCK_ELEMENTS // 2`` data a block is one grid row,
    and the combine and ``np.exp`` run only on the row's data window (see
    ``_data_windows``), written into a row buffer that is +0.0 outside it;
    entries outside it are those ``np.exp`` would round to +0.0.  The
    buffer is zeroed once per sample and then holds +0.0 outside the last
    window written, so each window zeroes only the part of the previous one
    it does not cover: far fewer entries than the rest of the row.  The
    whole row is then summed, as on the other path: numpy's pairwise sum
    groups entries by position, so summing the window alone would change
    the bits.
    """
    n = values.shape[1]
    ev = _LogKernel(kernel, grid, b[:, None])
    data = ev.data(values)
    step = max(1, _BLOCK_ELEMENTS // n)
    k = n // _PROBE_DIVISOR
    probe = np.array([k, -1 - k])
    out = np.empty((b.size, grid.size))
    for r in range(b.size):
        sub, dest = ev.take(r), out[r]
        dat = tuple(t[r] for t in data)
        if step == 1:
            start, stop = _data_windows(sub, dat, n)
            # +0.0 outside [p0, p1), the last window written
            row, p0, p1 = np.zeros((1, n)), 0, 0
            for g, (j0, j1) in enumerate(zip(start.tolist(), stop.tolist())):
                if j1 - j0 == n:
                    block = sub.rows(dat, g, g + 1)
                    np.exp(block, out=block)
                else:
                    block = row
                    row[:, p0:min(p1, j0)] = 0.0  # the old window left of the new
                    row[:, max(p0, j1):p1] = 0.0  # and right of it
                    np.exp(sub.rows(_columns(dat, slice(j0, j1)), g, g + 1),
                           out=row[:, j0:j1])
                    p0, p1 = j0, j1
                np.add.reduce(block, axis=1, out=dest[g:g + 1])
            continue
        for lo in range(0, grid.size, step):
            block = sub.rows(dat, lo, lo + step)
            _exp_rows(block, masked=not (block[:, probe] > _EXP_ZERO).all())
            np.add.reduce(block, axis=1, out=dest[lo:lo + step])
    out /= n
    return out


def estimate_density(sample: Sample, kernel: Kernel, bandwidth, grid) -> DensityEstimate:
    """Kernel density estimate (1/n) sum_i K_{x,b}(X_i) on a grid.

    The summation order over data is fixed (sorted sample, one row sum per
    grid point, then one division by n), so results are deterministic and
    independent of the input ordering; each grid value is bit-identical
    whether the grid is evaluated whole or split into pieces.  This is the
    one-sample case of the batched evaluator that ``run_experiment`` runs
    on all the replications of a cell, with the same bits.

    A block whose log K reaches ``_EXP_ZERO`` at its probe columns (see
    ``_PROBE_DIVISOR``) is exponentiated with the underflowing entries
    masked.  With more than ``_BLOCK_ELEMENTS // 2`` data a block is one
    grid row, and only the row's data window is combined and exponentiated
    (see ``_data_windows``), into a row buffer kept at +0.0 outside it by
    zeroing only what the previous window wrote outside the new one; the
    row is still summed whole, zeros included, in the same order.  Every
    path gives the bits of ``np.exp`` and of the full row sum, so the choice
    of path affects only speed.
    """
    kernel, bw = _as_kernel(kernel), _coerce_bandwidth(bandwidth)
    grid = _validate_grid(kernel, grid, bw.value)
    values = _estimate_batch(sample.values[None, :], kernel, np.array([bw.value]), grid)[0]
    return DensityEstimate(grid=grid, values=values, kernel=kernel, bandwidth=bw, n=sample.n)


def _count_split(n) -> tuple:
    """A count n as (m, j) with n = m * 2**(60 j), to rounding, and m a float below 2**1020.

    A count below 2**1020 is ``(float(n), 0)``.  Above, the bits cut off
    leave m its full precision, so a cube, fourth or fifth root of a count
    beyond the double range is the root of m times a power of two.
    """
    n = int(n)
    j = max(0, -(-(n.bit_length() - 1020) // 60))
    return float(n >> 60 * j), j


def _count_repr(n) -> str:
    """``repr(n)``, or ``m * 2**e`` for a count too long to print whole."""
    m, j = _count_split(n)
    return repr(n) if j == 0 else f"{m!r} * 2**{60 * j}"


def optimal_bandwidth_ge2(roughness: float, n: int) -> Bandwidth:
    """Closed-form optimal bandwidth for the mean-parameterised GE kernel.

    b* = (9 / (pi**4 * roughness))**(1/5) * n**(-1/5), where ``roughness``
    is the curvature functional integral of f''(x)**2 over (0, inf) --
    exact when the true density is known, plug-in otherwise.  n may be an
    int beyond the double range (see ``_count_split``); a bandwidth outside
    the double range raises :class:`OptimizationError`.
    """
    roughness, n = _positive(roughness, "roughness"), _count(n, "n", 2)
    m, j = _count_split(n)
    value = math.ldexp((9.0 / (math.pi ** 4 * roughness)) ** 0.2 * m ** -0.2, -12 * j)
    if not 0.0 < value < math.inf:
        raise OptimizationError(
            f"optimal ge2 bandwidth {'underflows' if value == 0.0 else 'overflows'} the "
            f"double range at roughness = {roughness!r}, n = {_count_repr(n)}"
        )
    return Bandwidth(value, "optimal_ge2")


def numeric_bandwidth_ge(a1: float, a2: float, n: int) -> Bandwidth:
    """Minimiser of the approximate MISE of the GE estimator.

    Minimises ``M(b) = c3 b**3 + c2 b**2 + 1/(4 b n)``, with
    ``c3 = g (g**2 + pi**2/6) a1`` and ``c2 = g**2 a2``, where ``g`` is
    Euler's constant, ``a1`` the integral of f'(x) f''(x) and ``a2`` that of
    f'(x)**2.  M is stationary where ``12 n c3 b**4 + 8 n c2 b**3 = 1``.
    With ``b = b0 t`` and ``b0 = (8 n c2)**(-1/3)``, the optimum at a1 = 0,
    this reads ``kappa t**4 + t**3 = 1`` with ``kappa = 12 n c3 b0**4``.  The
    left side is 0 at t = 0 and increases up to t = -3/(4 kappa), or for
    every t if kappa >= 0.  So M has an interior minimum exactly when
    ``kappa > -(3/4) 4**(-1/3)``, and its first root then lies in
    ``(0, 4**(1/3)]``, where ``brentq`` solves it.  At or below that bound M
    decreases for every b, and :class:`OptimizationError` is raised.

    b0 is the reciprocal of ``np.cbrt``, within about an ulp: the power
    ``** (-1/3)`` has a rounded exponent, whose error ``log(8 n c2)``
    multiplies (4e-14 at 8 n c2 = 1e302).  Where ``8 n c2`` overflows or is
    subnormal, b0 is taken in factored form, with n factored out too from
    2**1020 on (``_count_split``), so an int n beyond the double range
    works.  Above
    ``kappa = 2**72`` the root is ``t = kappa**(-1/4) (1 - kappa**(-3/4)/4 +
    ...)``, whose correction is below half an ulp, so ``b = (12 n c3)**(-1/4)``
    to double precision, also where kappa overflows; ``brentq`` would need
    more than its 100 steps there.  An optimum outside the double range
    raises :class:`OptimizationError`.
    """
    a2 = _positive(a2, "a2 (integral of f'(x)**2)")
    a1 = _real(a1, "a1 (integral of f'(x) f''(x))")
    n = _count(n, "n", 2)
    g = EULER_GAMMA
    c = g * g + math.pi ** 2 / 6.0
    # b0 = (8 n c2)**(-1/3), and kappa = 12 n c3 b0**4 = 1.5 (c3 / c2) b0 as
    # 8 n c2 b0**3 = 1; a2 enters no product that can underflow to 0, and n,
    # as m 2**(60 j), none that can overflow
    m, j = _count_split(n)
    b0_cubed_inv = 8.0 * m * a2 * g * g
    if j == 0 and _TINY <= b0_cubed_inv < math.inf:
        b0 = 1.0 / float(np.cbrt(b0_cubed_inv))
    else:  # the product overflows, or is subnormal and has lost digits
        b0 = math.ldexp(1.0 / float(np.cbrt(8.0 * m * g * g) * np.cbrt(a2)), -20 * j)
    kappa = 1.5 * c / g * (a1 / a2) * b0
    t_max = 4.0 ** (1.0 / 3.0)

    def stationary(t):
        return kappa * t ** 4 + t ** 3 - 1.0

    if kappa > 2.0 ** 72:
        b = math.ldexp((12.0 * m * g * c) ** -0.25 * a1 ** -0.25, -15 * j)
    elif math.isfinite(kappa) and stationary(t_max) > 0.0:
        # brentq stops on its relative tolerance alone (4 eps), also for small t
        b = b0 * brentq(stationary, 0.0, t_max, xtol=_TINY)
    else:
        raise OptimizationError(
            f"approximate MISE has no interior minimum: kappa = {kappa!r} is not a "
            "finite number above -(3/4) 4**(-1/3); the cubic curvature term dominates"
        )
    if not 0.0 < b < math.inf:
        raise OptimizationError(
            f"approximate-MISE optimum {'underflows' if b == 0.0 else 'overflows'} the "
            f"double range at a1 = {a1!r}, a2 = {a2!r}, n = {_count_repr(n)}"
        )
    return Bandwidth(b, "numeric_ge")


def _half_ratio(k: float) -> float:
    """Gamma(k + 1/2) / Gamma(k) for k > 0: within 7e-16 relative of 50-digit mpmath on [2, 1e9].

    From ``_HALF_RATIO_K`` on it is the asymptotic series
    ``sqrt(k) (1 - 1/(8k) + 1/(128k**2) + 5/(1024k**3) - 21/(32768k**4))``.
    Below, the recurrence ``R(k) = R(k + 1) k / (k + 1/2)`` runs up from k
    to k + m at or above ``_HALF_RATIO_K``, its m factors taken as one
    correctly rounded sum of ``log1p(-1/2 / (k + i + 1/2))``.  scipy's
    ``poch(k, 0.5)`` is off by up to 1.6e-11 for k between 10 and 1e4.
    """
    m = max(0, math.ceil(_HALF_RATIO_K - k))
    u = 1.0 / (k + m)
    ratio = math.sqrt(k + m) * (1.0 + u * (-1.0 / 8.0 + u * (1.0 / 128.0 + u * (
        5.0 / 1024.0 - u * (21.0 / 32768.0)))))
    if m:
        ratio *= math.exp(math.fsum(math.log1p(-0.5 / (k + i + 0.5)) for i in range(m)))
    return ratio


def _gamma_functional(k: float, order: int) -> float:
    """The integral over (0, inf) of the squared f' (``order`` 1) or f'' (2) of Gamma(k, 1).

    By the duplication formula, with R = Gamma(k + 1/2) / Gamma(k) (``_half_ratio``):
    for f' (k > 1.5) ``R / (sqrt(pi) (2k - 1)(2k - 3))``, for f'' (k > 2.5) that
    times ``3 / (2k - 5)``.
    """
    a2 = _half_ratio(k) / math.sqrt(math.pi) / ((2.0 * k - 1.0) * (2.0 * k - 3.0))
    return a2 if order == 1 else 3.0 * a2 / (2.0 * k - 5.0)


def select_bandwidth(sample: Sample, kernel: Kernel, method: str = "silverman") -> Bandwidth:
    """The bandwidth that the rule ``method`` of ``BANDWIDTH_METHODS`` selects from the sample.

    ``"silverman"`` is :func:`silverman_bandwidth`.  ``"optimal_ge2"`` and
    ``"numeric_ge"`` (with the integral of f' f'' at 0, exact for a gamma
    shape above 2) plug in the functionals of the gamma reference Gamma(k, 1)
    fitted by moments (Chen 2000) to the sample scaled by a power of two, as
    in ``_silverman_h``, and scale h back.  Every h then takes the kernel's
    scale (``_family_b``).  ``"fixed"``, a name that is no rule and a k at
    which the plug-in's integrand diverges at 0 raise :class:`DomainError`.
    """
    kernel = _as_kernel(kernel)
    if method == "silverman":
        return silverman_bandwidth(sample, kernel)
    if method not in ("optimal_ge2", "numeric_ge"):
        raise DomainError(f"no bandwidth rule {method!r}: silverman, optimal_ge2, numeric_ge")
    e = int(np.frexp(sample.values[-1])[1])
    scaled = np.ldexp(sample.values, -e)
    m, v = float(np.mean(scaled)), float(np.var(scaled, ddof=1))
    if v <= 0.0:
        raise DegenerateSampleError("sample has no spread; plug-in reference is undefined")
    k = m * m / v
    # at 0, f''**2 ~ x**(2k - 6) and f' f'' ~ x**(2k - 5)
    bound, integrand = (2.5, "f''**2") if method == "optimal_ge2" else (2.0, "f' f''")
    if not k > bound:
        raise DomainError(f"{method} integrates {integrand} of a gamma reference, which "
                          f"diverges at 0 for shape k <= {bound}; the sample's fitted shape is "
                          f"k = {k:.6g}. Use the silverman rule or a fixed bandwidth")
    if method == "optimal_ge2":
        bw = optimal_bandwidth_ge2(_gamma_functional(k, 2), sample.n)
    else:
        bw = numeric_bandwidth_ge(0.0, _gamma_functional(k, 1), sample.n)
    h = np.array([bw.value * math.ldexp(v / m, e)])
    return Bandwidth(float(_family_b(kernel, h)[0]), method)


def asymptotic_bias(kernel: Kernel, regime: AsymptoticRegime, b: float,
                    f1: float, f2: float) -> float:
    """Leading-order bias of the GE estimators (remainder orders dropped).

    Interior: ``b g f1 + (g**2 + pi**2/6)/2 * b**2 f2`` for the
    mode-parameterised kernel and ``pi**2/12 * b**2 f2`` for the
    mean-parameterised one.  Boundary (x/b -> c):
    ``b [psi(e^c + 1) + g - c] f1`` for the mode-parameterised kernel,
    whose bracket is ``g + e^-c / 2`` from ``_BIAS_ASYMPTOTIC_C`` on;
    no boundary expansion is defined for the mean-parameterised one.
    ``f1`` and ``f2`` are f' and f'' at the point (f'(0) in the boundary
    regime).
    """
    kernel = _as_kernel(kernel)
    b, f1, f2 = _positive(b, "b"), _real(f1, "f1"), _real(f2, "f2")
    g = EULER_GAMMA
    if kernel is Kernel.GE:
        if regime.kind == "interior":
            return b * g * f1 + 0.5 * (g * g + math.pi ** 2 / 6.0) * b * b * f2
        c = regime.c
        if c < _BIAS_ASYMPTOTIC_C:
            return b * (digamma(math.exp(c) + 1.0) + g - c) * f1
        # psi(e^c + 1) - c = e^-c / 2 - e^-2c / 12 + ..., without the cancellation
        return b * (g + 0.5 * math.exp(-c)) * f1
    if kernel is Kernel.GE2:
        if regime.kind == "interior":
            return (math.pi ** 2 / 12.0) * b * b * f2
        raise DomainError("no boundary bias expansion is defined for the ge2 kernel")
    raise DomainError("asymptotic_bias is defined for the ge and ge2 kernels only")


def asymptotic_variance(regime: AsymptoticRegime, b: float, n: int, fx: float) -> float:
    """Leading-order variance f(x)/(4 b n), with the boundary inflation factor.

    In the boundary regime the factor ``e^c / (e^c - 1/2)`` applies; it
    decreases strictly in c and tends to 1, recovering the interior value.
    The same expression serves both GE estimators.  n may be an int beyond
    the double range (see ``_count_split``).
    """
    b, n, fx = _positive(b, "b"), _count(n, "n", 1), _nonnegative(fx, "fx")
    m, j = _count_split(n)
    base = math.ldexp(fx / (4.0 * b * m), -60 * j)
    if regime.kind == "interior":
        return base
    return base / (1.0 - 0.5 * math.exp(-regime.c))


def _quad_window(kernel: Kernel, x: float, b: float):
    """(lo, hi) bracket holding essentially all kernel mass."""
    if kernel in _GE_FAMILY:
        return max(0.0, x - 30.0 * b), x + 60.0 * b
    if kernel in _GAMMA_FAMILY:
        k = (x / b + 1.0) if kernel is Kernel.GAM1 else gam2_shape(x, b)
        m, sd = k * b, math.sqrt(k) * b
        return max(0.0, m - 15.0 * sd), m + 15.0 * sd + 15.0 * b
    if kernel is Kernel.IG:
        try:
            var = b * x ** 3
        except OverflowError:  # float ** raises where * gives inf
            raise _rescale_at(kernel, "x**3 overflows", x, b) from None
        if var == math.inf:
            raise _rescale_at(kernel, "b*x**3 overflows", x, b)
        sd = math.sqrt(var)
        return max(0.0, x - 15.0 * sd), x + 20.0 * sd
    # RIG
    sd = math.sqrt(b * x + 2.0 * b * b)
    return max(0.0, x - 15.0 * sd), x + 20.0 * sd




def _panels(edges: np.ndarray):
    """Gauss-Legendre nodes and weights on the panels between consecutive ``edges``."""
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half) + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _paired(shared: list, fine: list, coarse: list):
    """A fine and a coarse composite rule that share panels, as one node set.

    Each argument is a list of (segment, edges) blocks of panels.  The fine
    rule has the panels of ``shared`` and ``fine``, the coarse rule those of
    ``shared`` and ``coarse``.  Returns every node once, in that order, with
    its weight and its segment, and the cuts (i, j) that end ``shared`` and
    ``fine``.
    """
    blocks = shared + fine + coarse
    parts = [_panels(edges) for _, edges in blocks]
    sizes = [p[0].size for p in parts]
    nodes, weights = (np.concatenate(col) for col in zip(*parts))
    segment = np.repeat([seg for seg, _ in blocks], sizes)
    i = sum(sizes[:len(shared)])
    return nodes, weights, segment, (i, i + sum(sizes[len(shared):len(shared) + len(fine)]))


def _z_rule():
    """The z-space rules of ``exact_estimator_moments``, per segment on a unit scale.

    Segment 0 is [0, a] in panels halving toward 0, segment 1 [a, hi] in
    uniform panels, and segment 2 the tail from hi in panels of width
    (hi - lo) 2**k; a call maps each segment's unit nodes and weights
    affinely.  The coarse rule has half the uniform panels and stops after
    half the tail panels, which it shares with the fine rule.
    """
    geometric = np.concatenate(([0.0], np.exp2(np.arange(1.0 - _GEOMETRIC_PANELS, 1.0))))
    tail = np.exp2(np.arange(_TAIL_PANELS + 1.0)) - 1.0
    half = _TAIL_PANELS // 2
    return _paired([(0, geometric), (2, tail[:half + 1])],
                   [(1, np.linspace(0.0, 1.0, _UNIFORM_PANELS + 1)), (2, tail[half:])],
                   [(1, np.linspace(0.0, 1.0, _UNIFORM_PANELS // 2 + 1))])


def _log_u_rule():
    """The u-space rules of ``exact_estimator_moments``, their nodes as log u.

    Segment 0 holds the panels graded toward u = 0 and the uniform ones, in
    u; segment 1 the panels graded toward u = 1, laid out in v = 1 - u, so
    that log u = log1p(-v) and no node rounds to u = 1.  Both rules share
    the graded panels of the first ``_U_LEVELS // 2 - 1`` levels at each end.
    """
    def graded(k0, k1, inner):  # edges _U_EDGE * _U_RATIO**k for k from k1 down to k0
        edges = _U_EDGE * _U_RATIO ** np.arange(k1, k0 - 1, -1.0)
        edges = np.concatenate(([0.0], edges)) if inner else edges
        return [(0, edges), (1, edges)]

    def uniform(count):
        return [(0, np.linspace(_U_EDGE, 1.0 - _U_EDGE, count + 1))]

    half = _U_LEVELS // 2
    t, weights, segment, cuts = _paired(
        graded(0, half - 1, False),
        graded(half - 1, _U_LEVELS - 1, True) + uniform(_U_UNIFORM),
        graded(half - 1, half - 1, True) + uniform(_U_UNIFORM // 2))
    return np.where(segment == 0, np.log(t), np.log1p(-t)), weights, cuts


_Z_UNIT, _Z_WEIGHTS, _Z_SEGMENT, _Z_CUTS = _z_rule()
_LOG_U, _U_WEIGHTS, _U_CUTS = _log_u_rule()


def exact_estimator_moments(kernel: Kernel, x: float, b: float, density, n: int) -> Moments:
    """Exact mean and variance of the estimator at x under a known density.

    Computes ``E[fhat(x)] = integral of K f`` and
    ``Var[fhat(x)] = (integral of K^2 f - (integral of K f)^2) / n`` by a
    fixed composite 16-point Gauss-Legendre rule, for deterministic
    verification of the asymptotic bias/variance constants without Monte
    Carlo noise.  ``b`` is a number or a :class:`Bandwidth`.  ``density`` is
    any object whose ``pdf`` takes an array of nodes (see
    :class:`gekde.simulation.TrueDensity`); it is called once per call, and
    the kernel is one block of the estimator's evaluator, so the kernel mass,
    the mean and the second moment share every node.

    The rule lives in z, around ``_quad_window``'s bracket [lo, hi]: 30
    geometric panels halving toward 0 on [0, a], 64 uniform panels on
    [a, hi] and 16 tail panels from hi, of widths (hi - lo) 2**k, k = 0..15.
    a is lo if lo > 0, else min(b, hi/2): the GE and gamma kernels are not
    smooth at 0, like (z/b)**(shape - 1), over a scale of b.  The ``ge2``
    kernel with x < b has shape nu(x/b) < 1 and is singular like
    z**(nu - 1) at 0, where no z-space rule converges; it is integrated in
    its own probability u instead, through the closed-form GE quantile
    z(u) = -b log(1 - u**(1/nu)), on 40 panels graded by 1/4 toward each
    of u = 0 and u = 1 and 32 uniform ones between, and its mass is 1 by
    construction.  ``achieved`` is the largest difference of mass, mean and
    second moment from a coarse rule: half the uniform panels and the first
    8 tail panels in z, half the graded levels and uniform panels in u.

    For a density positive at 0 the ``ge2`` variance is infinite where
    nu <= 1/2, that is x below about 0.614 b: K**2 f behaves like
    z**(2 nu - 2) at 0.  There the two rules part and this raises, as it
    does a little above 0.614 b, where the variance is finite but beyond
    the rule's resolution.  No call returns a negative variance.

    Raises
    ------
    DomainError
        If ``n`` is not a whole number of at least 1, x or b is not a number,
        b is not positive and finite, or x or b lies outside the kernel's
        domain (x <= 0 for every kernel but ``ge``).
    BoundaryDegeneracyError
        For the ``rig`` kernel at 0 < x <= b.
    IntegrationError
        If the kernel mass strays from 1 by more than 1e-8, or ``achieved``
        exceeds 1e-6 or is not finite (a second moment that diverges), or
        the second moment falls below the squared mean; ``achieved`` is set.
    """
    kernel, n = _as_kernel(kernel), _count(n, "n", 1)
    b = _coerce_bandwidth(b).value
    # validates (x, b) before the bracket takes square roots of them
    x, b = _validate_point(kernel, x, b)
    ev = _LogKernel(kernel, np.array([x]), b)
    singular = kernel is Kernel.GE2 and x < b  # shape nu(x/b) < 1
    if singular:
        weights, (i, j) = _U_WEIGHTS, _U_CUTS
        z, log_k = _ge_quantiles(ev, _LOG_U)
    else:
        lo, hi = _quad_window(kernel, x, b)
        a = lo if lo > 0.0 else min(b, 0.5 * hi)
        length = np.array([a, hi - a, hi - lo]).take(_Z_SEGMENT)
        z = np.array([0.0, a, hi]).take(_Z_SEGMENT) + length * _Z_UNIT
        weights, (i, j) = length * _Z_WEIGHTS, _Z_CUTS
        log_k = ev.rows(ev.data(z))[0]
    f = np.asarray(density.pdf(z), dtype=float)
    # rows: the weights of the kernel mass, the mean and the second moment; in
    # u the measure already holds K.  K f is 0 where f is, also where K
    # overflows (z = 0 where u**(1/nu) underflows), so where some K is inf
    # the product's 0 * inf = nan at f = 0 is set to 0
    terms = np.empty((3, z.size))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: a divergent second moment
        k = np.exp(log_k)
        if singular:
            terms[0] = weights
        else:
            np.multiply(weights, k, out=terms[0])
        np.multiply(terms[0], f, out=terms[1])
        np.multiply(terms[1], k, out=terms[2])
        if np.isinf(k).any():
            terms[2, f == 0.0] = 0.0
        shared = terms[:, :i].sum(axis=1)
        fine, coarse = shared + terms[:, i:j].sum(axis=1), shared + terms[:, j:].sum(axis=1)
        gap = np.abs(fine - coarse)
    mass, mean, second = fine.tolist()
    off = abs(mass - 1.0)
    if not off <= 1e-8:
        raise IntegrationError(
            f"kernel mass {mass!r} deviates from 1 over the quadrature bracket",
            achieved=math.inf if math.isnan(off) else off,
        )
    achieved = math.inf if np.isnan(gap).any() else float(gap.max())
    if not achieved <= 1e-6:
        raise IntegrationError(
            "quadrature error estimate exceeds tolerance", achieved=achieved
        )
    if second < mean * mean:
        raise IntegrationError(
            f"second moment {second!r} is below the squared mean {mean * mean!r}: the "
            "variance is beneath the rule's resolution", achieved=achieved
        )
    m, j = _count_split(n)
    return Moments(mean=mean, variance=math.ldexp((second - mean * mean) / m, -60 * j))
