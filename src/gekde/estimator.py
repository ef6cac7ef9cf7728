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

``exact_estimator_moments`` computes E[fhat(x)] and Var[fhat(x)] by adaptive
quadrature against a known density, giving a deterministic (Monte-Carlo-free)
route to the asymptotic bias/variance constants.

References
----------
.. [1] Silverman, B. W. 1986. "Density Estimation for Statistics and Data
   Analysis." Chapman & Hall.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import (
    DegenerateSampleError,
    DomainError,
    IntegrationError,
    OptimizationError,
)
from .kernels import (_GAMMA_FAMILY, _GE_FAMILY, _TINY, Kernel, _columns, _LogKernel,
                      _point_log_kernel, _validate_point, gam2_shape)
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

#: Absolute quadrature tolerance of ``exact_estimator_moments``.
_QUAD_EPSABS = 1e-10


class Sample:
    """Validated sample of strictly positive, finite observations.

    Values are stored sorted ascending, which makes every estimate
    invariant to the ordering of the input data.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size < 2:
            raise DomainError("a sample needs at least 2 observations")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("sample values must be strictly positive and finite")
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
        try:
            value = float(self.value)
        except (TypeError, ValueError):
            raise DomainError("bandwidth must be a real number") from None
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError("bandwidth must be positive and finite")
        object.__setattr__(self, "value", value)
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
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise DomainError("boundary constant c must be nonnegative and finite")


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
    """
    e = np.frexp(values[:, -1])[1][:, None]
    v = np.ldexp(values, -e)
    sd = np.std(v, axis=1, ddof=1)
    q75, q25 = np.percentile(v, [75.0, 25.0], axis=1)
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
    kernels use h directly, the gamma/IG/RIG family uses h**2.
    """
    b = _family_b(kernel, _silverman_h(sample.values[None, :]))
    return Bandwidth(float(b[0]), "silverman")


def default_grid(sample: Sample, size: int = 512) -> np.ndarray:
    """Default evaluation grid: equally spaced, covering the sample support."""
    hi = 1.1 * sample.values[-1]
    lo = max(0.5 * sample.values[0], 1e-6 * sample.values[-1])
    return np.linspace(lo, hi, size)


def _validate_grid(kernel: Kernel, grid: np.ndarray, b: float) -> None:
    if grid.size == 0:
        raise DomainError("evaluation grid is empty")
    if not np.all(np.isfinite(grid)):
        raise DomainError("grid points must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid points must be strictly increasing")
    _validate_point(kernel, float(grid[0]), b)


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

    ``values`` is (R, n), one sorted sample per row, and ``b`` holds the R
    bandwidths.  The location terms are computed once for all (sample, grid
    point) pairs and the data terms once per datum; the combine then runs,
    sample by sample, over blocks of grid rows within the
    ``_BLOCK_ELEMENTS`` budget.  Each row goes through the operations of a
    single-sample call, so a sample's estimate does not depend on which
    others share the batch.

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
    _validate_grid(kernel, grid, float(b.max()))
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
    bw = _coerce_bandwidth(bandwidth)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    values = _estimate_batch(sample.values[None, :], kernel, np.array([bw.value]), grid)[0]
    return DensityEstimate(grid=grid, values=values, kernel=kernel, bandwidth=bw, n=sample.n)


def optimal_bandwidth_ge2(roughness: float, n: int) -> Bandwidth:
    """Closed-form optimal bandwidth for the mean-parameterised GE kernel.

    b* = (9 / (pi**4 * roughness))**(1/5) * n**(-1/5), where ``roughness``
    is the curvature functional integral of f''(x)**2 over (0, inf) --
    exact when the true density is known, plug-in otherwise.
    """
    if not (math.isfinite(roughness) and roughness > 0.0):
        raise DomainError("roughness must be positive and finite")
    if n < 2:
        raise DomainError("n must be at least 2")
    value = (9.0 / (math.pi ** 4 * roughness)) ** 0.2 * n ** -0.2
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
    subnormal, b0 is taken in factored form.  Above
    ``kappa = 2**72`` the root is ``t = kappa**(-1/4) (1 - kappa**(-3/4)/4 +
    ...)``, whose correction is below half an ulp, so ``b = (12 n c3)**(-1/4)``
    to double precision, also where kappa overflows; ``brentq`` would need
    more than its 100 steps there.  An optimum outside the double range
    raises :class:`OptimizationError`.
    """
    if not (math.isfinite(a2) and a2 > 0.0):
        raise DomainError("a2 (integral of f'(x)**2) must be positive and finite")
    if not math.isfinite(a1):
        raise DomainError("a1 (integral of f'(x) f''(x)) must be finite")
    if n < 2:
        raise DomainError("n must be at least 2")
    g = EULER_GAMMA
    c = g * g + math.pi ** 2 / 6.0
    # b0 = (8 n c2)**(-1/3), and kappa = 12 n c3 b0**4 = 1.5 (c3 / c2) b0 as
    # 8 n c2 b0**3 = 1; a2 enters no product that can underflow to 0
    b0_cubed_inv = 8.0 * n * a2 * g * g
    if _TINY <= b0_cubed_inv < math.inf:
        b0 = 1.0 / float(np.cbrt(b0_cubed_inv))
    else:  # the product overflows, or is subnormal and has lost digits
        b0 = 1.0 / float(np.cbrt(8.0 * n * g * g) * np.cbrt(a2))
    kappa = 1.5 * c / g * (a1 / a2) * b0
    t_max = 4.0 ** (1.0 / 3.0)

    def stationary(t):
        return kappa * t ** 4 + t ** 3 - 1.0

    if kappa > 2.0 ** 72:
        b = (12.0 * n * g * c) ** -0.25 * a1 ** -0.25
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
            f"double range at a1 = {a1!r}, a2 = {a2!r}, n = {n!r}"
        )
    return Bandwidth(b, "numeric_ge")


def asymptotic_bias(kernel: Kernel, regime: AsymptoticRegime, b: float,
                    f1: float, f2: float) -> float:
    """Leading-order bias of the GE estimators (remainder orders dropped).

    Interior: ``b g f1 + (g**2 + pi**2/6)/2 * b**2 f2`` for the
    mode-parameterised kernel and ``pi**2/12 * b**2 f2`` for the
    mean-parameterised one.  Boundary (x/b -> c):
    ``b [psi(e^c + 1) + g - c] f1`` for the mode-parameterised kernel;
    no boundary expansion is defined for the mean-parameterised one.
    ``f1`` and ``f2`` are f' and f'' at the point (f'(0) in the boundary
    regime).
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("b must be positive and finite")
    g = EULER_GAMMA
    if kernel is Kernel.GE:
        if regime.kind == "interior":
            return b * g * f1 + 0.5 * (g * g + math.pi ** 2 / 6.0) * b * b * f2
        return b * (digamma(math.exp(regime.c) + 1.0) + g - regime.c) * f1
    if kernel is Kernel.GE2:
        if regime.kind == "interior":
            return (math.pi ** 2 / 12.0) * b * b * f2
        raise DomainError("no boundary bias expansion is defined for the ge2 kernel")
    raise DomainError("asymptotic_bias is defined for the ge and ge2 kernels only")


def asymptotic_variance(regime: AsymptoticRegime, b: float, n: int, fx: float) -> float:
    """Leading-order variance f(x)/(4 b n), with the boundary inflation factor.

    In the boundary regime the factor ``e^c / (e^c - 1/2)`` applies; it
    decreases strictly in c and tends to 1, recovering the interior value.
    The same expression serves both GE estimators.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("b must be positive and finite")
    if n < 1:
        raise DomainError("n must be at least 1")
    if not (math.isfinite(fx) and fx >= 0.0):
        raise DomainError("fx must be nonnegative and finite")
    base = fx / (4.0 * b * n)
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
        sd = math.sqrt(b * x ** 3)
        return max(0.0, x - 15.0 * sd), x + 20.0 * sd
    # RIG
    sd = math.sqrt(b * x + 2.0 * b * b)
    return max(0.0, x - 15.0 * sd), x + 20.0 * sd


def _quad_segments(fn, lo: float, hi: float, epsabs: float):
    total = 0.0
    err = 0.0
    for a, c in ((0.0, lo), (lo, hi)):
        if c > a:
            v, e = quad(fn, a, c, epsabs=epsabs, epsrel=1e-11, limit=200)
            total += v
            err += abs(e)
    v, e = quad(fn, hi, np.inf, epsabs=epsabs, epsrel=1e-11, limit=200)
    return total + v, err + abs(e)


def exact_estimator_moments(kernel: Kernel, x: float, b: float, density, n: int) -> Moments:
    """Exact mean and variance of the estimator at x under a known density.

    Computes ``E[fhat(x)] = integral of K f`` and
    ``Var[fhat(x)] = (integral of K^2 f - (integral of K f)^2) / n`` by
    adaptive quadrature, for deterministic verification of the asymptotic
    bias/variance constants without Monte Carlo noise.  ``b`` is a number or
    a :class:`Bandwidth`.  ``density`` is any object exposing a scalar
    ``pdf`` method (see :class:`gekde.simulation.TrueDensity`); ``pdf`` must
    be a pure function of z, because the three quadrature passes (kernel
    mass, mean, second moment) largely share their nodes, and within one
    call each node's kernel and density values are computed once and reused.
    Each node is a Python float, so the kernel and a ``TrueDensity`` take
    their float paths, which build no array and give the bits of the array
    evaluators.

    Raises
    ------
    DomainError
        If ``n`` is below 1, b is not a positive finite number, or x or b
        lies outside the kernel's domain (x <= 0 for every kernel but ``ge``).
    BoundaryDegeneracyError
        For the ``rig`` kernel at 0 < x <= b.
    IntegrationError
        If the quadrature error estimate exceeds the tolerance, or the
        kernel mass over the integration bracket strays from 1.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    b = _coerce_bandwidth(b).value
    # validates (x, b); location terms (and the ge2 shape solve) once, not at every node
    log_k = _point_log_kernel(kernel, x, b)
    lo, hi = _quad_window(kernel, x, b)
    k_at = functools.cache(lambda z: math.exp(log_k(z)))
    f_at = functools.cache(density.pdf)

    mass, mass_err = _quad_segments(k_at, lo, hi, _QUAD_EPSABS)
    if abs(mass - 1.0) > 1e-8:
        raise IntegrationError(
            f"kernel mass {mass!r} deviates from 1 over the quadrature bracket",
            achieved=abs(mass - 1.0),
        )
    mean, e1 = _quad_segments(lambda z: k_at(z) * f_at(z), lo, hi, _QUAD_EPSABS)
    second, e2 = _quad_segments(lambda z: k_at(z) ** 2 * f_at(z), lo, hi, _QUAD_EPSABS)
    achieved = max(e1, e2, mass_err)
    if achieved > 1e-6:
        raise IntegrationError(
            "quadrature error estimate exceeds tolerance", achieved=achieved
        )
    return Moments(mean=mean, variance=(second - mean * mean) / n)
