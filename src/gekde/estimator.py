"""Density estimation on a grid, bandwidth selection and exact diagnostics.

The estimator averages log-domain kernel evaluations over the sample.  One
routine, ``_estimate_batch``, does this for a stack of R samples with R
bandwidths (the replications of a Monte Carlo cell); ``estimate_density``
is its one-sample case, with the same bits.  The kernel terms that depend
on the grid point alone and those that depend on the datum alone are
computed once per call.  Every block, of whatever kind, holds up to one
element budget and goes through the one combine, ``_LogKernel.rows``.
Where several samples' whole grids, of at least 2 points each, fit one
block, consecutive samples share a block: the replications of a Monte
Carlo cell at n = 100 go two at a time.  Otherwise the grid goes, sample
by sample, through one block loop, described in ``_estimate_batch``'s
docstring: blocks of whole rows, exponentiated in place and summed along
their rows, and, for a large sample, blocks of rows cut to the union of
their data windows, each row exponentiated and summed on its own window.
Every kernel's block starts with one product step (see
``kernels._LogKernel``), log K for the GE and gamma kernels and the
difference ``z - s`` for ``ig`` and ``rig``: one BLAS product of the
location and data matrices, or of their stacks for a block of samples,
except that one sample's ``ig``/``rig`` difference is a broadcast.  A data
window or a set of probe columns indexes the last axis of a sample's data
terms, one array.  Every grid value goes through the same operations
whatever block it lands in, so the result does not depend on how the grid
or the stack is split.

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
from scipy.linalg.blas import dgemm
from scipy.optimize import brentq

from .errors import (DegenerateSampleError, DomainError, IntegrationError, OptimizationError,
                     _count, _count_float, _finite_array, _nonnegative, _positive, _real)
from .kernels import (_DBL_MAX, _GAMMA_FAMILY, _GE_FAMILY, _TINY, Kernel, _as_kernel,
                      _gam2_shape, _ge_quantiles, _LogKernel, _rescale_at, _validate_point)
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

#: Every block of the (grid rows, data) kernel matrix, or of several
#: samples' whole grids, holds up to twice this many entries, 512 KB a
#: layer of ``_estimate_batch``'s buffers, which every block reuses: a
#: freshly allocated temporary above about 256 KB would page-fault back in
#: on every call.  Blocks of 2-3 rows at n = 20000 are fastest, and 8 rows
#: spill the cache; at 1000-16000 data ``estimate_density`` with every
#: kernel took about 4-12% less time than with half the budget (numpy 2.4, one
#: thread of a 2-core AVX-512 Xeon).  A stack of samples shares blocks when
#: two whole grids fit this many entries (2 x 256 x 100 at n = 100 on a
#: 256-point grid), and a sample with more than half this many data takes
#: data windows (see ``_data_windows``).
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

#: A row of a large sample finds its data window from log K at every 128th
#: datum: the coarse pass costs 1/128 of the row, and the window is at most
#: 127 data wider on each side than the entries above the row's cut.  On the
#: ``estimate_large`` calls with windowed rows (``ge``, ``ge2``, config E
#: ``rig``; numpy 2.4, one thread of a 2-core AVX-512 Xeon), stride 128 took
#: about 1.5% less time than 64 and 7% less than 32.
_WINDOW_STRIDE = 128

#: A windowed row keeps the data whose log K is above its cut,
#: max(peak - (``_WINDOW_DEPTH`` + ln n), ``_EXP_ZERO``), where peak is the
#: row's largest coarse value, never above its true peak.  The n terms below
#: the cut then add less than e**-40 of the row sum, a fraction of an ulp.
_WINDOW_DEPTH = 40.0

#: The 16-point Gauss-Legendre rule on [-1, 1], the panel rule of
#: ``exact_estimator_moments``.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: Panels of the z-space rule: geometric ones halving toward 0 on [0, a],
#: uniform ones on [a, hi], where lo, hi and a are ``_quad_window``'s, and
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

#: e**700, by which ``_estimate_batch`` undoes the part 700 of a row's shift.
_EXP_700 = math.exp(700.0)


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
    """The kernel's bandwidths for an array of Gaussian-comparable h: h or h**2, all normal."""
    ge = kernel in _GE_FAMILY
    with np.errstate(over="ignore"):
        b = h if ge else h * h
    bad = ~((b >= _TINY) & (b < math.inf))
    if bad.any():
        cause = "overflows" if b[bad][0] == math.inf else "underflows"
        raise DomainError(f"{kernel.value} bandwidth: {'h' if ge else 'h**2'} {cause} at "
                          f"h = {float(h[bad][0])!r}; rescale the data")
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
    """Default evaluation grid: equally spaced, covering the sample support.

    It runs from the larger of half the smallest datum and 1e-6 of the
    largest to 1.1 times the largest, capped at the largest double; data
    too near 0 for it to start above 0 and increase raise DomainError.
    """
    first, last = float(sample.values[0]), float(sample.values[-1])
    hi = min(1.1 * last, _DBL_MAX)  # a float product overflows to inf quietly
    grid = np.linspace(max(0.5 * first, 1e-6 * last), hi, _count(size, "grid size", 1))
    if not (grid[0] > 0.0 and np.all(np.diff(grid) > 0.0)):
        raise DomainError(f"no default grid of {grid.size} increasing positive points for a "
                          f"sample from {first!r} to {last!r}; rescale the data")
    return grid


def _grid_points(grid) -> np.ndarray:
    """``grid`` as a 1-D array: non-empty, finite and strictly increasing.

    Whether its first point lies in a kernel's domain is ``_validate_point``'s check.
    """
    grid = np.atleast_1d(_finite_array(grid, "grid points"))
    if grid.size == 0:
        raise DomainError("evaluation grid is empty")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid points must be strictly increasing")
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


def _data_windows(ev: _LogKernel, dat: np.ndarray, n: int):
    """Per grid row, the data window [start, stop) outside which log K is at or below the row's cut.

    ``ev`` and ``dat`` are one sample's evaluator and data terms, the data
    sorted.  A row of log K is a log density in the datum, so it is unimodal
    in the sorted data, and its entries above any level form one run.  A row
    above ``_EXP_ZERO`` at the probe columns of ``_PROBE_DIVISOR`` has at
    most 1/16 of its entries below it and is whole, [0, n).  The other rows
    are evaluated at every ``_WINDOW_STRIDE``-th datum, from the first, in
    row chunks of ``_BLOCK_ELEMENTS // 2`` entries, fewer than one grid row
    holds, so the pass needs less memory than a row's combine.  A row's cut
    is max(peak - (``_WINDOW_DEPTH`` + ln n), ``_EXP_ZERO``), peak its
    coarse maximum: the dropped terms, at most n of them, add less than
    e**-40 of the row sum, and a row that peaks within 40 + ln n of
    ``_EXP_ZERO`` keeps the window of the entries that ``np.exp`` does not
    round to +0.0.  The coarse points at or below the cut on either side of
    those above it (or, with none above, of the coarse maximum) lie on the
    row's flanks, so every datum beyond them is at or below the cut too; a
    run that reaches the last coarse point keeps the data after it.  At the
    floor, the 0.87 between the cut and -745.13, where ``np.exp`` stops
    rounding to +0.0, absorbs the rounding wobble of a flank.  A row with a
    NaN or a non-finite coarse maximum is whole too.  Returns start and
    stop.
    """
    k = n // _PROBE_DIVISOR
    whole = (ev.rows(dat[..., [k, n - 1 - k]]) > _EXP_ZERO).all(axis=1)
    start = np.zeros(whole.size, dtype=np.intp)
    stop = np.full(whole.size, n, dtype=np.intp)
    need = np.flatnonzero(~whole)
    if not need.size:
        return start, stop
    cols = np.arange(0, n, _WINDOW_STRIDE)
    coarse_dat = dat[..., cols]
    last = cols.size - 1
    chunk = max(1, _BLOCK_ELEMENTS // 2 // cols.size)
    depth = _WINDOW_DEPTH + math.log(n)
    for lo in range(need[0], need[-1] + 1, chunk):
        coarse = ev.rows(coarse_dat, lo, lo + chunk)
        peak = coarse.max(axis=1)
        top = coarse > np.maximum(peak - depth, _EXP_ZERO)[:, None]
        top |= ~top.any(axis=1, keepdims=True) & (coarse == peak[:, None])
        first = top.argmax(axis=1)
        final = last - top[:, ::-1].argmax(axis=1)
        j0 = np.where(first > 0, cols[first - 1] + 1, 0)
        j1 = np.where(final < last, cols[np.minimum(final + 1, last)], n)
        windowed = np.isfinite(peak) & ~whole[lo:lo + chunk]
        start[lo:lo + chunk] = np.where(windowed, j0, 0)
        stop[lo:lo + chunk] = np.where(windowed, j1, n)
    return start, stop


def _block_buffers(height: int, n: int) -> np.ndarray:
    """An empty (2, height, n) array whose two layers each start on a 64-byte cache line.

    The block of ``_LogKernel.rows`` goes in layer 0 and the ``ig``/``rig``
    scratch in layer 1.  numpy allocates on 16-byte boundaries, and its
    AVX-512 loops store 64 bytes at a time, so a layer that starts off a
    cache line splits every vector store across two lines: at n = 20000 an
    ``ig`` or ``rig`` block 16 bytes past a line took about 15-28% longer
    than one on it.  The layers are padded apart to whole cache lines.
    """
    layer = -(-height * n // 8) * 8
    raw = np.empty(2 * layer + 7)
    first = -raw.ctypes.data % 64 // 8
    return raw[first:first + 2 * layer].reshape(2, layer)[:, :height * n].reshape(2, height, n)


def _estimate_batch(values: np.ndarray, kernel: Kernel, b: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Estimates of R samples on one grid: an (R, G) array.

    ``values`` is (R, n), one sorted sample per row, ``b`` holds the R
    bandwidths and ``grid`` would pass ``_grid_points``, its first point
    ``_validate_point``.  The location terms are computed once for all
    (sample, grid point) pairs and the data terms once per datum.  Each row
    goes through the operations of a single-sample call, so a sample's
    estimate does not depend on which others share the batch, nor on how
    the grid is split.

    Every block holds up to ``2 * _BLOCK_ELEMENTS`` entries.  With R >= 2
    and a grid of G >= 2 points whose G x n entries fit ``_BLOCK_ELEMENTS``,
    consecutive samples share blocks of their whole grids:
    p = ``2 * _BLOCK_ELEMENTS // (G * n)`` samples a block (2 at n = 100 on
    a 256-point grid), the last block holding the rest.  A block's log K is
    one (p, G, n) array, ``rows`` of ``ev.take(slice(r0, r1))`` (one
    stacked product for every kernel), taken by one ``_exp_rows``, masked
    if some row of the block is at or below ``_EXP_ZERO`` at the probe
    columns, and one row sum.  A one-point grid is left to the row blocks:
    its stacked product would go to gemv.

    Otherwise one block loop runs over the grid, sample by sample.  With
    more than ``_BLOCK_ELEMENTS // 2`` data, the rows whose log K reaches
    the cut at a probe column get a data window (see ``_data_windows``);
    the windowed rows split the grid into runs of whole rows.  With fewer
    data, no row is windowed and the grid is one run.  A run of whole rows
    goes in blocks of up to ``height`` rows, ``2 * _BLOCK_ELEMENTS // n``
    (32 at n = 2000, 3 at n = 20000), at least one.  Each block is one
    combine, written into a buffer allocated once per call with the
    ``ig``/``rig`` scratch beside it (``out`` of :meth:`_LogKernel.rows`,
    ``_block_buffers``), one ``_exp_rows``, masked if some row of the block
    is at or below ``_EXP_ZERO`` at the probe columns (see
    ``_PROBE_DIVISOR``), and one row sum.

    A run of windowed rows also goes in blocks: a row joins the block while
    rows times the width of the union of their windows fits one layer of the
    buffer (``height`` rows of n), and the block is one combine on the data
    of that union.  Each row then exponentiates only its own window, in
    place in the block, and its sum is one ``np.add.reduce`` of the window.
    The entries of the row outside the window are at or below its cut, so
    together they add less than e**-40 of the row sum (nothing at all where
    the cut is ``_EXP_ZERO``): the window sum adds the terms that matter in
    another order, and can differ from the full-row sum by rounding, a few
    ulps.  The sums are divided by n once, after the last block.  A K past
    the largest double overflows ``np.exp`` to inf, quietly; an estimate left
    non-finite whose row of log K has a finite maximum m is summed again as
    exp(log K - m) and scaled back by e**m after the division by n, and one
    past the largest double raises :class:`DomainError`.  Finite estimates
    are not touched.
    """
    n, size = values.shape[1], grid.size
    ev = _LogKernel(kernel, grid, b[:, None])
    data = ev.data(values)
    large = n > _BLOCK_ELEMENTS // 2
    height = max(1, 2 * _BLOCK_ELEMENTS // n)
    k = n // _PROBE_DIVISOR
    probe = slice(k, None, n - 1 - 2 * k)  # the columns k and n - 1 - k, as a view
    out = np.empty((b.size, size))
    with np.errstate(over="ignore"):  # a K past the largest double: see below
        # a one-point grid stays with rows: a stacked one-row product goes to gemv
        if b.size > 1 and 2 <= size <= _BLOCK_ELEMENTS // n:
            group = min(b.size, 2 * _BLOCK_ELEMENTS // (size * n))
            buf = _block_buffers(group * size, n).reshape(2, group, size, n)
            for r0 in range(0, b.size, group):
                r1 = min(r0 + group, b.size)
                block = ev.take(slice(r0, r1)).rows(data[r0:r1], out=buf[:, :r1 - r0])
                _exp_rows(block, masked=block[..., probe].min() <= _EXP_ZERO)
                np.add.reduce(block, axis=-1, out=out[r0:r1])
        else:
            # every block of every sample is written into this: the block, and the
            # ig/rig scratch (see _LogKernel.rows); a windowed block is (rows, width)
            buf = _block_buffers(min(height, size), n)
            layers, budget = buf.reshape(2, -1), buf[0].size
            windowed = []
            for r in range(b.size):
                sub, dest = ev.take(r), out[r]
                dat = data[r]
                if large:
                    start, stop = _data_windows(sub, dat, n)
                    windowed = np.flatnonzero(stop - start < n).tolist()
                    start, stop = start.tolist(), stop.tolist()
                lo, i = 0, 0
                while lo < size:
                    w = windowed[i] if i < len(windowed) else size
                    for a in range(lo, w, height):  # the whole rows before w
                        hi = min(a + height, w)
                        block = sub.rows(dat, a, hi, out=buf[:, :hi - a])
                        _exp_rows(block, masked=block[:, probe].min() <= _EXP_ZERO)
                        np.add.reduce(block, axis=1, out=dest[a:hi])
                    if w == size:
                        break
                    # the windowed rows from w on, while rows x union width fit a layer
                    j0, j1, hi, i = start[w], stop[w], w + 1, i + 1
                    while i < len(windowed) and windowed[i] == hi:
                        u0, u1 = min(j0, start[hi]), max(j1, stop[hi])
                        if (hi + 1 - w) * (u1 - u0) > budget:
                            break
                        j0, j1, hi, i = u0, u1, hi + 1, i + 1
                    entries = (hi - w) * (j1 - j0)
                    block = sub.rows(dat[..., j0:j1], w, hi,
                                     out=layers[:, :entries].reshape(2, hi - w, j1 - j0))
                    for g in range(w, hi):
                        win = block[g - w, start[g] - j0:stop[g] - j0]
                        dest[g] = np.add.reduce(np.exp(win, out=win))
                    lo = hi
        out /= n
        # where some K passed the largest double, exp overflowed before the
        # row sum: the row is summed again as exp(log K - m), m its largest
        # log K (not +inf or nan), and scaled by e**m as e**(m - 700) e**700,
        # with m - 700 exact (m is at least log(DBL_MAX / n))
        for r, g in zip(*np.nonzero(~np.isfinite(out))):
            row = ev.take(r).rows(data[r], g, g + 1)[0]
            m = row.max()
            if math.isfinite(m):
                out[r, g] = np.add.reduce(np.exp(row - m)) / n * np.exp(m - 700.0) * _EXP_700
                if out[r, g] == math.inf:
                    raise DomainError(f"{kernel.value} estimate at x={float(grid[g])!r} passes "
                                      "the largest double; rescale the data")
    return out


def estimate_density(sample: Sample, kernel: Kernel, bandwidth, grid) -> DensityEstimate:
    """Kernel density estimate (1/n) sum_i K_{x,b}(X_i) on a grid.

    The summation order over data is fixed (sorted sample, one row sum per
    grid point, then one division by n), so results are deterministic and
    independent of the input ordering; each grid value is bit-identical
    whether the grid is evaluated whole or split into pieces.  This is the
    one-sample case of the batched evaluator that ``run_experiment`` runs
    on all the replications of a cell, with the same bits.

    The grid goes through the block loop of ``_estimate_batch``.  A whole
    row, masked or plain exp, has the bits of ``np.exp`` and the full row
    sum.  Only a sample of more than ``_BLOCK_ELEMENTS // 2`` data has
    windowed rows; each is the sum of exp over its data window, which drops
    only terms that add less than e**-40 of the row sum and adds the rest in
    another order, so it may differ from the full row sum by rounding.
    Which rows are windowed, and their windows, depend on the row alone,
    never on the grid's split or the batch.
    """
    kernel = _as_kernel(kernel)
    bw = bandwidth if isinstance(bandwidth, Bandwidth) else Bandwidth(bandwidth)
    grid = _grid_points(grid)
    _validate_point(kernel, float(grid[0]), bw.value)
    values = _estimate_batch(sample.values[None, :], kernel, np.array([bw.value]), grid)[0]
    return DensityEstimate(grid=grid, values=values, kernel=kernel, bandwidth=bw, n=sample.n)


def optimal_bandwidth_ge2(roughness: float, n: int) -> Bandwidth:
    """Closed-form optimal bandwidth for the mean-parameterised GE kernel.

    b* = (9 / (pi**4 * roughness))**(1/5) * n**(-1/5), where ``roughness``
    is the curvature functional integral of f''(x)**2 over (0, inf) --
    exact when the true density is known, plug-in otherwise.  n must be
    below 2**1020; a bandwidth outside the double range (a subnormal
    roughness) raises :class:`OptimizationError`.
    """
    roughness, n = _positive(roughness, "roughness"), _count_float(n, "n", 2)
    # where pi**4 * roughness overflows (roughness above about 1.85e306): b* of
    # roughness / 2**1000, times 2**-200; elsewhere both scalings are by 2**0
    e = 200 if math.pi ** 4 * roughness == math.inf else 0
    value = math.ldexp((9.0 / (math.pi ** 4 * math.ldexp(roughness, -5 * e))) ** 0.2
                       * n ** -0.2, -e)
    if not 0.0 < value < math.inf:
        raise OptimizationError(
            f"optimal ge2 bandwidth {'underflows' if value == 0.0 else 'overflows'} the "
            f"double range at roughness = {roughness!r}, n = {n!r}"
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
    subnormal, b0 is taken in factored form.  Above
    ``kappa = 2**72`` the root is ``t = kappa**(-1/4) (1 - kappa**(-3/4)/4 +
    ...)``, whose correction is below half an ulp, so ``b = (12 n c3)**(-1/4)``
    to double precision, also where kappa overflows; ``brentq`` would need
    more than its 100 steps there.  n must be below 2**1020, where neither
    ``8 n`` nor ``12 n g c`` overflows; every optimum is then a double
    between about 1e-211 and 3.4e107.
    """
    a2 = _positive(a2, "a2 (integral of f'(x)**2)")
    a1 = _real(a1, "a1 (integral of f'(x) f''(x))")
    n = _count_float(n, "n", 2)
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
    The interior value serves both GE estimators; the boundary factor is the
    ``ge`` kernel's.  For ``ge2`` at x = c b, exact moments on Gamma(1, 1)
    give about 1.61-1.63 times this value at c = 1 and 1.05-1.08 times at
    c = 2 (b from 0.01 to 0.000625); ``asymptotic_bias`` and ``gekde
    diagnose`` refuse ``ge2`` in the boundary regime.  n must be below
    2**1020.
    """
    b, n, fx = _positive(b, "b"), _count_float(n, "n", 1), _nonnegative(fx, "fx")
    base = fx / (4.0 * b * n)
    if regime.kind == "interior":
        return base
    return base / (1.0 - 0.5 * math.exp(-regime.c))


def _quad_window(kernel: Kernel, x: float, b: float):
    """(lo, hi, a): the z rule's bracket at a valid (x, b), and where its near-zero panels end.

    Each kernel gives a centre and a spread: ``ge``/``ge2`` (x, b), the
    gamma kernels their mean and sd (k b, sqrt(k) b), ``ig`` (x, x sqrt(b x)),
    with no x**3 to overflow, and ``rig`` (x, sqrt(b x + 2 b**2)).  The
    bracket is [max(0, centre - 15 spreads), centre + 20 spreads], and a is
    lo, or one spread where lo is 0.  The one overflow rule: a bracket whose
    last tail panel ends beyond the double range, hi + (hi - lo) 2**16,
    raises the rescale DomainError.
    """
    if kernel in _GE_FAMILY:
        centre, spread = x, b
    elif kernel in _GAMMA_FAMILY:
        k = (x / b + 1.0) if kernel is Kernel.GAM1 else float(_gam2_shape(x, b))
        centre, spread = k * b, math.sqrt(k) * b
    else:
        centre = x
        spread = x * math.sqrt(b * x) if kernel is Kernel.IG else math.sqrt(b * x + 2.0 * b * b)
    lo, hi = max(0.0, centre - 15.0 * spread), centre + 20.0 * spread
    if not math.isfinite(hi + (hi - lo) * 2.0 ** _TAIL_PANELS):
        raise _rescale_at(kernel, "the quadrature bracket overflows", x, b)
    return lo, hi, lo if lo > 0.0 else spread


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
    affinely, as one product with the basis ``_z_basis`` makes of them at
    import (see ``_z_nodes``).  The coarse rule has half the uniform panels
    and stops after half the tail panels, which it shares with the fine rule.
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


def _z_basis(unit: np.ndarray, weights: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """The z rule as an (8, N) basis, of which a call's nodes and weights are one product.

    Its rows are the unit nodes of segments 0, 1 and 2, the indicators of
    segments 1 and 2, and the unit weights of segments 0, 1 and 2, each
    +0.0 off its own segment (see ``_z_nodes``).
    """
    on = segment == np.arange(3)[:, None]
    return np.concatenate((unit * on, on[1:], weights * on))


_Z_UNIT, _Z_WEIGHTS, _Z_SEGMENT, _Z_CUTS = _z_rule()
_Z_BASIS = _z_basis(_Z_UNIT, _Z_WEIGHTS, _Z_SEGMENT)
_LOG_U, _U_WEIGHTS, _U_CUTS = _log_u_rule()


def _z_nodes(lo: float, hi: float, a: float) -> np.ndarray:
    """The z rule mapped onto ``_quad_window``'s (lo, hi, a): a (2, N) array of nodes and weights.

    Segment s has offset (0, a, hi)[s] and length (a, hi - a, hi - lo)[s];
    a node is offset + length * unit node and a weight length * unit weight.
    Both rows are one ``dgemm`` of the coefficients against ``_Z_BASIS``.
    Each node has at most two nonzero products, the length's first in
    gemm's k order, and every other product is +0.0, so the bits are those
    of the affine map (all coefficients are finite: ``_quad_window`` saw to
    that).  ``np.matmul`` would send this to gemv, which sums in another order.
    """
    span = [a, hi - a, hi - lo]
    coef = np.array([span + [a, hi, 0.0, 0.0, 0.0], [0.0] * 5 + span])
    return dgemm(1.0, _Z_BASIS.T, coef.T).T


def _rule_sums(terms: np.ndarray, i: int, j: int):
    """The fine and the coarse rule's sums of each row of ``terms``, given their cuts (i, j)."""
    shared = terms[:, :i].sum(axis=1)
    return shared + terms[:, i:j].sum(axis=1), shared + terms[:, j:].sum(axis=1)


def _achieved(fine: np.ndarray, coarse: np.ndarray) -> float:
    """The largest |fine - coarse| / max(|fine|, |coarse|) over the moments.

    inf where a moment is not finite: a divergent second moment.
    """
    achieved = 0.0  # relative, so that the verdict does not depend on the data's units
    for u, v in zip(fine.tolist(), coarse.tolist()):
        if not (math.isfinite(u) and math.isfinite(v)):
            return math.inf
        if u != v:
            achieved = max(achieved, abs(u - v) / max(abs(u), abs(v)))
    return achieved


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

    The rule lives in z, around ``_quad_window``'s bracket [lo, hi], from 15
    of the kernel's spreads below its centre (or 0) to 20 above: 30
    geometric panels halving toward 0 on [0, a], 64 uniform panels on
    [a, hi] and 16 tail panels from hi, of widths (hi - lo) 2**k, k = 0..15.
    a is lo if lo > 0, else one spread, over which a kernel is not smooth at
    0 (the GE and gamma kernels like (z/b)**(shape - 1)).  The ``ge2``
    kernel with x < b has shape nu(x/b) < 1 and is singular like
    z**(nu - 1) at 0, where no z-space rule converges; it is integrated in
    its own probability u instead, through the closed-form GE quantile
    z(u) = -b log(1 - u**(1/nu)), on 40 panels graded by 1/4 toward each
    of u = 0 and u = 1 and 32 uniform ones between, and its mass is 1 by
    construction.  ``achieved`` is the largest relative difference
    |fine - coarse| / max(|fine|, |coarse|) of mass, mean and second moment
    from a coarse rule: half the uniform panels and the first 8 tail panels
    in z, half the graded levels and uniform panels in u.  It is 0 where
    the two rules agree and inf where either is not finite; being relative,
    its verdict does not depend on the data's units.

    For a density positive at 0 the ``ge2`` variance is infinite where
    nu <= 1/2, that is x below about 0.614 b: K**2 f behaves like
    z**(2 nu - 2) at 0.  There the two rules part and this raises, as it
    does a little above 0.614 b, where the variance is finite but beyond
    the rule's resolution.  No call returns a negative variance.

    Raises
    ------
    DomainError
        If ``n`` is not a whole number of at least 1 and below 2**1020, x
        or b is not a number, b is not positive and finite, or x or b lies
        outside the kernel's domain (x <= 0 for every kernel but ``ge``), or
        the quadrature bracket's tail panels overflow the double range
        (``_quad_window``).
    BoundaryDegeneracyError
        For the ``rig`` kernel at 0 < x <= b.
    IntegrationError
        If the kernel mass strays from 1 by more than 1e-8, or ``achieved``
        exceeds 1e-6 or is not finite (a second moment that diverges), or
        the second moment falls below the squared mean; ``achieved`` is set.
    """
    kernel, n = _as_kernel(kernel), _count_float(n, "n", 1)
    # the one check of (x, b), before the bracket takes square roots of them
    x, b = _validate_point(kernel, x, b.value if isinstance(b, Bandwidth) else b)
    ev = _LogKernel(kernel, np.array([x]), b)
    singular = kernel is Kernel.GE2 and x < b  # shape nu(x/b) < 1
    if singular:
        weights, (i, j) = _U_WEIGHTS, _U_CUTS
        z, log_k = _ge_quantiles(ev, _LOG_U)
    else:
        (z, weights), (i, j) = _z_nodes(*_quad_window(kernel, x, b)), _Z_CUTS
        log_k = ev.rows(ev.data(z))[0]
    f = np.asarray(density.pdf(z), dtype=float)
    # rows: the weights of the kernel mass, the mean and the second moment; in
    # u the measure already holds K.  K f is 0 where f is, also where K
    # overflows (z = 0 where u**(1/nu) underflows): there the product's
    # 0 * inf is nan, so a second moment that sums to nan where some K is
    # inf has those entries set to 0 and is summed again.  Elsewhere at
    # f = 0 the entry is +0.0 already
    terms = np.empty((3, z.size))
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.exp(log_k)
        if singular:
            terms[0] = weights
        else:
            np.multiply(weights, k, out=terms[0])
        np.multiply(terms[0], f, out=terms[1])
        np.multiply(terms[1], k, out=terms[2])
        fine, coarse = _rule_sums(terms, i, j)
        if (math.isnan(fine[2]) or math.isnan(coarse[2])) and np.isinf(k).any():
            terms[2, f == 0.0] = 0.0
            fine, coarse = _rule_sums(terms, i, j)
    mass, mean, second = fine.tolist()
    off = abs(mass - 1.0)
    if not off <= 1e-8:
        raise IntegrationError(
            f"kernel mass {mass!r} deviates from 1 over the quadrature bracket",
            achieved=math.inf if math.isnan(off) else off,
        )
    achieved = _achieved(fine, coarse)
    if not achieved <= 1e-6:
        raise IntegrationError(
            "quadrature error estimate exceeds tolerance", achieved=achieved
        )
    if second < mean * mean:
        raise IntegrationError(
            f"second moment {second!r} is below the squared mean {mean * mean!r}: the "
            "variance is beneath the rule's resolution", achieved=achieved
        )
    return Moments(mean=mean, variance=(second - mean * mean) / n)
