"""Density estimation on a grid, bandwidth selection and exact diagnostics.

The estimator averages log-domain kernel evaluations over the sample.  The
kernel terms that depend on the grid point alone and those that depend on
the datum alone are computed once per call; the grid is then processed in
blocks of rows, each a broadcast over the whole sample, with the block size
set by a fixed element budget.  Every grid value goes through the same
operations whatever block it lands in, so the result does not depend on how
the grid is split.

Bandwidth selection offers Silverman's rule-of-thumb with the kernel-family
mapping (GE kernels take the Gaussian-comparable h, the gamma/IG/RIG family
takes h**2), the closed-form optimum for the mean-parameterised GE kernel,
and a numerical minimiser of the approximate MISE for the mode-parameterised
one.

``exact_estimator_moments`` computes E[fhat(x)] and Var[fhat(x)] by adaptive
quadrature against a known density, giving a deterministic (Monte-Carlo-free)
route to the asymptotic bias/variance constants.

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
from scipy.integrate import quad

from .errors import (
    BoundaryDegeneracyError,
    DegenerateSampleError,
    DomainError,
    IntegrationError,
    OptimizationError,
)
from .kernels import Kernel, _LogKernel, _point_log_kernel, gam2_shape
from .specfun import DEFAULT_CONFIG, EULER_GAMMA, SpecFunConfig, digamma

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

#: Kernel families whose bandwidth is comparable to the Gaussian h; the
#: remaining kernels take h**2.
_H_SCALE_KERNELS = (Kernel.GE, Kernel.GE2)

#: Elements per block of the (grid rows, data) kernel matrix: 128 KB per
#: temporary, which keeps a block in cache.  With more data than this, a
#: block is one grid row.
_BLOCK_ELEMENTS = 1 << 14


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
    return Bandwidth(float(bandwidth))


def _silverman_h(sample: Sample) -> float:
    """Gaussian rule-of-thumb h = 1.06 * sigma * n**(-1/5), before the family mapping."""
    sd = float(np.std(sample.values, ddof=1))
    q75, q25 = np.percentile(sample.values, [75.0, 25.0])
    sigma = min(sd, (q75 - q25) / 1.349)
    if sigma <= 0.0:
        raise DegenerateSampleError("sample has no spread; Silverman bandwidth is undefined")
    return 1.06 * sigma * sample.n ** -0.2


def _silverman_for(kernel: Kernel, h: float) -> Bandwidth:
    return Bandwidth(h if kernel in _H_SCALE_KERNELS else h * h, "silverman")


def silverman_bandwidth(sample: Sample, kernel: Kernel) -> Bandwidth:
    """Rule-of-thumb bandwidth, mapped to the kernel family's scale.

    h = 1.06 * sigma * n**(-1/5) with sigma = min(sd, IQR/1.349); the GE
    kernels use h directly, the gamma/IG/RIG family uses h**2 (their
    bandwidth plays the role of the squared Gaussian one).
    """
    return _silverman_for(kernel, _silverman_h(sample))


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
    if kernel is Kernel.GE:
        if grid[0] < 0.0:
            raise DomainError("GE kernel requires grid points >= 0")
    elif grid[0] <= 0.0:
        raise DomainError(f"{kernel.value} kernel requires grid points > 0")
    if kernel is Kernel.RIG and grid[0] <= b:
        offender = float(grid[grid <= b][0])
        raise BoundaryDegeneracyError(
            f"RIG kernel is undefined at grid point {offender!r} <= bandwidth {b!r}"
        )


def estimate_density(sample: Sample, kernel: Kernel, bandwidth, grid,
                     config: SpecFunConfig = DEFAULT_CONFIG) -> DensityEstimate:
    """Kernel density estimate (1/n) sum_i K_{x,b}(X_i) on a grid.

    The summation order over data is fixed (sorted sample, one vectorised
    mean per grid point), so results are deterministic and independent of
    the input ordering; each grid value is bit-identical whether the grid
    is evaluated whole or split into pieces.
    """
    bw = _coerce_bandwidth(bandwidth)
    b = bw.value
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    _validate_grid(kernel, grid, b)
    ev = _LogKernel(kernel, grid, b, config)
    data = ev.data(sample.values)
    step = max(1, _BLOCK_ELEMENTS // sample.n)
    values = np.empty(grid.size)
    for lo in range(0, grid.size, step):
        block = ev.rows(data, lo, lo + step)
        values[lo:lo + step] = np.exp(block, out=block).mean(axis=1)
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


def _golden_section(f, a: float, b: float, rel_tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def numeric_bandwidth_ge(a1: float, a2: float, n: int, rel_tol: float = 1e-8) -> Bandwidth:
    """Numerical minimiser of the approximate MISE of the GE estimator.

    Minimises ``M(b) = b**3 g (g**2 + pi**2/6) a1 + b**2 g**2 a2 + 1/(4 b n)``
    over (0, b_max] by golden-section search, where ``g`` is Euler's
    constant, ``a1`` is the integral of f'(x) f''(x) and ``a2`` the integral
    of f'(x)**2.  The bracket ``b_max = 10 (4 a2 g**2 n)**(-1/3)`` comfortably
    contains the stationary point of the quadratic-plus-variance part.
    """
    if not (math.isfinite(a2) and a2 > 0.0):
        raise DomainError("a2 (integral of f'(x)**2) must be positive and finite")
    if not math.isfinite(a1):
        raise DomainError("a1 (integral of f'(x) f''(x)) must be finite")
    if n < 2:
        raise DomainError("n must be at least 2")
    g = EULER_GAMMA
    c3 = g * (g * g + math.pi ** 2 / 6.0) * a1
    c2 = g * g * a2
    quarter_n = 4.0 * n

    def mise(b):
        return (c3 * b + c2) * b * b + 1.0 / (quarter_n * b)

    b_max = 10.0 * (4.0 * a2 * g * g * n) ** (-1.0 / 3.0)
    b_star = _golden_section(mise, 1e-12 * b_max, b_max, rel_tol)
    if b_star >= b_max * (1.0 - 1e-5) or not math.isfinite(mise(b_star)):
        raise OptimizationError(
            "approximate MISE has no interior minimum on (0, b_max]; "
            "the cubic curvature term dominates"
        )
    return Bandwidth(b_star, "numeric_ge")


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
    if kernel in (Kernel.GE, Kernel.GE2):
        return max(0.0, x - 30.0 * b), x + 60.0 * b
    if kernel in (Kernel.GAM1, Kernel.GAM2):
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


def exact_estimator_moments(kernel: Kernel, x: float, b: float, density, n: int,
                            epsabs: float = 1e-10,
                            config: SpecFunConfig = DEFAULT_CONFIG) -> Moments:
    """Exact mean and variance of the estimator at x under a known density.

    Computes ``E[fhat(x)] = integral of K f`` and
    ``Var[fhat(x)] = (integral of K^2 f - (integral of K f)^2) / n`` by
    adaptive quadrature, for deterministic verification of the asymptotic
    bias/variance constants without Monte Carlo noise.  ``density`` is any
    object exposing a scalar ``pdf`` method (see
    :class:`gekde.simulation.TrueDensity`).

    Raises
    ------
    IntegrationError
        If the quadrature error estimate exceeds the tolerance, or the
        kernel mass over the integration bracket strays from 1.
    """
    _coerce_bandwidth(b)
    lo, hi = _quad_window(kernel, x, b)
    # location terms (and the ge2 shape solve) once, not at every node
    log_k = _point_log_kernel(kernel, x, b, config)

    def k_at(z):
        return math.exp(log_k(z))

    mass, mass_err = _quad_segments(k_at, lo, hi, epsabs)
    if abs(mass - 1.0) > 1e-8:
        raise IntegrationError(
            f"kernel mass {mass!r} deviates from 1 over the quadrature bracket",
            achieved=abs(mass - 1.0),
        )
    mean, e1 = _quad_segments(lambda z: k_at(z) * density.pdf(z), lo, hi, epsabs)
    second, e2 = _quad_segments(lambda z: k_at(z) ** 2 * density.pdf(z), lo, hi, epsabs)
    achieved = max(e1, e2, mass_err)
    if achieved > 1e-6:
        raise IntegrationError(
            "quadrature error estimate exceeds tolerance", achieved=achieved
        )
    return Moments(mean=mean, variance=(second - mean * mean) / n)
