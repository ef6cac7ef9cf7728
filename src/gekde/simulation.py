"""True-density catalog, seeded samplers and the Monte Carlo MISE harness.

The benchmark configurations (A through F) cover gamma, inverse-gamma and
inverse-Weibull shapes plus two-component mixtures of each.  Sampling is
driven by numpy's counter-based Philox generator: each replication owns a
spawned stream, and mixtures split their stream again so component draws
are independent of the categorical labels.  Results are therefore
bit-identical for a given (config, seed) under any thread count.

Integrated squared error is the trapezoid rule of (fhat - f)**2 over the
estimate grid, which the harness spans from the 0.05% to the 99.95%
quantile of the true density; one row-wise routine serves
``integrated_squared_error`` and the harness.  The harness evaluates the
replications of a cell together: their samples are stacked, Silverman's h is
computed for all of them in one pass, and each kernel takes one batched
estimate of the stack and one row-wise ISE, with the bits of per-replication
calls.  A reciprocal-inverse-Gaussian estimate is undefined at grid points
at or below its bandwidth; the estimator's ``_domain_start`` cuts them, and
the truncation is flagged in the report.  When fewer than two grid points
remain, the replication's ISE is recorded as ``inf`` so a fully degenerate
estimator ranks strictly worst rather than disappearing from comparisons.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv
from scipy.integrate import quad

from .errors import CoverageError, DomainError, GekdeError
from .estimator import (
    DensityEstimate,
    Sample,
    _domain_start,
    _estimate_batch,
    _family_b,
    _silverman_h,
)
from .kernels import DEFAULT_KERNELS, Kernel
from .specfun import log_gamma

__all__ = [
    "TrueDensity",
    "GammaDensity",
    "InverseGammaDensity",
    "InverseWeibullDensity",
    "MixtureDensity",
    "CONFIGURATIONS",
    "ExperimentConfig",
    "MiseReport",
    "integrated_squared_error",
    "run_experiment",
    "mise_records_csv",
    "mise_summary",
    "mise_summary_json",
]

_TINY = np.finfo(float).tiny


def _scalar_or_array(out):
    """A 0-d result as a Python float; arrays pass through."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def _scalar_or_asarray(x):
    """A float as a numpy scalar, anything else as a float array.

    numpy scalar arithmetic has the bits and the warnings of 0-d array
    arithmetic, without building the array; a Python float would raise on
    division by zero and on ``**`` overflow instead.
    """
    return np.float64(x) if isinstance(x, float) else np.asarray(x, dtype=float)


def _positive_param(value, name):
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be positive and finite")
    return v


def _store_gamma_constants(density):
    """Validate (shape, scale) and store k log(theta) and log Gamma(k) once.

    They are plain attributes, not dataclass fields, so equality, hashing
    and repr still see (shape, scale) alone.
    """
    _positive_param(density.shape, "shape")
    _positive_param(density.scale, "scale")
    object.__setattr__(density, "_k_log_scale", density.shape * math.log(density.scale))
    object.__setattr__(density, "_log_gamma_shape", log_gamma(density.shape))


#: Binary exponent of the scale hint beyond which ``roughness`` integrates a
#: rescaled density.  Within it f''**2, of order scale**-6, stays far inside
#: the double range, and the integral keeps the bits of the unscaled
#: quadrature.
_ROUGHNESS_EXP_MAX = 32

#: Quantile levels that an ISE grid must span.
_ISE_QUANTILES = (0.0005, 0.9995)


class TrueDensity:
    """A closed-form density on (0, inf) with pdf, cdf, derivative and sampler access."""

    family = "abstract"

    def _log_pdf(self, x):
        """Log of the pdf, by one formula for a float and for an array.

        At positive finite x it must not overflow, divide by zero or go
        invalid: ``pdf`` calls it there without an ``np.errstate``.
        """
        raise NotImplementedError

    def pdf(self, x):
        """The density at x: a Python float for a scalar, else an array.

        A positive finite float (a quadrature node) goes straight to
        ``_log_pdf``, with no array and no ``np.errstate``; anything else is
        made an array first.  Both paths run the same numpy ufuncs and the
        same arithmetic, so a float gets the bits of a 0-d array.
        """
        if isinstance(x, float) and 0.0 < x < math.inf:
            return float(np.exp(self._log_pdf(x)))
        x = np.asarray(x, dtype=float)
        top = x == math.inf  # f is 0 there, where a formula may read inf - inf
        with np.errstate(divide="ignore", over="ignore"):  # log(0) at x = 0, x/theta = inf
            out = np.exp(self._log_pdf(np.where(top, 1.0, x)))
        return _scalar_or_array(np.where(top, 0.0, out))

    def _cdf(self, x):
        """The cdf by one formula, on an array (see ``cdf``)."""
        raise NotImplementedError

    def cdf(self, x):
        """The cdf at x: a Python float for a scalar, else an array.

        x is made an array and ``_cdf`` runs under ``np.errstate``: at 0, at
        a subnormal or huge x and at inf a formula may divide by zero or
        overflow on its way to 0 or 1.  An invalid input still warns.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = self._cdf(x)
        return _scalar_or_array(out)

    def _log_slopes(self, x):
        """First and second derivatives (s1, s2) of the log pdf at x."""
        raise NotImplementedError

    def _times_pdf(self, x, slopes):
        """f * slopes(s1, s2), and 0.0 where the pdf is 0 and the product nan.

        Where the pdf has underflowed to 0 (x near 0 or far out) the log
        slopes may overflow or divide by a zero ``x * x``, and 0 * inf is
        nan; the derivative is 0 there.  Wherever the product is a number it
        is kept, so a positive pdf gives the bits of the plain product (a
        scalar with a positive pdf takes it directly).
        """
        f = self.pdf(x)
        x = _scalar_or_asarray(x)
        if isinstance(f, float) and f > 0.0:
            return float(f * slopes(*self._log_slopes(x)))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = f * slopes(*self._log_slopes(x))
        return _scalar_or_array(np.where((f == 0.0) & np.isnan(out), 0.0, out))

    def pdf_d1(self, x):
        """First derivative of the pdf: f * s1."""
        return self._times_pdf(x, lambda s1, s2: s1)

    def pdf_d2(self, x):
        """Second derivative of the pdf: f * (s1**2 + s2)."""
        return self._times_pdf(x, lambda s1, s2: s1 * s1 + s2)

    def _scale_hint(self) -> float:
        raise NotImplementedError

    def _draw(self, n: int, ss: np.random.SeedSequence) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, seed) -> Sample:
        """Draw a deterministic sample; ``seed`` is an integer or SeedSequence."""
        if n < 2:
            raise DomainError("n must be at least 2")
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        return Sample(self._draw(int(n), ss))

    def quantile(self, p: float) -> float:
        """The x with cdf(x) = p, for p in (0, 1)."""
        if not 0.0 < p < 1.0:
            raise DomainError("quantile level must lie in (0, 1)")
        return float(self._quantile(p))

    def _quantile(self, p):
        """Root of cdf(x) = p by brentq; closed-form families override this."""
        scale = self._scale_hint()
        lo = hi = scale
        for _ in range(2000):
            if self.cdf(lo) < p:
                break
            lo *= 0.5
        for _ in range(2000):
            if self.cdf(hi) > p:
                break
            hi *= 2.0
        return brentq(lambda x: self.cdf(x) - p, lo, hi, xtol=1e-12 * scale, rtol=1e-13)

    @functools.cached_property
    def _ise_range(self) -> tuple:
        """The ``_ISE_QUANTILES`` quantiles, solved once per density.

        Not a dataclass field, so equality, hashing and repr ignore it.
        """
        return tuple(self.quantile(p) for p in _ISE_QUANTILES)

    def _rescaled(self, e: int) -> "TrueDensity":
        """The density of X * 2**e: the same family, its scale times 2**e (exact)."""
        return dataclasses.replace(self, scale=math.ldexp(self.scale, e))

    def roughness(self) -> float:
        """Curvature functional: integral of f''(x)**2 over (0, inf).

        A density whose scale hint lies beyond 2**(+-``_ROUGHNESS_EXP_MAX``)
        is integrated as the density of X / 2**e, with its scale near 1, and
        the result is scaled back by 2**(-5 e): f''**2 itself would overflow
        or underflow there.  Scaling by a power of two is exact.  A value
        outside the normal double range raises :class:`DomainError`.
        """
        e = math.frexp(self._scale_hint())[1]
        if abs(e) <= _ROUGHNESS_EXP_MAX:
            return self._roughness()
        value = self._rescaled(-e)._roughness()
        try:
            value = math.ldexp(value, -5 * e)
        except OverflowError:
            value = math.inf
        if not _TINY <= value < math.inf:
            raise DomainError(
                f"roughness of {self!r} {'underflows' if value < _TINY else 'overflows'} "
                "the double range; rescale the data"
            )
        return value

    def _roughness(self) -> float:
        cuts = [self.quantile(q) for q in (1e-7, 0.25, 0.5, 0.75, 1.0 - 1e-7)]
        pts = [0.0] + cuts
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            v, _ = quad(lambda x: float(self.pdf_d2(x)) ** 2, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)
            total += v
        tail, _ = quad(lambda x: float(self.pdf_d2(x)) ** 2, pts[-1], np.inf, epsabs=1e-12, epsrel=1e-10, limit=200)
        return total + tail


def _rng(ss: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GammaDensity(TrueDensity):
    """Gamma(shape, scale): pdf x**(k-1) e**(-x/theta) / (theta**k Gamma(k))."""

    shape: float
    scale: float
    family = "gamma"

    def __post_init__(self):
        _store_gamma_constants(self)

    def _log_pdf(self, x):
        if self.shape == 1.0:  # (shape - 1) log x is 0 (same bits), but nan at x = 0
            return -x / self.scale - self._k_log_scale - self._log_gamma_shape
        return ((self.shape - 1.0) * np.log(x) - x / self.scale
                - self._k_log_scale - self._log_gamma_shape)

    def _cdf(self, x):
        return gammainc(self.shape, x / self.scale)

    def _quantile(self, p):
        return gammaincinv(self.shape, p) * self.scale

    def _log_slopes(self, x):
        if self.shape == 1.0:  # as in _log_pdf: 0 / (x * x) is nan once x * x underflows
            return -1.0 / self.scale, 0.0
        return (self.shape - 1.0) / x - 1.0 / self.scale, -(self.shape - 1.0) / (x * x)

    def _scale_hint(self):
        return self.shape * self.scale

    def _draw(self, n, ss):
        # Marsaglia-Tsang squeeze/transformation rejection, via numpy
        return _rng(ss).standard_gamma(self.shape, n) * self.scale


@dataclass(frozen=True)
class InverseGammaDensity(TrueDensity):
    """InverseGamma(shape, scale): pdf theta**k x**(-k-1) e**(-theta/x) / Gamma(k)."""

    shape: float
    scale: float
    family = "inverse_gamma"

    def __post_init__(self):
        _store_gamma_constants(self)

    def _log_pdf(self, x):
        # log x is at least log(5e-324) = -744.4 at x > 0; the floor changes
        # no value there, and at x = 0 it keeps (k+1) log x finite, so that
        # theta/x = inf gives log f = -inf instead of inf - inf
        log_x = np.maximum(np.log(x), -745.0)
        return (self._k_log_scale - (self.shape + 1.0) * log_x - self.scale / x
                - self._log_gamma_shape)

    def _cdf(self, x):
        return gammaincc(self.shape, self.scale / x)

    def _quantile(self, p):
        return self.scale / gammainccinv(self.shape, p)

    def _log_slopes(self, x):
        s1 = self.scale / (x * x) - (self.shape + 1.0) / x
        s2 = -2.0 * self.scale / np.power(x, 3) + (self.shape + 1.0) / (x * x)
        return s1, s2

    def _scale_hint(self):
        if self.shape > 1.0:
            return self.scale / (self.shape - 1.0)
        return self.scale

    def _draw(self, n, ss):
        # reciprocal of gamma draws with the matching rate
        return self.scale / _rng(ss).standard_gamma(self.shape, n)


@dataclass(frozen=True)
class InverseWeibullDensity(TrueDensity):
    """Inverse Weibull (Frechet): cdf exp(-(theta/x)**k) on x > 0."""

    shape: float
    scale: float
    family = "inverse_weibull"

    def __post_init__(self):
        _positive_param(self.shape, "shape")
        _positive_param(self.scale, "scale")

    def _log_t(self, x):
        # log of t = (theta/x)**k
        return self.shape * (math.log(self.scale) - np.log(x))

    def _log_pdf(self, x):
        k, th = self.shape, self.scale
        # log(theta/x), capped where t = (theta/x)**k passes e**709: t then
        # outweighs the other terms and the pdf is +0.0, capped or not, but
        # exp(k * d) no longer overflows (and x = 0 gives 0.0, not nan)
        d = np.minimum(math.log(th) - np.log(x), 709.0 / k)
        return math.log(k / th) + (k + 1.0) * d - np.exp(k * d)

    def _cdf(self, x):
        # log t capped at 709, as in _log_pdf: the cdf is +0.0 there either way
        return np.exp(-np.exp(np.minimum(self._log_t(x), 709.0)))

    def _quantile(self, p):
        return self.scale * (-math.log(p)) ** (-1.0 / self.shape)

    def _t_clamped(self, x):
        # (theta/x)**k; the pdf is identically 0 in doubles once t > 745, so
        # clamping t there keeps the log-slope factors finite without touching
        # any point where the density is representable
        return np.exp(np.minimum(self._log_t(x), 7.0))

    def _log_slopes(self, x):
        k = self.shape
        t = self._t_clamped(x)
        s1 = (k * t - (k + 1.0)) / x
        s2 = ((k + 1.0) - k * (k + 1.0) * t) / (x * x)
        return s1, s2

    def _scale_hint(self):
        return self.scale

    def _draw(self, n, ss):
        # inverse-cdf: x = theta * E**(-1/k) with E standard exponential
        e = np.maximum(_rng(ss).standard_exponential(n), _TINY)
        return self.scale * e ** (-1.0 / self.shape)


@dataclass(frozen=True)
class MixtureDensity(TrueDensity):
    """Finite mixture of non-mixture component densities."""

    weights: tuple
    components: tuple
    family = "mixture"

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        comps = tuple(self.components)
        if len(w) != len(comps) or not w:
            raise DomainError("weights and components must be non-empty and match in length")
        if any(v <= 0.0 or not math.isfinite(v) for v in w):
            raise DomainError("mixture weights must be positive and finite")
        if abs(sum(w) - 1.0) > 1e-12:
            raise DomainError("mixture weights must sum to 1")
        for c in comps:
            if not isinstance(c, TrueDensity) or isinstance(c, MixtureDensity):
                raise DomainError("mixture components must be non-mixture densities")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    def _combine(self, method, x):
        if not isinstance(x, float):  # a float stays one, for the components' float paths
            x = np.asarray(x, dtype=float)
        out = sum(w * getattr(c, method)(x) for w, c in zip(self.weights, self.components))
        return _scalar_or_array(out)

    def pdf(self, x):
        """The weighted sum of the component pdfs, in ``_combine``'s order.

        A positive finite float (a quadrature node) sums the components'
        float pdfs directly, with the bits of ``_combine``.
        """
        if isinstance(x, float) and 0.0 < x < math.inf:
            total = 0.0
            for w, c in zip(self.weights, self.components):
                total += w * c.pdf(x)
            return total
        return self._combine("pdf", x)

    def _cdf(self, x):
        return sum(w * c._cdf(x) for w, c in zip(self.weights, self.components))

    def pdf_d1(self, x):
        return self._combine("pdf_d1", x)

    def pdf_d2(self, x):
        return self._combine("pdf_d2", x)

    def _scale_hint(self):
        return sum(w * c._scale_hint() for w, c in zip(self.weights, self.components))

    def _rescaled(self, e):
        return MixtureDensity(self.weights, tuple(c._rescaled(e) for c in self.components))

    def _draw(self, n, ss):
        # categorical labels and component draws use separate spawned streams
        children = ss.spawn(1 + len(self.components))
        labels = _rng(children[0]).choice(len(self.components), size=n, p=np.asarray(self.weights))
        out = np.empty(n)
        for i, comp in enumerate(self.components):
            idx = labels == i
            cnt = int(idx.sum())
            if cnt:
                out[idx] = comp._draw(cnt, children[i + 1])
        return out


#: Benchmark configurations.
CONFIGURATIONS = {
    "A": GammaDensity(25.0, 0.5),
    "B": InverseGammaDensity(25.0, 150.0),
    "C": InverseWeibullDensity(5.0, 800.0),
    "D": MixtureDensity((2.0 / 3.0, 1.0 / 3.0), (GammaDensity(25.0, 0.5), GammaDensity(5.0, 2.0))),
    "E": MixtureDensity((2.0 / 3.0, 1.0 / 3.0), (InverseGammaDensity(25.0, 150.0), InverseGammaDensity(30.0, 5.0))),
    "F": MixtureDensity((2.0 / 3.0, 1.0 / 3.0), (InverseWeibullDensity(5.0, 800.0), InverseWeibullDensity(10.0, 400.0))),
}


def integrated_squared_error(estimate: DensityEstimate, density: TrueDensity,
                             require_coverage: bool = True) -> float:
    """Trapezoid-rule integral of (fhat - f)**2 over the estimate grid.

    With ``require_coverage`` the grid must span the 0.05% to 99.95%
    quantile range of ``density``.
    """
    grid = estimate.grid
    if grid.size < 2:
        raise DomainError("ISE needs a grid with at least 2 points")
    if require_coverage:
        lo_q, hi_q = density._ise_range
        slack = 1e-9
        if grid[0] > lo_q * (1.0 + slack) + 1e-12:
            raise CoverageError(
                f"grid starts at {grid[0]!r}, above the {_ISE_QUANTILES[0]:.2%} quantile {lo_q!r}"
            )
        if grid[-1] < hi_q * (1.0 - slack):
            raise CoverageError(
                f"grid ends at {grid[-1]!r}, below the {_ISE_QUANTILES[1]:.2%} quantile {hi_q!r}"
            )
    return float(_ise_rows(estimate.values, density.pdf(grid), grid))


def _ise_rows(values: np.ndarray, f_true: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Trapezoid rule of (fhat - f)**2 over ``grid``, for each row of ``values``.

    Each row gets the bits of the one-dimensional rule: the same
    differences, and a pairwise sum along the row.
    """
    diff = values - f_true
    return np.trapezoid(diff * diff, grid, axis=-1)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo cell: a configuration, kernel list, n and seed."""

    config_id: str
    kernels: tuple = DEFAULT_KERNELS
    n: int = 100
    replications: int = 200
    seed: int = 0
    grid_size: int = 256

    def __post_init__(self):
        if self.config_id not in CONFIGURATIONS:
            raise DomainError(f"unknown configuration {self.config_id!r}; expected one of A-F")
        kernels = tuple(Kernel.parse(k) if not isinstance(k, Kernel) else k for k in self.kernels)
        if not kernels:
            raise DomainError("at least one kernel is required")
        object.__setattr__(self, "kernels", kernels)
        if self.n < 2:
            raise DomainError("n must be at least 2")
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if self.grid_size < 64:
            raise DomainError("grid_size must be at least 64")


@dataclass(frozen=True, eq=False)
class MiseReport:
    """Per-replication ISE values and summary statistics for one cell."""

    config_id: str
    kernel: Kernel
    n: int
    per_replication_ise: np.ndarray
    mean_ise: float
    variance_ise: float
    truncated: bool = False

    @classmethod
    def from_ises(cls, config_id, kernel, n, ises, truncated=False):
        arr = np.asarray(ises, dtype=float)
        mean = float(np.mean(arr))
        if arr.size > 1 and np.all(np.isfinite(arr)):
            var = float(np.var(arr, ddof=1))
        else:
            var = 0.0 if arr.size == 1 else math.nan
        return cls(config_id, kernel, n, arr, mean, var, truncated)


#: Replications per batch are capped so that a batch's per-sample and
#: per-location terms stay near this many elements each (2 MB).
_BATCH_ELEMENTS = 1 << 18


def _fit_cell(values: np.ndarray, config: ExperimentConfig, grid: np.ndarray,
              f_true: np.ndarray, replication: int | None = None) -> dict:
    """ISE of each kernel on a stack of samples: kernel -> (ISEs, truncated flags).

    ``values`` is (R, n), one sorted sample per row.  Each kernel maps
    Silverman's h to its scale (``_family_b``) and cuts the grid where its
    domain starts (``_domain_start``; only ``rig`` cuts).  Replications with
    the same cut share one batched estimate and one row-wise trapezoid; those
    left with fewer than 2 points record ``inf``.  With ``replication`` (a
    single sample), a :class:`GekdeError` is raised with "replication r,
    kernel k: " before its message.
    """
    out = {}
    h = None
    for kernel in config.kernels:
        if kernel in out:  # a kernel listed twice is fitted once
            continue
        try:
            if h is None:  # Silverman's h is kernel-independent: computed once per sample
                h = _silverman_h(values)
            b = _family_b(kernel, h)
            cut = _domain_start(kernel, grid, b)
            ise = np.full(b.size, math.inf)
            for k in np.unique(cut):
                if grid.size - k < 2:
                    continue  # estimator undefined on the whole range: rank worst
                rows = cut == k
                est = _estimate_batch(values[rows], kernel, b[rows], grid[k:])
                ise[rows] = _ise_rows(est, f_true[k:], grid[k:])
            out[kernel] = (ise, cut > 0)
        except GekdeError as exc:
            if replication is not None:
                # prefix the context in place: type, fields and traceback survive
                exc.args = (f"replication {replication}, kernel {kernel.value}: {exc}",
                            *exc.args[1:])
            raise
    return out


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Run the Monte Carlo experiment; one :class:`MiseReport` per kernel.

    Each replication draws its sample from a stream spawned off
    ``config.seed``.  The replications are split into contiguous chunks
    (``threads`` of them, or more where a chunk's samples would pass
    ``_BATCH_ELEMENTS``); a chunk computes every sample's Silverman h in one vectorised pass and,
    per kernel, one batched estimate of all its samples on the
    quantile-spanning grid and one row-wise ISE.  Each replication's ISE
    has the bits of a one-sample ``estimate_density`` and
    ``integrated_squared_error``, so the output is bit-identical for any
    ``threads`` value, which sets how many chunks run at once (never more
    than there are chunks).

    A :class:`GekdeError` in a chunk is raised for its lowest failing
    replication, found by running the chunk's replications one at a time,
    with "replication r, kernel k: " before its message and its type and
    fields intact.
    """
    density = CONFIGURATIONS[config.config_id]
    lo, hi = density._ise_range
    grid = np.linspace(lo, hi, config.grid_size)
    f_true = np.asarray(density.pdf(grid), dtype=float)
    reps = config.replications
    streams = np.random.SeedSequence(config.seed).spawn(reps)
    per_batch = max(1, _BATCH_ELEMENTS // max(config.n, grid.size))
    chunks = max(min(threads, reps), -(-reps // per_batch))
    edges = [reps * i // chunks for i in range(chunks + 1)]

    def one_chunk(i):
        first = edges[i]
        values = np.stack([density.sample(config.n, streams[r]).values
                           for r in range(first, edges[i + 1])])
        try:
            return _fit_cell(values, config, grid, f_true)
        except GekdeError:
            pass
        return _joined([_fit_cell(values[j:j + 1], config, grid, f_true, replication=first + j)
                        for j in range(values.shape[0])])

    if threads <= 1 or chunks == 1:
        results = [one_chunk(i) for i in range(chunks)]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, chunks)) as pool:
            results = list(pool.map(one_chunk, range(chunks)))
    joined = _joined(results)
    return [MiseReport.from_ises(config.config_id, kernel, config.n, joined[kernel][0],
                                 bool(joined[kernel][1].any()))
            for kernel in config.kernels]


def _joined(parts: list) -> dict:
    """``_fit_cell`` results of consecutive replications, joined in order."""
    return {kernel: tuple(np.concatenate([p[kernel][i] for p in parts]) for i in (0, 1))
            for kernel in parts[0]}


def mise_records_csv(reports: Sequence[MiseReport]) -> str:
    """Long-format CSV: one row per (config, kernel, n, replication)."""
    lines = ["config,kernel,n,replication,ise"]
    for rep in reports:
        for i, v in enumerate(rep.per_replication_ise):
            lines.append(f"{rep.config_id},{rep.kernel.value},{rep.n},{i},{v:.17g}")
    return "\n".join(lines) + "\n"


def mise_summary(reports: Sequence[MiseReport]) -> dict:
    """Mean/variance summary per cell, JSON-ready."""
    return {
        "cells": [
            {
                "config": rep.config_id,
                "kernel": rep.kernel.value,
                "n": rep.n,
                "replications": int(rep.per_replication_ise.size),
                "mean_ise": rep.mean_ise,
                "variance_ise": rep.variance_ise,
                "truncated": rep.truncated,
            }
            for rep in reports
        ]
    }


def mise_summary_json(reports: Sequence[MiseReport]) -> str:
    return json.dumps(mise_summary(reports), indent=2, sort_keys=True) + "\n"
