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
replications of a cell together, and does the work that no kernel owns once
per chunk of replications (one chunk per thread) or once per cell.  Per
chunk: each replication draws from its own stream, and the (R, n) stack of
draws is checked and sorted once, as ``Sample`` checks and sorts one
sample; Silverman's h of every row is one pass, its quartiles read off the
sorted rows; each kernel then takes one batched estimate of the stack, and
the estimates of every kernel on the whole grid take one row-wise ISE.  Per
cell: the means and variances of all kernels are one pass over the
(kernels, replications) ISE stack.  Every step keeps the bits of the
per-replication calls.  A reciprocal-inverse-Gaussian estimate is undefined
at grid points at or below its bandwidth; the estimator's ``_domain_start``
cuts them, and the truncation is flagged in the report.  When fewer than two grid points
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
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, gammaln
from scipy.integrate import quad

from .errors import (ConvergenceError, CoverageError, DomainError, GekdeError, IntegrationError,
                     _count, _finite_array, _positive, _real, _real_array, _scalar_or_array)
from .estimator import (
    DensityEstimate,
    Sample,
    _domain_start,
    _estimate_batch,
    _family_b,
    _silverman_h,
)
from .kernels import _TINY, DEFAULT_KERNELS, Kernel, _as_kernel

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

def _store_params(density, gamma_constants: bool = False):
    """Store (shape, scale) as positive finite floats, converted as ``float`` does.

    With ``gamma_constants``, also store k log(theta) and log Gamma(k) (scipy's
    ``gammaln`` of the shape checked here), once: plain attributes, not
    dataclass fields, so equality, hashing and repr see (shape, scale) alone.
    """
    for name in ("shape", "scale"):
        object.__setattr__(density, name, _positive(getattr(density, name), name))
    if gamma_constants:
        object.__setattr__(density, "_k_log_scale", density.shape * math.log(density.scale))
        object.__setattr__(density, "_log_gamma_shape", float(gammaln(density.shape)))


#: What a density's argument is called in the DomainError of a non-number.
_X = "density argument x"

#: ``brentq`` iterations for a mixture quantile: bisection takes a bracket as
#: wide as the double range, DBL_MAX, down to the smallest normal double,
#: ``xtol``, in 2046 halvings.
_QUANTILE_MAXITER = 2100

#: Quantile levels that an ISE grid must span.
_ISE_QUANTILES = (0.0005, 0.9995)


class TrueDensity:
    """A closed-form density on (0, inf) with pdf, cdf, derivative and sampler access."""

    def _log_pdf(self, x):
        """Log of the pdf, by one formula for a float and for an array.

        At positive finite x it must not overflow, divide by zero or go
        invalid: ``pdf`` calls it there without an ``np.errstate``.
        """
        raise NotImplementedError

    def pdf(self, x):
        """The density at x: a Python float for a scalar, else an array.

        A positive finite Python float (a quadrature node) goes straight to
        ``_log_pdf``, with no array and no ``np.errstate``; anything else,
        a numpy scalar included, is made an array first: numpy scalar
        arithmetic warns where float arithmetic is quiet.  Both paths run
        the same numpy ufuncs and the same arithmetic, so a float gets the
        bits of a 0-d array.  f is 0.0 below 0 and at +inf, where no formula
        is evaluated.  An array whose entries are all positive and finite
        (every set of quadrature nodes), tested by one ``min`` and one
        ``max``, goes to ``_log_pdf`` as it is; any other array (empty, or
        holding 0, -0.0, inf or NaN) is masked, with the same bits.
        """
        if type(x) is float and 0.0 < x < math.inf:
            return float(np.exp(self._log_pdf(x)))
        x = _real_array(x, _X)
        with np.errstate(divide="ignore", over="ignore"):  # log(0) at x = 0, x/theta = inf
            if x.size and x.min() > 0.0 and x.max() < math.inf:  # NaN fails the first test
                return _scalar_or_array(np.exp(self._log_pdf(x)))
            off = (x < 0.0) | (x == math.inf)  # where a formula may take log(-x) or read inf - inf
            # abs: -0.0 is 0, not a theta/x of -inf
            out = np.exp(self._log_pdf(np.where(off, 1.0, np.abs(x))))
        return _scalar_or_array(np.where(off, 0.0, out))

    def _cdf(self, x):
        """The cdf by one formula, on an array (see ``cdf``)."""
        raise NotImplementedError

    def cdf(self, x):
        """The cdf at x: a Python float for a scalar, else an array.

        x is made an array and ``_cdf`` runs under ``np.errstate``: at 0, at
        a subnormal or huge x and at inf a formula may divide by zero or
        overflow on its way to 0 or 1.  Below 0 the cdf is its value at 0,
        0.0; NaN stays NaN.
        """
        x = np.maximum(_real_array(x, _X), 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            out = self._cdf(x)
        return _scalar_or_array(out)

    def _log_slopes(self, x):
        """First and second derivatives (s1, s2) of the log pdf at x."""
        raise NotImplementedError

    def _times_pdf(self, x, slopes):
        """f * slopes(s1, s2), and 0.0 where the pdf is 0 and the product nan.

        A float for a scalar, else an array, by one array path, under
        ``np.errstate``.  Where the pdf has underflowed to 0 (x near 0 or far
        out) the log slopes may overflow (a power of x, or the inverse
        Weibull's k (k + 1) t at the cap of ``_log_t``) or divide by a zero
        ``x * x``, and 0 * inf is nan; the derivative is 0 there.  Wherever
        the product is a number it is kept, so a positive pdf gives the bits
        of the plain product; where the pdf is positive but a slope leaves
        the double range, the product is inf or nan.
        """
        f = self.pdf(x)
        x = _real_array(x, _X)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = f * slopes(*self._log_slopes(x))
        return _scalar_or_array(np.where((f == 0.0) & np.isnan(out), 0.0, out))

    def pdf_d1(self, x):
        """First derivative of the pdf: f * s1."""
        return self._times_pdf(x, lambda s1, s2: s1)

    def pdf_d2(self, x):
        """Second derivative of the pdf: f * (s1**2 + s2)."""
        return self._times_pdf(x, lambda s1, s2: s1 * s1 + s2)

    def _draw(self, n: int, ss: np.random.SeedSequence) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, seed) -> Sample:
        """Draw a deterministic sample; ``seed`` is an integer or SeedSequence."""
        n = _count(n, "n", 2)
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(_count(seed, "seed", 0))
        return Sample(self._draw(n, seed))

    def quantile(self, p: float) -> float:
        """The x with cdf(x) = p, for p in (0, 1)."""
        p = _real(p, "quantile level")
        if not 0.0 < p < 1.0:
            raise DomainError("quantile level must lie in (0, 1)")
        return float(self._quantile(p))

    def _quantile(self, p):
        """The p-quantile, for p in (0, 1) (see ``quantile``)."""
        raise NotImplementedError

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
        """Curvature functional: integral of f''(x)**2 over (0, inf), by ``quad``.

        The density is integrated as that of X / 2**e, with 2**e the power of
        two of its median, and the result is scaled back by 2**(-5 e).
        Scaling by a power of two is exact, so the roughness of X * 2**k is
        2**(-5 k) times that of X, bit for bit.  A value outside the normal
        double range raises :class:`DomainError`.  A piece on which ``quad``
        reports trouble (no convergence, roundoff, a divergent integral)
        raises :class:`IntegrationError`, whose ``achieved`` is that piece's
        error estimate over its value.
        """
        e = math.frexp(self.quantile(0.5))[1]
        density = self._rescaled(-e)
        cuts = [density.quantile(q) for q in (1e-7, 0.25, 0.5, 0.75, 1.0 - 1e-7)]
        pts = [0.0] + cuts + [math.inf]
        value = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            # with full_output, quad appends its message instead of warning
            v, err, _, *trouble = quad(lambda x: float(density.pdf_d2(x)) ** 2, a, b,
                                       epsabs=1e-12, epsrel=1e-10, limit=200, full_output=1)
            if trouble:
                raise IntegrationError(
                    f"roughness of {self!r}: quad on the piece [{a!r}, {b!r}] of the "
                    f"density rescaled by 2**{-e}: {trouble[0].split('.')[0].lower()}",
                    achieved=err / v if v > 0.0 else math.inf,
                )
            value += v
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


def _rng(ss: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(ss))


def _labels(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n categorical labels drawn from their cdf, as ``Generator.choice`` draws them.

    With ``cdf = p.cumsum(); cdf /= cdf[-1]`` these are the labels of
    ``rng.choice(cdf.size, n, p=p)``: the algorithm it runs with ``p`` and
    replacement, one uniform per label placed in the cdf, without its
    argument checks.
    """
    return cdf.searchsorted(rng.random(n), side="right")


@dataclass(frozen=True)
class GammaDensity(TrueDensity):
    """Gamma(shape, scale): pdf x**(k-1) e**(-x/theta) / (theta**k Gamma(k))."""

    shape: float
    scale: float

    def __post_init__(self):
        _store_params(self, gamma_constants=True)

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

    def _draw(self, n, ss):
        # Marsaglia-Tsang squeeze/transformation rejection, via numpy
        return _rng(ss).standard_gamma(self.shape, n) * self.scale


@dataclass(frozen=True)
class InverseGammaDensity(TrueDensity):
    """InverseGamma(shape, scale): pdf theta**k x**(-k-1) e**(-theta/x) / Gamma(k)."""

    shape: float
    scale: float

    def __post_init__(self):
        _store_params(self, gamma_constants=True)

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

    def _draw(self, n, ss):
        # reciprocal of gamma draws with the matching rate
        return self.scale / _rng(ss).standard_gamma(self.shape, n)


@dataclass(frozen=True)
class InverseWeibullDensity(TrueDensity):
    """Inverse Weibull (Frechet): cdf exp(-(theta/x)**k) on x > 0."""

    shape: float
    scale: float

    def __post_init__(self):
        _store_params(self)

    def _log_t(self, x):
        """log t, t = (theta/x)**k, capped at 709 so that t is finite (x = 0 included).

        Past the cap the pdf, the cdf and both derivatives are +0.0, capped or not.
        """
        return np.minimum(self.shape * (math.log(self.scale) - np.log(x)), 709.0)

    def _log_pdf(self, x):
        k, th = self.shape, self.scale
        # log(theta/x), capped as _log_t is; not _log_t / k: (k + 1) * d rounds otherwise
        d = np.minimum(math.log(th) - np.log(x), 709.0 / k)
        return math.log(k / th) + (k + 1.0) * d - np.exp(k * d)

    def _cdf(self, x):
        return np.exp(-np.exp(self._log_t(x)))

    def _quantile(self, p):
        return self.scale * (-math.log(p)) ** (-1.0 / self.shape)

    def _log_slopes(self, x):
        k = self.shape
        t = np.exp(self._log_t(x))
        s1 = (k * t - (k + 1.0)) / x
        s2 = ((k + 1.0) - k * (k + 1.0) * t) / (x * x)
        return s1, s2

    def _draw(self, n, ss):
        # inverse-cdf: x = theta * E**(-1/k) with E standard exponential
        e = np.maximum(_rng(ss).standard_exponential(n), _TINY)
        return self.scale * e ** (-1.0 / self.shape)


@dataclass(frozen=True)
class MixtureDensity(TrueDensity):
    """Finite mixture of non-mixture component densities."""

    weights: tuple
    components: tuple

    def __post_init__(self):
        w = tuple(_positive(v, "mixture weights") for v in self.weights)
        comps = tuple(self.components)
        if len(w) != len(comps) or not w:
            raise DomainError("weights and components must be non-empty and match in length")
        if abs(sum(w) - 1.0) > 1e-12:
            raise DomainError("mixture weights must sum to 1")
        for c in comps:
            if not isinstance(c, TrueDensity) or isinstance(c, MixtureDensity):
                raise DomainError("mixture components must be non-mixture densities")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)
        # the labels' cdf, as Generator.choice makes it from p (not a field)
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        object.__setattr__(self, "_label_cdf", cdf)

    def _combine(self, method, x):
        if type(x) is not float:  # a float stays one, for the components' float pdf path
            x = _real_array(x, _X)
        out = sum(w * getattr(c, method)(x) for w, c in zip(self.weights, self.components))
        return _scalar_or_array(out)

    def pdf(self, x):
        """The weighted sum of the component pdfs, as ``pdf_d1`` and ``pdf_d2`` take theirs."""
        return self._combine("pdf", x)

    def _cdf(self, x):
        return sum(w * c._cdf(x) for w, c in zip(self.weights, self.components))

    def pdf_d1(self, x):
        return self._combine("pdf_d1", x)

    def pdf_d2(self, x):
        return self._combine("pdf_d2", x)

    def _quantile(self, p):
        """Root of cdf(x) = p by ``brentq``, bracketed by the components' p-quantiles.

        The mixture cdf, a weighted mean of the component cdfs, is at most p
        at the smallest of them and at least p at the largest.  An end whose
        cdf already meets p (equal components, or closed forms a few ulps
        apart) is returned as it is.  The tolerance is relative only, and
        ``brentq`` may take ``_QUANTILE_MAXITER`` steps: components many
        decades apart need hundreds.  A search that still fails raises
        :class:`ConvergenceError`.
        """
        qs = [c._quantile(p) for c in self.components]
        lo, hi = min(qs), max(qs)
        if self.cdf(lo) >= p:
            return lo
        if self.cdf(hi) <= p:
            return hi
        root, info = brentq(lambda x: self.cdf(x) - p, lo, hi, xtol=_TINY, rtol=1e-13,
                            maxiter=_QUANTILE_MAXITER, full_output=True, disp=False)
        if not info.converged:
            raise ConvergenceError(
                f"mixture quantile at level {p!r} did not converge in {info.iterations} steps",
                last_iterate=root, residual=float(self.cdf(root)) - p)
        return root

    def _rescaled(self, e):
        return MixtureDensity(self.weights, tuple(c._rescaled(e) for c in self.components))

    def _draw(self, n, ss):
        """Each component's draws in turn, as many as its labels.

        Labels and component draws use separate spawned streams.  A label is
        the index ``Generator.choice(k, n, p=weights)`` would draw, by the
        algorithm it runs (``_labels``).  The draws come out grouped by
        component, not in label order: ``Sample`` sorts them.
        """
        children = ss.spawn(1 + len(self.components))
        counts = np.bincount(_labels(self._label_cdf, n, _rng(children[0])),
                             minlength=len(self.components)).tolist()
        return np.concatenate([comp._draw(cnt, child) for comp, cnt, child
                               in zip(self.components, counts, children[1:]) if cnt])


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
        if grid[0] > lo_q * (1.0 + slack):
            raise CoverageError(f"grid starts at {float(grid[0])!r}, above the "
                                f"{_ISE_QUANTILES[0]:.2%} quantile {lo_q!r}")
        if grid[-1] < hi_q * (1.0 - slack):
            raise CoverageError(f"grid ends at {float(grid[-1])!r}, below the "
                                f"{_ISE_QUANTILES[1]:.2%} quantile {hi_q!r}")
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
        kernels = tuple(_as_kernel(k) for k in self.kernels)
        if not kernels:
            raise DomainError("at least one kernel is required")
        object.__setattr__(self, "kernels", kernels)
        for name, minimum in (("n", 2), ("replications", 1), ("seed", 0), ("grid_size", 64)):
            object.__setattr__(self, name, _count(getattr(self, name), name, minimum))


def _ise_stats(ises: np.ndarray) -> tuple:
    """Mean and variance (ddof 1) of each row of a (kernels, replications) ISE stack.

    One ``np.mean`` and one ``np.var`` serve every row; a reduction along
    the contiguous last axis has the bits of the call on the row alone.
    Returns two lists of Python floats.  With one replication the variance
    is 0.0; a row that holds a non-finite ISE has the variance ``math.nan``
    (``np.var`` makes a NaN of another sign there, and an invalid-value
    warning, which is not raised).
    """
    means = np.mean(ises, axis=1)
    if ises.shape[1] < 2:
        variances = np.zeros(ises.shape[0])
    else:
        with np.errstate(invalid="ignore"):  # inf - inf in a row holding inf
            variances = np.var(ises, axis=1, ddof=1)
        variances[~np.isfinite(ises).all(axis=1)] = math.nan
    return means.tolist(), variances.tolist()


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
        """The report of one kernel's ISEs: the one-row case of ``_ise_stats``.

        A report of no replications raises :class:`DomainError`.
        """
        arr = np.asarray(ises, dtype=float)
        if arr.size == 0:
            raise DomainError("a MISE report needs at least one replication's ISE")
        (mean,), (var,) = _ise_stats(arr.reshape(1, -1))
        return cls(config_id, kernel, n, arr, mean, var, truncated)


#: Replications per batch are capped so that a batch's per-sample and
#: per-location terms stay near this many elements each (2 MB).
_BATCH_ELEMENTS = 1 << 18


def _fit_cell(values: np.ndarray, kernels: tuple, grid: np.ndarray,
              f_true: np.ndarray, replication: int | None = None) -> tuple:
    """ISEs and truncation flags of each kernel on a stack of samples: two (kernels, R) arrays.

    ``values`` is (R, n), one sorted sample per row, and ``kernels`` holds
    distinct kernels; ``grid`` is ``run_experiment``'s, positive and
    increasing.  Silverman's h is computed once for all the rows.  Each
    kernel maps h to its scale (``_family_b``, which checks it) and cuts the
    grid where its domain starts (``_domain_start``; only ``rig`` cuts, at
    the first point above each b), so no point is checked again.
    Replications with the same cut share one batched estimate; those left
    with fewer than 2 points record ``inf``.  The estimates on the whole
    grid, of every kernel, share one row-wise trapezoid; a cut grid takes
    its own.  With ``replication`` (a single sample), a :class:`GekdeError`
    is raised with "replication r, kernel k: " before its message.
    """
    ise = np.full((len(kernels), values.shape[0]), math.inf)
    cut = np.empty(ise.shape, dtype=np.intp)
    whole = []  # the estimates on the whole grid, in the row-major order of cut == 0
    h = None
    for i, kernel in enumerate(kernels):
        try:
            if h is None:  # kernel-independent: once for the stack, in the first kernel's context
                h = _silverman_h(values)
            b = _family_b(kernel, h)
            cut[i] = _domain_start(kernel, grid, b)
            for k in np.unique(cut[i]):
                if grid.size - k < 2:
                    continue  # estimator undefined on the whole range: rank worst
                rows = cut[i] == k
                cut_grid = grid[k:]
                est = _estimate_batch(values[rows], kernel, b[rows], cut_grid)
                if k:
                    ise[i, rows] = _ise_rows(est, f_true[k:], cut_grid)
                else:
                    whole.append(est)
        except GekdeError as exc:
            if replication is not None:
                # prefix the context in place: type, fields and traceback survive
                exc.args = (f"replication {replication}, kernel {kernel.value}: {exc}",
                            *exc.args[1:])
            raise
    if whole:  # a grid has at least 2 points, so every uncut replication has its estimate
        ise[cut == 0] = _ise_rows(np.concatenate(whole), f_true, grid)
    return ise, cut > 0


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Run the Monte Carlo experiment; one :class:`MiseReport` per kernel.

    Each replication draws its sample from a stream spawned off
    ``config.seed``.  The replications are split into contiguous chunks
    (``threads`` of them, or more where a chunk's samples would pass
    ``_BATCH_ELEMENTS``).  A chunk checks and sorts its (R, n) stack of
    draws once, as ``Sample`` checks and sorts one, computes every sample's
    Silverman h in one vectorised pass and, per kernel, one batched
    estimate of all its samples on the quantile-spanning grid, unchecked as
    it is valid by construction; one row-wise ISE then serves every kernel's
    estimates on the whole grid.  The means and variances of all kernels
    come from one pass over the (kernels, replications) ISE stack
    (``_ise_stats``).  Each replication's ISE has the bits of a one-sample
    ``estimate_density`` and ``integrated_squared_error``, and each
    statistic those of ``MiseReport.from_ises``, so the output is
    bit-identical for any ``threads`` value, which sets how many chunks run
    at once (never more than there are chunks).  A kernel listed twice is
    fitted once and reported twice.

    A :class:`GekdeError` in a chunk is raised for its lowest failing
    replication, found by running the chunk's replications one at a time,
    with "replication r, kernel k: " before its message and its type and
    fields intact.
    """
    threads = _count(threads, "threads", 1)
    density = CONFIGURATIONS[config.config_id]
    kernels = tuple(dict.fromkeys(config.kernels))
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
        draws = np.stack([density._draw(config.n, streams[r])
                          for r in range(first, edges[i + 1])])
        values = np.sort(_finite_array(draws, "sample values", positive=True), axis=1)
        try:
            return _fit_cell(values, kernels, grid, f_true)
        except GekdeError:
            pass
        return _joined([_fit_cell(values[j:j + 1], kernels, grid, f_true, replication=first + j)
                        for j in range(values.shape[0])])

    if threads <= 1 or chunks == 1:
        results = [one_chunk(i) for i in range(chunks)]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, chunks)) as pool:
            results = list(pool.map(one_chunk, range(chunks)))
    ise, truncated = _joined(results)
    means, variances = _ise_stats(ise)
    reports = []
    for kernel in config.kernels:
        i = kernels.index(kernel)
        reports.append(MiseReport(config.config_id, kernel, config.n, ise[i], means[i],
                                  variances[i], bool(truncated[i].any())))
    return reports


def _joined(parts: list) -> tuple:
    """``_fit_cell`` results of consecutive replications, joined in order."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate([p[i] for p in parts], axis=1) for i in (0, 1))


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


def _json_ready(obj):
    """``obj`` with every non-finite float, nested in dicts and lists, as "inf", "-inf" or "nan"."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else f"{obj:.17g}"  # the CSV spelling
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_ready(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    """RFC 8259 JSON of ``obj``, indented, keys sorted: no Infinity or NaN tokens."""
    return json.dumps(_json_ready(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def mise_summary_json(reports: Sequence[MiseReport]) -> str:
    """``mise_summary`` as JSON text; an infinite or NaN statistic is the string "inf" or "nan"."""
    return _json_text(mise_summary(reports))
