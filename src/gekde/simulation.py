"""True-density catalog, seeded samplers and the Monte Carlo MISE harness.

The benchmark configurations (A through F) cover gamma, inverse-gamma and
inverse-Weibull shapes plus two-component mixtures of each.  Sampling is
driven by numpy's counter-based Philox generator: each replication owns a
spawned stream, and mixtures split their stream again so component draws
are independent of the categorical labels.  Results are therefore
bit-identical for a given (config, seed) under any thread count.

Integrated squared error is the trapezoid rule of (fhat - f)**2 over the
estimate grid, which the harness spans from the 0.05% to the 99.95%
quantile of the true density.  A reciprocal-inverse-Gaussian estimate is
undefined at grid points below its bandwidth; such points are skipped and
the truncation is flagged in the report.  When no valid grid point remains
at all, the replication's ISE is recorded as ``inf`` so a fully degenerate
estimator ranks strictly worst rather than disappearing from comparisons.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc
from scipy.integrate import quad

from .errors import CoverageError, DomainError, GekdeError
from .estimator import (
    DensityEstimate,
    Sample,
    _silverman_for,
    _silverman_h,
    estimate_density,
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


def _positive_param(value, name):
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be positive and finite")
    return v


class TrueDensity:
    """A closed-form density on (0, inf) with pdf, cdf, derivative and sampler access."""

    family = "abstract"

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def pdf_d1(self, x):
        """First derivative of the pdf."""
        raise NotImplementedError

    def pdf_d2(self, x):
        """Second derivative of the pdf."""
        raise NotImplementedError

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
        """Quantile by root-finding on the cdf."""
        if not 0.0 < p < 1.0:
            raise DomainError("quantile level must lie in (0, 1)")
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
        return float(brentq(lambda x: self.cdf(x) - p, lo, hi, xtol=1e-12 * scale, rtol=1e-13))

    def roughness(self) -> float:
        """Curvature functional: integral of f''(x)**2 over (0, inf)."""
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
        _positive_param(self.shape, "shape")
        _positive_param(self.scale, "scale")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k, th = self.shape, self.scale
        with np.errstate(divide="ignore"):
            out = np.exp((k - 1.0) * np.log(x) - x / th - k * math.log(th) - log_gamma(k))
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = gammainc(self.shape, x / self.scale)
        return out if out.ndim else float(out)

    def _log_slope(self, x):
        return (self.shape - 1.0) / x - 1.0 / self.scale

    def pdf_d1(self, x):
        x = np.asarray(x, dtype=float)
        out = self.pdf(x) * self._log_slope(x)
        return out if np.ndim(out) else float(out)

    def pdf_d2(self, x):
        x = np.asarray(x, dtype=float)
        s1 = self._log_slope(x)
        s2 = -(self.shape - 1.0) / (x * x)
        out = self.pdf(x) * (s1 * s1 + s2)
        return out if np.ndim(out) else float(out)

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
        _positive_param(self.shape, "shape")
        _positive_param(self.scale, "scale")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k, th = self.shape, self.scale
        out = np.exp(k * math.log(th) - (k + 1.0) * np.log(x) - th / x - log_gamma(k))
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = gammaincc(self.shape, self.scale / x)
        return out if out.ndim else float(out)

    def _log_slope(self, x):
        return self.scale / (x * x) - (self.shape + 1.0) / x

    def pdf_d1(self, x):
        x = np.asarray(x, dtype=float)
        out = self.pdf(x) * self._log_slope(x)
        return out if np.ndim(out) else float(out)

    def pdf_d2(self, x):
        x = np.asarray(x, dtype=float)
        s1 = self._log_slope(x)
        s2 = -2.0 * self.scale / x ** 3 + (self.shape + 1.0) / (x * x)
        out = self.pdf(x) * (s1 * s1 + s2)
        return out if np.ndim(out) else float(out)

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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k, th = self.shape, self.scale
        with np.errstate(over="ignore"):
            t = np.exp(self._log_t(x))
            out = np.exp(math.log(k / th) + (k + 1.0) * (math.log(th) - np.log(x)) - t)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = np.exp(-np.exp(self._log_t(x)))
        return out if out.ndim else float(out)

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DomainError("quantile level must lie in (0, 1)")
        return self.scale * (-math.log(p)) ** (-1.0 / self.shape)

    def _t_clamped(self, x):
        # (theta/x)**k; the pdf is identically 0 in doubles once t > 745, so
        # clamping t there keeps the log-slope factors finite without touching
        # any point where the density is representable
        return np.exp(np.minimum(self._log_t(x), 7.0))

    def pdf_d1(self, x):
        x = np.asarray(x, dtype=float)
        k = self.shape
        t = self._t_clamped(x)
        s1 = (k * t - (k + 1.0)) / x
        out = self.pdf(x) * s1
        return out if np.ndim(out) else float(out)

    def pdf_d2(self, x):
        x = np.asarray(x, dtype=float)
        k = self.shape
        t = self._t_clamped(x)
        s1 = (k * t - (k + 1.0)) / x
        s2 = ((k + 1.0) - k * (k + 1.0) * t) / (x * x)
        out = self.pdf(x) * (s1 * s1 + s2)
        return out if np.ndim(out) else float(out)

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
        x = np.asarray(x, dtype=float)
        out = sum(w * np.asarray(getattr(c, method)(x), dtype=float)
                  for w, c in zip(self.weights, self.components))
        return out if np.ndim(out) else float(out)

    def pdf(self, x):
        return self._combine("pdf", x)

    def cdf(self, x):
        return self._combine("cdf", x)

    def pdf_d1(self, x):
        return self._combine("pdf_d1", x)

    def pdf_d2(self, x):
        return self._combine("pdf_d2", x)

    def _scale_hint(self):
        return sum(w * c._scale_hint() for w, c in zip(self.weights, self.components))

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

_ISE_QUANTILES = (0.0005, 0.9995)


def integrated_squared_error(estimate: DensityEstimate, density: TrueDensity,
                             require_coverage: bool = True) -> float:
    """Trapezoid-rule integral of (fhat - f)**2 over the estimate grid.

    With ``require_coverage`` the grid must span the 0.05% to 99.95%
    quantile range of ``density``; harness code that deliberately
    truncates the grid (RIG) disables the check and flags the report.
    """
    grid = estimate.grid
    if grid.size < 2:
        raise DomainError("ISE needs a grid with at least 2 points")
    if require_coverage:
        lo_q, hi_q = (density.quantile(p) for p in _ISE_QUANTILES)
        slack = 1e-9
        if grid[0] > lo_q * (1.0 + slack) + 1e-12:
            raise CoverageError(
                f"grid starts at {grid[0]!r}, above the {_ISE_QUANTILES[0]:.2%} quantile {lo_q!r}"
            )
        if grid[-1] < hi_q * (1.0 - slack):
            raise CoverageError(
                f"grid ends at {grid[-1]!r}, below the {_ISE_QUANTILES[1]:.2%} quantile {hi_q!r}"
            )
    diff = estimate.values - density.pdf(grid)
    return float(np.trapezoid(diff * diff, grid))


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


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Run the Monte Carlo experiment; one :class:`MiseReport` per kernel.

    Each replication draws its sample from a stream spawned off
    ``config.seed``, computes the Silverman bandwidth per kernel and
    records the ISE on the quantile-spanning grid.  Replications are
    independent and merged by index, so the output is bit-identical for
    any ``threads`` value.
    """
    density = CONFIGURATIONS[config.config_id]
    lo, hi = (density.quantile(p) for p in _ISE_QUANTILES)
    grid = np.linspace(lo, hi, config.grid_size)
    f_true = np.asarray(density.pdf(grid), dtype=float)
    streams = np.random.SeedSequence(config.seed).spawn(config.replications)

    def one_replication(r):
        sample = density.sample(config.n, streams[r])
        out = {}
        h = None  # Silverman's h is kernel-independent: computed once per sample
        for kernel in config.kernels:
            try:
                if h is None:
                    h = _silverman_h(sample)
                bw = _silverman_for(kernel, h)
                if kernel is Kernel.RIG:
                    valid = grid > bw.value
                    if int(valid.sum()) < 2:
                        # estimator undefined on the whole range: rank worst
                        out[kernel] = (math.inf, True)
                        continue
                    est = estimate_density(sample, kernel, bw, grid[valid])
                    diff = est.values - f_true[valid]
                    ise = float(np.trapezoid(diff * diff, grid[valid]))
                    out[kernel] = (ise, not bool(valid.all()))
                else:
                    est = estimate_density(sample, kernel, bw, grid)
                    diff = est.values - f_true
                    out[kernel] = (float(np.trapezoid(diff * diff, grid)), False)
            except GekdeError as exc:
                # prefix the context in place: type, fields and traceback survive
                exc.args = (f"replication {r}, kernel {kernel.value}: {exc}", *exc.args[1:])
                raise
        return out

    if threads <= 1:
        rows = [one_replication(r) for r in range(config.replications)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one_replication, range(config.replications)))

    reports = []
    for kernel in config.kernels:
        ises = [row[kernel][0] for row in rows]
        truncated = any(row[kernel][1] for row in rows)
        reports.append(MiseReport.from_ises(config.config_id, kernel, config.n, ises, truncated))
    return reports


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
