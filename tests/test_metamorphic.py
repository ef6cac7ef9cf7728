"""Metamorphic properties of the block-wise kernel evaluation.

``estimate_density`` computes the kernel's location and datum terms once and
combines them over blocks of grid rows.  These tests pin what that must not
change: the value at a grid point does not depend on which other points
share the call or the block, nor on the order of the data; for the GE
kernels it scales as 1/c when data, bandwidth and grid are scaled by c; and
it agrees with per-point evaluation and with the reference per-row formulas.
The exact moments of ``exact_estimator_moments`` scale in the same way.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import gekde.estimator
from gekde import (
    CONFIGURATIONS,
    EULER_GAMMA,
    GammaDensity,
    Kernel,
    Sample,
    default_grid,
    estimate_density,
    exact_estimator_moments,
    gam2_shape,
    inverse_digamma,
    log_kernel,
    silverman_bandwidth,
)

# the 200-point grid must span several blocks of the estimator's element budget
_SAMPLE = CONFIGURATIONS["D"].sample(3000, 2024)
_GRID = default_grid(_SAMPLE, 200)
_ROWS_PER_BLOCK = max(1, 2 * gekde.estimator._BLOCK_ELEMENTS // _SAMPLE.n)


def test_grid_spans_several_blocks():
    assert math.ceil(_GRID.size / _ROWS_PER_BLOCK) >= 8


def _fit_grid(kernel):
    bw = silverman_bandwidth(_SAMPLE, kernel)
    grid = _GRID[_GRID > bw.value] if kernel is Kernel.RIG else _GRID
    return bw, grid


@pytest.mark.parametrize("kernel", list(Kernel))
@settings(max_examples=15, deadline=None)
@given(cuts=st.lists(st.integers(min_value=1, max_value=150), max_size=6))
def test_grid_split_is_bitwise_invariant(kernel, cuts):
    bw, grid = _fit_grid(kernel)
    whole = estimate_density(_SAMPLE, kernel, bw, grid).values
    edges = sorted({c for c in cuts if c < grid.size})
    parts = [estimate_density(_SAMPLE, kernel, bw, piece).values
             for piece in np.split(grid, edges)]
    assert np.array_equal(whole, np.concatenate(parts))


@pytest.mark.parametrize("kernel", list(Kernel))
@settings(max_examples=10, deadline=None)
@given(data=st.permutations(list(CONFIGURATIONS["A"].sample(60, 5).values)))
def test_sample_permutation_is_bitwise_invariant(kernel, data):
    reference = CONFIGURATIONS["A"].sample(60, 5)
    grid = np.linspace(6.0, 20.0, 40)
    a = estimate_density(reference, kernel, 0.4, grid)
    b = estimate_density(Sample(data), kernel, 0.4, grid)
    assert np.array_equal(a.values, b.values)


@functools.lru_cache(maxsize=None)
def _config_case(config_id):
    """n = 100 sample of a configuration and its 64-point ISE-style grid."""
    density = CONFIGURATIONS[config_id]
    grid = np.linspace(density.quantile(5e-4), density.quantile(1.0 - 5e-4), 64)
    return density.sample(100, 31), grid


@settings(max_examples=60, deadline=None)
@given(config_id=st.sampled_from(sorted(CONFIGURATIONS)),
       kernel=st.sampled_from([Kernel.GE, Kernel.GE2]),
       k=st.integers(min_value=-900, max_value=900))
def test_scale_equivariance(config_id, kernel, k):
    # scaling data, bandwidth and grid by c = 2**k is exact and leaves every
    # x/b and z/b unchanged; only log(b) moves, so fhat scales as 1/c up to
    # rounding.  Compared where fhat >= 1e-30, so that fhat/c stays a normal
    # double for every c; beyond the data the ge left tail underflows to 0.
    sample, grid = _config_case(config_id)
    b = silverman_bandwidth(sample, kernel).value
    base = estimate_density(sample, kernel, b, grid).values
    c = math.ldexp(1.0, k)
    scaled = estimate_density(Sample(sample.values * c), kernel, b * c, grid * c).values
    kept = base >= 1e-30
    assert np.count_nonzero(kept) >= grid.size // 2
    np.testing.assert_allclose(scaled[kept] * c, base[kept], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [-400, -200, -60, -40, -20, 20, 40, 60, 200, 400])
@pytest.mark.parametrize("kernel", list(Kernel), ids=lambda kernel: kernel.value)
def test_exact_moments_scale_equivariance(kernel, k):
    # x, b and the density's scale times c = 2**k: the mean scales as 1/c, the
    # variance as 1/c**2, and the rule accepts at every c.  The ig kernel's b
    # is not a length: its spread sqrt(b x**3) scales as c with b times 1/c
    c = math.ldexp(1.0, k)
    scale_b = 1.0 / c if kernel is Kernel.IG else c
    for x, b in [(2.0, 0.1), (1.0, 0.05), (3.0, 0.5), (0.5, 0.2)]:
        base = exact_estimator_moments(kernel, x, b, GammaDensity(3.0, 1.0), 1)
        scaled = exact_estimator_moments(kernel, x * c, b * scale_b, GammaDensity(3.0, c), 1)
        assert scaled.mean * c == pytest.approx(base.mean, rel=1e-10, abs=0.0)
        assert scaled.variance * c * c == pytest.approx(base.variance, rel=1e-10, abs=0.0)


def _wide_case():
    """b = 0.01 on [0.05, 12]: x/b runs from 5 to 1200.

    ge then has rows past the x/b > 700 regrouping, and ge2 has rows on both
    sides of its asymptotic cutoff y = x/b - EULER_GAMMA = 36 (x ~ 0.366).
    """
    rng = np.random.default_rng(17)
    sample = Sample(np.concatenate([rng.uniform(0.02, 0.5, 300), rng.uniform(0.5, 13.0, 600)]))
    return sample, 0.01, np.linspace(0.05, 12.0, 300)


@pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2])
def test_block_path_matches_per_point_log_kernel(kernel):
    sample, b, grid = _wide_case()
    y = grid / b - EULER_GAMMA
    assert np.any(y < 36.0) and np.any(y >= 36.0) and np.any(grid / b > 700.0)
    est = estimate_density(sample, kernel, b, grid)
    per_point = np.array([np.mean(np.exp(log_kernel(kernel, x, b, sample.values)))
                          for x in grid])
    assert np.count_nonzero(per_point) > grid.size // 2
    np.testing.assert_allclose(est.values, per_point, rtol=1e-12, atol=0.0)


# --- reference per-row formulas ---------------------------------------------

def _ref_ge(log_shape, shape_m1, b, z):
    u = z / b
    with np.errstate(divide="ignore"):
        L = np.where(u > math.log(2.0), np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))
    if log_shape <= 700.0:
        T = shape_m1 * L
    else:
        with np.errstate(over="ignore"):
            log_neg_l = np.where(u > 36.0, -u + np.log1p(0.5 * np.exp(-u)),
                                 np.log(-np.where(L < 0.0, L, -1.0)))
            T = -np.exp(log_shape + log_neg_l)
    return log_shape - math.log(b) + T - u


def _ref_gamma(shape, b, z):
    # the normaliser shape log b + log Gamma(shape) is one term, added first
    c0 = -(shape * math.log(b) + gammaln(shape))
    return (c0 + (shape - 1.0) * np.log(z)) - z / b


def _ref_row(kernel, x, b, z):
    """log K at one location, as the per-grid-point loop evaluated it."""
    if kernel is Kernel.GE:
        a = x / b
        return _ref_ge(a, math.expm1(a) if a < 709.0 else math.inf, b, z)
    if kernel is Kernel.GE2:
        y = x / b - EULER_GAMMA
        if y >= 36.0:
            nu = math.exp(y) - 0.5 if y <= 709.7 else math.inf
            return _ref_ge(y + math.log1p(-0.5 * math.exp(-y)), nu - 1.0, b, z)
        nu = float(inverse_digamma(y)) - 1.0
        return _ref_ge(math.log(nu), nu - 1.0, b, z)
    if kernel is Kernel.GAM1:
        return _ref_gamma(x / b + 1.0, b, z)
    if kernel is Kernel.GAM2:
        return _ref_gamma(gam2_shape(x, b), b, z)
    c = -0.5 * math.log(2.0 * math.pi * b)
    if kernel is Kernel.IG:
        # (z - x)**2 / (2 b x**2 z) as ((z - x)/x)**2 / (2 b z)
        e = (z - x) * (1.0 / x)
        return c - 1.5 * np.log(z) - (e * (1.0 / (2.0 * b * z))) * e
    # (z - s)**2 / (2 b z) as ((z - s)/z) * ((z - s)/(2 b))
    d = z - (x - b)
    return c - 0.5 * np.log(z) - (d * (1.0 / z)) * (d * (0.5 / b))


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("kernel", list(Kernel))
def test_matches_reference_row_loop(kernel, wide):
    # the gamma, IG and RIG rows run the same operations in the same order,
    # so they must agree bit for bit; the GE shapes come from numpy's exp,
    # expm1, log and log1p instead of math's, which differ by an ulp
    if wide:
        sample, b, grid = _wide_case()
    else:
        sample = _SAMPLE
        bw, grid = _fit_grid(kernel)
        b = bw.value
    est = estimate_density(sample, kernel, b, grid).values
    ref = np.array([np.mean(np.exp(_ref_row(kernel, x, b, sample.values))) for x in grid])
    if kernel in (Kernel.GE, Kernel.GE2):
        np.testing.assert_allclose(est, ref, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(est, ref)
