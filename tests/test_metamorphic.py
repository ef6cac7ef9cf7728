"""Metamorphic properties of the block-wise kernel evaluation.

``estimate_density`` computes the kernel's location and datum terms once and
combines them over blocks of grid rows.  These tests pin what that must not
change: the value at a grid point does not depend on which other points
share the call or the block, nor on the order of the data, and it agrees
with per-point evaluation and with the reference per-row formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from gekde import (
    CONFIGURATIONS,
    EULER_GAMMA,
    Kernel,
    Sample,
    default_grid,
    estimate_density,
    gam2_shape,
    inverse_digamma,
    log_kernel,
    silverman_bandwidth,
)

# n = 1500 puts ten grid rows in a block, so a 200-point grid spans 20 blocks
_SAMPLE = CONFIGURATIONS["D"].sample(1500, 2024)
_GRID = default_grid(_SAMPLE, 200)


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
    return (shape - 1.0) * np.log(z) - z / b - shape * math.log(b) - gammaln(shape)


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
        return c - 1.5 * np.log(z) - (z / x - 2.0 + x / z) / (2.0 * b * x)
    s = x - b
    return c - 0.5 * np.log(z) - (s / (2.0 * b)) * (z / s - 2.0 + s / z)


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
