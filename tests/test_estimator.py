import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gekde.estimator
from gekde import (
    CONFIGURATIONS,
    AsymptoticRegime,
    Bandwidth,
    BoundaryDegeneracyError,
    DegenerateSampleError,
    DomainError,
    EULER_GAMMA,
    ExperimentConfig,
    GammaDensity,
    INTERIOR,
    IntegrationError,
    Kernel,
    OptimizationError,
    Sample,
    asymptotic_bias,
    asymptotic_variance,
    boundary_regime,
    default_grid,
    estimate_density,
    exact_estimator_moments,
    kernel_pdf,
    numeric_bandwidth_ge,
    optimal_bandwidth_ge2,
    run_experiment,
    select_bandwidth,
    silverman_bandwidth,
)
from gekde.estimator import (
    _EXP_ZERO,
    _LOG_U,
    _U_CUTS,
    _U_WEIGHTS,
    _WINDOW_STRIDE,
    _Z_SEGMENT,
    _Z_UNIT,
    _Z_WEIGHTS,
    _data_windows,
    _exp_rows,
    _domain_start,
    _gamma_functional,
    _quad_window,
    _silverman_h,
    _z_nodes,
)
from gekde.kernels import _LogKernel, _ge_quantiles, log_kernel
from test_metamorphic import _wide_case

G = EULER_GAMMA


def unit_sd_sample(n=100):
    """Evenly spaced positive sample with sd(ddof=1) exactly 1 and IQR/1.349 > 1."""
    base = np.linspace(0.0, 1.0, n)
    base = (base - base.mean()) / np.std(base, ddof=1)
    return Sample(base + 10.0)


class TestSample:
    def test_needs_two_positive(self):
        with pytest.raises(DomainError):
            Sample([1.0])
        with pytest.raises(DomainError):
            Sample([1.0, -1.0])
        with pytest.raises(DomainError):
            Sample([1.0, math.nan])

    def test_sorted_storage(self):
        s = Sample([3.0, 1.0, 2.0])
        assert list(s.values) == [1.0, 2.0, 3.0]
        assert s.n == 3


class TestSilverman:
    def test_ge_value(self):
        s = unit_sd_sample(100)
        bw = silverman_bandwidth(s, Kernel.GE)
        assert bw.method == "silverman"
        assert bw.value == pytest.approx(1.06 * 100 ** -0.2, rel=1e-12)
        assert bw.value == pytest.approx(0.42199, rel=1e-4)

    def test_gamma_family_squares(self):
        s = unit_sd_sample(100)
        h = silverman_bandwidth(s, Kernel.GE).value
        for kernel in (Kernel.GAM1, Kernel.GAM2, Kernel.IG, Kernel.RIG):
            assert silverman_bandwidth(s, kernel).value == pytest.approx(h * h, rel=1e-12)
        assert silverman_bandwidth(s, Kernel.GAM1).value == pytest.approx(0.17808, rel=1e-4)

    def test_robust_sigma_uses_iqr(self):
        # one huge outlier inflates the sd; the IQR side must win
        vals = np.concatenate([np.linspace(1.0, 2.0, 50), [1000.0]])
        s = Sample(vals)
        q75, q25 = np.percentile(s.values, [75, 25])
        sigma = (q75 - q25) / 1.349
        assert sigma < np.std(s.values, ddof=1)
        expect = 1.06 * sigma * s.n ** -0.2
        assert silverman_bandwidth(s, Kernel.GE).value == pytest.approx(expect, rel=1e-12)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            silverman_bandwidth(Sample([1.0, 1.0]), Kernel.GE)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scales(self, scale):
        # the spread survives at both ends without a numpy warning; h**2 for
        # the gamma family leaves the double range and says so
        s = GammaDensity(3.0, 1.0).sample(100, 3)
        scaled = Sample(s.values * scale)
        h = silverman_bandwidth(s, Kernel.GE).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = silverman_bandwidth(scaled, Kernel.GE).value
            assert abs(got - h * scale) <= 1e-12 * h * scale
            cause = "overflows" if scale > 1.0 else "underflows"
            with pytest.raises(DomainError, match=cause):
                silverman_bandwidth(scaled, Kernel.GAM1)

    def test_power_of_two_scaling_is_exact(self):
        s = GammaDensity(3.0, 1.0).sample(100, 3)
        h = silverman_bandwidth(s, Kernel.GE).value
        for k in (-1000, -7, 9, 1000):
            scaled = Sample(np.ldexp(s.values, k))
            assert silverman_bandwidth(scaled, Kernel.GE).value == math.ldexp(h, k)

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_ge_subnormal_h_raises(self, kernel):
        # b = h = 1.26e-320 would give estimates of inf with numpy's overflow
        # warning; the GE kernels reject it as the others reject h**2
        with pytest.raises(DomainError, match=f"{kernel.value} bandwidth: h underflows"):
            silverman_bandwidth(Sample([1e-320, 3e-320, 5e-320]), kernel)


def _percentile_silverman_h(values):
    """``_silverman_h`` with its quartiles from ``np.percentile``, as the rule was first written."""
    e = np.frexp(values[:, -1])[1][:, None]
    v = np.ldexp(values, -e)
    q75, q25 = np.percentile(v, [75.0, 25.0], axis=1)
    sigma = np.minimum(np.std(v, axis=1, ddof=1), (q75 - q25) / 1.349)
    return np.ldexp(1.06 * sigma * values.shape[1] ** -0.2, e[:, 0])


class TestSilvermanQuartiles:
    """The quartiles read off the sorted rows keep the bits of ``np.percentile``."""

    @settings(max_examples=300, deadline=None)
    @given(reps=st.sampled_from([1, 3, 8]), n=st.integers(2, 500),
           levels=st.integers(2, 1000), seed=st.integers(0, 2 ** 32 - 1),
           log_scale=st.floats(-700.0, 700.0))
    def test_equals_percentile_rule(self, reps, n, levels, seed, log_scale):
        # values on a lattice of ``levels`` points, so that small lattices tie
        rng = np.random.default_rng(seed)
        lattice = np.sort(rng.gamma(3.0, 1.0, levels)) * math.exp(log_scale) + 1e-300
        values = np.sort(rng.choice(lattice, (reps, n)), axis=1)
        with np.errstate(all="raise"):
            want = _percentile_silverman_h(values)
        if not np.all(want > 0.0):  # every row tied: no spread
            with pytest.raises(DegenerateSampleError):
                _silverman_h(values)
            return
        assert [v.hex() for v in _silverman_h(values).tolist()] == [
            v.hex() for v in want.tolist()]


#: Each public function that takes a kernel, as a call on that kernel.
_KERNEL_CALLS = {
    "estimate_density": lambda k: estimate_density(
        GammaDensity(3.0, 1.0).sample(100, 1), k, 0.3, [1.0, 2.0]).values,
    "silverman_bandwidth": lambda k: silverman_bandwidth(
        GammaDensity(3.0, 1.0).sample(100, 1), k).value,
    "select_bandwidth": lambda k: select_bandwidth(
        GammaDensity(3.0, 1.0).sample(100, 1), k, "optimal_ge2").value,
    "log_kernel": lambda k: log_kernel(k, 1.0, 0.3, [0.5, 1.0, 2.0]),
    "kernel_pdf": lambda k: kernel_pdf(k, 1.0, 0.3, 1.5),
    "exact_estimator_moments": lambda k: exact_estimator_moments(
        k, 2.0, 0.3, GammaDensity(3.0, 1.0), 100),
    "asymptotic_bias": lambda k: asymptotic_bias(k, INTERIOR, 0.3, 0.1, -0.2),
}


def _hexes(result):
    return [float(v).hex() for v in np.ravel(result)]


class TestKernelNames:
    """A kernel given by name is that kernel; an unknown name raises DomainError."""

    @pytest.mark.parametrize("name, kernel", [("ge", Kernel.GE), ("GE2", Kernel.GE2)])
    @pytest.mark.parametrize("call", list(_KERNEL_CALLS), ids=str)
    def test_name_gives_enum_result(self, call, name, kernel):
        assert _hexes(_KERNEL_CALLS[call](name)) == _hexes(_KERNEL_CALLS[call](kernel))

    @pytest.mark.parametrize("call", list(_KERNEL_CALLS), ids=str)
    def test_unknown_name(self, call):
        with pytest.raises(DomainError, match="unknown kernel 'gee'"):
            _KERNEL_CALLS[call]("gee")

    def test_estimate_names_its_kernel(self):
        est = estimate_density(GammaDensity(3.0, 1.0).sample(100, 1), "gam1", 0.3, [1.0])
        assert est.kernel is Kernel.GAM1


class TestEstimateDensity:
    def test_single_point_reduction(self):
        # duplicated datum: the average collapses to a single kernel value
        s = Sample([2.0, 2.0])
        est = estimate_density(s, Kernel.GE, 1.0, [0.0])
        assert est.values[0] == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_duplicate_invariance(self):
        grid = np.linspace(0.5, 3.0, 17)
        for kernel in (Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2):
            a = estimate_density(Sample([1.0, 1.0]), kernel, 0.4, grid)
            b = estimate_density(Sample([1.0, 1.0, 1.0]), kernel, 0.4, grid)
            np.testing.assert_allclose(a.values, b.values, rtol=1e-14)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        data = rng.gamma(4.0, 1.0, 20)
        s = Sample(data)
        grid = np.linspace(0.5, 12.0, 9)
        est = estimate_density(s, Kernel.GE, 0.7, grid)
        for x, v in zip(grid, est.values):
            direct = np.mean([kernel_pdf(Kernel.GE, x, 0.7, z) for z in s.values])
            assert v == pytest.approx(direct, rel=1e-12)

    def test_ordering_invariance_bitwise(self):
        rng = np.random.default_rng(4)
        data = rng.gamma(4.0, 1.0, 50)
        grid = np.linspace(0.5, 15.0, 33)
        a = estimate_density(Sample(data), Kernel.GAM1, 0.3, grid)
        b = estimate_density(Sample(data[::-1]), Kernel.GAM1, 0.3, grid)
        assert np.array_equal(a.values, b.values)

    def test_linearity_over_concatenation(self):
        rng = np.random.default_rng(5)
        d1, d2 = rng.gamma(4.0, 1.0, 30), rng.gamma(6.0, 0.5, 50)
        grid = np.linspace(0.5, 15.0, 21)
        e1 = estimate_density(Sample(d1), Kernel.GE, 0.5, grid)
        e2 = estimate_density(Sample(d2), Kernel.GE, 0.5, grid)
        eb = estimate_density(Sample(np.concatenate([d1, d2])), Kernel.GE, 0.5, grid)
        blended = (30 * e1.values + 50 * e2.values) / 80.0
        np.testing.assert_allclose(eb.values, blended, rtol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        s = Sample(rng.gamma(2.0, 2.0, 40))
        est = estimate_density(s, Kernel.GE2, 0.8, default_grid(s, 128))
        assert np.all(est.values >= 0.0)

    def test_grid_validation(self):
        s = Sample([1.0, 2.0])
        with pytest.raises(DomainError):
            estimate_density(s, Kernel.GE, 0.5, [2.0, 1.0])
        with pytest.raises(DomainError):
            estimate_density(s, Kernel.GAM1, 0.5, [0.0, 1.0])
        # x = 0 is allowed for GE only
        estimate_density(s, Kernel.GE, 0.5, [0.0, 1.0])

    @pytest.mark.parametrize("grid", [[], np.empty(0)], ids=["list", "array"])
    def test_empty_grid(self, grid):
        with pytest.raises(DomainError, match="evaluation grid is empty"):
            estimate_density(Sample([1.0, 2.0]), Kernel.GE, 0.5, grid)

    def test_rig_grid_error_names_point(self):
        s = Sample([1.0, 2.0])
        with pytest.raises(BoundaryDegeneracyError, match="0.2"):
            estimate_density(s, Kernel.RIG, 0.5, [0.2, 1.0])

    def test_bandwidth_object_accepted(self):
        s = Sample([1.0, 2.0])
        bw = Bandwidth(0.5, "fixed")
        est = estimate_density(s, Kernel.GE, bw, [1.0])
        assert est.bandwidth is bw
        assert est.n == 2


def _raised(call):
    """The type of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # compared by type below
        return type(exc)
    return None


class TestDomain:
    GRID = np.array([0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("b, start", [
        (1.0, 2),      # b on a grid point: that point is cut
        (1.2, 2),      # b between points
        (0.1, 0),      # b below grid[0]
        (2.0, 4),      # b on the last point: nothing left
        (3.0, 4),      # b above the grid
    ])
    def test_rig_start(self, b, start):
        got = _domain_start(Kernel.RIG, self.GRID, b)
        assert got == start
        assert np.all(self.GRID[got:] > b) and np.all(self.GRID[:got] <= b)

    def test_rig_start_per_bandwidth(self):
        b = np.array([1.0, 1.2, 0.1, 2.0, 3.0])
        np.testing.assert_array_equal(_domain_start(Kernel.RIG, self.GRID, b),
                                      [2, 2, 0, 4, 4])

    @pytest.mark.parametrize("kernel", [k for k in Kernel if k is not Kernel.RIG],
                             ids=lambda k: k.value)
    def test_other_kernels_keep_the_grid(self, kernel):
        b = np.array([0.1, 1.0, 3.0])
        got = _domain_start(kernel, self.GRID, b)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, [0, 0, 0])
        assert _domain_start(kernel, self.GRID, 3.0) == 0

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    @pytest.mark.parametrize("x", [-1.0, 0.0, 0.25, 0.5, 1.0],
                             ids=["x=-1", "x=0", "x=b/2", "x=b", "x=2b"])
    def test_grid_and_point_agree(self, kernel, x):
        """The estimator and the kernel reject a location with the same type."""
        b = 0.5
        s = Sample([0.5, 1.0, 2.0])
        on_grid = _raised(lambda: estimate_density(s, kernel, b, [x, x + 1.0]))
        at_point = _raised(lambda: log_kernel(kernel, x, b, 1.0))
        assert on_grid is at_point
        if x < 0.0 or (x == 0.0 and kernel is not Kernel.GE):
            assert on_grid is DomainError
        elif kernel is Kernel.RIG and x <= b:
            assert on_grid is BoundaryDegeneracyError
        else:
            assert on_grid is None


def _underflow_case():
    """Config E at n = 5000 on a 128-point grid: most ge/ge2 log K underflow."""
    sample = CONFIGURATIONS["E"].sample(5000, 7)
    return sample, default_grid(sample, 128)


class TestExpUnderflow:
    def test_cut_exponentiates_to_zero(self):
        assert np.exp(_EXP_ZERO) == 0.0
        assert np.exp(-745.0) > 0.0

    @pytest.mark.parametrize("masked", [False, True])
    def test_block_exp_bit_identical_to_numpy(self, masked):
        row = [-np.inf, _EXP_ZERO, np.nextafter(_EXP_ZERO, 0.0), -740.0, -700.0,
               0.0, np.nan, np.inf]
        block = np.array([row, row[::-1], np.roll(row, 3)])
        expect = np.exp(block)
        _exp_rows(block, masked)
        assert np.array_equal(block.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("kernel", list(Kernel))
    def test_estimate_bit_identical_to_unmasked_mean(self, kernel, monkeypatch):
        paths = []

        def recording(block, masked):
            paths.append(masked)
            _exp_rows(block, masked)

        monkeypatch.setattr(gekde.estimator, "_exp_rows", recording)
        sample, grid = _underflow_case()
        cases = [(sample, silverman_bandwidth(sample, kernel).value, grid), _wide_case()]
        for sample, b, grid in cases:
            grid = grid[grid > b] if kernel is Kernel.RIG else grid
            ev = _LogKernel(kernel, grid, b)
            expect = np.exp(ev.rows(ev.data(sample.values))).mean(axis=1)
            got = estimate_density(sample, kernel, b, grid).values
            assert np.array_equal(got, expect)
        assert set(paths) == {False, True}


#: The smallest sample that takes the data-window path: blocks hold up to 3
#: whole rows, or windowed rows up to 3 rows of entries on their windows' union.
_WINDOW_N = gekde.estimator._BLOCK_ELEMENTS // 2 + 1

#: A windowed row's relative distance from the full row's mean is at most
#: this times log2 n: both are pairwise sums of the same nonnegative terms.
_WINDOW_ROUNDING = 2 * np.finfo(float).eps


@functools.cache
def _window_sample(config_id):
    return CONFIGURATIONS[config_id].sample(_WINDOW_N, 31)


def _silverman_cases(label, sample, scale=0):
    """Each kernel at its Silverman bandwidth; data, b and grid scaled by 2**scale."""
    grid = default_grid(sample, 48)
    cases = []
    for kernel in Kernel:
        b = silverman_bandwidth(sample, kernel).value
        g = grid[grid > b] if kernel is Kernel.RIG else grid
        cases.append((f"{label}-{kernel.value}", kernel, Sample(np.ldexp(sample.values, scale)),
                      math.ldexp(b, scale), np.ldexp(g, scale)))
    return cases


def _window_cases():
    """(label, kernel, sample, b, grid) cases for the data-window path."""
    d, e = _window_sample("D"), _window_sample("E")
    cases = (_silverman_cases("D", d) + _silverman_cases("E", e)
             + _silverman_cases("E*2^40", e, 40) + _silverman_cases("E*2^-40", e, -40)
             # row peaks between -746 and -696: windows cut at the -746 floor
             + _silverman_cases("E*2^1008", e, 1008)
             + _silverman_cases("D-tied", Sample(np.ceil(d.values * 4.0) / 4.0)))
    # x = 0 (shape 1), x/b past 700 from x = 28, and rows beyond the data
    # (up to x = 50), all of whose log K underflow
    cases.append(("ge-edges", Kernel.GE, d, 0.04, np.linspace(0.0, 50.0, 41)))
    # nu < 1 where x < b: log K falls from the first datum on
    cases.append(("ge2-nu<1", Kernel.GE2, d, 2.0, np.linspace(0.1, 30.0, 40)))
    b = silverman_bandwidth(d, Kernel.RIG).value
    cases.append(("rig-edge", Kernel.RIG, d, b,
                  np.concatenate([[np.nextafter(b, np.inf), b * (1.0 + 1e-9)],
                                  np.linspace(1.01 * b, 40.0, 30)])))
    return cases


class TestDefaultGrid:
    def test_top_capped_at_the_largest_double(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = default_grid(Sample([1e308, 1.7e308]), 64)
        assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)
        assert grid[0] == 5e307 and grid[-1] == np.finfo(float).max

    def test_subnormal_data_are_rejected(self):
        # 1e-6 of the top and half the bottom round to 0, and linspace's
        # steps round past 1.1 times the top: no increasing grid above 0
        with pytest.raises(DomainError, match=r"no default grid of 8 increasing positive points "
                           r"for a sample from 5e-324 to 2e-323; rescale the data"):
            default_grid(Sample([5e-324, 1e-323, 2e-323]), 8)

    def test_data_near_1e_310_keep_their_grid(self):
        values = [1e-310, 2e-310, 5e-310]
        got = default_grid(Sample(values))
        assert got.size == 512 and got[0] == 5e-311 and np.all(np.diff(got) > 0.0)
        want = np.linspace(5e-311, 1.1 * 5e-310, 512)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_ordinary_grid_keeps_its_bits(self):
        values = np.random.default_rng(3).gamma(2.0, 1.5, 200)
        want = np.linspace(max(0.5 * values.min(), 1e-6 * values.max()), 1.1 * values.max(), 512)
        got = default_grid(Sample(values))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _window_means(log_k, start, stop):
    """Row g: the pairwise sum of exp over ``log_k[g, start[g]:stop[g]]``, over n.

    This is the estimate's contract; a whole row's window is (0, n), which
    gives the full row's mean.
    """
    with np.errstate(over="ignore"):
        sums = [np.add.reduce(np.exp(row[j0:j1])) for row, j0, j1 in zip(log_k, start, stop)]
    return np.array(sums) / log_k.shape[1]


def _row_cut(row):
    """The cut of a row of log K from its true peak: max(peak - 40 - ln n, -746).

    A windowed row drops only entries at or below it, which add less than
    e**-40 of the row sum.
    """
    return max(row.max() - 40.0 - math.log(row.size), _EXP_ZERO)


def _window_oracle(kernel, values, b, grid):
    """``_window_means`` of a one-sample estimate, from its full log K and data windows."""
    ev = _LogKernel(kernel, grid, b)
    dat = ev.data(values)
    start, stop = _data_windows(ev, dat, values.size)
    return _window_means(ev.rows(dat), start, stop)


class _MatrixRows:
    """Stands in for an evaluator: log K rows given as a matrix, indexed by datum."""

    def __init__(self, log_k):
        self.log_k = log_k

    def rows(self, dat, lo=0, hi=None):
        return self.log_k[lo:hi][:, dat[0]]


class TestDataWindow:
    """The data-window path, windowed rows and blocks of whole rows, against the full matrix."""

    @staticmethod
    def _full(kernel, sample, b, grid):
        ev = _LogKernel(kernel, grid, b)
        return ev, ev.data(sample.values), ev.rows(ev.data(sample.values))

    @pytest.mark.parametrize("case", _window_cases(), ids=lambda c: c[0])
    def test_bit_identical_and_skips_only_underflow(self, case):
        _, kernel, sample, b, grid = case
        ev, dat, log_k = self._full(kernel, sample, b, grid)
        start, stop = _data_windows(ev, dat, sample.n)
        got = estimate_density(sample, kernel, b, grid).values
        expect = _window_means(log_k, start, stop)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        for g in range(grid.size):
            cut = _row_cut(log_k[g])
            assert np.all(log_k[g, :start[g]] <= cut), g
            assert np.all(log_k[g, stop[g]:] <= cut), g
        # the window sum adds the full row's terms in another order: a few
        # ulps of pairwise-sum rounding from the full row's mean
        with np.errstate(over="ignore"):
            full = np.exp(log_k).mean(axis=1)
        finite = np.isfinite(full)
        assert np.array_equal(got[~finite], full[~finite], equal_nan=True)
        bound = _WINDOW_ROUNDING * np.log2(sample.n) * full[finite]
        assert np.all(np.abs(got[finite] - full[finite]) <= bound)

    def test_window_shapes_covered(self):
        n = _WINDOW_N
        seen = set()
        underflow_rows = 0
        for _, kernel, sample, b, grid in _window_cases():
            ev, dat, log_k = self._full(kernel, sample, b, grid)
            start, stop = _data_windows(ev, dat, n)
            seen |= {(bool(j0 == 0), bool(j1 == n)) for j0, j1 in zip(start, stop)}
            flat = np.max(log_k, axis=1) <= _EXP_ZERO
            underflow_rows += int(flat.sum())
            assert np.all(stop[flat] - start[flat] < 2 * _WINDOW_STRIDE)
            assert np.all(estimate_density(sample, kernel, b, grid).values[flat] == 0.0)
        # windows at the first datum, the last, both (whole rows) and neither
        assert seen == {(True, False), (False, True), (True, True), (False, False)}
        assert underflow_rows > 0

    def test_tail_and_non_finite_rows(self):
        class Rows:
            """Stands in for an evaluator: log K rows given as a matrix."""

            def __init__(self, log_k):
                self.log_k = log_k

            def rows(self, dat, lo=0, hi=None):
                # dat is one row of datum indices, at the columns the caller took
                return self.log_k[lo:hi][:, dat[0]]

        n = 1000
        # unimodal rows peaking at datum 500; the coarse peak, -240 at datum
        # 512, puts the cut at -240 - 40 - ln 1000 = -286.9
        log_k = np.tile(-20.0 * np.abs(np.arange(n) - 500.0), (6, 1))
        log_k[1, 0] = np.nan      # NaN at a coarse datum
        log_k[2, 512] = np.inf    # an infinite coarse maximum
        log_k[3] = -np.inf
        # rising to the last datum, past the last coarse one: above the -746
        # floor from datum 962, and nowhere
        log_k[4] = -20.0 * (n - 1.0 - np.arange(n))
        log_k[5] = log_k[4] - 800.0
        start, stop = _data_windows(Rows(log_k), np.arange(n)[None, :], n)
        # the coarse data are 0, 128, ..., 896
        assert (start[0], stop[0]) == (385, 640)
        assert start[1:4].tolist() == [0, 0, 0] and stop[1:4].tolist() == [n, n, n]
        assert start[4:].tolist() == [769, 769] and stop[4:].tolist() == [n, n]

    @pytest.mark.parametrize("peak, left, right", [
        (0.0, 20.0, 20.0),    # every coarse datum at or below the floor
        (0.0, 2.0, 2.0),
        (-300.0, 0.5, 8.0),
        (-650.0, 1.0, 0.25),  # a coarse peak within 40 + ln n of the floor
    ])
    def test_narrow_peak_between_coarse_data(self, peak, left, right):
        # the row peaks at datum 576, midway between the coarse data 512 and
        # 640, so its coarse maximum is below its true peak and the cut is
        # lower than the true peak's: the window holds every entry above
        # true peak - 40 - ln n
        n, p = 1000, 576
        i = np.arange(n)
        row = peak - np.where(i < p, left * (p - i), right * (i - p))
        start, stop = _data_windows(_MatrixRows(row[None, :]), i[None, :], n)
        assert row[::_WINDOW_STRIDE].max() < peak and stop[0] - start[0] < n
        above = np.flatnonzero(row > peak - 40.0 - math.log(n))
        assert start[0] <= above[0] and above[-1] < stop[0]

    def test_low_peak_keeps_the_floor(self):
        # a row whose peak lies within 40 + ln n of -746 is cut at -746;
        # 100 higher, the same row's cut follows its peak.  The coarse data
        # 384 and 640 are at -758.4 (low row), between -746 and
        # -720 - 40 - ln 1000 = -766.9, and at -658.4 (high row), above
        # -620 - 46.9; 256 and 768 are below both rows' cuts
        n = 1000
        i = np.arange(n)
        low = -720.0 - 0.3 * np.abs(i - 512.0)
        start, stop = _data_windows(_MatrixRows(np.stack([low, low + 100.0])), i[None, :], n)
        assert start.tolist() == [385, 257] and stop.tolist() == [640, 768]

    def test_row_buffer_zeroed_between_windows(self, monkeypatch):
        # each windowed row sums its own window of the block on the union of
        # its block's windows, and nothing outside it: no entry of a
        # neighbour's window, of the union or of an earlier block.  The
        # entries outside the windows are far above the cut here, so one
        # that entered a sum would show.  Consecutive windows shrink, grow,
        # shift right and left, jump to a disjoint range on either side,
        # start at 0, end at n, repeat, follow a whole row, and come first
        # in a sample
        n = _WINDOW_N
        windows = [(100, 5000), (200, 4000), (50, 6000), (3000, 9000), (1000, 7000),
                   (10000, 12000), (500, 900), (0, 3000), (14000, n), (0, n), (8000, 8100),
                   (8000, 8100), (8050, 8051), (0, 1), (n - 1, n), (5, n - 5)]
        # the second sample starts with the whole row and takes the rest reversed
        per_sample = [windows, [windows[9]] + windows[:9][::-1] + windows[10:][::-1]]
        rng = np.random.default_rng(8)
        log_k = rng.uniform(-60.0, -31.0, (2, len(windows), n))
        for r, sample_windows in enumerate(per_sample):
            for g, (j0, j1) in enumerate(sample_windows):
                log_k[r, g, j0:j1] = rng.uniform(-30.0, 0.0, j1 - j0)

        class Rows:
            """One sample's log K rows, with the windows its rows are given."""

            def __init__(self, r):
                self.log_k, self.windows = log_k[r], per_sample[r]

            def rows(self, dat, lo=0, hi=None, out=None):
                return self.log_k[lo:hi][:, dat[0]]

        class Stack:
            """Stands in for the evaluator of a stack of two samples."""

            def data(self, values):
                return np.broadcast_to(np.arange(n), (values.shape[0], 1, n))

            def take(self, r):
                return Rows(r)

        def windows_of(ev, dat, size):
            assert size == n
            return tuple(np.array(w, dtype=np.intp) for w in zip(*ev.windows))

        monkeypatch.setattr(gekde.estimator, "_LogKernel", lambda kernel, grid, b: Stack())
        monkeypatch.setattr(gekde.estimator, "_data_windows", windows_of)
        grid = np.arange(1.0, len(windows) + 1.0)
        got = gekde.estimator._estimate_batch(np.ones((2, n)), Kernel.GE, np.ones(2), grid)
        for r, sample_windows in enumerate(per_sample):
            start, stop = zip(*sample_windows)
            expect = _window_means(log_k[r], start, stop)
            assert np.array_equal(got[r].view(np.uint64), expect.view(np.uint64)), r

    def test_whole_row_blocks_read_their_own_probe(self, monkeypatch):
        # with n > 16384, as with fewer data, a block of whole rows is
        # exponentiated masked or plain by its own probe columns, whatever
        # the rows' data windows are.  Rows: above the cut (0, 2, 3, 7),
        # above it only near the probes (1), an inf at a coarse datum and
        # the rest below the cut (4), all -inf (5), and a data window (6)
        n = _WINDOW_N
        k = n // gekde.estimator._PROBE_DIVISOR
        log_k = np.random.default_rng(9).uniform(-30.0, 0.0, (8, n))
        log_k[1, k + 1:n - 1 - k] = -1000.0
        log_k[4] = -1000.0
        log_k[4, 64] = np.inf
        log_k[5] = -np.inf
        log_k[6] = -1000.0
        log_k[6, 100:3000] = -1.0

        class Rows:
            def rows(self, dat, lo=0, hi=None, out=None):
                # C-ordered, as the evaluator's blocks are: the pairwise row sum
                return log_k[lo:hi].take(dat[0], axis=1)

        class Stack:
            def data(self, values):
                return np.arange(n)[None, None, :]

            def take(self, r):
                return Rows()

        seen = []

        def recording(block, masked):
            seen.append((masked, not block[:, [k, n - 1 - k]].min() > _EXP_ZERO))
            _exp_rows(block, masked)

        monkeypatch.setattr(gekde.estimator, "_LogKernel", lambda kernel, grid, b: Stack())
        monkeypatch.setattr(gekde.estimator, "_exp_rows", recording)
        grid = np.arange(1.0, 9.0)
        got = gekde.estimator._estimate_batch(np.ones((1, n)), Kernel.GE, np.ones(1), grid)
        start, stop = _data_windows(Rows(), np.arange(n)[None, :], n)
        assert (stop - start < n).tolist() == [False] * 6 + [True, False]
        expect = _window_means(log_k, start, stop)
        assert np.array_equal(got[0].view(np.uint64), expect.view(np.uint64))
        # blocks of 3 rows: 0-2, 3-5 (masked: rows 4 and 5), then row 7
        assert seen == [(False, False), (True, True), (False, False)]

    @staticmethod
    def _recording_windows(monkeypatch):
        """Record each sample's whole-row mask as ``_estimate_batch`` gets its windows."""
        masks = []

        def recording(ev, dat, n):
            start, stop = _data_windows(ev, dat, n)
            masks.append(stop - start == n)
            return start, stop

        monkeypatch.setattr(gekde.estimator, "_data_windows", recording)
        return masks

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_whole_row_runs_in_blocks(self, kernel, monkeypatch):
        # a run of whole rows is combined in blocks of up to `height` rows:
        # runs of 1, 2, height and height + 1 rows (a full block and one
        # row), each followed by windowed rows
        n = _WINDOW_N
        height = 2 * gekde.estimator._BLOCK_ELEMENTS // n
        assert height > 2  # four run lengths, no two alike
        sample = _window_sample("D")
        b = silverman_bandwidth(sample, kernel).value
        fine = default_grid(sample, 256)
        ev = _LogKernel(kernel, fine, b)
        start, stop = _data_windows(ev, ev.data(sample.values), n)
        last = np.flatnonzero(stop - start == n)[-1]  # the last whole row, before windowed ones
        assert last >= height and not (stop - start == n)[last + 1:last + 3].any()
        masks = self._recording_windows(monkeypatch)
        for m in (1, 2, height, height + 1):
            grid = fine[last + 1 - m:last + 3]
            expect = _window_oracle(kernel, sample.values, b, grid)
            got = estimate_density(sample, kernel, b, grid).values
            assert masks[-1].tolist() == [True] * m + [False] * 2  # the run was seen
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), m

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_whole_row_runs_end_the_grid(self, kernel, monkeypatch):
        # at b = 0.02 a run of whole rows lies between windowed ones: grids
        # whose first row is windowed and whose last 1, 2, height and
        # height + 1 rows are whole, so the last run ends the grid
        n = _WINDOW_N
        height = 2 * gekde.estimator._BLOCK_ELEMENTS // n
        sample, b = _window_sample("D"), 0.02
        fine = default_grid(sample, 256)
        ev = _LogKernel(kernel, fine, b)
        start, stop = _data_windows(ev, ev.data(sample.values), n)
        whole = stop - start == n
        first = np.flatnonzero(whole)[0]
        assert first > 0 and whole[first:first + height + 1].all()
        masks = self._recording_windows(monkeypatch)
        for m in (1, 2, height, height + 1):
            grid = fine[first - 1:first + m]
            expect = _window_oracle(kernel, sample.values, b, grid)
            got = estimate_density(sample, kernel, b, grid).values
            assert masks[-1].tolist() == [False] + [True] * m
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), m

    @pytest.mark.parametrize("n, height", [(30000, 2), (32769, 1)])
    @pytest.mark.parametrize("kernel, config, b, size, rows", [
        # 3 windowed rows, a run of 4 whole rows, 9 windowed rows
        (Kernel.GE, "D", 0.02, 96, slice(4, 20)),
        # a run of 7 whole rows at Silverman's b, then 9 windowed rows
        (Kernel.RIG, "E", None, 48, slice(8, 24)),
    ], ids=["ge", "rig"])
    def test_larger_samples_take_lower_blocks(self, kernel, config, b, size, rows, n, height,
                                              monkeypatch):
        # from 21846 data on the whole-row blocks are 2 rows high, and from
        # 32769 on one row: no block is taller, and longer runs split
        heights = []

        def recording(block, masked):
            heights.append(block.shape[0])
            _exp_rows(block, masked)

        monkeypatch.setattr(gekde.estimator, "_exp_rows", recording)
        masks = self._recording_windows(monkeypatch)
        sample = CONFIGURATIONS[config].sample(n, 31)
        b = b or silverman_bandwidth(sample, kernel).value
        grid = default_grid(sample, size)
        grid = (grid[grid > b] if kernel is Kernel.RIG else grid)[rows]
        expect = _window_oracle(kernel, sample.values, b, grid)
        got = estimate_density(sample, kernel, b, grid).values
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        runs = "".join(".W"[w] for w in masks[0].tolist()).split(".")
        assert height == max(1, 2 * gekde.estimator._BLOCK_ELEMENTS // n)
        assert max(map(len, runs)) > height and max(heights) == height
        assert sum(heights) == masks[0].sum() and not masks[0].all()

    @pytest.mark.parametrize("kernel", [Kernel.GAM1, Kernel.IG, Kernel.RIG],
                             ids=lambda k: k.value)
    def test_stack_of_whole_and_windowed_samples(self, kernel, monkeypatch):
        # the block buffers serve every sample of a stack: one sample with
        # only whole rows and one with only windowed rows, in either order,
        # each give the bits of their one-sample estimate
        d, e = _window_sample("D"), _window_sample("E")
        wide = silverman_bandwidth(d, kernel).value
        grid = default_grid(d, 48)
        grid = grid[grid > wide]
        masks = self._recording_windows(monkeypatch)
        for pair in ([(d, wide), (e, 1e-4)], [(e, 1e-4), (d, wide)]):
            values = np.stack([sample.values for sample, _ in pair])
            b = np.array([bw for _, bw in pair])
            got = gekde.estimator._estimate_batch(values, kernel, b, grid)
            kinds = ["whole" if w.all() else "windowed" if not w.any() else "mixed"
                     for w in masks[-2:]]
            assert kinds == (["whole", "windowed"] if pair[0][0] is d else ["windowed", "whole"])
            for r, (sample, bw) in enumerate(pair):
                one = estimate_density(sample, kernel, bw, grid).values
                assert np.array_equal(got[r].view(np.uint64), one.view(np.uint64)), r

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_grid_split_invariance(self, kernel):
        sample = _window_sample("E")
        b = silverman_bandwidth(sample, kernel).value
        grid = default_grid(sample, 48)
        grid = grid[grid > b] if kernel is Kernel.RIG else grid
        whole = estimate_density(sample, kernel, b, grid).values
        parts = [estimate_density(sample, kernel, b, piece).values
                 for piece in np.split(grid, [1, 7, 20, 21])]
        assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("n, config, kernel", [
        (20000, "E", Kernel.GE), (20000, "E", Kernel.RIG), (_WINDOW_N, "D", Kernel.GE2),
    ], ids=["20000-E-ge", "20000-E-rig", "window_n-D-ge2"])
    def test_windowed_runs_in_blocks(self, n, config, kernel, monkeypatch):
        # a run of windowed rows is combined in blocks on the union of their
        # windows: a row joins while rows x union width fits one layer of
        # height rows of n, so fewer calls than rows, and the run splits
        # where the next row would not fit
        calls, windows = [], []

        def recording_rows(ev, dat, lo=0, hi=None, out=None):
            if out is not None:  # a block of the loop, not a probe of _data_windows
                calls.append((lo, hi, dat.shape[-1]))
            return rows(ev, dat, lo, hi, out)

        def recording_windows(ev, dat, size):
            windows.append(_data_windows(ev, dat, size))
            return windows[-1]

        rows = _LogKernel.rows
        sample = CONFIGURATIONS[config].sample(n, 31)
        b = silverman_bandwidth(sample, kernel).value
        grid = default_grid(sample, 96)
        grid = grid[grid > b] if kernel is Kernel.RIG else grid
        expect = _window_oracle(kernel, sample.values, b, grid)
        monkeypatch.setattr(_LogKernel, "rows", recording_rows)
        monkeypatch.setattr(gekde.estimator, "_data_windows", recording_windows)
        got = estimate_density(sample, kernel, b, grid).values
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        (start, stop), = windows
        windowed = stop - start < n
        budget = (2 * gekde.estimator._BLOCK_ELEMENTS // n) * n
        blocks = [(lo, hi, width) for lo, hi, width in calls if windowed[lo]]
        his = [hi for _, hi, _ in calls]
        assert [lo for lo, _, _ in calls] == [0] + his[:-1] and his[-1] == grid.size
        assert sum(hi - lo for lo, hi, _ in blocks) == windowed.sum()
        assert 0 < len(blocks) < windowed.sum()
        splits = 0
        for lo, hi, width in blocks:
            assert windowed[lo:hi].all()
            assert width == stop[lo:hi].max() - start[lo:hi].min()
            assert (hi - lo) * width <= budget
            if hi < grid.size and windowed[hi]:  # the run goes on in another block
                assert (hi + 1 - lo) * (max(stop[lo:hi + 1]) - min(start[lo:hi + 1])) > budget
                splits += 1
        assert splits > 0

    def test_reached_only_by_one_row_blocks(self, monkeypatch):
        calls = []

        def recording(ev, dat, n):
            calls.append(n)
            return _data_windows(ev, dat, n)

        monkeypatch.setattr(gekde.estimator, "_data_windows", recording)
        sample = _window_sample("D")
        estimate_density(sample, Kernel.GE, 0.5, default_grid(sample, 8))
        assert calls == [_WINDOW_N]
        calls.clear()
        small = Sample(sample.values[:_WINDOW_N - 1])
        estimate_density(small, Kernel.GE, 0.5, default_grid(small, 8))
        # a benchmark-sized Monte Carlo cell: n = 100 on a 256-point grid
        run_experiment(ExperimentConfig("F", n=100, replications=8, seed=3, grid_size=256))
        assert calls == []


@pytest.mark.parametrize("height, n", [(3, 20000), (1, _WINDOW_N), (256, 100), (512, 100),
                                       (5, 7), (1, 2)])
def test_block_buffers_start_on_cache_lines(height, n):
    # both layers of the reused block buffer are C-ordered and start on a
    # 64-byte line, also where height * n is not a multiple of 8
    buf = gekde.estimator._block_buffers(height, n)
    assert buf.shape == (2, height, n) and buf.dtype == np.float64
    for layer in (buf[0], buf[1], buf[0, :1], buf[1, :1]):
        assert layer.flags.c_contiguous and layer.ctypes.data % 64 == 0


class TestGridSplitToOnePoint:
    """The GE and gamma estimates keep their bits on any split of the grid.

    A one-point grid is a one-row block, whose combine is a one-row matrix
    product; with n = 200 the whole grid spans two blocks of several rows,
    with n = 16385 windowed rows go in blocks on the union of their
    windows and whole rows in blocks of up to 3.
    """

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2],
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("n, size", [(200, 400), (_WINDOW_N, 40)])
    def test_down_to_one_point_grids(self, kernel, n, size):
        sample = CONFIGURATIONS["D"].sample(n, 12)
        b = silverman_bandwidth(sample, kernel).value
        grid = default_grid(sample, size)
        whole = estimate_density(sample, kernel, b, grid).values
        assert size > 2 * gekde.estimator._BLOCK_ELEMENTS // n
        for cuts in ([1, 2, 3, size - 1], np.arange(1, size)):
            parts = [estimate_density(sample, kernel, b, piece).values
                     for piece in np.split(grid, cuts)]
            got = np.concatenate(parts)
            assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
def test_small_samples_take_the_one_budget(kernel, monkeypatch):
    # below the window threshold the whole-row blocks also hold up to
    # 2 * _BLOCK_ELEMENTS entries: 32 rows at n = 2000, where the grid's
    # split keeps every bit
    heights = []

    def recording(block, masked):
        heights.append(block.shape[0])
        _exp_rows(block, masked)

    monkeypatch.setattr(gekde.estimator, "_exp_rows", recording)
    sample = CONFIGURATIONS["E"].sample(2000, 31)
    b = silverman_bandwidth(sample, kernel).value
    grid = default_grid(sample, 100)
    grid = grid[grid > b] if kernel is Kernel.RIG else grid
    whole = estimate_density(sample, kernel, b, grid).values
    full, rest = divmod(grid.size, 32)
    assert heights == [32] * full + [rest] * (rest > 0) and full >= 2
    parts = [estimate_density(sample, kernel, b, piece).values
             for piece in np.split(grid, [1, 31, 33, 70])]
    assert np.array_equal(np.concatenate(parts).view(np.uint64), whole.view(np.uint64))


class TestGroupedBlocks:
    """Whole grids of several samples of a stack share a block, with one-sample bits.

    At n = 100 a 256-point grid is 25600 entries, and two of them fit one
    layer of 2 * ``_BLOCK_ELEMENTS``: a stack of 5 samples goes in blocks of
    2, 2 and 1 samples.  Each estimate is compared with its one-sample
    ``estimate_density``, which has a stack of one and keeps the row blocks.
    """

    @staticmethod
    def _batch_and_singles(kernel, b, grid, reps, n=100):
        samples = [CONFIGURATIONS["B"].sample(n, seed) for seed in range(reps)]
        b = np.array([silverman_bandwidth(s, kernel).value for s in samples]) if b is None else b
        singles = [estimate_density(s, kernel, bw, grid).values for s, bw in zip(samples, b)]
        return np.stack([s.values for s in samples]), b, singles

    @staticmethod
    def _assert_one_sample_bits(got, singles):
        for r, one in enumerate(singles):
            assert _hexes(got[r]) == _hexes(one), r

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_blocks_of_two_samples(self, kernel, monkeypatch):
        grid = np.linspace(1.0, 12.0, 256)  # above every rig b of these samples
        values, b, singles = self._batch_and_singles(kernel, None, grid, 5)
        assert grid[0] > b.max()
        shapes = []

        def recording(block, masked):
            shapes.append(block.shape)
            _exp_rows(block, masked)

        monkeypatch.setattr(gekde.estimator, "_exp_rows", recording)
        got = gekde.estimator._estimate_batch(values, kernel, b, grid)
        assert shapes == [(2, 256, 100), (2, 256, 100), (1, 256, 100)]
        self._assert_one_sample_bits(got, singles)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_one_point_grids_stay_row_blocks(self, kernel):
        # a stacked product of one-row slices would go to gemv, which sums
        # in another order than gemm
        for x in np.linspace(2.0, 12.0, 9):
            grid = np.array([x])
            values, b, singles = self._batch_and_singles(kernel, None, grid, 3)
            self._assert_one_sample_bits(
                gekde.estimator._estimate_batch(values, kernel, b, grid), singles)

    @pytest.mark.parametrize("b", [None, np.array([0.01, 0.015, 0.02])],
                             ids=["shape_one", "regrouped"])
    def test_ge_special_rows(self, b):
        # the grid starts at x = 0, where the ge shape is 1; at the small b
        # the last rows also have x/b beyond 700 and are regrouped
        grid = np.linspace(0.0, 12.0, 256)
        values, b, singles = self._batch_and_singles(Kernel.GE, b, grid, 3)
        ev = _LogKernel(Kernel.GE, grid, b[:, None])
        assert bool((ev.side > 700.0).any()) == (b.max() < 0.1)
        self._assert_one_sample_bits(
            gekde.estimator._estimate_batch(values, Kernel.GE, b, grid), singles)

    def test_subnormal_z_over_b(self):
        # the datum 5e-324 has z/b = 0 at every b here: L is log z - log b.
        # ge has shape 1 at x = 0, and only there; ge2 has shapes below 1
        values = np.array([[5e-324, 1.0], [5e-324, 3.0]])
        for kernel, b, grid in ((Kernel.GE, [10.0, 1e10], [0.0, 0.5, 20.0]),
                                (Kernel.GE2, [2.0, 4.0], [0.4, 2.0, 4.0])):
            b, grid = np.array(b), np.array(grid)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = gekde.estimator._estimate_batch(values, kernel, b, grid)
                singles = [estimate_density(Sample(v), kernel, bw, grid).values
                           for v, bw in zip(values, b)]
            assert np.isfinite(got).all(), kernel
            self._assert_one_sample_bits(got, singles)


class TestOptimalGe2Bandwidth:
    def test_unit_exponential_roughness(self):
        # integral of f''^2 for the unit exponential is 1/2
        bw = optimal_bandwidth_ge2(0.5, 100)
        expect = (9.0 / (math.pi ** 4 * 0.5)) ** 0.2 * 100 ** -0.2
        assert bw.value == pytest.approx(expect, rel=1e-14)
        assert bw.value == pytest.approx(0.2840, abs=5e-5)
        assert bw.method == "optimal_ge2"

    def test_sample_size_power_law(self):
        b1 = optimal_bandwidth_ge2(0.5, 100).value
        b2 = optimal_bandwidth_ge2(0.5, 3200).value
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_count_beyond_double_range(self):
        # n converts to a float below 2**1020 and is rejected from there on
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = float((9 / mp.pi ** 4) ** (mp.mpf(1) / 5) * mp.mpf(10) ** -60)
        got = optimal_bandwidth_ge2(1.0, 10 ** 300).value
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        for n in (2 ** 1020, 10 ** 400, 10 ** 2000):
            with pytest.raises(DomainError, match=r"n must be below 2\*\*1020"):
                optimal_bandwidth_ge2(1.0, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_bandwidth_ge2(0.0, 100)
        with pytest.raises(DomainError):
            optimal_bandwidth_ge2(-1.0, 100)

    def test_roughness_where_pi4_times_it_overflows(self):
        # 40-digit mpmath; pi**4 * 1.9e306 is beyond the double range, b* is not
        want = float.fromhex("0x1.693dadcdd2948p-206")
        assert optimal_bandwidth_ge2(1.9e306, 100).value == pytest.approx(want, rel=1e-14,
                                                                          abs=0.0)

    @pytest.mark.parametrize("roughness", [5e-324, 1e-311])
    def test_subnormal_roughness_overflows(self, roughness):
        with pytest.raises(OptimizationError, match="overflows the double range"):
            optimal_bandwidth_ge2(roughness, 100)


class TestNumericGeBandwidth:
    def test_quadratic_case_closed_form(self):
        # with a1 = 0 the stationary point is (8 g^2 a2 n)^(-1/3)
        bw = numeric_bandwidth_ge(0.0, 1.0, 100)
        expect = (800.0 * G * G) ** (-1.0 / 3.0)
        assert bw.value == pytest.approx(expect, rel=1e-6)
        assert bw.method == "numeric_ge"

    def test_local_minimum_certificate(self):
        bw = numeric_bandwidth_ge(-0.002, 0.03, 250)
        b = bw.value

        def mise(v):
            return (G * (G * G + math.pi ** 2 / 6.0) * -0.002 * v + G * G * 0.03) * v * v \
                + 1.0 / (4.0 * 250 * v)

        assert mise(b) <= mise(b * (1.0 + 1e-4))
        assert mise(b) <= mise(b * (1.0 - 1e-4))

    def test_domain(self):
        with pytest.raises(DomainError):
            numeric_bandwidth_ge(0.0, 0.0, 100)
        with pytest.raises(DomainError):
            numeric_bandwidth_ge(0.0, -1.0, 100)

    def test_no_interior_minimum(self):
        # strongly negative cubic coefficient: MISE decreases for every b
        with pytest.raises(OptimizationError):
            numeric_bandwidth_ge(-1.0, 1e-6, 100)

    @staticmethod
    def _coefficients(a1, a2):
        return G * (G * G + math.pi ** 2 / 6.0) * a1, G * G * a2

    # +-1e-17 is what the plug-in integrals give for near-symmetric densities
    @pytest.mark.parametrize("a1", [0.0, 1e-17, -1e-17, -0.002, 1.0, 53.0])
    def test_stationary_point(self, a1):
        a2, n = 0.03, 250
        c3, c2 = self._coefficients(a1, a2)
        b = numeric_bandwidth_ge(a1, a2, n).value
        assert abs(12.0 * n * c3 * b ** 4 + 8.0 * n * c2 * b ** 3 - 1.0) <= 1e-13

    def test_existence_bound(self):
        # with b0 = (8 n c2)**(-1/3), an interior minimum exists iff
        # kappa = 12 n c3 b0**4 > -(3/4) 4**(-1/3)
        a2, n = 0.03, 250
        _, c2 = self._coefficients(0.0, a2)
        b0 = (8.0 * n * c2) ** (-1.0 / 3.0)
        kappa_min = -0.75 * 4.0 ** (-1.0 / 3.0)

        def a1_at(kappa):
            return kappa / (12.0 * n * b0 ** 4) / (G * (G * G + math.pi ** 2 / 6.0))

        with pytest.raises(OptimizationError):
            numeric_bandwidth_ge(a1_at(kappa_min * (1.0 + 1e-9)), a2, n)
        b = numeric_bandwidth_ge(a1_at(kappa_min * (1.0 - 1e-9)), a2, n).value
        # the minimum merges with the maximum at t = 4**(1/3) on the bound
        assert b == pytest.approx(4.0 ** (1.0 / 3.0) * b0, rel=1e-3)

    def test_smallest_positive_a2(self):
        # g**2 a2 underflows to 0 here; (8 n c2)**(-1/3) must not divide by it
        b = numeric_bandwidth_ge(0.0, 5e-324, 2).value
        assert 1e100 < b < math.inf

    @staticmethod
    def _exact_residual(a1, a2, n, b):
        """(12 n c3 b**4 + 8 n c2 b**3) - 1 in exact rational arithmetic: no overflow."""
        c3, c2 = (Fraction(G * (G * G + math.pi ** 2 / 6.0)) * Fraction(a1),
                  Fraction(G * G) * Fraction(a2))
        bf = Fraction(b)
        return float(12 * n * c3 * bf ** 4 + 8 * n * c2 * bf ** 3 - 1)

    # 8 n a2 g**2 overflows in the first; kappa (about 8e307) in the second
    @pytest.mark.parametrize("a1, a2, expect", [(0.0, 1e308, 3.35e-104),
                                                (1e308, 1.0, 1.64e-78)])
    def test_optimum_past_overflowing_products(self, a1, a2, expect):
        b = numeric_bandwidth_ge(a1, a2, 100).value
        assert b == pytest.approx(expect, rel=1e-3)
        assert abs(self._exact_residual(a1, a2, 100, b)) <= 1e-13

    # b0 from a cube root, not from ** (-1/3), whose rounded exponent is
    # off by 4e-14 here; the factored b0 where 8 n a2 g**2 overflows, and
    # where it is subnormal
    @pytest.mark.parametrize("a1, a2, n", [(1e300, 1e300, 100), (0.0, 1e308, 100),
                                           (0.0, 5e-324, 2)])
    def test_cube_root_residual(self, a1, a2, n):
        b = numeric_bandwidth_ge(a1, a2, n).value
        assert abs(self._exact_residual(a1, a2, n, b)) <= 1e-15

    @pytest.mark.parametrize("a1", [1e20, 1e25, 1e60, 1e200, 1.7e308])
    def test_large_kappa(self, a1):
        # the quartic term dominates; from about a1/a2 = 1e60 brentq on
        # (0, 4**(1/3)] needs more than its 100 steps
        b = numeric_bandwidth_ge(a1, 1e-3, 100).value
        assert abs(self._exact_residual(a1, 1e-3, 100, b)) <= 1e-13

    def test_optimum_outside_double_range(self):
        # b0 = (8 n c2)**(-1/3) would be about 7e-334, below the smallest
        # subnormal; no n from 2**1020 on reaches the optimiser
        with pytest.raises(DomainError, match=r"n must be below 2\*\*1020"):
            numeric_bandwidth_ge(1.0, 1e300, 10 ** 700)

    @staticmethod
    def _mp_optimum(a1, a2, n):
        """The first root of ``kappa t**4 + t**3 = 1`` times b0, at 60 digits."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            g = +mp.euler
            c3, c2 = g * (g * g + mp.pi ** 2 / 6) * mp.mpf(a1), g * g * mp.mpf(a2)
            b0 = (8 * n * c2) ** (-mp.mpf(1) / 3)
            kappa = 12 * n * c3 * b0 ** 4
            return float(b0 * mp.findroot(lambda t: kappa * t ** 4 + t ** 3 - 1, 1))

    # from 2**1020 on, where 8 n or 12 n g c could overflow, n is rejected
    @pytest.mark.parametrize("n", [10 ** 308, 10 ** 400], ids=["1e308", "1e400"])
    def test_count_past_overflow(self, n):
        with pytest.raises(DomainError, match=r"n must be below 2\*\*1020"):
            numeric_bandwidth_ge(1.0, 1.0, n)

    def test_closed_form_count_past_overflow(self):
        # kappa, about 4e290, is far above 2**72: b = (12 n c3)**(-1/4)
        b = numeric_bandwidth_ge(1e-10, 1e-300, 10 ** 300).value
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            g = +mp.euler
            want = (12 * mp.mpf(10) ** 300 * g * (g * g + mp.pi ** 2 / 6) * mp.mpf(1e-10)) ** -0.25
        assert b == pytest.approx(float(want), rel=1e-15, abs=0.0)


class TestSelectBandwidth:
    """One rule name to one bandwidth: Silverman's, or a gamma-reference plug-in."""

    @pytest.mark.parametrize("method", ["oracle", "Silverman"])
    def test_bandwidth_names_a_known_method(self, method):
        with pytest.raises(DomainError, match="unknown bandwidth method"):
            Bandwidth(1.0, method)

    @staticmethod
    def _mp_functionals(k):
        """The integrals of f''**2 and f'**2 for Gamma(k, 1) by mpmath quadrature, 30 digits."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            k = mp.mpf(k)
            log_norm = mp.loggamma(k)

            def squared(x, order):
                f = mp.exp((k - 1) * mp.log(x) - x - log_norm)
                s1 = (k - 1) / x - 1
                return (f * s1 if order == 1 else f * (s1 * s1 - (k - 1) / (x * x))) ** 2

            out = []
            for order in (2, 1):
                # the integrand is x**(p - 1) at 0; x = t**(1/p) makes it smooth on [0, 1]
                p = 2 * k - 2 * order - 1
                head = mp.quad(lambda t: squared(t ** (1 / p), order) * t ** (1 / p - 1) / p,
                               [0, 1])
                out.append(head + mp.quad(lambda x: squared(x, order), [1, k, 2 * k, mp.inf]))
            return out

    # per k, the relative error of TrueDensity.roughness's quad on the same two
    # integrals against 50-digit mpmath, floored at 4 ulps: no worse than quad
    @pytest.mark.parametrize("k, bound2, bound1", [
        (2.51, 6.4e-13, 2.8e-14),
        (2.6, 9e-16, 9e-16),
        (3.0, 9e-16, 9e-16),
        (7.0, 9e-16, 9e-16),
        (400.0, 3.7e-13, 3.5e-13),
        (4000.0, 1.3e-11, 1.1e-11),
        (1e6, 8.0e-10, 1.1e-9),
    ])
    def test_closed_forms_match_mpmath(self, k, bound2, bound1):
        want2, want1 = self._mp_functionals(k)
        got2, got1 = _gamma_functional(k, 2), _gamma_functional(k, 1)
        assert abs(got2 - want2) <= bound2 * want2
        assert abs(got1 - want1) <= bound1 * want1

    @pytest.mark.parametrize("k", [2.51, 3.0, 10.0, 57.3, 399.9, 400.0, 4000.0, 1e6, 1e9])
    def test_closed_forms_within_5e_15(self, k):
        # against the closed forms in 50 digits at the same double k
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            kk = mp.mpf(k)
            a2 = (mp.gamma(kk + 0.5) / mp.gamma(kk) / mp.sqrt(mp.pi)
                  / ((2 * kk - 1) * (2 * kk - 3)))
            for order, want in ((1, a2), (2, 3 * a2 / (2 * kk - 5))):
                got = _gamma_functional(k, order)
                assert abs((mp.mpf(got) - want) / want) <= 5e-15, order

    def test_silverman_is_silverman_bandwidth(self):
        s = GammaDensity(3.0, 1.0).sample(100, 3)
        for kernel in Kernel:
            want = silverman_bandwidth(s, kernel)
            for got in (select_bandwidth(s, kernel), select_bandwidth(s, kernel, "silverman")):
                assert (got.value.hex(), got.method) == (want.value.hex(), "silverman")

    def test_plug_in_rules(self):
        # the plug-in optima of the fitted Gamma(k, theta): the unit-scale h times theta
        s = GammaDensity(3.0, 2.0).sample(500, 4)
        m, v = float(np.mean(s.values)), float(np.var(s.values, ddof=1))
        k, theta = m * m / v, v / m
        h2 = optimal_bandwidth_ge2(_gamma_functional(k, 2), s.n).value * theta
        h1 = numeric_bandwidth_ge(0.0, _gamma_functional(k, 1), s.n).value * theta
        for method, h in (("optimal_ge2", h2), ("numeric_ge", h1)):
            ge = select_bandwidth(s, Kernel.GE, method)
            gam1 = select_bandwidth(s, Kernel.GAM1, method)
            assert (ge.method, gam1.method) == (method, method)
            assert ge.value == pytest.approx(h, rel=1e-14)
            assert gam1.value == pytest.approx(h * h, rel=1e-14)

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_ge_subnormal_h_raises(self, kernel):
        # the plug-in's h is subnormal here too (the fitted shape is 2.25)
        with pytest.raises(DomainError, match=f"{kernel.value} bandwidth: h underflows"):
            select_bandwidth(Sample([1e-320, 3e-320, 5e-320]), kernel, "numeric_ge")

    @pytest.mark.parametrize("method", ["silverman", "optimal_ge2", "numeric_ge"])
    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_ge_normal_h_keeps_its_bits(self, kernel, method):
        # on a 1e-300 scale h is a normal double, and b = h is h scaled exactly
        s = GammaDensity(3.0, 2.0).sample(500, 4)
        tiny = Sample(np.ldexp(s.values, -997))
        want = math.ldexp(select_bandwidth(s, kernel, method).value, -997)
        assert select_bandwidth(tiny, kernel, method).value.hex() == want.hex()

    @pytest.mark.parametrize("method", ["fixed", "optimal-ge2", "lscv", None, 3])
    def test_not_a_rule(self, method):
        with pytest.raises(DomainError, match="no bandwidth rule"):
            select_bandwidth(unit_sd_sample(), Kernel.GE, method)

    @pytest.mark.parametrize("method", ["optimal_ge2", "numeric_ge"])
    def test_plug_in_degenerate_sample(self, method):
        with pytest.raises(DegenerateSampleError, match="plug-in reference"):
            select_bandwidth(Sample([1.0, 1.0]), Kernel.GE, method)


class TestAsymptoticFormulas:
    def test_ge_interior(self):
        b, f1, f2 = 0.05, 0.3, -0.7
        expect = b * G * f1 + 0.5 * (G * G + math.pi ** 2 / 6.0) * b * b * f2
        assert asymptotic_bias(Kernel.GE, INTERIOR, b, f1, f2) == pytest.approx(expect, rel=1e-15)

    def test_ge_interior_vanishing_slope(self):
        b, f2 = 0.05, -0.7
        expect = 0.5 * (G * G + math.pi ** 2 / 6.0) * b * b * f2
        assert asymptotic_bias(Kernel.GE, INTERIOR, b, 0.0, f2) == pytest.approx(expect, rel=1e-15)

    def test_ge_boundary_at_zero(self):
        # psi(2) + gamma = 1, so the leading constant collapses to b*f1
        b, f1 = 0.02, -1.0
        got = asymptotic_bias(Kernel.GE, boundary_regime(0.0), b, f1, 123.0)
        assert got == pytest.approx(b * f1, rel=1e-12)

    # from c = 18 the bracket is gamma + e^-c / 2: e^c overflows above 709.78,
    # and psi(e^c + 1) - c loses its digits to cancellation as c grows
    @pytest.mark.parametrize("c", [0.0, 1.5, 30.0, 36.0, 50.0, 700.0, 710.0, 1e308])
    def test_ge_boundary_bracket(self, c):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            cm = mp.mpf(c)
            if c > 1e4:  # the terms after e^-c / 2 are below 1e-8000
                want = float(mp.euler + mp.exp(-cm) / 2)
            else:
                want = float(mp.digamma(mp.exp(cm) + 1) + mp.euler - cm)
        got = asymptotic_bias(Kernel.GE, boundary_regime(c), 1.0, 1.0, 0.0)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_ge2_interior(self):
        assert asymptotic_bias(Kernel.GE2, INTERIOR, 0.1, 5.0, 1.0) == pytest.approx(
            math.pi ** 2 / 1200.0, rel=1e-14)

    @pytest.mark.parametrize("kind", ["edge", "Interior", ""])
    def test_unknown_regime_kind(self, kind):
        with pytest.raises(DomainError, match="regime kind"):
            AsymptoticRegime(kind)

    def test_ge2_boundary_undefined(self):
        with pytest.raises(DomainError):
            asymptotic_bias(Kernel.GE2, boundary_regime(0.0), 0.1, 1.0, 1.0)

    def test_other_kernels_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_bias(Kernel.GAM1, INTERIOR, 0.1, 1.0, 1.0)

    def test_variance_interior(self):
        assert asymptotic_variance(INTERIOR, 0.1, 100, 1.0) == pytest.approx(1.0 / 40.0)

    def test_variance_count_beyond_double_range(self):
        # below 2**1020 n divides as a float; from there on it is rejected
        for n in (100, 10 ** 300, 2 ** 1019 + 1):
            want = 1.0 / (4.0 * 0.1 * n)
            assert asymptotic_variance(INTERIOR, 0.1, n, 1.0).hex() == want.hex()
        for n in (2 ** 1020, 10 ** 400):
            with pytest.raises(DomainError, match=r"n must be below 2\*\*1020"):
                asymptotic_variance(INTERIOR, 2.0 ** -40, n, 1.0)

    def test_variance_boundary_zero(self):
        got = asymptotic_variance(boundary_regime(0.0), 0.1, 100, 1.0)
        assert got == pytest.approx(1.0 / 20.0)

    def test_variance_boundary_factor_monotone_to_one(self):
        cs = np.linspace(0.0, 30.0, 40)
        factors = [asymptotic_variance(boundary_regime(c), 0.1, 100, 1.0) for c in cs]
        assert np.all(np.diff(factors) < 0.0)
        assert factors[-1] == pytest.approx(asymptotic_variance(INTERIOR, 0.1, 100, 1.0), rel=1e-12)


class _KernelAsDensity:
    """Adapter: a kernel at fixed (x, b) used as an integration weight."""

    def __init__(self, kernel, x, b):
        self.kernel = kernel
        self.x = x
        self.b = b

    def pdf(self, z):
        return kernel_pdf(self.kernel, self.x, self.b, z)


class TestExactMoments:
    def test_self_density_positive(self):
        f = _KernelAsDensity(Kernel.GE, 1.0, 0.2)
        m = exact_estimator_moments(Kernel.GE, 1.0, 0.2, f, n=1)
        assert m.mean > 0.0
        assert m.variance >= 0.0

    def test_first_order_bias_constant(self):
        # away from the mode of Gamma(3,1) the bias/b ratio approaches g*f'(x)
        f = GammaDensity(3.0, 1.0)
        x, b = 1.0, 0.004
        m = exact_estimator_moments(Kernel.GE, x, b, f, n=1)
        ratio = (m.mean - f.pdf(x)) / b
        assert ratio == pytest.approx(G * f.pdf_d1(x), rel=0.02)

    def test_variance_scales_with_n(self):
        f = GammaDensity(3.0, 1.0)
        m1 = exact_estimator_moments(Kernel.GE, 2.0, 0.05, f, n=1)
        m10 = exact_estimator_moments(Kernel.GE, 2.0, 0.05, f, n=10)
        assert m10.variance == pytest.approx(m1.variance / 10.0, rel=1e-12)
        assert m1.mean == pytest.approx(m10.mean, rel=1e-13)

    def test_count_beyond_double_range(self):
        f = GammaDensity(3.0, 1.0)
        one = exact_estimator_moments(Kernel.GE, 1.0, 1.0, f, 1)
        for n in (10 ** 300, 2 ** 1019 + 1):  # divided as a float, with the same bits
            assert exact_estimator_moments(Kernel.GE, 1.0, 1.0, f, n).variance.hex() == (
                one.variance / n).hex()
        for n in (2 ** 1020, 10 ** 400):
            with pytest.raises(DomainError, match=r"n must be below 2\*\*1020"):
                exact_estimator_moments(Kernel.GE, 1.0, 1.0, f, n)

    @pytest.mark.parametrize("n", [0, -5])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(DomainError, match="n must be at least 1"):
            exact_estimator_moments(Kernel.GE, 2.0, 0.1, GammaDensity(3.0, 1.0), n)

    @pytest.mark.parametrize("b", [Bandwidth(0.1), "0.1", np.float64(0.1)],
                             ids=["Bandwidth", "str", "float64"])
    def test_bandwidth_coerced_like_a_float(self, b):
        f = GammaDensity(3.0, 1.0)
        ref = exact_estimator_moments(Kernel.GE, 2.0, 0.1, f, 100)
        m = exact_estimator_moments(Kernel.GE, 2.0, b, f, 100)
        assert (m.mean.hex(), m.variance.hex()) == (ref.mean.hex(), ref.variance.hex())

    @pytest.mark.parametrize("b", ["wide", None, [0.1], -0.1, math.nan])
    def test_bad_bandwidth_is_domain_error(self, b):
        with pytest.raises(DomainError):
            exact_estimator_moments(Kernel.GE, 2.0, b, GammaDensity(3.0, 1.0), 100)

    @pytest.mark.parametrize("x", ["two", None, [2.0, 3.0], 2j])
    def test_non_number_x_is_domain_error(self, x):
        with pytest.raises(DomainError, match="real number"):
            exact_estimator_moments(Kernel.GE2, x, 0.1, GammaDensity(3.0, 1.0), 100)

    @pytest.mark.parametrize("x", [np.float64(2.0), 2, "2.0"], ids=["float64", "int", "str"])
    def test_x_coerced_like_a_float(self, x):
        f = GammaDensity(3.0, 1.0)
        ref = exact_estimator_moments(Kernel.IG, 2.0, 0.1, f, 100)
        m = exact_estimator_moments(Kernel.IG, x, 0.1, f, 100)
        assert (m.mean.hex(), m.variance.hex()) == (ref.mean.hex(), ref.variance.hex())

    def test_point_validated_before_bracket(self):
        # the ig bracket takes x sqrt(b x): a negative x must fail as a domain error
        with pytest.raises(DomainError):
            exact_estimator_moments(Kernel.IG, -1.0, 0.1, GammaDensity(3.0, 1.0), 10)


# --- reference: scipy quad over (0, inf), independent of the node rule -------

@functools.cache
def _density_cuts(density):
    """The density's 1e-7, 0.25, 0.5, 0.75 and 1 - 1e-7 quantiles."""
    return tuple(density.quantile(p) for p in (1e-7, 0.25, 0.5, 0.75, 1.0 - 1e-7))


def _quad_moments(kernel, x, b, density, n):
    """Kernel mass, mean and variance by adaptive quadrature over (0, inf).

    Three independent ``quad`` passes, each node through the kernel's and
    the density's float paths, on pieces split at 0, min(x, b), x, the
    bracket's ends and the density's ``_density_cuts``, the last piece
    running to inf.  Far from the density's mass the peak of K f is the
    density's, narrow against the kernel's bracket, and ``quad`` on the
    bracket's pieces alone may miss it.  This shares nothing with the node
    rule of ``exact_estimator_moments`` but the bracket's two ends.  With no
    absolute tolerance every piece meets the relative one on its own, also
    where the moments are far below 1e-16; a piece on which ``quad`` reports
    trouble (its message, a fourth item) must be too small to move the sum.
    """
    lo, hi, _ = _quad_window(kernel, x, b)
    cuts = sorted({0.0, min(x, b) if x > 0.0 else b, x, lo, hi, *_density_cuts(density)})

    def k_at(z):
        return math.exp(log_kernel(kernel, x, b, z))

    out = []
    for g in (k_at, lambda z: k_at(z) * density.pdf(z),
              lambda z: k_at(z) ** 2 * density.pdf(z)):
        pieces = [quad(g, a, c, epsabs=0.0, epsrel=1e-11, limit=500, full_output=1)
                  for a, c in zip(cuts, cuts[1:] + [math.inf])]
        total = sum(p[0] for p in pieces)
        assert all(len(p) == 3 or p[0] + p[1] < 0.5 * math.ulp(total) for p in pieces)
        out.append(total)
    mass, mean, second = out
    return mass, mean, (second - mean * mean) / n


# (density, interior x, bandwidth for ge/ge2, bandwidth for the h**2 family)
_REUSE_CASES = {
    "gamma3": (GammaDensity(3.0, 1.0), 2.0, 0.1, 0.01),
    "D": (CONFIGURATIONS["D"], 12.0, 1.0, 0.05),
}


def _reuse_points():
    for name, (_, x, b_ge, b_sq) in _REUSE_CASES.items():
        for kernel in Kernel:
            b = b_ge if kernel in (Kernel.GE, Kernel.GE2) else b_sq
            for where, at in (("interior", x), ("x=1.5b", 1.5 * b)):
                yield pytest.param(name, kernel, at, b, id=f"{name}-{kernel.value}-{where}")


def _near_zero_points():
    """``ge2`` at x/b < 1, where its shape is below 1 (the u-rule), and ``ge`` at x <= 0.01b.

    ``ge`` at x = 0.01b is not smooth at 0 over a scale of b, not of x.
    """
    for name, (_, _, b, _) in _REUSE_CASES.items():
        for r in (0.05, 0.3, 0.6, 0.9):
            yield pytest.param(name, Kernel.GE2, r * b, b, id=f"{name}-ge2-x={r}b")
        for r in (0.0, 0.01):
            yield pytest.param(name, Kernel.GE, r * b, b, id=f"{name}-ge-x={r:g}b")


#: Agreement of the node rule with the quad reference: on these cases the two
#: agree within 1e-11 relative, mostly within 1e-14.
_QUAD_RTOL = 1e-9
_QUAD_ATOL = 1e-18


class TestQuadReference:
    """The node rule against ``quad`` over (0, inf), for every kernel."""

    def _check(self, kernel, x, b, density, n=100):
        m = exact_estimator_moments(kernel, x, b, density, n)
        mass, mean, variance = _quad_moments(kernel, x, b, density, n)
        assert abs(mass - 1.0) <= 1e-10  # the reference itself
        assert m.mean == pytest.approx(mean, rel=_QUAD_RTOL, abs=_QUAD_ATOL)
        assert m.variance == pytest.approx(variance, rel=_QUAD_RTOL, abs=_QUAD_ATOL)
        return m

    @pytest.mark.parametrize("name, kernel, x, b", list(_reuse_points()))
    def test_interior_and_boundary(self, name, kernel, x, b):
        self._check(kernel, x, b, _REUSE_CASES[name][0])

    @pytest.mark.parametrize("name, kernel, x, b", list(_near_zero_points()))
    def test_near_zero(self, name, kernel, x, b):
        self._check(kernel, x, b, _REUSE_CASES[name][0])

    def test_ge2_shape_below_one_with_density_positive_at_zero(self):
        # x/b = 0.9: nu = 0.85 > 1/2, so K**2 f is integrable although f(0) = 1
        m = self._check(Kernel.GE2, 0.09, 0.1, GammaDensity(1.0, 1.0), n=1)
        assert m.variance > 0.0

    def test_ig_heavy_tail(self):
        # the kernel's tail decays on a scale of 2 b x**2 = 200, beyond hi = 201
        self._check(Kernel.IG, 1.0, 100.0, GammaDensity(3.0, 1.0))

    def test_rig_far_beyond_the_mass(self):
        # the mean is 9.7e-75: quad with epsabs 1e-16 stopped early there and
        # read 6.50e-75.  The reference against a 40-digit mpmath integral,
        # then the node rule against it: the mean within 1e-8, the variance
        # within the rule's verdict, 1e-6 (it is 1.9e-7 off)
        kernel, x, b, density = Kernel.RIG, 5000.0, 1000.0, GammaDensity(3.0, 1.0)
        _, mean, variance = _quad_moments(kernel, x, b, density, 100)
        assert mean == pytest.approx(9.7113574424285456e-75, rel=1e-13, abs=0.0)
        assert variance == pytest.approx(7.1742989254925890e-110, rel=1e-13, abs=0.0)
        m = exact_estimator_moments(kernel, x, b, density, 100)
        assert m.mean == pytest.approx(mean, rel=1e-8, abs=0.0)
        assert m.variance == pytest.approx(variance, rel=1e-6, abs=0.0)

    def test_ig_tail_is_quiet(self):
        # point 151 of config C's 256-point ISE grid: quad leaked an
        # IntegrationWarning from its tail segment there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._check(Kernel.IG, 2383.74, 1e-4, CONFIGURATIONS["C"])


class TestInfiniteVariance:
    """``ge2`` with nu(x/b) <= 1/2 against a density positive at 0: Var is +inf."""

    @pytest.mark.parametrize("r", [0.6, 0.3, 0.05])
    def test_raises_with_achieved(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="exceeds tolerance") as err:
                exact_estimator_moments(Kernel.GE2, r * 0.1, 0.1, GammaDensity(1.0, 1.0), 1)
        assert err.value.achieved > 1e-6

    def test_underflowing_quantiles_give_inf(self):
        # at x/b = 0.05 (nu = 0.031) u**(1/nu) underflows, z = 0 and K = inf there
        with pytest.raises(IntegrationError) as err:
            exact_estimator_moments(Kernel.GE2, 0.005, 0.1, GammaDensity(1.0, 1.0), 1)
        assert err.value.achieved == math.inf

    def test_density_zero_at_zero_stays_finite(self):
        # the same quantiles against f(0) = 0: K f is 0 there, not inf * 0
        m = exact_estimator_moments(Kernel.GE2, 0.005, 0.1, GammaDensity(3.0, 1.0), 1)
        assert math.isfinite(m.mean) and m.variance >= 0.0

    @pytest.mark.parametrize("density", [GammaDensity(3.0, 1.0), CONFIGURATIONS["D"]],
                             ids=["gamma3", "D"])
    @pytest.mark.parametrize("r", [0.01, 0.1])
    def test_inf_kernel_fix_runs_only_on_a_nan_sum(self, density, r):
        # the K = inf entries at f = 0 are set to 0 after a second moment sums
        # to nan; the moments are those of setting them before summing, as
        # soon as some K is inf
        ev = _LogKernel(Kernel.GE2, np.array([r]), 1.0)
        z, log_k = _ge_quantiles(ev, _LOG_U)
        f = density.pdf(z)
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.exp(log_k)
            terms = np.stack([_U_WEIGHTS, _U_WEIGHTS * f, _U_WEIGHTS * f * k])
        assert np.isnan(terms[2]).any()  # the fix is reached
        assert np.isinf(k).any()
        terms[2, f == 0.0] = 0.0
        i, j = _U_CUTS
        shared = terms[:, :i].sum(axis=1)
        _, mean, second = (shared + terms[:, i:j].sum(axis=1)).tolist()
        m = exact_estimator_moments(Kernel.GE2, r, 1.0, density, 100)
        assert m.mean.hex() == mean.hex()
        assert m.variance.hex() == ((second - mean * mean) / 100.0).hex()


class _CountingDensity:
    """Records every call of ``pdf`` and its nodes."""

    def __init__(self, density):
        self.density = density
        self.calls = []

    def pdf(self, z):
        self.calls.append(np.array(z, copy=True))
        return self.density.pdf(z)


class _PerNodeDensity:
    """Evaluates ``pdf`` node by node: as Python floats, or as 0-d arrays."""

    def __init__(self, density, as_0d):
        self.density = density
        self.as_0d = as_0d

    def pdf(self, z):
        if self.as_0d:
            return np.array([float(self.density.pdf(np.array(v))) for v in z])
        return np.array([self.density.pdf(v) for v in z.tolist()])


class TestNodeReuse:
    """One kernel block and one density call serve the mass, the mean and the second moment."""

    @pytest.mark.parametrize("name, kernel, x, b", list(_reuse_points()))
    def test_bit_identical_to_independent_passes(self, name, kernel, x, b):
        # each node evaluated on its own, through the density's float path
        density = _REUSE_CASES[name][0]
        m = exact_estimator_moments(kernel, x, b, density, 100)
        ref = exact_estimator_moments(kernel, x, b, _PerNodeDensity(density, False), 100)
        assert m.mean.hex() == ref.mean.hex()
        assert m.variance.hex() == ref.variance.hex()

    @pytest.mark.parametrize("name, kernel, x, b", list(_reuse_points()))
    def test_bit_identical_to_array_evaluation(self, name, kernel, x, b):
        # each node evaluated on its own, through the density's 0-d array path
        density = _REUSE_CASES[name][0]
        m = exact_estimator_moments(kernel, x, b, density, 100)
        ref = exact_estimator_moments(kernel, x, b, _PerNodeDensity(density, True), 100)
        assert m.mean.hex() == ref.mean.hex()
        assert m.variance.hex() == ref.variance.hex()

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_each_node_evaluated_once(self, kernel, monkeypatch):
        kernel_nodes = []
        data = _LogKernel.data

        def counting_data(self, z):
            kernel_nodes.append(np.array(z, copy=True))
            return data(self, z)

        monkeypatch.setattr(_LogKernel, "data", counting_data)
        b = 0.1 if kernel in (Kernel.GE, Kernel.GE2) else 0.01
        density = _CountingDensity(GammaDensity(3.0, 1.0))
        exact_estimator_moments(kernel, 2.0, b, density, 100)
        (z,), (nodes,) = kernel_nodes, density.calls
        assert np.array_equal(z, nodes)
        assert np.unique(z).size == z.size


class TestNodeMap:
    """The z rule's nodes and weights, one product with its basis, against the affine map."""

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_product_has_the_bits_of_the_affine_map(self, kernel):
        rng = np.random.default_rng(21)
        where = set()
        for b in 10.0 ** rng.uniform(-100.0, 100.0, 40):
            for r in (0.01, 0.5, 1.5, 3.0, 50.0, 1e3, float(rng.uniform(1.0, 1e4))):
                x = r * b
                if kernel is Kernel.RIG and x <= b:
                    continue
                lo, hi, a = _quad_window(kernel, x, b)
                z, weights = _z_nodes(lo, hi, a)
                length = np.array([a, hi - a, hi - lo]).take(_Z_SEGMENT)
                want = np.array([0.0, a, hi]).take(_Z_SEGMENT) + length * _Z_UNIT
                assert z.tobytes() == want.tobytes(), (x, b)
                assert weights.tobytes() == (length * _Z_WEIGHTS).tobytes(), (x, b)
                where.add(lo > 0.0)
        assert where == {False, True}  # brackets from 0 and from lo > 0


class TestQuadratureFailure:
    """Both ``IntegrationError`` raises of ``exact_estimator_moments`` carry ``achieved``."""

    def test_kernel_mass_off_one(self, monkeypatch):
        # a bracket of x -+ b: the rule reaches x + 7b, short of about 1e-3 of the mass
        monkeypatch.setattr(gekde.estimator, "_quad_window",
                            lambda kernel, x, b: (x - b, x + b, x - b))
        with pytest.raises(IntegrationError, match="kernel mass") as err:
            exact_estimator_moments(Kernel.GE, 2.0, 0.1, GammaDensity(3.0, 1.0), 10)
        assert 1e-8 < err.value.achieved < 1e-2

    def test_error_estimate_above_tolerance(self):
        # ge2 at x/b = 0.3 against f(0) = 1: the second moment diverges
        with pytest.raises(IntegrationError, match="exceeds tolerance") as err:
            exact_estimator_moments(Kernel.GE2, 0.03, 0.1, GammaDensity(1.0, 1.0), 10)
        assert err.value.achieved > 1e-6

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_second_moment_below_squared_mean(self, kernel):
        # b = 1e8 spreads the kernel far beyond config A's mass near x = 10:
        # the variance, about 1e-32 of the second moment, is below its rounding
        with pytest.raises(IntegrationError, match="below the squared mean") as err:
            exact_estimator_moments(kernel, 10.0, 1e8, CONFIGURATIONS["A"], 1)
        assert err.value.achieved <= 1e-6

    @pytest.mark.parametrize("c", [1.0, 2.0 ** 20, 2.0 ** 40])
    def test_error_estimate_is_relative(self, c):
        # ge2 at x/b = 0.62 against f(0) = 1/c: the variance is finite, but the
        # two rules part by about 26% of the second moment at every scale
        with pytest.raises(IntegrationError, match="exceeds tolerance") as err:
            exact_estimator_moments(Kernel.GE2, 0.062 * c, 0.1 * c, GammaDensity(1.0, c), 1)
        assert err.value.achieved == pytest.approx(0.2618, rel=1e-3)


class TestFarFromDensity:
    """Moments far beyond a density's mass, where both rules give almost 0.

    At x = 1000, 80 times the 99.95% quantile of Gamma(3, 1), the relative
    test passes, and each mean matches a 50-digit mpmath integral with
    breakpoints every 2 or less around the integrand's peak: ``ge`` and
    ``ge2`` within 1e-12, ``rig`` within 1e-9 (it is 2.4e-10 off).
    """

    _MPMATH_MEAN = {Kernel.GE: ("0x1.daae137671a71p-902", 1e-12),
                    Kernel.GE2: ("0x1.813faa1125943p-819", 1e-12),
                    Kernel.RIG: ("0x1.0f9e44930aea3p-164", 1e-9)}

    @pytest.mark.parametrize("kernel", list(_MPMATH_MEAN), ids=lambda k: k.value)
    def test_negligible_moments_return(self, kernel):
        m = exact_estimator_moments(kernel, 1000.0, 100.0, GammaDensity(3.0, 1.0), 1)
        want, rel = self._MPMATH_MEAN[kernel]
        assert m.mean == pytest.approx(float.fromhex(want), rel=rel, abs=0.0)
        assert m.variance > 0.0

    @pytest.mark.parametrize("c", [2.0 ** -40, 2.0 ** 40], ids=["c=2**-40", "c=2**40"])
    @pytest.mark.parametrize("kernel", list(_MPMATH_MEAN), ids=lambda k: k.value)
    def test_verdict_is_free_of_units(self, kernel, c):
        m = exact_estimator_moments(kernel, 1000.0 * c, 100.0 * c, GammaDensity(3.0, c), 1)
        want, rel = self._MPMATH_MEAN[kernel]
        assert m.mean * c == pytest.approx(float.fromhex(want), rel=rel, abs=0.0)

    @pytest.mark.parametrize("b", [1e6, 1e7])
    def test_ig_far_below_config_c(self, b):
        # config C's pdf is 0.0 at x = 1e-3; the kernel's right tail reaches its
        # mass, which the rules around x do not resolve.  At b = 1e6 the fine
        # rule's mean was 2.903e-107, 2.4% off an mpmath integral (2.836e-107)
        with pytest.raises(IntegrationError, match="exceeds tolerance") as err:
            exact_estimator_moments(Kernel.IG, 1e-3, b, CONFIGURATIONS["C"], 1)
        assert err.value.achieved > 1e-6


class TestBracketOverflow:
    """A typed error where the z rule's last tail panel, (hi - lo) 2**16 past hi, overflows."""

    @pytest.mark.parametrize("kernel, x, b", [(Kernel.GE, 1e307, 1e306),
                                              (Kernel.GE2, 1e307, 1e306),
                                              (Kernel.GAM1, 1e307, 1e300),
                                              (Kernel.RIG, 1e300, 1e10),
                                              (Kernel.RIG, 1e200, 1e150)])
    def test_raises_a_rescale_error_without_a_warning(self, kernel, x, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError) as err:
                exact_estimator_moments(kernel, x, b, GammaDensity(3.0, 1.0), 100)
        assert str(err.value) == (f"{kernel.value} kernel: the quadrature bracket overflows "
                                  f"at x = {x!r}, b = {b!r}; rescale the data")


class TestIgBracketOverflow:
    """The ``ig`` bracket's spread x sqrt(b x), which has no x**3 to overflow.

    At points where b x**3 overflows, the bracket is in range and the rule
    runs, but misses the kernel's mass, which no rescaling mends: b x, which
    a change of units leaves as it is, is far above 1 (the kernel's mode
    near 1/(3b) lies far below x), or the spread is below half the double
    spacing at x.
    """

    @pytest.mark.parametrize("x, b", [(6e102, 1.0), (1e200, 1e-300), (1e100, 1e10)])
    def test_extreme_point_misses_the_kernel_mass(self, x, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError, match="kernel mass") as err:
                exact_estimator_moments(Kernel.IG, x, b, GammaDensity(3.0, 1.0), 100)
        assert err.value.achieved > 1e-8

    def test_in_range_bracket_still_integrates(self):
        # b x = 5e102, as at 6e102 above: the rule runs and misses the mass
        with pytest.raises(IntegrationError, match="kernel mass"):
            exact_estimator_moments(Kernel.IG, 5e102, 1.0, GammaDensity(3.0, 1.0), 100)

    @pytest.mark.parametrize("x, b", [(5e102, 1.0), (1.0, 100.0), (2383.74, 1e-4),
                                      (1e-100, 1e-100), (3.0, 0.01)])
    def test_in_range_bracket_keeps_its_bits(self, x, b):
        sd = x * math.sqrt(b * x)
        lo = max(0.0, x - 15.0 * sd)
        want = (lo, x + 20.0 * sd, lo if lo > 0.0 else sd)
        assert [v.hex() for v in _quad_window(Kernel.IG, x, b)] == [v.hex() for v in want]


@functools.cache
def _config_e_grid():
    """Every 8th point of config E's 256-point ISE grid, from 0.102 to 12.08."""
    return np.linspace(*CONFIGURATIONS["E"]._ise_range, 256)[::8].tolist()


class TestIgOnConfigE:
    """``ig`` on config E, whose near-zero panels end at its spread x sqrt(b x), not at b.

    Ending them at b, as for a kernel whose b is a length, raised
    "quadrature error estimate exceeds tolerance" at 5, 22 and 15 of these
    32 points at b = 0.1, 0.3 and 1.
    """

    @pytest.mark.parametrize("b", [0.1, 0.3, 1.0])
    def test_every_eighth_grid_point_returns(self, b):
        for x in _config_e_grid():
            m = exact_estimator_moments(Kernel.IG, x, b, CONFIGURATIONS["E"], 100)
            assert m.mean > 0.0 and m.variance > 0.0

    @staticmethod
    def _mp_moments(x, b, n):
        """Mean and variance at 30 digits, the mixture's pdf written out in mpmath."""
        mp = pytest.importorskip("mpmath")
        density = CONFIGURATIONS["E"]
        with mp.workdps(30):
            x, b = mp.mpf(x), mp.mpf(b)

            def k(z):  # IG(mean x, shape 1/b)
                q = (z - x) ** 2 / (2 * b * x * x * z)
                return mp.exp(-q) / mp.sqrt(2 * mp.pi * b * z ** 3)

            def f(z):
                return mp.fsum(w * mp.exp(c.shape * mp.log(c.scale) - (c.shape + 1) * mp.log(z)
                                          - c.scale / z - mp.loggamma(c.shape))
                               for w, c in zip(density.weights, density.components))

            cuts = [0, x / 8, x / 4, x / 2, x, 2 * x, 4 * x, mp.inf]
            mean = mp.quad(lambda z: k(z) * f(z), cuts)
            second = mp.quad(lambda z: k(z) ** 2 * f(z), cuts)
            return float(mean), float((second - mean * mean) / n)

    @pytest.mark.parametrize("i, b", [(30, 0.1), (12, 0.3), (24, 1.0)])
    def test_against_mpmath(self, i, b):
        x = _config_e_grid()[i]
        m = exact_estimator_moments(Kernel.IG, x, b, CONFIGURATIONS["E"], 100)
        mean, variance = self._mp_moments(x, b, 100)
        assert m.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert m.variance == pytest.approx(variance, rel=1e-12, abs=0.0)


@functools.cache
def _config_f_grid():
    """Config F's 256-point ISE grid, from 331.7 to 3373."""
    return np.linspace(*CONFIGURATIONS["F"]._ise_range, 256).tolist()


class TestGeOnConfigF:
    """``ge`` and ``ge2`` on config F near its Silverman bandwidth (142.7 at n = 100).

    When the bracket ran from x - 30 b to x + 60 b, the coarse rule's wide
    uniform panels did not resolve F's narrow inverse Weibull (10, 400)
    component, and the verdict raised on moments right to about 1e-10 at
    19-54 of these 256 points per kernel and bandwidth.
    """

    @pytest.mark.parametrize("b", [142.7, 221.7])
    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_every_grid_point_returns(self, kernel, b):
        for x in _config_f_grid():
            m = exact_estimator_moments(kernel, x, b, CONFIGURATIONS["F"], 100)
            assert m.mean > 0.0 and m.variance > 0.0

    @pytest.mark.parametrize("b", [142.7, 221.7])
    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_against_quad(self, kernel, b):
        for x in _config_f_grid()[::32]:
            m = exact_estimator_moments(kernel, x, b, CONFIGURATIONS["F"], 100)
            _, mean, variance = _quad_moments(kernel, x, b, CONFIGURATIONS["F"], 100)
            assert m.mean == pytest.approx(mean, rel=1e-8, abs=0.0), x
            assert m.variance == pytest.approx(variance, rel=1e-8, abs=0.0), x
