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
    _WINDOW_STRIDE,
    _data_windows,
    _exp_rows,
    _domain_start,
    _gamma_functional,
    _quad_window,
    _silverman_h,
)
from gekde.kernels import _LogKernel, _point_log_kernel, log_kernel
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


#: One grid row per block: the estimator's data-window path.
_WINDOW_N = gekde.estimator._BLOCK_ELEMENTS // 2 + 1


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
    """(label, kernel, sample, b, grid) cases for the one-row-block path."""
    d, e = _window_sample("D"), _window_sample("E")
    cases = (_silverman_cases("D", d) + _silverman_cases("E", e)
             + _silverman_cases("E*2^40", e, 40) + _silverman_cases("E*2^-40", e, -40)
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


class TestDataWindow:
    """The windowed combine of one-row blocks against the full kernel matrix."""

    @staticmethod
    def _full(kernel, sample, b, grid):
        ev = _LogKernel(kernel, grid, b)
        return ev, ev.data(sample.values), ev.rows(ev.data(sample.values))

    @pytest.mark.parametrize("case", _window_cases(), ids=lambda c: c[0])
    def test_bit_identical_and_skips_only_underflow(self, case):
        _, kernel, sample, b, grid = case
        ev, dat, log_k = self._full(kernel, sample, b, grid)
        with np.errstate(over="ignore"):
            expect = np.exp(log_k).mean(axis=1)
        got = estimate_density(sample, kernel, b, grid).values
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        start, stop = _data_windows(ev, dat, sample.n)
        for g in range(grid.size):
            assert np.all(log_k[g, :start[g]] <= _EXP_ZERO), g
            assert np.all(log_k[g, stop[g]:] <= _EXP_ZERO), g

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
                self.loc = (log_k[:, :1],)

            def rows(self, dat, lo=0, hi=None):
                return self.log_k[lo:hi][:, dat[0][0]]

        n = 200
        # unimodal rows peaking at datum 100, above the cut from 63 to 137
        log_k = np.tile(-20.0 * np.abs(np.arange(n) - 100.0), (6, 1))
        log_k[1, 0] = np.nan      # NaN at a coarse datum
        log_k[2, 96] = np.inf     # an infinite coarse maximum
        log_k[3] = -np.inf
        # rising to the last datum, past the last coarse one: above the cut
        # from datum 162, and nowhere
        log_k[4] = -20.0 * (n - 1.0 - np.arange(n))
        log_k[5] = log_k[4] - 800.0
        start, stop = _data_windows(Rows(log_k), (np.arange(n)[None, :],), n)
        # the coarse data are 0, 32, ..., 192
        assert (start[0], stop[0]) == (33, 160)
        assert start[1:4].tolist() == [0, 0, 0] and stop[1:4].tolist() == [n, n, n]
        assert start[4:].tolist() == [161, 161] and stop[4:].tolist() == [n, n]

    def test_row_buffer_zeroed_between_windows(self, monkeypatch):
        # the windowed row buffer is re-zeroed only where the last window
        # written is not covered by the next; a stale entry there would enter
        # the row sum.  Consecutive windows shrink, grow, shift right and
        # left, jump to a disjoint range on either side, start at 0, end at
        # n, repeat, follow a whole row, and come first in a sample
        n = _WINDOW_N
        windows = [(100, 5000), (200, 4000), (50, 6000), (3000, 9000), (1000, 7000),
                   (10000, 12000), (500, 900), (0, 3000), (14000, n), (0, n), (8000, 8100),
                   (8000, 8100), (8050, 8051), (0, 1), (n - 1, n), (5, n - 5)]
        # the second sample starts with the whole row and takes the rest reversed
        per_sample = [windows, [windows[9]] + windows[:9][::-1] + windows[10:][::-1]]
        rng = np.random.default_rng(8)
        log_k = rng.uniform(-1000.0, _EXP_ZERO, (2, len(windows), n))
        log_k[:, :, ::7] = -np.inf
        for r, sample_windows in enumerate(per_sample):
            for g, (j0, j1) in enumerate(sample_windows):
                log_k[r, g, j0:j1] = rng.uniform(-30.0, 0.0, j1 - j0)

        class Rows:
            """One sample's log K rows, with the windows its rows are given."""

            def __init__(self, r):
                self.log_k, self.windows = log_k[r], per_sample[r]

            def rows(self, dat, lo=0, hi=None):
                return self.log_k[lo:hi][:, dat[0][0]]

        class Stack:
            """Stands in for the evaluator of a stack of two samples."""

            def data(self, values):
                return (np.broadcast_to(np.arange(n), (values.shape[0], 1, n)),)

            def take(self, r):
                return Rows(r)

        def windows_of(ev, dat, size):
            assert size == n
            return tuple(np.array(w, dtype=np.intp) for w in zip(*ev.windows))

        monkeypatch.setattr(gekde.estimator, "_LogKernel", lambda kernel, grid, b: Stack())
        monkeypatch.setattr(gekde.estimator, "_data_windows", windows_of)
        grid = np.arange(1.0, len(windows) + 1.0)
        got = gekde.estimator._estimate_batch(np.ones((2, n)), Kernel.GE, np.ones(2), grid)
        expect = np.exp(log_k).mean(axis=2)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

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


class TestGridSplitToOnePoint:
    """The GE and gamma estimates keep their bits on any split of the grid.

    A one-point grid is a one-row block, whose combine is a one-row matrix
    product; with n = 100 the whole grid spans two blocks of several rows,
    with n = 16385 every block is one row and windowed.
    """

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2],
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("n, size", [(100, 400), (_WINDOW_N, 40)])
    def test_down_to_one_point_grids(self, kernel, n, size):
        sample = CONFIGURATIONS["D"].sample(n, 12)
        b = silverman_bandwidth(sample, kernel).value
        grid = default_grid(sample, size)
        whole = estimate_density(sample, kernel, b, grid).values
        assert size > gekde.estimator._BLOCK_ELEMENTS // n
        for cuts in ([1, 2, 3, size - 1], np.arange(1, size)):
            parts = [estimate_density(sample, kernel, b, piece).values
                     for piece in np.split(grid, cuts)]
            got = np.concatenate(parts)
            assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))


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
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = float((9 / mp.pi ** 4) ** (mp.mpf(1) / 5) * mp.mpf(10) ** -80)
        got = optimal_bandwidth_ge2(1.0, 10 ** 400).value
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        with pytest.raises(OptimizationError, match="underflows the double range"):
            optimal_bandwidth_ge2(1.0, 10 ** 2000)

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_bandwidth_ge2(0.0, 100)
        with pytest.raises(DomainError):
            optimal_bandwidth_ge2(-1.0, 100)


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
        # b0 = (8 n c2)**(-1/3) is about 7e-334, below the smallest subnormal
        with pytest.raises(OptimizationError, match="underflows the double range"):
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

    # 8 n overflows, and n itself is beyond the double range: n is factored out
    @pytest.mark.parametrize("n", [10 ** 308, 10 ** 400], ids=["1e308", "1e400"])
    def test_count_past_overflow(self, n):
        b = numeric_bandwidth_ge(1.0, 1.0, n).value
        assert b == pytest.approx(self._mp_optimum(1.0, 1.0, n), rel=4e-16, abs=0.0)

    def test_closed_form_count_past_overflow(self):
        # kappa > 2**72 with n beyond the double range: b = (12 n c3)**(-1/4)
        b = numeric_bandwidth_ge(1e-10, 1e-300, 10 ** 400).value
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            g = +mp.euler
            want = (12 * mp.mpf(10) ** 400 * g * (g * g + mp.pi ** 2 / 6) * mp.mpf(1e-10)) ** -0.25
        assert b == pytest.approx(float(want), rel=1e-15, abs=0.0)


class TestSelectBandwidth:
    """One rule name to one bandwidth: Silverman's, or a gamma-reference plug-in."""

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

    def test_ge2_boundary_undefined(self):
        with pytest.raises(DomainError):
            asymptotic_bias(Kernel.GE2, boundary_regime(0.0), 0.1, 1.0, 1.0)

    def test_other_kernels_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_bias(Kernel.GAM1, INTERIOR, 0.1, 1.0, 1.0)

    def test_variance_interior(self):
        assert asymptotic_variance(INTERIOR, 0.1, 100, 1.0) == pytest.approx(1.0 / 40.0)

    def test_variance_count_beyond_double_range(self):
        # below 2**1020 n divides as a float; beyond it the variance is f/(4 b m) 2**(-60 j)
        for n in (100, 10 ** 300):
            want = 1.0 / (4.0 * 0.1 * n)
            assert asymptotic_variance(INTERIOR, 0.1, n, 1.0).hex() == want.hex()
        assert asymptotic_variance(INTERIOR, 0.1, 10 ** 400, 1.0) == 0.0
        assert asymptotic_variance(INTERIOR, 2.0 ** -40, 2 ** 1030, 1.0) == 2.0 ** -992

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
        big = exact_estimator_moments(Kernel.GE, 1.0, 1.0, f, 10 ** 400)
        assert (big.mean, big.variance) == (one.mean, 0.0)
        tiny_b = exact_estimator_moments(Kernel.GE, 1.0, 1e-3, f, 1)
        assert exact_estimator_moments(Kernel.GE, 1.0, 1e-3, f, 2 ** 1030).variance == (
            math.ldexp(tiny_b.variance, -1030))

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
        # the ig bracket takes sqrt(b x**3): a negative x must fail as a domain error
        with pytest.raises(DomainError):
            exact_estimator_moments(Kernel.IG, -1.0, 0.1, GammaDensity(3.0, 1.0), 10)


# --- reference: scipy quad over (0, inf), independent of the node rule -------

def _quad_moments(kernel, x, b, density, n):
    """Kernel mass, mean and variance by adaptive quadrature over (0, inf).

    Three independent ``quad`` passes, each node through the kernel's and
    the density's float paths, on pieces split at 0, min(x, b), x and the
    bracket's ends, then [hi, inf).  This shares nothing with the node rule
    of ``exact_estimator_moments`` but the bracket's two ends.
    """
    lo, hi = _quad_window(kernel, x, b)
    cuts = sorted({0.0, min(x, b) if x > 0.0 else b, x, lo, hi})
    log_k = _point_log_kernel(kernel, x, b)

    def k_at(z):
        return math.exp(log_k(z))

    out = []
    for g in (k_at, lambda z: k_at(z) * density.pdf(z),
              lambda z: k_at(z) ** 2 * density.pdf(z)):
        total = sum(quad(g, a, c, epsabs=1e-16, epsrel=1e-11, limit=500)[0]
                    for a, c in zip(cuts[:-1], cuts[1:]))
        out.append(total + quad(g, hi, math.inf, epsabs=1e-16, epsrel=1e-11, limit=500)[0])
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


class TestQuadratureFailure:
    """Both ``IntegrationError`` raises of ``exact_estimator_moments`` carry ``achieved``."""

    def test_kernel_mass_off_one(self, monkeypatch):
        # a bracket of x -+ b: the rule reaches x + 7b, short of about 1e-3 of the mass
        monkeypatch.setattr(gekde.estimator, "_quad_window", lambda kernel, x, b: (x - b, x + b))
        with pytest.raises(IntegrationError, match="kernel mass") as err:
            exact_estimator_moments(Kernel.GE, 2.0, 0.1, GammaDensity(3.0, 1.0), 10)
        assert 1e-8 < err.value.achieved < 1e-2

    def test_error_estimate_above_tolerance(self):
        # ge2 at x/b = 0.3 against f(0) = 1: the second moment diverges
        with pytest.raises(IntegrationError, match="exceeds tolerance") as err:
            exact_estimator_moments(Kernel.GE2, 0.03, 0.1, GammaDensity(1.0, 1.0), 10)
        assert err.value.achieved > 1e-6


class TestIgBracketOverflow:
    """The ``ig`` bracket's spread sqrt(b x**3): a typed error where b x**3 overflows."""

    @pytest.mark.parametrize("x, b, what", [(6e102, 1.0, "x**3"), (1e200, 1e-300, "x**3"),
                                            (1e100, 1e10, "b*x**3")])
    def test_raises_a_rescale_error(self, x, b, what):
        with pytest.raises(DomainError) as err:
            exact_estimator_moments(Kernel.IG, x, b, GammaDensity(3.0, 1.0), 100)
        assert str(err.value) == (f"ig kernel: {what} overflows at x = {x!r}, b = {b!r}; "
                                  "rescale the data")

    def test_in_range_bracket_still_integrates(self):
        # b x**3 = 1.25e308 is finite: the rule runs and misses the mass
        with pytest.raises(IntegrationError, match="kernel mass"):
            exact_estimator_moments(Kernel.IG, 5e102, 1.0, GammaDensity(3.0, 1.0), 100)

    @pytest.mark.parametrize("x, b", [(5e102, 1.0), (1.0, 100.0), (2383.74, 1e-4),
                                      (1e-100, 1e-100), (3.0, 0.01)])
    def test_in_range_bracket_keeps_its_bits(self, x, b):
        sd = math.sqrt(b * x ** 3)
        want = (max(0.0, x - 15.0 * sd), x + 20.0 * sd)
        assert [v.hex() for v in _quad_window(Kernel.IG, x, b)] == [v.hex() for v in want]
