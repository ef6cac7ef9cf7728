import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from gekde import (
    BoundaryDegeneracyError,
    DomainError,
    EULER_GAMMA,
    GammaDensity,
    GekdeError,
    Kernel,
    digamma,
    gam2_shape,
    ge2_shape,
    Sample,
    estimate_density,
    exact_estimator_moments,
    kernel_pdf,
    log_kernel,
    trigamma,
)
from gekde.kernels import _LogKernel, _ge2_shape, _log1mexp


def kernel_mass(kernel, x, b, weight=None):
    """Quadrature of the kernel (optionally times a weight) over (0, inf)."""
    w = (lambda z: 1.0) if weight is None else weight
    lo = max(0.0, x - 40.0 * b - 20.0 * math.sqrt(b * max(x, b)))
    hi = x + 80.0 * b + 30.0 * math.sqrt(b * max(x, b)) + 5.0
    total = 0.0
    for a, c in ((0.0, lo), (lo, hi)):
        if c > a:
            v, _ = quad(lambda z: kernel_pdf(kernel, x, b, z) * w(z), a, c, limit=300)
            total += v
    v, _ = quad(lambda z: kernel_pdf(kernel, x, b, z) * w(z), hi, np.inf, limit=300)
    return total + v


class TestKernelId:
    def test_parse_canonical_names(self):
        for name in ["ge", "ge2", "gam1", "gam2", "ig", "rig"]:
            assert Kernel.parse(name).value == name

    @pytest.mark.parametrize("bad", ["gauss", "", "gam3", "epanechnikov"])
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            Kernel.parse(bad)


class TestClosedFormAgreement:
    """exp(log_kernel) must match naive closed-form evaluation where the latter works."""

    def test_ge_naive(self):
        # moderate shapes, where the power-form evaluation is itself trustworthy
        for x, b, z in [(1.0, 0.2, 1.3), (0.5, 0.5, 0.1), (0.9, 0.3, 1.2), (2.0, 1.0, 0.7)]:
            alpha, lam = math.exp(x / b), 1.0 / b
            naive = alpha * lam * (1.0 - math.exp(-lam * z)) ** (alpha - 1.0) * math.exp(-lam * z)
            assert kernel_pdf(Kernel.GE, x, b, z) == pytest.approx(naive, rel=1e-10)

    def test_ge_high_precision_reference(self):
        # alpha = e^30: the direct power form loses ~4 digits here, the log
        # path must not (value frozen from a 60-digit evaluation)
        assert log_kernel(Kernel.GE, 3.0, 0.1, 3.5) == pytest.approx(
            -2.7041528540050392, rel=1e-12)

    def test_ge2_high_precision_reference(self):
        # x/b = 20, shape solved at 60-digit precision
        assert log_kernel(Kernel.GE2, 1.0, 0.05, 1.02) == pytest.approx(
            1.6421590617576804, rel=1e-11)

    def test_ge_unit_exponential_at_origin(self):
        assert log_kernel(Kernel.GE, 0.0, 1.0, 2.0) == pytest.approx(-2.0, abs=1e-14)

    def test_gam1_example(self):
        # x=1, b=0.5, z=1: shape 3, scale 0.5
        expect = math.log(math.exp(-2.0) / (0.5 ** 3 * math.gamma(3.0)))
        assert log_kernel(Kernel.GAM1, 1.0, 0.5, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_gam1_matches_scipy(self):
        z = np.linspace(0.05, 8.0, 40)
        for x, b in [(1.0, 0.5), (2.0, 0.1)]:
            ref = stats.gamma.pdf(z, x / b + 1.0, scale=b)
            assert kernel_pdf(Kernel.GAM1, x, b, z) == pytest.approx(ref, rel=1e-10)

    def test_gam2_matches_scipy(self):
        z = np.linspace(0.05, 8.0, 40)
        for x, b in [(0.3, 0.5), (2.0, 0.1)]:
            ref = stats.gamma.pdf(z, gam2_shape(x, b), scale=b)
            assert kernel_pdf(Kernel.GAM2, x, b, z) == pytest.approx(ref, rel=1e-10)

    def test_ig_matches_scipy(self):
        z = np.linspace(0.2, 6.0, 40)
        x, b = 1.3, 0.2
        ref = stats.invgauss.pdf(z, x * b, scale=1.0 / b)
        assert kernel_pdf(Kernel.IG, x, b, z) == pytest.approx(ref, rel=1e-10)

    def test_rig_matches_scipy(self):
        z = np.linspace(0.2, 6.0, 40)
        x, b = 1.3, 0.2
        mu, lam = 1.0 / (x - b), 1.0 / b
        ref = stats.recipinvgauss.pdf(z, mu / lam, scale=1.0 / lam)
        assert kernel_pdf(Kernel.RIG, x, b, z) == pytest.approx(ref, rel=1e-10)


class TestNormalization:
    @pytest.mark.parametrize("kernel", list(Kernel))
    def test_unit_mass(self, kernel):
        x, b = 1.0, 0.1
        assert kernel_mass(kernel, x, b) == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_small_x(self):
        for kernel in (Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2):
            assert kernel_mass(kernel, 0.05, 0.5) == pytest.approx(1.0, abs=1e-6)


class TestGeIdentities:
    def test_mode_at_x(self):
        for b in (0.5, 0.1):
            for x in (0.5, 1.0, 3.0):
                grid = np.linspace(max(1e-9, x - 4.0 * b), x + 4.0 * b, 4001)
                step = grid[1] - grid[0]
                vals = log_kernel(Kernel.GE, x, b, grid)
                assert abs(grid[np.argmax(vals)] - x) <= step

    def test_mean_and_variance(self):
        for x, b in [(1.0, 0.5), (0.5, 0.1)]:
            alpha = math.exp(x / b)
            mean_th = b * (digamma(alpha + 1.0) + EULER_GAMMA)
            var_th = b * b * (trigamma(1.0) - trigamma(alpha + 1.0))
            mean_q = kernel_mass(Kernel.GE, x, b, weight=lambda z: z)
            second_q = kernel_mass(Kernel.GE, x, b, weight=lambda z: z * z)
            assert mean_q == pytest.approx(mean_th, abs=1e-7)
            assert second_q - mean_q ** 2 == pytest.approx(var_th, abs=1e-7)

    def test_overflow_robust(self):
        # alpha = e^1000 overflows any direct evaluation
        v = log_kernel(Kernel.GE, 10.0, 0.01, 10.0)
        assert math.isfinite(v)
        assert v == pytest.approx(math.log(100.0) - 1.0, rel=1e-9)

    def test_deep_left_tail_is_zero(self):
        assert kernel_pdf(Kernel.GE, 10.0, 0.01, 0.5) == 0.0


class TestGe2Shape:
    def test_zero_at_origin(self):
        assert ge2_shape(0.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_mean_is_x(self):
        x, b = 1.0, 0.1
        mean_q = kernel_mass(Kernel.GE2, x, b, weight=lambda z: z)
        assert mean_q == pytest.approx(x, abs=1e-6)

    def test_asymptotic_branch_log_value(self):
        # x/b = 100: nu ~ e^(100 - gamma), checked in the log domain
        nu = ge2_shape(5.0, 0.05)
        assert math.log(nu) == pytest.approx(100.0 - EULER_GAMMA, abs=1e-6)

    def test_branches_agree_at_moderate_argument(self):
        # y just below the asymptotic threshold: Newton and closed form agree
        b = 1.0
        x = 35.0 + EULER_GAMMA
        newton = ge2_shape(x, b)
        assert newton == pytest.approx(math.exp(35.0) - 0.5, rel=1e-12)

    @pytest.mark.parametrize("ratio, root", [
        # nu solving psi(nu + 1) = x/b - EULER_GAMMA, from a 40-digit root-finder
        (0.01, 0.00610637058938112),
        (0.03, 0.018483385081997924),
        (0.1, 0.06358803179820348),
        (2.0, 3.638675849525134),
        (10.0, 12366.46810658665),
    ])
    def test_matches_high_precision_root(self, ratio, root):
        assert abs(ge2_shape(ratio, 1.0) - root) <= 1e-13 * root

    @pytest.mark.parametrize("ratio", [1e-3, 9.9e-4, 1e-4, 1e-6, 1e-9, 1e-12, 1e-15, 1e-16,
                                       1e-17, 1e-50, 1e-150, 1e-300])
    def test_small_ratio_matches_mpmath_root(self, ratio):
        # psi(1 + nu) = x/b - EULER_GAMMA loses x/b against EULER_GAMMA; the
        # root is solved here at enough digits to keep x/b.  At 1e-3 the
        # Newton solve runs, good to about 1e-13; below it the series, to
        # about an ulp.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40 - int(math.log10(ratio))):
            r = mp.mpf(ratio)
            root = mp.findroot(lambda v: mp.digamma(1 + v) + mp.euler - r, 6 * r / mp.pi ** 2)
            tol = 1e-12 if ratio >= 1e-3 else 1e-15
            assert abs(ge2_shape(ratio, 1.0) - root) <= tol * root

    def test_estimate_proportional_to_tiny_location(self):
        # nu ~ (6/pi**2) x/b as x -> 0, so fhat(x)/x tends to a constant; every
        # positive grid point has a positive shape
        grid = np.array([1e-300, 1e-200, 1e-100, 1e-50, 1e-17, 1e-12, 1e-9])
        est = _quietly(lambda: estimate_density(Sample([0.5, 1.0, 2.0]), Kernel.GE2, 1.0,
                                                grid))
        ratio = est.values / grid
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9, atol=0.0)

    def test_overflowing_shape_is_inf_but_kernel_finite(self):
        assert ge2_shape(10.0, 0.01) == math.inf
        assert math.isfinite(log_kernel(Kernel.GE2, 10.0, 0.01, 10.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            ge2_shape(-1.0, 0.5)
        with pytest.raises(DomainError):
            ge2_shape(1.0, 0.0)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


_GE2_CUTS = [1e-300, 5e-324, np.nextafter(1e-3, 0.0), 1e-3, np.nextafter(1e-3, 1.0),
             np.nextafter(36.0 + EULER_GAMMA, 0.0), 36.0 + EULER_GAMMA,
             np.nextafter(36.0 + EULER_GAMMA, 100.0), 0.3, 2.0, 700.0, 720.0]


class TestGe2ShapeOneLocation:
    """One location solves its shape on floats, with the bits of a many-location build."""

    @pytest.mark.parametrize("r", _GE2_CUTS)
    def test_matches_entry_of_array(self, r):
        rs = np.geomspace(1e-5, 60.0, 256)
        rs[100] = r
        nu, log_nu = _ge2_shape(rs)
        one = _ge2_shape(np.array([r]))
        assert [_hex(t) for t in one] == [_hex(nu[100]), _hex(log_nu[100])]

    @pytest.mark.parametrize("x", [1e-300, 5e-5, 0.02, 0.5, 0.36 + EULER_GAMMA / 10.0, 5.0, 70.0])
    def test_location_terms_match_many_location_build(self, x):
        b = 0.1
        xs = np.linspace(0.01, 80.0, 256)
        xs[37] = x
        many = _LogKernel(Kernel.GE2, xs, b)
        one = _LogKernel(Kernel.GE2, np.array([x]), b)
        assert one.mat.shape == (1, 3) and one.side.shape == (1, 1)
        assert _hex(one.mat) == _hex(many.mat[37])
        assert _hex(one.side) == _hex(many.side[37])

    def test_one_location_runs_no_array_newton(self, monkeypatch):
        import gekde.kernels as kernels

        x = np.array([2.0])
        expected = _LogKernel(Kernel.GE2, np.linspace(1.0, 3.0, 3), 0.1)

        def no_array(*args, **kwargs):
            raise AssertionError("one location went through the array Newton solve")

        monkeypatch.setattr(kernels, "_ge2_shape", no_array)  # the array shape solve
        got = _LogKernel(Kernel.GE2, x, 0.1)
        assert [_hex(got.mat), _hex(got.side)] == [_hex(expected.mat[1]), _hex(expected.side[1])]
        assert type(ge2_shape(2.0, 0.1)) is float


_TINY = float(np.finfo(float).tiny)


def _location_cases():
    """(kernel, x, b) on both sides of every branch of the location build."""
    ge, ge2, rig, ig = Kernel.GE, Kernel.GE2, Kernel.RIG, Kernel.IG
    # ge: shape 1 at x = 0, the regrouping at x/b = 700, expm1 overflowing near 709.78
    cases = [(ge, 0.0, 0.5)] + [
        (ge, 0.5 * r, 0.5) for r in (np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, 800.0),
                                     np.nextafter(709.0, 0.0), 709.0, 709.5, 710.0, 1e300)]
    cases += [(ge2, r, 1.0) for r in _GE2_CUTS]
    cases += [(Kernel.GAM1, x, 0.5) for x in (1e-300, 2.0, 1e300)]
    cases += [(Kernel.GAM2, x, 0.5) for x in (0.1, np.nextafter(1.0, 0.0), 1.0,
                                               np.nextafter(1.0, 2.0), 1e300)]
    cases += [(rig, np.nextafter(0.5, 1.0), 0.5), (rig, 2.0, 0.5)]
    half_tiny = _TINY / 2.0  # 2 b x at b = 1 is the smallest normal
    cases += [(ig, x, 1.0) for x in (np.nextafter(half_tiny, 1.0), half_tiny, 3.0)]
    return [pytest.param(k, float(x), b, id=f"{k.value}-x={float(x)!r}-b={b!r}")
            for k, x, b in cases]


def _guard_cases():
    """(kernel, x, b) where a guard of the location build raises, and what it names."""
    cases = [(k, 1e300, 1e-10, "x/b overflows")
             for k in (Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2, Kernel.RIG)]
    cases += [
        (Kernel.GE2, 5e-324, 4.0, "x/b underflows"),
        (Kernel.IG, np.nextafter(_TINY / 2.0, 0.0), 1.0, "2*b*x underflows"),
        (Kernel.IG, 1e-310, 1e300, "1/x overflows"),
        (Kernel.RIG, np.nextafter(1e-300, 1.0), 1e-300, "1/(x - b) overflows"),
        (Kernel.RIG, 1e-300, 1e-309, "1/(2b) overflows"),
    ]
    return [pytest.param(k, float(x), b, what, id=f"{k.value}-{what}") for k, x, b, what in cases]


def _build(kernel, x, b):
    """The evaluator of locations x, or the type and message of the GekdeError it raises."""
    try:
        return _LogKernel(kernel, x, b)
    except GekdeError as exc:
        return type(exc), str(exc)


def _assert_entry(one, many, g):
    """The one-location build ``one`` has the terms and flags of entry g of ``many``.

    Both hold each location term once: the row of ``mat`` and the side term,
    which the gamma kernels do not have.
    """
    assert one.mat.shape == (1, 3 if one.kernel in _PRODUCT_KERNELS else 2)
    assert one.mat.dtype == many.mat.dtype
    assert _hex(one.mat) == _hex(many.mat[g])
    if one.kernel in (Kernel.GAM1, Kernel.GAM2):
        assert one.side is None and many.side is None
    else:
        assert one.side.shape == (1, 1) and one.side.dtype == many.side.dtype
        assert _hex(one.side) == _hex(many.side[g])
    special = one.kernel in (Kernel.GE, Kernel.GE2) and many.side[g, 0] > 700.0
    assert one.special == special


class TestFloatLocationBuild:
    """One location with a float b builds its terms on floats, with the bits of an array build."""

    @pytest.mark.parametrize("kernel, x, b", _location_cases())
    def test_matches_entry_of_many_location_build(self, kernel, x, b):
        xs = b * np.linspace(2.0, 80.0, 256)  # no special location among them
        xs[37] = x
        many = _LogKernel(kernel, xs, b)
        one = _LogKernel(kernel, np.array([x]), b)
        _assert_entry(one, many, 37)
        assert one.special == many.special
        # a stack of two samples: each keeps its own mat and side, as one
        # sample or as a run of samples
        stack = _LogKernel(kernel, xs, np.array([[b], [b]]))
        sample, run = stack.take(1), stack.take(slice(1, 2))
        assert run.mat.shape == (1,) + many.mat.shape
        assert _hex(sample.mat) == _hex(run.mat) == _hex(many.mat)
        if many.side is not None:
            assert run.side.shape == (1,) + many.side.shape
            assert _hex(sample.side) == _hex(run.side) == _hex(many.side)
        for ev in (one, many, sample, run):
            regrouped = ev.side is not None and bool((ev.side > 700.0).any())
            assert ev.special == (kernel in (Kernel.GE, Kernel.GE2) and regrouped)

    @pytest.mark.parametrize("kernel, x, b, what", _guard_cases())
    def test_guards_raise_the_array_build_error(self, kernel, x, b, what):
        one = _build(kernel, np.array([x]), b)
        assert one == _build(kernel, np.array([x, x]), b)
        assert one == (DomainError,
                       f"{kernel.value} kernel: {what} at x = {x!r}, b = {b!r}; rescale the data")

    @settings(max_examples=300, deadline=None)
    @given(kernel=st.sampled_from(list(Kernel)),
           log_b=st.floats(-745.0, 709.0),
           log_r=st.one_of(st.floats(-8.0, 8.0), st.floats(-745.0, 709.78)))
    def test_matches_array_build(self, kernel, log_b, log_r):
        b = math.exp(log_b)
        r = math.exp(log_r)
        x = b * (1.0 + r) if kernel is Kernel.RIG else b * r
        assume(b > 0.0 and x < math.inf)
        one = _build(kernel, np.array([x]), b)  # quiet: RuntimeWarnings are errors here
        with np.errstate(all="ignore"):  # the array build warns where shape * log b overflows
            many = _build(kernel, np.array([2.0 * x, x]), b)
            if isinstance(many, tuple):  # name x, not 2x, in the error
                many = _build(kernel, np.array([x, x]), b)
        if isinstance(one, tuple) or isinstance(many, tuple):
            assert one == many
        else:
            _assert_entry(one, many, 1)

    @pytest.mark.parametrize("kernel, xs, b", [
        (Kernel.GAM2, [1.0, 1e-170], 1e-160),  # x/b = 1e160: the unused splice overflows
        (Kernel.IG, [1e300, 1.0], 1e300),      # 2 b x = inf passes the underflow check
    ], ids=["gam2-splice", "ig-2bx"])
    def test_many_location_build_is_quiet(self, kernel, xs, b):
        many = _LogKernel(kernel, np.array(xs), b)  # RuntimeWarnings are errors here
        for g, x in enumerate(xs):
            _assert_entry(_LogKernel(kernel, np.array([x]), b), many, g)

    @pytest.mark.parametrize("kernel", [Kernel.GAM1, Kernel.GAM2])
    def test_gamma_normaliser_overflow_is_typed(self, kernel):
        # from a shape of about 2.5e305 on, c0 = -(shape log b + log Gamma(shape))
        # is not finite: both builds raise the same error, quietly, and no
        # location that passes gives a NaN log K
        raised = 0
        for log_b in (-700.0, -300.0, -13.8, 0.0, 300.0, 700.0):
            for log_r in (690.0, 700.0, 702.0, 703.0, 703.3, 703.6, 704.0, 706.0, 709.0):
                b = math.exp(log_b)
                x = b * math.exp(log_r)
                if x == math.inf:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    one = _build(kernel, np.array([x]), b)
                    many = _build(kernel, np.array([2.0 * x, x]), b)
                    if isinstance(many, tuple):  # name x, not 2x, in the error
                        many = _build(kernel, np.array([x, x]), b)
                    if isinstance(one, tuple) or isinstance(many, tuple):
                        assert one == many
                        assert one == (DomainError, f"{kernel.value} kernel: shape*log(b) + "
                                       f"log Gamma(shape) overflows at x = {x!r}, b = {b!r}; "
                                       "rescale the data")
                        raised += 1
                        continue
                    _assert_entry(one, many, 1)
                    assert np.isfinite(one.mat[:, 1]).all()
                    assert not math.isnan(log_kernel(kernel, x, b, x))
        assert raised > 0

    @pytest.mark.parametrize("kernel", [Kernel.GAM1, Kernel.GAM2])
    def test_gamma_normaliser_overflow_in_estimate(self, kernel):
        with pytest.raises(DomainError, match=r"overflows at x = 1e\+300, b = 1e-06"):
            log_kernel(kernel, 1e300, 1e-6, 1e300)
        with pytest.raises(DomainError, match=r"overflows at x = 1e\+300, b = 1e-06"):
            estimate_density(Sample([1e300, 2e300]), kernel, 1e-6, [1e300, 1.5e300])

    def test_array_bandwidth_keeps_the_array_build(self):
        b = np.array([[0.5]])
        ev = _LogKernel(Kernel.GE2, np.array([2.0]), b)
        assert ev.mat.shape == (1, 1, 3) and ev.side.shape == (1, 1, 1)


def _stack_guard_cases():
    """Each guard of ``_guard_cases``, a bandwidth b0 at which its x passes, and the (x, b) named.

    In a stack of the rows b0 and b, the guard's (x, b) fails and every
    other location passes, except where the guard depends on x or b alone:
    1/x fails in both rows at x, where the row-major first is row 0, and
    1/(2b) fails at every point of row 1, where the first is the grid's.
    """
    b0 = {"x/b overflows": 1.0, "x/b underflows": 0.5, "2*b*x underflows": 2.0,
          "1/x overflows": 1e299, "1/(x - b) overflows": 5e-301, "1/(2b) overflows": 1e-301}
    cases = []
    for p in _guard_cases():
        kernel, x, b, what = p.values
        named = {"1/x overflows": (x, b0[what]), "1/(2b) overflows": (0.01, b)}.get(what, (x, b))
        cases.append(pytest.param(kernel, x, b, what, b0[what], named, id=p.id))
    return cases


class TestStackGuardReport:
    """A stack whose locations fail reports the row-major first, with its first failing guard."""

    @pytest.mark.parametrize("kernel, x, b, what, b0, named", _stack_guard_cases())
    def test_failing_location_of_row_one(self, kernel, x, b, what, b0, named):
        xs = np.array([0.01, 0.02, x, 0.03, 0.04])  # x at an interior grid point
        for row in (b0, b):  # each row alone: x fails only with b (or 1/x with either)
            one_row = _build(kernel, xs, row)
            assert isinstance(one_row, tuple) == (row == b or what == "1/x overflows")
        got = _build(kernel, xs, np.array([[b0], [b]]))
        x_at, b_at = named
        assert got == (DomainError, f"{kernel.value} kernel: {what} at x = {x_at!r}, "
                       f"b = {b_at!r}; rescale the data")

    def test_two_failures_report_the_row_major_first(self):
        # row 0 underflows x/b at x = 5e-324, row 1 overflows it at x = 1e300:
        # the first location in row-major order is named, not the first guard
        xs = np.array([5e-324, 1.0, 1e300])
        got = _build(Kernel.GE2, xs, np.array([[4.0], [1e-10]]))
        assert got == (DomainError, "ge2 kernel: x/b underflows at x = 5e-324, b = 4.0; "
                       "rescale the data")


class TestGam2Shape:
    def test_splice_continuity(self):
        assert gam2_shape(1.0, 0.5) == pytest.approx(2.0, rel=1e-15)
        eps = 1e-9
        assert gam2_shape(1.0 - eps, 0.5) == pytest.approx(2.0, abs=1e-8)

    def test_at_origin(self):
        assert gam2_shape(0.0, 0.3) == 1.0

    def test_linear_branch(self):
        assert gam2_shape(3.0, 0.5) == 6.0


class TestValidation:
    def test_rig_needs_x_above_b(self):
        with pytest.raises(BoundaryDegeneracyError):
            log_kernel(Kernel.RIG, 0.1, 0.2, 1.0)
        with pytest.raises(BoundaryDegeneracyError):
            log_kernel(Kernel.RIG, 0.2, 0.2, 1.0)

    def test_positive_z_required(self):
        with pytest.raises(DomainError):
            log_kernel(Kernel.GE, 1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            log_kernel(Kernel.GE, 1.0, 0.5, np.array([1.0, -2.0]))

    def test_positive_b_required(self):
        with pytest.raises(DomainError):
            log_kernel(Kernel.GE, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("x, b", [("1.0x", 0.5), (None, 0.5), (1j, 0.5), (1.0, "b"),
                                      (1.0, None), (1.0, [0.5, 1.0])])
    def test_non_number_is_domain_error(self, x, b):
        for call in (lambda: log_kernel(Kernel.GE, x, b, 1.0),
                     lambda: kernel_pdf(Kernel.GAM1, x, b, np.array([1.0])),
                     lambda: ge2_shape(x, b),
                     lambda: gam2_shape(x, b)):
            with pytest.raises(DomainError, match="real number"):
                call()

    def test_x_zero_only_for_ge(self):
        log_kernel(Kernel.GE, 0.0, 1.0, 1.0)
        for kernel in (Kernel.GE2, Kernel.GAM1, Kernel.GAM2, Kernel.IG):
            with pytest.raises(DomainError):
                log_kernel(kernel, 0.0, 1.0, 1.0)


class TestIgNearOrigin:
    def test_tiny_location_is_zero_without_warning(self):
        # z/x overflows at x = 1e-300; the exact log kernel there is -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_kernel(Kernel.IG, 1e-300, 0.1, 2.0) == -math.inf
            assert kernel_pdf(Kernel.IG, 1e-300, 0.1, 2.0) == 0.0
            est = estimate_density(Sample([0.5, 1.0, 2.0]), Kernel.IG, 0.1, [1e-300, 1.0])
        assert est.values[0] == 0.0
        assert est.values[1] > 0.0


class TestIgDenominatorUnderflow:
    """2*b*x below the smallest normal double: a typed error on every path."""

    X = B = 1e-200

    def _raises(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="underflows"):
                call()

    def test_scalar(self):
        self._raises(lambda: log_kernel(Kernel.IG, self.X, self.B, 1.0))

    def test_array(self):
        self._raises(lambda: log_kernel(Kernel.IG, self.X, self.B, np.array([0.5, 1.0])))

    def test_estimate_density(self):
        sample = Sample([0.5, 1.0, 2.0])
        self._raises(lambda: estimate_density(sample, Kernel.IG, self.B, [self.X, 1.0]))

    def test_exact_moments(self):
        density = GammaDensity(3.0, 1.0)
        self._raises(lambda: exact_estimator_moments(Kernel.IG, self.X, self.B, density, 10))

    def test_smallest_normal_denominator_is_accepted(self):
        b = np.finfo(float).tiny / 2.0
        assert math.isfinite(log_kernel(Kernel.IG, 1.0, b, 1.0))


_X_OVER_B_KERNELS = [Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2, Kernel.RIG]


class TestLocationOverflow:
    """x/b beyond the largest double: a typed error naming kernel, x and b."""

    X, B = 1e300, 1e-10

    def _raises(self, kernel, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                call()
        msg = str(err.value)
        for part in (f"{kernel.value} kernel", "x/b overflows", "x = 1e+300", "b = 1e-10",
                     "rescale the data"):
            assert part in msg

    @pytest.mark.parametrize("kernel", _X_OVER_B_KERNELS)
    def test_log_kernel(self, kernel):
        self._raises(kernel, lambda: log_kernel(kernel, self.X, self.B, np.array([self.X, 1.0])))
        self._raises(kernel, lambda: log_kernel(kernel, self.X, self.B, 1.0))

    @pytest.mark.parametrize("kernel", _X_OVER_B_KERNELS)
    def test_estimate_density(self, kernel):
        sample = Sample([0.5, 1.0, 2.0])
        self._raises(kernel, lambda: estimate_density(sample, kernel, self.B, [1.0, self.X]))

    @pytest.mark.parametrize("kernel", _X_OVER_B_KERNELS)
    def test_bandwidth_column(self, kernel):
        # the second sample of the stack overflows; the message names its b
        b = np.array([[1.0], [self.B]])
        self._raises(kernel, lambda: _LogKernel(kernel, np.array([2.0, self.X]), b))


# --- a single datum (a scalar) against a one-element array, one combine ------

def _array_datum_value(kernel, x, b, z):
    """``log_kernel`` of z as a one-element array, or the GekdeError type it raises."""
    with np.errstate(all="ignore"):  # the combine may warn at these extremes
        try:
            return float(log_kernel(kernel, x, b, np.array([z]))[0]).hex()
        except GekdeError as exc:
            return type(exc)


def _scalar_datum_value(kernel, x, b, z):
    """``log_kernel`` of a scalar datum, a float, or the GekdeError type it raises.

    Any RuntimeWarning fails.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = log_kernel(kernel, x, b, z)
        except GekdeError as exc:
            return type(exc)
    assert type(got) is float
    return got.hex()


_B_GE, _B_SQ = 0.1, 0.01


def _edge_cases():
    """(kernel, x, b, z) at the extremes and on every branch of the combine."""
    for kernel in Kernel:
        b = _B_GE if kernel in (Kernel.GE, Kernel.GE2) else _B_SQ
        x = 2.0
        for z in (5e-324, 1e-300, 1e300, x, 1.3 * x, 0.69 * b, 0.7 * b, 36.5 * b):
            yield pytest.param(kernel, x, b, z, id=f"{kernel.value}-z={z:g}")
    for kernel in (Kernel.GE, Kernel.GE2):
        # z/b underflows to 0, so log(1 - exp(-z/b)) is log(0)
        yield pytest.param(kernel, 20.0, 10.0, 5e-324, id=f"{kernel.value}-u=0")
        # z/b overflows to inf
        yield pytest.param(kernel, 1.0, 1e-10, 1e300, id=f"{kernel.value}-u=inf")
        # x/b > 700: the regrouped product, on both log(-L) branches, and where
        # exp(log shape + log(-L)) overflows
        for x, z in ((72.0, 3.0), (72.0, 72.0), (80.0, 80.0), (80.0, 1e-4), (80.0, 3.5),
                     (80.0, 3.7), (80.0, 5e-324), (80.0, 1e300)):
            yield pytest.param(kernel, x, 0.1, z, id=f"{kernel.value}-regrouped-x={x:g}-z={z:g}")
    edge = math.nextafter(_B_SQ, math.inf)
    for x in (edge, _B_SQ * (1.0 + 1e-12), _B_SQ):  # the last is outside the domain
        for z in (5e-324, 1e-12, _B_SQ, 1.0, 1e300):
            yield pytest.param(Kernel.RIG, x, _B_SQ, z, id=f"rig-x={x!r}-z={z:g}")
    yield pytest.param(Kernel.IG, 1e-300, 0.1, 2.0, id="ig-z/x-overflows")
    yield pytest.param(Kernel.IG, 1e300, 0.1, 5e-324, id="ig-x/z-overflows")
    yield pytest.param(Kernel.IG, 1e-200, 1e-200, 1.0, id="ig-denominator-underflows")


class TestFloatPath:
    """A scalar datum and a one-element array go through one combine: the same bits."""

    @pytest.mark.parametrize("kernel, x, b, z", list(_edge_cases()))
    def test_edge_cases_match_block_path(self, kernel, x, b, z):
        assert _scalar_datum_value(kernel, x, b, z) == _array_datum_value(kernel, x, b, z)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_around_the_location_matches_block_path(self, kernel):
        b = _B_GE if kernel in (Kernel.GE, Kernel.GE2) else _B_SQ
        for x in (0.37, 2.0, 9.0):
            for z in x * np.geomspace(0.2, 5.0, 101):
                got = _scalar_datum_value(kernel, x, b, z)
                assert got == _array_datum_value(kernel, x, b, z), (x, z)

    @settings(max_examples=400, deadline=None)
    @given(kernel=st.sampled_from(list(Kernel)),
           log_b=st.floats(-40.0, 10.0),
           log_r=st.floats(-12.0, 8.0),
           log_zx=st.one_of(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0)),
           raw_z=st.one_of(st.none(), st.floats(min_value=5e-324, max_value=1e308)))
    def test_matches_block_path_bit_for_bit(self, kernel, log_b, log_r, log_zx, raw_z):
        b = math.exp(log_b)
        r = math.exp(log_r)
        x = b * (1.0 + r) if kernel is Kernel.RIG else b * r
        z = x * math.exp(log_zx) if raw_z is None else raw_z
        assume(0.0 < z < math.inf)
        assert _scalar_datum_value(kernel, x, b, z) == _array_datum_value(kernel, x, b, z)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_scalar_builds_no_block(self, kernel):
        expected = log_kernel(kernel, 2.0, 0.1, np.array([1.5, 2.5]))
        for z, want in zip((1.5, np.float64(2.5), np.array(1.5)), (*expected, expected[0])):
            got = log_kernel(kernel, 2.0, 0.1, z)
            assert type(got) is float
            assert got.hex() == float(want).hex()
            assert type(kernel_pdf(kernel, 2.0, 0.1, z)) is float

    @pytest.mark.parametrize("z", [0.0, -1.0, math.inf, math.nan])
    def test_scalar_outside_domain(self, z):
        with pytest.raises(DomainError):
            log_kernel(Kernel.GAM1, 2.0, 0.1, z)


# --- the ig/rig quadratic term: accuracy, and exactly 0 at the location ------

def _array_and_scalar_datum(kernel, x, b, z):
    """``log_kernel`` of z as a one-element array and as a scalar, each without a warning."""
    block = _quietly(lambda: float(log_kernel(kernel, x, b, np.array([z]))[0]))
    return block, _quietly(lambda: log_kernel(kernel, x, b, z))


def _mp_terms(kernel, x, b, z):
    """The three terms of log K at 40 digits: normaliser, log z and quadratic term.

    For rig the scale is ``x - b`` rounded to a double, as the kernel takes
    it: that rounding comes before any form of the quadratic term.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s = mp.mpf(x) if kernel is Kernel.IG else mp.mpf(x - b)
        b, z = mp.mpf(b), mp.mpf(z)
        c = -mp.log(2 * mp.pi * b) / 2
        if kernel is Kernel.IG:
            return c, -1.5 * mp.log(z), -(z - s) ** 2 / (2 * b * s * s * z)
        return c, -mp.log(z) / 2, -(z - s) ** 2 / (2 * b * z)


class TestIgRigQuadraticTerm:
    """(z - s)**2 / (2 b z) for rig, (z - x)**2 / (2 b x**2 z) for ig, without cancellation."""

    @pytest.mark.parametrize("kernel", [Kernel.IG, Kernel.RIG], ids=lambda k: k.value)
    @pytest.mark.parametrize("b", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("delta", [-1e-9, 1e-9, -1e-6, 1e-6, 1e-3, 1.0, 10.0])
    def test_matches_40_digits_around_the_location(self, kernel, b, delta):
        # z = s (1 + delta), s the location (ig) or x - b (rig); the error is
        # at most 4 ulp of the largest of the three terms
        for s in (0.37, 1.0, 3.0):
            x = s if kernel is Kernel.IG else s + b
            z = (x if kernel is Kernel.IG else x - b) * (1.0 + delta)
            terms = _mp_terms(kernel, x, b, z)
            want = float(sum(terms))
            tol = 4.0 * math.ulp(max(abs(float(t)) for t in terms))
            for got in _array_and_scalar_datum(kernel, x, b, z):
                assert abs(got - want) <= tol, (s, got, want)

    @pytest.mark.parametrize("kernel, x, b", [
        (Kernel.IG, 1e-300, 0.1),
        (Kernel.IG, 1.0, np.finfo(float).tiny / 2.0),  # the smallest accepted 2*b*x
        (Kernel.IG, np.finfo(float).tiny, 0.5),        # the same, at the smallest x
        (Kernel.RIG, 2e-300, 1e-300),                  # x - b = 1e-300
        (Kernel.RIG, 1.3, 0.2),
    ])
    def test_zero_at_the_location(self, kernel, x, b):
        # at z = x (ig) or z = x - b (rig) the quadratic term is exactly 0, so
        # log K is the base term, finite, and no 0 * inf arises
        z = x if kernel is Kernel.IG else x - b
        k = 1.5 if kernel is Kernel.IG else 0.5
        want = -0.5 * math.log(2.0 * math.pi * b) - k * float(np.log(z))
        assert math.isfinite(want)
        assert _array_and_scalar_datum(kernel, x, b, z) == (want, want)

    @pytest.mark.parametrize("kernel", [Kernel.IG, Kernel.RIG], ids=lambda k: k.value)
    def test_data_terms_quiet_where_the_reciprocal_overflows(self, kernel):
        ev = _LogKernel(kernel, np.array([1.0]), 0.5)
        dat = _quietly(lambda: ev.data(np.array([1e-310, 1.0])))
        got = _quietly(lambda: ev.rows(dat))[0]
        assert got[0] == -math.inf and math.isfinite(got[1])

    def test_ig_where_2bz_overflows(self):
        # 1/(2 b z) is kept above 0, so an infinite (z - x)/x gives log K =
        # -inf, the exact value's overflow, not inf * 0
        assert _array_and_scalar_datum(Kernel.IG, 0.1, 1.0, 1e308) == (-math.inf, -math.inf)

    @pytest.mark.parametrize("kernel, x, b, what", [
        (Kernel.IG, 1e-310, 1e300, "1/x overflows"),
        (Kernel.RIG, math.nextafter(1e-300, math.inf), 1e-300, "1/(x - b) overflows"),
        (Kernel.RIG, 1e-300, 1e-310, "1/(2b) overflows"),
    ])
    def test_overflowing_location_reciprocal_is_rejected(self, kernel, x, b, what):
        sample = Sample([0.5, 1.0, 2.0])
        for call in (lambda: log_kernel(kernel, x, b, 1.0),
                     lambda: log_kernel(kernel, x, b, np.array([0.5, 1.0])),
                     lambda: estimate_density(sample, kernel, b, [x])):
            with pytest.raises(DomainError, match=re.escape(what)):
                _quietly(call)


# --- the gamma kernels: accuracy of the combine against 40 digits -----------

#: x/b of each case: gam1 shapes from 1 + 1e-9 to 1e6; gam2 shapes from
#: 1 + 1e-9 (6.4e-5**2/4) on its quadratic branch, x = 2b where the branches
#: meet, and up to 1e6 on its linear branch.
_GAMMA_RATIOS = (
    [(Kernel.GAM1, r) for r in (1e-9, 1e-3, 0.5, 1.0, 2.0, 37.5, 1e3, 1e6 - 1.0)]
    + [(Kernel.GAM2, r) for r in (6.4e-5, 0.1, 1.5, 2.0, 2.5, 37.5, 1e3, 1e6)])


class TestGammaLogKernelAccuracy:
    """log K = (k - 1) log z - z/b - k log b - log Gamma(k), to within the rounding of its terms."""

    @pytest.mark.parametrize("kernel, r", _GAMMA_RATIOS, ids=lambda v: getattr(v, "value", v))
    def test_matches_40_digits(self, kernel, r):
        # the shape is the double the kernel takes: its rounding comes before
        # any form of log K.  Data and b are scaled by 2**-600, 1 and 2**600,
        # which leaves the shape as it is and moves only log b.  The error is
        # at most 4 eps of the sum of the four terms' magnitudes.
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        for b0 in (1e-2, 0.7, 3.0):
            for scale in (-600, 0, 600):
                b = math.ldexp(b0, scale)
                x = r * b
                k = x / b + 1.0 if kernel is Kernel.GAM1 else gam2_shape(x, b)
                for m in (1e-3, 0.3, 1.0, 1.0 + 1e-6, 3.0, 30.0):
                    z = k * b * m
                    with mp.workdps(40):
                        kk, bb, zz = mp.mpf(k), mp.mpf(b), mp.mpf(z)
                        terms = ((kk - 1) * mp.log(zz), -zz / bb, -kk * mp.log(bb),
                                 -mp.loggamma(kk))
                        want = sum(terms)
                        tol = 4.0 * eps * float(sum(abs(t) for t in terms))
                    for got in _array_and_scalar_datum(kernel, x, b, z):
                        assert abs(float(mp.mpf(got) - want)) <= tol, (b0, scale, m, got)


# --- extremes of the block path: quiet, and the right value at shape 1 -------

def _quietly(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


class TestOverflowIsQuiet:
    """A quotient that overflows gives log K = -inf without a RuntimeWarning."""

    # the gamma kernels take the same z/b data term as the GE family
    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2])
    def test_ge_family_z_over_b(self, kernel):
        got = _quietly(lambda: log_kernel(kernel, 1.0, 1e-10, np.array([1e300, 2.0])))
        assert got[0] == -math.inf and math.isfinite(got[1])
        est = _quietly(lambda: estimate_density(Sample([1.0, 1e300]), kernel, 1e-10, [1.0, 2.0]))
        assert np.all(np.isfinite(est.values))

    def test_rig_s_over_z(self):
        got = _quietly(lambda: log_kernel(Kernel.RIG, 1.0, 0.5, np.array([1e-310, 1.0])))
        assert got[0] == -math.inf and math.isfinite(got[1])
        assert _quietly(lambda: log_kernel(Kernel.RIG, 1.0, 0.5, 1e-310)) == -math.inf
        est = _quietly(lambda: estimate_density(Sample([1e-310, 1.0]), Kernel.RIG, 0.5,
                                                [1.0, 2.0]))
        assert np.all(np.isfinite(est.values)) and np.all(est.values > 0.0)

    def test_rig_z_over_s(self):
        # z/s overflows, but the exact log K, (z - s)**2/(2 b z) below the
        # base term, is about -1e300: finite, and no factor of the combine
        # overflows
        edge = math.nextafter(0.5, math.inf)  # s = x - b is one ulp
        got = _quietly(lambda: log_kernel(Kernel.RIG, edge, 0.5, np.array([1e300])))
        assert got[0] == pytest.approx(-1e300, rel=1e-15)

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GAM1])
    def test_kernel_above_dbl_max_still_warns(self, kernel):
        # b = 1e-310 puts K near 1/b, above the largest double: that overflow
        # is not a quotient's and is reported
        sample = Sample([1e-310, 2e-310, 3e-310])
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            est = estimate_density(sample, kernel, 1e-310, [1e-310, 2e-310])
        assert np.all(np.isinf(est.values))


class TestUnitShape:
    """Shape 1 (ge at x = 0, ge2 at x = b): log K = -log b - z/b, even where z/b is 0."""

    @pytest.mark.parametrize("kernel, x, b", [(Kernel.GE, 0.0, 10.0), (Kernel.GE, 0.0, 1e10),
                                              (Kernel.GE, 5e-324, 10.0),
                                              (Kernel.GE2, 1e10, 1e10), (Kernel.GE2, 2.0, 2.0)])
    @pytest.mark.parametrize("z", [5e-324, 1e-320, 1e-300, 0.5, 3.0])
    def test_exponential_kernel(self, kernel, x, b, z):
        want = -math.log(b) - z / b
        block = _quietly(lambda: log_kernel(kernel, x, b, np.array([z])))[0]
        assert _scalar_datum_value(kernel, x, b, z) == float(block).hex() == want.hex()

    def test_estimate_at_origin(self):
        sample = Sample([5e-324, 1e-300, 0.5, 2.0])
        est = _quietly(lambda: estimate_density(sample, Kernel.GE, 10.0, [0.0, 1.0]))
        expect = np.mean(np.exp(-math.log(10.0) - sample.values / 10.0))
        assert est.values[0] == pytest.approx(expect, rel=1e-15)


def _mp_ge_log_kernel(kernel, x, b, z):
    """log K of ``ge`` or ``ge2`` at 50 digits, with L as ``log(-expm1(-z/b))``.

    The shape is that of the double x/b the kernel takes; the ``ge2`` shape
    is the 50-digit root of ``psi(1 + nu) = x/b - EULER_GAMMA``.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        r, bb, zz = mp.mpf(x / b), mp.mpf(b), mp.mpf(z)
        if kernel is Kernel.GE:
            shape = mp.exp(r)
        else:
            shape = mp.findroot(lambda v: mp.digamma(1 + v) + mp.euler - r, ge2_shape(x, b))
        return mp.log(shape) - mp.log(bb) + (shape - 1) * mp.log(-mp.expm1(-zz / bb)) - zz / bb


class TestSubnormalZOverB:
    """z/b below the smallest normal double: L is log z - log b, and log K is finite."""

    @pytest.mark.parametrize("kernel, x, b", [(Kernel.GE2, 0.2, 2.0), (Kernel.GE, 0.5, 1e10),
                                              (Kernel.GE, 20.0, 10.0)])
    def test_log_kernel_matches_50_digits(self, kernel, x, b):
        want = float(_mp_ge_log_kernel(kernel, x, b, 5e-324))
        got = _quietly(lambda: log_kernel(kernel, x, b, 5e-324))
        if kernel is Kernel.GE:
            assert abs(got - want) <= 4.0 * math.ulp(want), (got, want)
        else:  # the ge2 shape solve stops at an absolute 1e-12
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kernel, b, data, x, rel", [
        (Kernel.GE, 1e10, [5e-324, 3.0], 0.5, 1e-14),
        (Kernel.GE2, 2.0, [5e-324, 1.0], 0.2, 1e-12),
    ], ids=["ge", "ge2"])
    def test_estimate_matches_50_digits(self, kernel, b, data, x, rel):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = float(sum(mp.exp(_mp_ge_log_kernel(kernel, x, b, z)) for z in data) / 2)
        got = _quietly(lambda: estimate_density(Sample(data), kernel, b, [x])).values[0]
        assert got == pytest.approx(want, rel=rel, abs=0.0)


# --- the GE/gamma block as one matrix product, against the broadcast ---------

def _broadcast_rows(ev, z, lo=0, hi=None):
    """The broadcast combine ``(c0 + (shape - 1) L) - z/b``, transcribed.

    The per-datum terms are computed here from z; the location terms are the
    evaluator's.  The GE L is ``log z - log b`` where z/b is below the normal
    range, and the rows whose log shape exceeds 700 take
    ``-exp(log shape + log(-L))`` for the product (shape - 1) L.
    """
    shape_m1, c0 = ev.mat[lo:hi, 0:1], ev.mat[lo:hi, 1:2]
    with np.errstate(all="ignore"):
        u = z / ev.b
        if ev.kernel in (Kernel.GAM1, Kernel.GAM2):
            L = np.log(z)
        else:
            L = np.where(u > math.log(2.0), np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))
            L = np.where(u < _TINY, np.log(z) - math.log(ev.b), L)
        T = shape_m1 * L
        if ev.kernel in (Kernel.GE, Kernel.GE2):
            log_shape = ev.side[lo:hi, 0]
            big = log_shape > 700.0
            log_neg_l = np.where(u > 36.0, -u + np.log1p(0.5 * np.exp(-u)),
                                 np.log(-np.where(L < 0.0, L, -1.0)))
            T[big] = -np.exp(log_shape[big, None] + log_neg_l)
        return (c0 + T) - u


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


_PRODUCT_KERNELS = [Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2]


class TestProductCombine:
    """``_LogKernel.rows`` of the GE and gamma kernels keeps the broadcast's bits.

    Columns of the data terms and samples of a stack are also checked for
    ``ig`` and ``rig``, against the terms of those data alone.
    """

    @staticmethod
    def _case(kernel, n, seed=0):
        rng = np.random.default_rng(seed)
        z = np.sort(rng.gamma(3.0, 1.0, n))
        b = 0.4 if kernel in (Kernel.GE, Kernel.GE2) else 0.16
        return z, b, np.linspace(0.05, 14.0, 256)

    @pytest.mark.parametrize("kernel", _PRODUCT_KERNELS, ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [2, 100, 16385, 20000])
    def test_blocks_of_one_two_and_256_rows(self, kernel, n):
        z, b, grid = self._case(kernel, n)
        ev = _LogKernel(kernel, grid, b)
        dat = ev.data(z)
        for lo, hi in ((0, 1), (255, 256), (117, 118), (0, 2), (200, 202), (0, 256)):
            assert _same_bits(ev.rows(dat, lo, hi), _broadcast_rows(ev, z, lo, hi)), (lo, hi)
        assert _same_bits(ev.rows(dat), _broadcast_rows(ev, z))

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [100, 20000])
    def test_window_slices_and_probe_columns(self, kernel, n):
        # ig and rig, which have no broadcast transcription here, take the
        # terms of the sliced data as reference
        z, b, grid = self._case(kernel, n, seed=1)
        if kernel is Kernel.RIG:
            grid = grid[grid > b]
        ev = _LogKernel(kernel, grid, b)
        dat = ev.data(z)
        k = n // 32
        columns = [slice(3, n - 5), slice(n // 3, n // 3 + 7), slice(n - 1, n),
                   [k, n - 1 - k], np.arange(0, n, 32), np.array([n - 1, 0, n // 2])]
        for cols in columns:
            sub = dat[..., cols]
            for lo, hi in ((40, 41), (0, 2), (0, grid.size)):
                if kernel in _PRODUCT_KERNELS:
                    want = _broadcast_rows(ev, z[cols], lo, hi)
                else:
                    want = ev.rows(ev.data(z[cols]), lo, hi)
                assert _same_bits(ev.rows(sub, lo, hi), want), (cols, lo, hi)

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2], ids=lambda k: k.value)
    def test_special_rows_mixed_with_plain_rows(self, kernel):
        # ge: x = 0 has shape 1; x/b past 700 from x = 70.1 is regrouped.
        # ge2: its shape is 1 at x = b, and regrouped from x/b of about 700.6
        b = 0.1
        if kernel is Kernel.GE:
            grid = np.concatenate([[0.0, 1e-3], np.linspace(0.5, 69.0, 6), [70.2, 80.0, 200.0]])
        else:
            grid = np.concatenate([[0.05, b, 0.3], np.linspace(1.0, 69.0, 5), [70.2, 90.0]])
        z = np.concatenate([[5e-324, 1e-300, 1e-5], np.geomspace(0.01, 300.0, 97), [1e300]])
        ev = _LogKernel(kernel, grid, b)
        assert ev.special
        big = ev.side[:, 0] > 700.0
        assert big.any() and not big.all()
        dat = _quietly(lambda: ev.data(z))
        for lo in range(grid.size):
            for hi in (lo + 1, lo + 2, None):
                got = _quietly(lambda: ev.rows(dat, lo, hi))
                assert _same_bits(got, _broadcast_rows(ev, z, lo, hi)), (lo, hi)
        cols = [0, 50, 99]
        got = _quietly(lambda: ev.rows(dat[..., cols]))
        assert _same_bits(got, _broadcast_rows(ev, z[cols]))

    def test_ge2_shape_below_one(self):
        # x < b gives nu < 1: shape - 1 is negative, and (shape - 1) L is
        # large where z/b underflows to 0, where L is log z - log b: log K is
        # within 1e-12 of its 50-digit value there, above log DBL_MAX
        b = 2.0
        grid = np.linspace(0.01, 1.9, 40)
        ev = _LogKernel(Kernel.GE2, grid, b)
        assert np.all(ev.mat[:, 0] < 0.0)
        z = np.concatenate([[5e-324], np.geomspace(1e-3, 50.0, 60)])
        dat = _quietly(lambda: ev.data(z))
        got = ev.rows(dat)
        assert abs(got[0, 0] - 736.37630385279985) <= 1e-12
        assert _same_bits(got, _broadcast_rows(ev, z))
        for lo in (0, 17, 39):
            assert _same_bits(ev.rows(dat, lo, lo + 1), _broadcast_rows(ev, z, lo, lo + 1))

    @pytest.mark.parametrize("kernel", _PRODUCT_KERNELS, ids=lambda k: k.value)
    @pytest.mark.parametrize("b", [1e-10, 1e10], ids=["z/b=inf", "z/b=0"])
    def test_z_over_b_overflow_and_underflow(self, kernel, b):
        # b = 1e-10: z/b overflows to inf at z = 1e300; b = 1e10: it is 0 at
        # the smallest subnormal
        grid = b * np.array([0.5, 1.0, 3.0, 20.0])
        z = np.array([5e-324, 1e-310, 1e-300, 1e-12, 1.0, 1e299, 1e300, 1e308])
        ev = _LogKernel(kernel, grid, b)
        dat = _quietly(lambda: ev.data(z))
        u = -dat[2]
        assert (np.isinf(u).any() if b < 1.0 else (u == 0.0).any())
        got = ev.rows(dat)
        # -inf only where z/b is inf; finite where it is 0, for GE through
        # L = log z - log b
        assert np.array_equal(np.isfinite(got), np.broadcast_to(np.isfinite(u), got.shape))
        assert (got[:, np.isinf(u)] == -math.inf).all()
        assert _same_bits(got, _broadcast_rows(ev, z))
        for lo in range(grid.size):
            assert _same_bits(ev.rows(dat, lo, lo + 1), _broadcast_rows(ev, z, lo, lo + 1))

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_stack_of_samples(self, kernel):
        # one evaluator for three samples with three bandwidths, one at a
        # time; ig and rig take the terms of each sample alone as reference
        rng = np.random.default_rng(4)
        values = np.sort(rng.gamma(3.0, 1.0, (3, 100)), axis=1)
        b = np.array([0.2, 0.4, 0.9])
        grid = np.linspace(0.05, 14.0, 64)
        if kernel is Kernel.RIG:
            grid = grid[grid > b.max()]
        ev = _LogKernel(kernel, grid, b[:, None])
        data = ev.data(values)
        for r in range(b.size):
            sub, dat = ev.take(r), data[r]
            single = _LogKernel(kernel, grid, float(b[r]))
            if kernel not in _PRODUCT_KERNELS:
                assert _same_bits(dat, single.data(values[r]))
            for lo, hi in ((0, None), (5, 6)):
                if kernel in _PRODUCT_KERNELS:
                    want = _broadcast_rows(single, values[r], lo, hi)
                else:
                    want = single.rows(single.data(values[r]), lo, hi)
                assert _same_bits(sub.rows(dat, lo, hi), want), (r, lo, hi)


class TestOutputBuffer:
    """``rows(..., out=buf)`` writes the block into ``buf[0]`` with the bits of ``rows(...)``."""

    @staticmethod
    def _case(kernel):
        # ge: x = 0 (shape 1) and x/b past 700; ge2: shape 1 at x = b and x/b
        # past 700; data from the smallest subnormal to 1e300
        z = np.concatenate([[5e-324, 1e-300, 1e-5], np.geomspace(0.01, 300.0, 97), [1e300]])
        if kernel is Kernel.GE:
            return z, 0.1, np.concatenate([[0.0, 1e-3], np.linspace(0.5, 69.0, 3),
                                           [70.2, 200.0]])
        if kernel is Kernel.GE2:
            return z, 0.1, np.concatenate([[0.05, 0.1, 0.3], np.linspace(1.0, 69.0, 2),
                                           [70.2, 90.0]])
        return z, 0.01, np.geomspace(0.02, 200.0, 7)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_same_bits_at_heights_one_to_four(self, kernel):
        z, b, grid = self._case(kernel)
        ev = _LogKernel(kernel, grid, b)
        if kernel in (Kernel.GE, Kernel.GE2):  # shape 1, and two past 700
            assert (ev.mat[:, 0] == 0.0).sum() == 1 and (ev.side[:, 0] > 700.0).sum() == 2
        dat = _quietly(lambda: ev.data(z))
        junk = np.resize([np.nan, np.inf, -np.inf, -0.0], (2, 4, z.size))
        for height in range(1, 5):
            for lo in range(grid.size - height + 1):
                buf = junk.copy()
                want = _quietly(lambda: ev.rows(dat, lo, lo + height))
                got = _quietly(lambda: ev.rows(dat, lo, lo + height, out=buf[:, :height]))
                assert _same_bits(got, want), (height, lo)
                assert _same_bits(buf[0, :height], want), (height, lo)


class TestGrids:
    """``rows`` of a run of samples' grids has, sample by sample, one sample's bits."""

    @staticmethod
    def _matches_rows(ev, values):
        """``rows`` of samples 1-3 of a stack of 4, written over NaN and inf, against one sample's.

        Returns the block and the data terms.
        """
        data = _quietly(lambda: ev.data(values))
        size, n = ev.mat.shape[1], values.shape[1]
        got = _quietly(lambda: ev.take(slice(1, 4)).rows(data[1:4], out=np.resize(
            [np.nan, np.inf, -np.inf, -0.0], (2, 3, size, n))))
        assert got.shape == (3, size, n)
        for j in range(3):
            want = _quietly(lambda: ev.take(j + 1).rows(data[j + 1]))
            assert _same_bits(got[j], want), j
        return got, data

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    @pytest.mark.parametrize("size, n", [(2, 2), (3, 7), (5, 100), (64, 300)])
    def test_matches_rows(self, kernel, size, n):
        # whole grids of at least 2 points: numpy sends each slice of the
        # stacked product to gemm; the block's old contents never reach it
        rng = np.random.default_rng(size * n)
        values = np.sort(rng.gamma(3.0, 1.0, (4, n)), axis=1)
        b = np.array([0.2, 0.3, 0.5, 0.9])
        self._matches_rows(_LogKernel(kernel, np.linspace(1.0, 9.0, size), b[:, None]), values)

    @staticmethod
    def _with_shifts(kernel, grid, b, others):
        """An ig or rig stack whose sample r has each x (ig) or x - b[r] (rig) among ``others``."""
        ev = _LogKernel(kernel, grid, b[:, None])
        shift = -ev.mat[..., 1]
        return ev, shift, np.sort(np.concatenate([shift, others], axis=1), axis=1)

    @pytest.mark.parametrize("kernel", [Kernel.IG, Kernel.RIG], ids=lambda k: k.value)
    @pytest.mark.parametrize("b", [[0.0625, 0.125, 0.25, 0.5], [1e-12, 3e-12, 1e-11, 1e-10]],
                             ids=["b", "small-b"])
    def test_zero_at_the_shift(self, kernel, b):
        # at z = x (ig) or z = x - b (rig) the product's z + (-s) is exactly
        # 0, and so is the quadratic term, also where 1/(2b) is 5e11: log K
        # is the data term base there
        b = np.array(b)
        rng = np.random.default_rng(38)
        ev, shift, values = self._with_shifts(
            kernel, np.array([1.0, 2.0, 3.0, 7.5]), b, rng.gamma(3.0, 1.0, (4, 20)))
        got, data = self._matches_rows(ev, values)
        for j in range(3):
            for g in range(4):
                at = np.flatnonzero(values[j + 1] == shift[j + 1, g])
                assert at.size
                assert _same_bits(got[j, g, at], data[j + 1, 2, at]), (j, g)

    @pytest.mark.parametrize("kernel", [Kernel.IG, Kernel.RIG], ids=lambda k: k.value)
    def test_overflow_near_1e300(self, kernel):
        # z - s near 1e300 times 1/x (ig) or 1/(2b) (rig) overflows: log K is -inf
        b = np.array([1e-13, 2e-13, 5e-13, 1e-12])
        big = np.broadcast_to([1e299, 1e300, 3e300, 1e302], (4, 4))
        ev, _, values = self._with_shifts(kernel, np.array([1e-3, 1.0, 3.0]), b,
                                          np.concatenate([big, np.full((4, 2), 2.5)], axis=1))
        got, _ = self._matches_rows(ev, values)
        assert (got[..., -4:] == -np.inf).all()
        assert np.isfinite(got[..., :-4]).all()

    def test_special_ge_rows(self):
        # x = 90 has x/b = 900 and 750: each sample has a regrouped row, which
        # takes log(-L) from that sample's own rows L and -z/b, and the two
        # samples' z/b differ; x = 0 has shape 1, the product as it is
        values = np.stack([np.geomspace(0.01, 300.0, 50), np.geomspace(0.02, 250.0, 50)])
        b = np.array([[0.1], [0.12]])
        ev = _LogKernel(Kernel.GE, np.array([0.0, 1.0, 90.0]), b)
        assert ev.special and (ev.side[:, 2, 0] > 700.0).all()
        assert not (ev.side[:, :2, 0] > 700.0).any()
        assert not np.isin(values[0] / b[0], values[1] / b[1]).any()
        data = _quietly(lambda: ev.data(values))
        got = _quietly(lambda: ev.take(slice(0, 2)).rows(data[0:2], out=np.empty((2, 2, 3, 50))))
        for r in range(2):
            assert _same_bits(got[r], _quietly(lambda: ev.take(r).rows(data[r]))), r


class TestGe2ShapeUnderflow:
    """x > 0 whose x/b underflows to 0 (a ge2 shape of 0): a rescale error naming x and b."""

    def _raises(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                call()
        msg = str(err.value)
        for part in ("ge2 kernel", "x/b underflows", "x = 5e-324", "b = 2.0", "rescale the data"):
            assert part in msg

    def test_log_kernel(self):
        self._raises(lambda: log_kernel(Kernel.GE2, 5e-324, 2.0, 1.0))
        self._raises(lambda: log_kernel(Kernel.GE2, 5e-324, 2.0, np.array([1.0, 2.0])))

    def test_estimate_density(self):
        sample = Sample([0.5, 1.0, 2.0])
        self._raises(lambda: estimate_density(sample, Kernel.GE2, 2.0, [5e-324, 1.0]))


class TestDataTerms:
    """``_LogKernel.data`` returns one array of the rows the kernel has, never a placeholder."""

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    @pytest.mark.parametrize("x_max", [3.0, 800.0])
    def test_terms(self, kernel, x_max):
        # at x/b = 800 the ge and ge2 shapes exceed exp(700): those rows are
        # regrouped, from the same three data rows
        grid = np.linspace(2.0, x_max, 5)
        ev = _LogKernel(kernel, grid, 1.0)
        dat = _quietly(lambda: ev.data(np.array([0.5, 1.0, 4.0])))
        assert isinstance(dat, np.ndarray) and dat.dtype == np.float64
        # every kernel's data lead with its product rows, the ones row at index 1
        assert (dat[1] == 1.0).all()
        if kernel in _PRODUCT_KERNELS:
            assert dat.shape == (3, 3)
            assert ev.special == (kernel in (Kernel.GE, Kernel.GE2) and x_max > 700.0)
            assert ev.mat.shape == (5, 3)
        else:
            # [z, 1, base, w]: rows 0 and 1 are the data matrix of a stack's ``rows``
            assert dat.shape == (4, 3) and _same_bits(dat[0], np.array([0.5, 1.0, 4.0]))
            assert ev.mat.shape == (5, 2)
        cols = dat[..., [0, 2]]
        assert isinstance(cols, np.ndarray) and cols.shape == dat.shape[:-1] + (2,)


def _log1mexp_gathered(u):
    """log(1 - exp(-u)) by gathering each form's entries and scattering them back."""
    out = np.empty_like(u)
    big = u > math.log(2.0)
    out[big] = np.log1p(-np.exp(-u[big]))
    small = ~big
    with np.errstate(divide="ignore"):
        out[small] = np.log(-np.expm1(-u[small]))
    return out


class TestLog1mexp:
    """The masked, in-place ``_log1mexp`` against the gather form, hex for hex."""

    @staticmethod
    def _values():
        log2 = math.log(2.0)
        edges = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, np.nextafter(log2, 0.0), log2,
                 np.nextafter(log2, 1.0), 1e300, np.inf, np.nan]
        rng = np.random.default_rng(4)
        return np.concatenate([edges, np.linspace(36.0, 37.0, 257), np.linspace(745.0, 746.0, 257),
                               rng.exponential(2.0, 400), 10.0 ** rng.uniform(-320.0, 300.0, 400)])

    @pytest.mark.parametrize("order", ["as_made", "sorted", "shuffled"])
    @pytest.mark.parametrize("shape", [(-1,), (6, -1)], ids=["1-d", "R-by-n"])
    def test_bits_of_the_gather_form(self, order, shape):
        u = self._values()
        if order == "sorted":
            u = np.sort(u)
        elif order == "shuffled":
            u = np.random.default_rng(5).permutation(u)
        u = u[:u.size // 6 * 6].reshape(shape)
        want = _log1mexp_gathered(u).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _log1mexp(u).tobytes() == want
            out = np.full_like(u, 7.0)
            assert _log1mexp(u, out=out) is out and out.tobytes() == want
            inplace = u.copy()
            _log1mexp(inplace, out=inplace)
            assert inplace.tobytes() == want
            # a strided row, as the data terms of a stack of samples are
            rows = np.full(u.shape[:-1] + (3, u.shape[-1]), 7.0)
            _log1mexp(u, out=rows[..., 0, :])
            assert rows[..., 0, :].tobytes() == want

