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
from gekde.estimator import _columns
from gekde.kernels import _LogKernel, _point_log_kernel


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


# --- the float path of a single datum against the block combine -------------

def _block_value(kernel, x, b, z):
    """log K through ``rows(data([z]))``, or the GekdeError type it raises."""
    try:
        log_k = _point_log_kernel(kernel, x, b)  # an array datum runs the block combine
    except GekdeError as exc:
        return type(exc)
    with np.errstate(all="ignore"):  # the block path may warn at these extremes
        return float(log_k(np.array([z]))[0]).hex()


def _float_value(kernel, x, b, z):
    """log K through the float path; any RuntimeWarning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            log_k = _point_log_kernel(kernel, x, b)
        except GekdeError as exc:
            return type(exc)
        got = log_k(z)
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
    @pytest.mark.parametrize("kernel, x, b, z", list(_edge_cases()))
    def test_edge_cases_match_block_path(self, kernel, x, b, z):
        assert _float_value(kernel, x, b, z) == _block_value(kernel, x, b, z)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_around_the_location_matches_block_path(self, kernel):
        b = _B_GE if kernel in (Kernel.GE, Kernel.GE2) else _B_SQ
        for x in (0.37, 2.0, 9.0):
            for z in x * np.geomspace(0.2, 5.0, 101):
                assert _float_value(kernel, x, b, z) == _block_value(kernel, x, b, z), (x, z)

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
        assert _float_value(kernel, x, b, z) == _block_value(kernel, x, b, z)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    def test_scalar_builds_no_block(self, kernel, monkeypatch):
        log_k = _point_log_kernel(kernel, 2.0, 0.1)
        expected = log_k(np.array([1.5, 2.5]))

        def no_block(*args, **kwargs):
            raise AssertionError("a scalar datum went through the block combine")

        monkeypatch.setattr(_LogKernel, "data", no_block)
        monkeypatch.setattr(_LogKernel, "rows", no_block)
        for z, want in zip((1.5, np.float64(2.5)), expected):
            got = log_k(z)
            assert type(got) is float
            assert got.hex() == float(want).hex()
        assert type(log_k(np.array(1.5))) is float

    @pytest.mark.parametrize("z", [0.0, -1.0, math.inf, math.nan])
    def test_scalar_outside_domain(self, z):
        with pytest.raises(DomainError):
            _point_log_kernel(Kernel.GAM1, 2.0, 0.1)(z)


# --- the ig/rig quadratic term: accuracy, and exactly 0 at the location ------

def _both_paths(kernel, x, b, z):
    """log K through the block path and the float path, each without a warning."""
    log_k = _quietly(lambda: _point_log_kernel(kernel, x, b))
    block = _quietly(lambda: float(log_k(np.array([z]))[0]))
    return block, _quietly(lambda: log_k(z))


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
            for got in _both_paths(kernel, x, b, z):
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
        assert _both_paths(kernel, x, b, z) == (want, want)

    @pytest.mark.parametrize("kernel", [Kernel.IG, Kernel.RIG], ids=lambda k: k.value)
    def test_data_terms_quiet_where_the_reciprocal_overflows(self, kernel):
        ev = _LogKernel(kernel, np.array([1.0]), 0.5)
        dat = _quietly(lambda: ev.data(np.array([1e-310, 1.0])))
        got = _quietly(lambda: ev.rows(dat))[0]
        assert got[0] == -math.inf and math.isfinite(got[1])

    def test_ig_where_2bz_overflows(self):
        # 1/(2 b z) is kept above 0, so an infinite (z - x)/x gives log K =
        # -inf, the exact value's overflow, not inf * 0
        assert _both_paths(Kernel.IG, 0.1, 1.0, 1e308) == (-math.inf, -math.inf)

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
                    for got in _both_paths(kernel, x, b, z):
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
        log_k = _point_log_kernel(kernel, x, b)
        block = _quietly(lambda: log_k(np.array([z])))[0]
        assert _float_value(kernel, x, b, z) == float(block).hex() == want.hex()

    def test_estimate_at_origin(self):
        sample = Sample([5e-324, 1e-300, 0.5, 2.0])
        est = _quietly(lambda: estimate_density(sample, Kernel.GE, 10.0, [0.0, 1.0]))
        expect = np.mean(np.exp(-math.log(10.0) - sample.values / 10.0))
        assert est.values[0] == pytest.approx(expect, rel=1e-15)


# --- the GE/gamma block as one matrix product, against the broadcast ---------

def _broadcast_rows(ev, z, lo=0, hi=None):
    """The broadcast combine ``(c0 + (shape - 1) L) - z/b``, transcribed.

    The per-datum terms are computed here from z; the location terms are the
    evaluator's.  GE special rows take ``-exp(log shape + log(-L))`` (past
    ``exp(700)``) or ``-0.0`` (shape 1) for the product (shape - 1) L.
    """
    c0, shape_m1 = (t[lo:hi] for t in ev.loc[:2])
    with np.errstate(all="ignore"):
        u = z / ev.b
        if ev.kernel in (Kernel.GAM1, Kernel.GAM2):
            L = np.log(z)
        else:
            L = np.where(u > math.log(2.0), np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))
        T = shape_m1 * L
        if ev.kernel in (Kernel.GE, Kernel.GE2):
            log_shape, special = ev.loc[2][lo:hi, 0], ev.loc[3][lo:hi, 0]
            big = special & (log_shape > 700.0)
            log_neg_l = np.where(u > 36.0, -u + np.log1p(0.5 * np.exp(-u)),
                                 np.log(-np.where(L < 0.0, L, -1.0)))
            T[big] = -np.exp(log_shape[big, None] + log_neg_l)
            T[special & ~big] = -0.0
        return (c0 + T) - u


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


_PRODUCT_KERNELS = [Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.GAM2]


class TestProductCombine:
    """``_LogKernel.rows`` of the GE and gamma kernels keeps the broadcast's bits."""

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

    @pytest.mark.parametrize("kernel", _PRODUCT_KERNELS, ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [100, 20000])
    def test_window_slices_and_probe_columns(self, kernel, n):
        z, b, grid = self._case(kernel, n, seed=1)
        ev = _LogKernel(kernel, grid, b)
        dat = ev.data(z)
        k = n // 32
        columns = [slice(3, n - 5), slice(n // 3, n // 3 + 7), slice(n - 1, n),
                   [k, n - 1 - k], np.arange(0, n, 32), np.array([n - 1, 0, n // 2])]
        for cols in columns:
            sub = _columns(dat, cols)
            for lo, hi in ((40, 41), (0, 2), (0, 256)):
                want = _broadcast_rows(ev, z[cols], lo, hi)
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
        assert ev.regroup and ev.special
        special = ev.loc[3][:, 0]
        assert special.any() and not special.all()
        dat = _quietly(lambda: ev.data(z))
        for lo in range(grid.size):
            for hi in (lo + 1, lo + 2, None):
                got = _quietly(lambda: ev.rows(dat, lo, hi))
                assert _same_bits(got, _broadcast_rows(ev, z, lo, hi)), (lo, hi)
        cols = [0, 50, 99]
        got = _quietly(lambda: ev.rows(_columns(dat, cols)))
        assert _same_bits(got, _broadcast_rows(ev, z[cols]))

    def test_ge2_shape_below_one(self):
        # x < b gives nu < 1: shape - 1 is negative, and (shape - 1) L is
        # +inf where z/b underflows to 0
        b = 2.0
        grid = np.linspace(0.01, 1.9, 40)
        ev = _LogKernel(Kernel.GE2, grid, b)
        assert np.all(ev.loc[1] < 0.0)
        z = np.concatenate([[5e-324], np.geomspace(1e-3, 50.0, 60)])
        dat = _quietly(lambda: ev.data(z))
        got = ev.rows(dat)
        assert got[0, 0] == math.inf
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
        u = -dat[0][2]
        assert (np.isinf(u).any() if b < 1.0 else (u == 0.0).any())
        got = ev.rows(dat)
        # -inf where z/b is inf, and for GE where L = log(1 - exp(-0)) is -inf
        assert bool(np.isfinite(got).all()) == (b > 1.0 and kernel in (Kernel.GAM1, Kernel.GAM2))
        assert _same_bits(got, _broadcast_rows(ev, z))
        for lo in range(grid.size):
            assert _same_bits(ev.rows(dat, lo, lo + 1), _broadcast_rows(ev, z, lo, lo + 1))

    @pytest.mark.parametrize("kernel", _PRODUCT_KERNELS, ids=lambda k: k.value)
    def test_stack_of_samples(self, kernel):
        # one evaluator for three samples with three bandwidths, one at a time
        rng = np.random.default_rng(4)
        values = np.sort(rng.gamma(3.0, 1.0, (3, 100)), axis=1)
        b = np.array([0.2, 0.4, 0.9])
        grid = np.linspace(0.05, 14.0, 64)
        ev = _LogKernel(kernel, grid, b[:, None])
        data = ev.data(values)
        for r in range(b.size):
            sub, dat = ev.take(r), tuple(None if t is None else t[r] for t in data)
            single = _LogKernel(kernel, grid, float(b[r]))
            assert _same_bits(sub.rows(dat), _broadcast_rows(single, values[r]))
            assert _same_bits(sub.rows(dat, 5, 6), _broadcast_rows(single, values[r], 5, 6))


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
    """``_LogKernel.data`` returns only the terms the kernel has, never a placeholder."""

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    @pytest.mark.parametrize("x_max", [3.0, 800.0])
    def test_terms(self, kernel, x_max):
        # at x/b = 800 the ge and ge2 shapes exceed exp(700): those rows are regrouped
        grid = np.linspace(2.0, x_max, 5)
        ev = _LogKernel(kernel, grid, 1.0)
        dat = _quietly(lambda: ev.data(np.array([0.5, 1.0, 4.0])))
        if kernel in _PRODUCT_KERNELS:
            assert len(dat) == 1 + ev.regroup
            assert ev.regroup == (kernel in (Kernel.GE, Kernel.GE2) and x_max > 700.0)
            assert dat[0].shape == (3, 3) and ev.mat.shape == (5, 3)
        else:
            assert len(dat) == 3
        assert all(isinstance(t, np.ndarray) for t in dat)
        assert all(isinstance(t, np.ndarray) for t in _columns(dat, [0, 2]))
