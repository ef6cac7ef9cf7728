import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from gekde import (
    BoundaryDegeneracyError,
    DomainError,
    EULER_GAMMA,
    Kernel,
    digamma,
    gam2_shape,
    ge2_shape,
    Sample,
    estimate_density,
    kernel_pdf,
    log_kernel,
    trigamma,
)


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
