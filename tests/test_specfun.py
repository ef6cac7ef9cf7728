import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gekde import (
    ConvergenceError,
    DomainError,
    EULER_GAMMA,
    SpecFunConfig,
    digamma,
    inverse_digamma,
    log_gamma,
    trigamma,
)

import refvals


class TestLogGamma:
    def test_exact_zeros(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_reference_values(self):
        for x, ref in refvals.LOG_GAMMA.items():
            got = log_gamma(x)
            if ref == 0.0:
                assert got == 0.0
            else:
                assert abs(got - ref) <= 1e-13 * abs(ref), x

    def test_matches_digamma_derivative(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.5, 50.0, 100)
        h = 1e-5
        num = (log_gamma(xs + h) - log_gamma(xs - h)) / (2.0 * h)
        assert np.max(np.abs(num - digamma(xs))) < 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestDigamma:
    def test_reference_values(self):
        for x, ref in refvals.DIGAMMA.items():
            assert abs(digamma(x) - ref) <= 1e-12, x

    def test_euler_constant(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_large_argument_expansion(self):
        # psi(x) ~ ln x - 1/(2x) for large x
        assert abs(digamma(1000.0) - (math.log(1000.0) - 0.0005)) < 1e-7

    @given(st.floats(min_value=1e-3, max_value=100.0, allow_nan=False))
    def test_recurrence(self, x):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11

    def test_monotone_increasing(self):
        xs = np.logspace(-3, 6, 400)
        vals = digamma(xs)
        assert np.all(np.diff(vals) > 0.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        xs = 10.0 ** rng.uniform(-3, 8, 500)
        assert np.max(np.abs(digamma(xs) - special.digamma(xs))) < 1e-11

    def test_array_shape(self):
        xs = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert digamma(xs).shape == (2, 2)

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)


class TestTrigamma:
    def test_reference_values(self):
        for x, ref in refvals.TRIGAMMA.items():
            assert abs(trigamma(x) - ref) <= 1e-12, x

    def test_pi_squared_over_six(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
        assert trigamma(2.0) == pytest.approx(math.pi ** 2 / 6.0 - 1.0, abs=1e-12)

    @given(st.floats(min_value=0.03, max_value=100.0, allow_nan=False))
    def test_recurrence(self, x):
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) <= 1e-11

    def test_strictly_positive(self):
        xs = np.logspace(-3, 8, 400)
        assert np.all(trigamma(xs) > 0.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        xs = 10.0 ** rng.uniform(-1, 8, 500)
        assert np.max(np.abs(trigamma(xs) - special.polygamma(1, xs))) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            trigamma(-0.5)


class TestInverseDigamma:
    def test_at_one(self):
        assert inverse_digamma(-EULER_GAMMA) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_example(self):
        assert inverse_digamma(digamma(7.3)) == pytest.approx(7.3, rel=1e-10)

    @settings(max_examples=150)
    @given(st.floats(min_value=-2.0, max_value=6.0, allow_nan=False))
    def test_round_trip(self, e):
        x = 10.0 ** e
        assert inverse_digamma(digamma(x)) == pytest.approx(x, rel=1e-9)

    def test_against_bisection_oracle(self):
        # independent root-finder for psi(x) = 20 using scipy's digamma
        y = 20.0
        lo, hi = math.exp(20.0) / 2.0, 2.0 * math.exp(20.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if special.digamma(mid) < y:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert inverse_digamma(20.0) == pytest.approx(oracle, rel=1e-12)
        assert inverse_digamma(20.0) == pytest.approx(math.exp(20.0) + 0.5, rel=1e-8)

    def test_vector_input(self):
        ys = np.array([-1.0, 0.0, 3.0])
        xs = inverse_digamma(ys)
        assert np.max(np.abs(digamma(xs) - ys)) <= 1e-12

    def test_residual_tolerance_honoured(self):
        cfg = SpecFunConfig(newton_tol=1e-10)
        x = inverse_digamma(2.5, cfg)
        assert abs(digamma(x) - 2.5) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(min_value=-100.0, max_value=700.0),
                              st.floats(min_value=-3.0, max_value=40.0)),
                    min_size=1, max_size=40))
    def test_array_equals_scalar_calls_bitwise(self, ys):
        # each entry iterates only until it converges, so sharing a call
        # with other entries never changes its bits
        arr = inverse_digamma(np.array(ys))
        each = np.array([inverse_digamma(y) for y in ys])
        assert np.array_equal(arr, each)

    def test_unrepresentable_root(self):
        # the root exceeds the double range for y beyond ~709.8
        with pytest.raises(ConvergenceError) as err:
            inverse_digamma(800.0)
        assert err.value.last_iterate is not None
        assert err.value.residual is not None

    def test_domain(self):
        with pytest.raises(DomainError):
            inverse_digamma(math.inf)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SpecFunConfig(newton_tol=0.0)
        with pytest.raises(DomainError):
            SpecFunConfig(newton_max_iter=0)
        with pytest.raises(DomainError):
            SpecFunConfig(asymptotic_cutoff=4.0)

    def test_higher_cutoff_still_accurate(self):
        cfg = SpecFunConfig(asymptotic_cutoff=10.0)
        for x, ref in refvals.DIGAMMA.items():
            assert abs(digamma(x, cfg) - ref) <= 1e-12, x
