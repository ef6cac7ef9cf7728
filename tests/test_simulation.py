import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import gekde.simulation
from gekde import (
    CONFIGURATIONS,
    ConvergenceError,
    CoverageError,
    DensityEstimate,
    DomainError,
    ExperimentConfig,
    GammaDensity,
    InverseGammaDensity,
    IntegrationError,
    InverseWeibullDensity,
    Kernel,
    MiseReport,
    MixtureDensity,
    Bandwidth,
    Sample,
    estimate_density,
    integrated_squared_error,
    mise_records_csv,
    mise_summary,
    mise_summary_json,
    run_experiment,
    silverman_bandwidth,
)
from gekde.estimator import _BLOCK_ELEMENTS, _estimate_batch
from gekde.kernels import _LogKernel
from gekde.simulation import TrueDensity, _labels, _rng
from gekde.specfun import log_gamma

ALL_DENSITIES = {
    "gamma": GammaDensity(3.0, 1.0),
    "inverse_gamma": InverseGammaDensity(25.0, 150.0),
    "inverse_weibull": InverseWeibullDensity(5.0, 800.0),
    "mixture": CONFIGURATIONS["D"],
}


def density_mass(d):
    hi = d.quantile(1.0 - 1e-10)
    mids = [d.quantile(q) for q in (0.001, 0.5, 0.999)]
    pts = [0.0] + mids + [hi]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        v, _ = quad(lambda x: float(d.pdf(x)), a, b, limit=300)
        total += v
    tail, _ = quad(lambda x: float(d.pdf(x)), hi, np.inf, limit=300)
    return total + tail


class TestTruePdf:
    def test_unit_exponential(self):
        assert GammaDensity(1.0, 1.0).pdf(2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_matches_scipy(self):
        x = np.linspace(0.2, 40.0, 50)
        np.testing.assert_allclose(GammaDensity(25.0, 0.5).pdf(x),
                                   stats.gamma.pdf(x, 25.0, scale=0.5), rtol=1e-10)
        np.testing.assert_allclose(InverseGammaDensity(25.0, 150.0).pdf(x),
                                   stats.invgamma.pdf(x, 25.0, scale=150.0), rtol=1e-10)
        xw = np.linspace(300.0, 2000.0, 50)
        np.testing.assert_allclose(InverseWeibullDensity(5.0, 800.0).pdf(xw),
                                   stats.invweibull.pdf(xw, 5.0, scale=800.0), rtol=1e-10)

    @pytest.mark.parametrize("name", sorted(ALL_DENSITIES))
    def test_unit_mass(self, name):
        assert density_mass(ALL_DENSITIES[name]) == pytest.approx(1.0, abs=1e-8)

    def test_configuration_mixtures_unit_mass(self):
        for cid in ("E", "F"):
            assert density_mass(CONFIGURATIONS[cid]) == pytest.approx(1.0, abs=1e-8)

    def test_mixture_is_weighted_sum(self):
        d = CONFIGURATIONS["D"]
        g1, g2 = GammaDensity(25.0, 0.5), GammaDensity(5.0, 2.0)
        for x in (1.0, 8.0, 12.5, 20.0):
            expect = (2.0 / 3.0) * g1.pdf(x) + (1.0 / 3.0) * g2.pdf(x)
            assert d.pdf(x) == pytest.approx(expect, rel=1e-14)

    def test_derivatives_match_finite_differences(self):
        # steps are scale-relative: the pdfs are exp() of large log terms, so
        # each evaluation is only good to ~1e-13 relative and the second
        # difference needs a wide stencil
        for name, d in ALL_DENSITIES.items():
            x0 = d.quantile(0.35)
            h1, h2 = 1e-6 * x0, 5e-4 * x0
            num1 = (d.pdf(x0 + h1) - d.pdf(x0 - h1)) / (2.0 * h1)
            num2 = (d.pdf(x0 + h2) - 2.0 * d.pdf(x0) + d.pdf(x0 - h2)) / (h2 * h2)
            scale = max(abs(num1), abs(d.pdf(x0) / x0))
            assert abs(d.pdf_d1(x0) - num1) < 1e-6 * scale, name
            assert abs(d.pdf_d2(x0) - num2) < 1e-4 * max(abs(num2), scale / x0), name

    def test_mixture_validation(self):
        with pytest.raises(DomainError):
            MixtureDensity((0.5, 0.6), (GammaDensity(2, 1), GammaDensity(3, 1)))
        with pytest.raises(DomainError):
            MixtureDensity((1.0,), (CONFIGURATIONS["D"],))


# --- reference: the pdfs with log Gamma(k) and k log(theta) per call ---------

def _scalar_or_array(out):
    return out if np.ndim(out) else float(out)


def _reference_pdf(d, x):
    x = np.asarray(x, dtype=float)
    k, th = d.shape, d.scale
    if isinstance(d, GammaDensity):
        with np.errstate(divide="ignore"):
            out = np.exp((k - 1.0) * np.log(x) - x / th - k * math.log(th) - log_gamma(k))
    else:
        out = np.exp(k * math.log(th) - (k + 1.0) * np.log(x) - th / x - log_gamma(k))
    return _scalar_or_array(out)


def _gamma_families():
    """Every gamma and inverse-gamma density of the catalog, components included."""
    out = {}
    for name, d in CONFIGURATIONS.items():
        parts = d.components if isinstance(d, MixtureDensity) else (d,)
        for i, c in enumerate(parts):
            if isinstance(c, (GammaDensity, InverseGammaDensity)):
                out[f"{name}{i}"] = c
    return out


GAMMA_FAMILIES = _gamma_families()


def _ise_grid(d):
    return np.linspace(d.quantile(0.0005), d.quantile(0.9995), 256)


class TestStoredConstants:
    @pytest.mark.parametrize("name", sorted(GAMMA_FAMILIES))
    def test_pdf_bit_identical_to_per_call_formula(self, name):
        d = GAMMA_FAMILIES[name]
        for grid in map(_ise_grid, CONFIGURATIONS.values()):
            assert np.array_equal(d.pdf(grid), _reference_pdf(d, grid))
        for x in (0.5, 3.0, 40.0, 1e-300, 1e300):
            got = d.pdf(x)
            assert type(got) is float
            assert got.hex() == _reference_pdf(d, x).hex()

    @pytest.mark.parametrize("name", ["D", "E"])
    def test_mixture_pdf_bit_identical(self, name):
        d = CONFIGURATIONS[name]
        grid = _ise_grid(d)
        ref = sum(w * _reference_pdf(c, grid) for w, c in zip(d.weights, d.components))
        assert np.array_equal(d.pdf(grid), ref)
        assert type(d.pdf(grid[100])) is float
        assert d.pdf(grid[100]) == ref[100]

    @pytest.mark.parametrize("cls", [GammaDensity, InverseGammaDensity])
    def test_equality_hash_and_repr_see_fields_only(self, cls):
        a, b = cls(3.0, 1.0), cls(3.0, 1.0)
        assert a == b and hash(a) == hash(b)
        assert a != cls(3.0, 2.0)
        assert repr(a) == f"{cls.__name__}(shape=3.0, scale=1.0)"


def _reference_inverse_weibull_pdf(d, x):
    """The inverse Weibull pdf with t = (theta/x)**k left to overflow to inf."""
    x = np.asarray(x, dtype=float)
    k, th = d.shape, d.scale
    with np.errstate(over="ignore"):
        t = np.exp(k * (math.log(th) - np.log(x)))
        out = np.exp(math.log(k / th) + (k + 1.0) * (math.log(th) - np.log(x)) - t)
    return _scalar_or_array(out)


def _every_density():
    """Every configuration, and every component of the mixtures."""
    out = dict(CONFIGURATIONS)
    for name, d in CONFIGURATIONS.items():
        for i, c in enumerate(getattr(d, "components", ())):
            out[f"{name}{i}"] = c
    return out


EVERY_DENSITY = _every_density()


def _probe_points(d):
    """Float points across the ISE range and a little beyond it."""
    lo, hi = d._ise_range
    return [float(v) for v in np.linspace(lo, hi, 97)] + [0.5 * lo, 2.0 * hi]


class TestFloatPath:
    """A float x takes the float path; it must give the 0-d array path's bits."""

    @pytest.mark.parametrize("name", sorted(EVERY_DENSITY))
    @pytest.mark.parametrize("method", ["pdf", "pdf_d1", "pdf_d2"])
    def test_float_bits_equal_0d_array(self, name, method):
        d = EVERY_DENSITY[name]
        f = getattr(d, method)
        for x in _probe_points(d):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = f(x)
                via_numpy_scalar = f(np.float64(x))
            ref = f(np.array(x))
            assert type(got) is float and type(via_numpy_scalar) is float
            assert got.hex() == ref.hex() == via_numpy_scalar.hex(), (name, method, x)

    @pytest.mark.parametrize("name", sorted(EVERY_DENSITY))
    @pytest.mark.parametrize("method", ["pdf", "cdf", "pdf_d1", "pdf_d2"])
    def test_non_number_x_is_domain_error(self, name, method):
        f = getattr(EVERY_DENSITY[name], method)
        for x in ("a", [1.0, "a"], object(), None, [1.0, None]):
            with pytest.raises(DomainError, match="density argument x"):
                f(x)

    @pytest.mark.parametrize("name", ["D", "E", "F"])
    def test_mixture_float_pdf_sums_components_directly(self, name, monkeypatch):
        d = CONFIGURATIONS[name]
        points = _probe_points(d)
        want = [d.pdf(np.array(x)).hex() for x in points]

        def no_combine(*args):
            raise AssertionError("a float went through _combine")

        monkeypatch.setattr(MixtureDensity, "_combine", no_combine)
        assert [d.pdf(x).hex() for x in points] == want

    @pytest.mark.parametrize("name", sorted(EVERY_DENSITY))
    def test_pdf_at_extreme_floats_is_quiet(self, name):
        d = EVERY_DENSITY[name]
        for x in (5e-324, 1e-300, 1e-70, 1e300, 1.7e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = d.pdf(x)
            with np.errstate(all="ignore"):
                ref = d.pdf(np.array(x))
            assert type(got) is float and got.hex() == ref.hex(), (name, x)
            assert 0.0 <= got < math.inf

    @pytest.mark.parametrize("name", sorted(EVERY_DENSITY))
    def test_derivatives_at_extreme_floats_match_0d_array(self, name):
        # x*x and x**3 underflow or overflow here: numpy scalars give inf or
        # nan as a 0-d array does, where Python floats would raise
        d = EVERY_DENSITY[name]
        for x in (5e-324, 1e-200, 1e-100, 1e100, 1e200, 1.7e308):
            for method in ("pdf_d1", "pdf_d2"):
                f = getattr(d, method)
                with np.errstate(all="ignore"):
                    got, ref = f(x), f(np.array(x))
                assert type(got) is float and got.hex() == ref.hex(), (name, method, x)

    @pytest.mark.parametrize("name", ["C", "F0", "F1"])
    def test_inverse_weibull_cap_changes_no_value(self, name):
        d = EVERY_DENSITY[name]
        xs = np.concatenate([np.linspace(*d._ise_range, 256), [5e-324, 1e-300, 1e-70, 1e-30]])
        assert np.array_equal(d.pdf(xs), _reference_inverse_weibull_pdf(d, xs))
        for x in xs:
            assert d.pdf(float(x)).hex() == _reference_inverse_weibull_pdf(d, x).hex()

    def test_inverse_weibull_is_zero_at_origin(self):
        # exp(t) overflowed here before, and the pdf read nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert CONFIGURATIONS["C"].pdf(np.array([0.0, 1e-70])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("name", sorted(EVERY_DENSITY))
    def test_derivatives_are_zero_where_pdf_underflows(self, name):
        # the log slopes overflow or divide by a zero x*x here; 0 * inf was nan
        d = EVERY_DENSITY[name]
        xs = [0.0, 5e-324, 1e-300, 1e-160, 1e-80, 1.7e308]
        for method in ("pdf_d1", "pdf_d2"):
            f = getattr(d, method)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                arr = f(np.array(xs))
                floats = [f(x) for x in xs]
            pdf = d.pdf(np.array(xs))
            assert np.all(np.isfinite(arr)) and np.all(np.isfinite(floats)), (name, method)
            assert [v == 0.0 for v in arr[pdf == 0.0]] == [True] * int(np.sum(pdf == 0.0))
            assert [v.hex() for v in floats] == [float(v).hex() for v in arr]

    def test_inverse_gamma_is_zero_at_origin(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (CONFIGURATIONS["B"], InverseGammaDensity(2.0, 1.0), CONFIGURATIONS["E"]):
                assert d.pdf(0.0) == 0.0
                assert d.pdf(np.array([0.0, 5e-324])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_exponential_at_origin(self, scale):
        # shape 1 is the exponential density: (shape - 1) * log(0) was nan here
        d = GammaDensity(1.0, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.pdf(0.0) == pytest.approx(1.0 / scale, rel=1e-15)
            assert d.pdf(np.array([0.0, 5e-324])) == pytest.approx(1.0 / scale, rel=1e-15)
            assert d.pdf_d1(0.0) == pytest.approx(-1.0 / scale ** 2, rel=1e-15)
            for x in (0.0, 1e-300):
                assert d.pdf_d2(x) == pytest.approx(1.0 / scale ** 3, rel=1e-15)
                assert d.pdf_d2(np.array([x])) == pytest.approx(1.0 / scale ** 3, rel=1e-15)

    def test_exponential_bits_at_positive_x(self):
        # the general formula with its (shape - 1) = 0 terms, where it is defined
        d = GammaDensity(1.0, 2.0)
        xs = np.array([1e-150, 0.3, 1.0, 7.5, 1e300])
        f = np.exp(0.0 * np.log(xs) - xs / 2.0 - d._k_log_scale - d._log_gamma_shape)
        s1 = 0.0 / xs - 1.0 / 2.0
        with np.errstate(over="ignore"):
            s2 = -0.0 / (xs * xs)
        for got, want in ((d.pdf(xs), f), (d.pdf_d1(xs), f * s1), (d.pdf_d2(xs), f * (s1 * s1 + s2))):
            assert got.tobytes() == want.tobytes()
        for x, want in zip(xs.tolist(), f.tolist()):
            assert d.pdf(x).hex() == want.hex()

    def test_roughness_unchanged_by_float_path(self, monkeypatch):
        d = CONFIGURATIONS["D"]
        fast = d.roughness()
        # every pdf_d2 node through a 0-d array, the pdf inside it too
        monkeypatch.setattr(gekde.simulation, "_scalar_or_asarray",
                            lambda x: np.asarray(x, dtype=float))
        assert fast.hex() == d.roughness().hex()


class TestQuantiles:
    # 40-digit roots of the regularised incomplete gamma function (mpmath)
    @pytest.mark.parametrize("d, p, expected", ids=repr, argvalues=[
        (GammaDensity(25.0, 0.5), 1.0 - 1e-7, 30.074962395101826671),
        (GammaDensity(3.0, 1.0), 1e-7, 0.008452163797660234354),
        (GammaDensity(3.0, 1.0), 0.5, 2.6740603137235603179),
        (InverseGammaDensity(25.0, 150.0), 1.0 - 1e-7, 21.511757421823401167),
        (InverseGammaDensity(25.0, 150.0), 0.0005, 3.3496902854007022496),
    ])
    def test_closed_form_high_precision(self, d, p, expected):
        assert d.quantile(p) == pytest.approx(expected, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("name", sorted(GAMMA_FAMILIES))
    @pytest.mark.parametrize("p", [1e-7, 0.0005, 0.25, 0.75, 0.9995, 1.0 - 1e-7])
    def test_closed_form_agrees_with_root_finding(self, name, p):
        d = GAMMA_FAMILIES[name]
        assert d.quantile(p) == pytest.approx(TrueDensity._quantile(d, p), rel=1e-10)

    @pytest.mark.parametrize("name", sorted(ALL_DENSITIES))
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, math.nan])
    def test_level_outside_unit_interval(self, name, p):
        with pytest.raises(DomainError):
            ALL_DENSITIES[name].quantile(p)

    def test_inverse_weibull_closed_form(self):
        d = InverseWeibullDensity(5.0, 800.0)
        # forced-uniform hook: u = e^-1 maps exactly to the scale
        assert d.quantile(math.exp(-1.0)) == pytest.approx(800.0, rel=1e-14)

    @pytest.mark.parametrize("name", sorted(ALL_DENSITIES))
    @pytest.mark.parametrize("p", [0.0005, 0.25, 0.9, 0.9995])
    def test_round_trip(self, name, p):
        d = ALL_DENSITIES[name]
        assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9)


class TestRoughness:
    def test_gamma_3_1_exact(self):
        # hand-derived: integral of ((x^2-4x+2) e^-x / 2)^2 = 3/16
        assert GammaDensity(3.0, 1.0).roughness() == pytest.approx(0.1875, abs=1e-9)

    def test_unit_exponential(self):
        assert GammaDensity(1.0, 1.0).roughness() == pytest.approx(0.5, abs=1e-8)

    _SCALES = [1e-60, 1e-20, 1.0, 1e20, 1e60]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", _SCALES)
    def test_gamma_at_every_scale(self, theta):
        # 3/16 theta**-5, from about 1.9e299 down to 1.9e-301
        assert GammaDensity(3.0, theta).roughness() == pytest.approx(0.1875 * theta ** -5,
                                                                     rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", _SCALES)
    @pytest.mark.parametrize("family", [GammaDensity, InverseGammaDensity,
                                        InverseWeibullDensity, "D"],
                             ids=["gamma", "inverse_gamma", "inverse_weibull", "D"])
    def test_scales_as_theta_to_the_minus_5(self, family, theta):
        if family == "D":
            d = CONFIGURATIONS["D"]
            scaled = MixtureDensity(d.weights, tuple(
                type(c)(c.shape, c.scale * theta) for c in d.components))
        else:
            d, scaled = family(3.0, 1.0), family(3.0, theta)
        assert scaled.roughness() == pytest.approx(d.roughness() * theta ** -5, rel=1e-9)

    @pytest.mark.parametrize("theta, what", [(1e-70, "overflows"), (1e70, "underflows")])
    def test_value_outside_double_range(self, theta, what):
        with pytest.raises(DomainError, match=f"roughness of .* {what} the double range"):
            GammaDensity(3.0, theta).roughness()


class TestSampling:
    def test_deterministic(self):
        d = CONFIGURATIONS["D"]
        a = d.sample(50, 123).values
        b = d.sample(50, 123).values
        assert np.array_equal(a, b)
        c = d.sample(50, 124).values
        assert not np.array_equal(a, c)

    def test_gamma_moments(self):
        s = GammaDensity(25.0, 0.5).sample(100000, 7)
        se = math.sqrt(25.0 * 0.25 / 100000)
        assert abs(s.values.mean() - 12.5) < 3.0 * se

    @pytest.mark.parametrize("name", sorted(ALL_DENSITIES))
    def test_kolmogorov_smirnov(self, name):
        d = ALL_DENSITIES[name]
        s = d.sample(100000, 31).values
        res = stats.kstest(s, lambda x: np.asarray(d.cdf(x)))
        assert res.pvalue > 1e-4, (name, res)

    def test_all_positive(self):
        for cid, d in CONFIGURATIONS.items():
            vals = d.sample(2000, 9).values
            assert np.all(vals > 0.0), cid

    def test_needs_two(self):
        with pytest.raises(DomainError):
            GammaDensity(2.0, 1.0).sample(1, 0)

    @pytest.mark.parametrize("weights", [
        (0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0), (0.1, 0.3, 0.6), (0.97, 0.01, 0.01, 0.01),
        (1e-9, 1.0 - 1e-9)])
    @pytest.mark.parametrize("seed", [0, 7, 20250810])
    def test_labels_are_choice_labels(self, weights, seed):
        cdf = MixtureDensity(weights, (GammaDensity(2.0, 1.0),) * len(weights))._label_cdf
        for n in (1, 2, 100, 5000):
            want = np.random.default_rng([seed, n]).choice(len(weights), n, p=np.asarray(weights))
            got = _labels(cdf, n, np.random.default_rng([seed, n]))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("config_id", ["D", "E", "F"])
    def test_mixture_sample_is_the_scattered_draw(self, config_id):
        # the labels of Generator.choice, each component's draws scattered to
        # its labels' places: the sample the grouped draws sort into
        d = CONFIGURATIONS[config_id]
        for seed in range(5):
            children = np.random.SeedSequence(seed).spawn(1 + len(d.components))
            labels = _rng(children[0]).choice(len(d.components), size=100,
                                              p=np.asarray(d.weights))
            want = np.empty(100)
            for i, comp in enumerate(d.components):
                idx = labels == i
                if idx.any():
                    want[idx] = comp._draw(int(idx.sum()), children[i + 1])
            assert np.array_equal(d.sample(100, seed).values, np.sort(want))


class TestIse:
    def test_exact_estimate_is_zero(self):
        d = GammaDensity(3.0, 1.0)
        grid = np.linspace(d.quantile(0.0003), d.quantile(0.9997), 200)
        est = DensityEstimate(grid, np.asarray(d.pdf(grid)), Kernel.GE, Bandwidth(0.1), 10)
        assert integrated_squared_error(est, d) == 0.0

    def test_constant_offset(self):
        d = GammaDensity(1.0, 1.0)
        delta = 0.01
        grid = np.linspace(1e-6, 10.0, 4001)
        est = DensityEstimate(grid, np.asarray(d.pdf(grid)) + delta, Kernel.GE, Bandwidth(0.1), 10)
        expect = delta ** 2 * (grid[-1] - grid[0])
        assert integrated_squared_error(est, d) == pytest.approx(expect, rel=1e-9)

    def test_coverage_error(self):
        d = GammaDensity(3.0, 1.0)
        grid = np.linspace(1.0, 3.0, 50)  # misses both tails
        est = DensityEstimate(grid, np.asarray(d.pdf(grid)), Kernel.GE, Bandwidth(0.1), 10)
        with pytest.raises(CoverageError, match="quantile"):
            integrated_squared_error(est, d)
        assert integrated_squared_error(est, d, require_coverage=False) == 0.0

    def test_coverage_quantiles_solved_once_per_density(self, monkeypatch):
        # a fresh mixture, so no earlier call has cached its ISE range
        ref = CONFIGURATIONS["F"]
        d = MixtureDensity(ref.weights, ref.components)
        levels = []
        original = MixtureDensity._quantile

        def counting(self, p):
            levels.append(p)
            return original(self, p)

        monkeypatch.setattr(MixtureDensity, "_quantile", counting)
        grid = np.linspace(original(d, 0.0005), original(d, 0.9995), 256)
        values = np.asarray(d.pdf(grid)) * 1.01
        est = DensityEstimate(grid, values, Kernel.GE, Bandwidth(0.1), 10)
        first = integrated_squared_error(est, d)
        second = integrated_squared_error(est, d)
        assert sorted(levels) == [0.0005, 0.9995]
        diff = values - np.asarray(d.pdf(grid))
        direct = float(np.trapezoid(diff * diff, grid))
        assert first.hex() == second.hex() == direct.hex()
        assert d == ref and hash(d) == hash(ref) and repr(d) == repr(ref)


class TestRunExperiment:
    def test_single_replication(self):
        cfg = ExperimentConfig("A", kernels=(Kernel.GE,), n=50, replications=1, seed=5)
        rep, = run_experiment(cfg)
        assert rep.per_replication_ise.shape == (1,)
        assert rep.mean_ise == rep.per_replication_ise[0]
        assert rep.variance_ise == 0.0

    def test_reproducible_and_thread_invariant(self):
        cfg = ExperimentConfig("D", kernels=(Kernel.GE, Kernel.GAM1), n=40,
                               replications=6, seed=11, grid_size=64)
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=4)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.per_replication_ise, rb.per_replication_ise)
        assert mise_records_csv(a) == mise_records_csv(b)

    def test_mean_matches_per_replication(self):
        cfg = ExperimentConfig("B", kernels=(Kernel.GE,), n=40, replications=5, seed=2,
                               grid_size=64)
        rep, = run_experiment(cfg)
        assert rep.mean_ise == pytest.approx(float(np.mean(rep.per_replication_ise)), rel=1e-15)

    def test_rig_degenerate_on_wide_scale_config(self):
        # Silverman's h^2 exceeds every grid point for configuration F, so the
        # estimator is undefined on the whole range and ranks worst
        cfg = ExperimentConfig("F", kernels=(Kernel.RIG,), n=50, replications=2, seed=3,
                               grid_size=64)
        rep, = run_experiment(cfg)
        assert rep.truncated
        assert np.all(np.isinf(rep.per_replication_ise))

    def test_unknown_config(self):
        with pytest.raises(DomainError):
            ExperimentConfig("Z")

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("make_error, fields", [
        (lambda: ConvergenceError("no root", last_iterate=1.5, residual=2e-3),
         {"last_iterate": 1.5, "residual": 2e-3}),
        (lambda: IntegrationError("quadrature stalled", achieved=3e-5),
         {"achieved": 3e-5}),
    ])
    def test_errors_keep_type_fields_and_context(self, monkeypatch, threads, make_error, fields):
        def failing_estimate(*args, **kwargs):
            raise make_error()

        monkeypatch.setattr(gekde.simulation, "_estimate_batch", failing_estimate)
        cfg = ExperimentConfig("A", kernels=(Kernel.GAM1,), n=40, replications=2, seed=1,
                               grid_size=64)
        with pytest.raises(type(make_error())) as err:
            run_experiment(cfg, threads=threads)
        assert str(err.value).startswith("replication 0, kernel gam1: ")
        for name, value in fields.items():
            assert getattr(err.value, name) == value

    def test_ig_accepted_when_explicit(self):
        cfg = ExperimentConfig("A", kernels=(Kernel.IG,), n=40, replications=2, seed=1,
                               grid_size=64)
        rep, = run_experiment(cfg)
        assert np.all(np.isfinite(rep.per_replication_ise))


def _reference_cell(cfg):
    """run_experiment as a per-replication loop of the public calls.

    Returns {kernel: (ISE hex strings, truncated)}.
    """
    density = CONFIGURATIONS[cfg.config_id]
    grid = np.linspace(*density._ise_range, cfg.grid_size)
    f_true = density.pdf(grid)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    out = {kernel: ([], False) for kernel in cfg.kernels}
    for r in range(cfg.replications):
        sample = density.sample(cfg.n, streams[r])
        for kernel in cfg.kernels:
            bw = silverman_bandwidth(sample, kernel)
            keep = grid > bw.value if kernel is Kernel.RIG else np.ones(grid.size, dtype=bool)
            ises, truncated = out[kernel]
            out[kernel] = (ises, truncated or not keep.all())
            if keep.sum() < 2:
                ises.append(math.inf.hex())
                continue
            est = estimate_density(sample, kernel, bw, grid[keep])
            diff = est.values - f_true[keep]
            ises.append(float(np.trapezoid(diff * diff, grid[keep])).hex())
    return out


def _cell(reports):
    return {rep.kernel: ([float(v).hex() for v in rep.per_replication_ise], rep.truncated)
            for rep in reports}


class TestBatchedExperiment:
    """Every replication of the batched pass has the bits of the one-sample calls."""

    @pytest.mark.parametrize("config_id", list("ABCDEF"))
    def test_bit_identical_to_per_replication_loop(self, config_id):
        cfg = ExperimentConfig(config_id, kernels=tuple(Kernel), n=50, replications=5,
                               seed=31, grid_size=64)
        assert _cell(run_experiment(cfg)) == _reference_cell(cfg)

    def test_rig_partly_and_fully_truncated(self):
        cfg = ExperimentConfig("D", kernels=(Kernel.RIG, Kernel.GE), n=4, replications=6,
                               seed=4, grid_size=64)
        got = _cell(run_experiment(cfg))
        assert got == _reference_cell(cfg)
        ises = [float.fromhex(v) for v in got[Kernel.RIG][0]]
        # untruncated, partly truncated at two different points, and undefined
        density = CONFIGURATIONS["D"]
        grid = np.linspace(*density._ise_range, 64)
        streams = np.random.SeedSequence(4).spawn(6)
        cuts = [int(np.sum(grid <= silverman_bandwidth(density.sample(4, s), Kernel.RIG).value))
                for s in streams]
        assert 0 in cuts and 64 in cuts and len({c for c in cuts if 0 < c < 63}) >= 2
        assert [math.isinf(v) for v in ises] == [c >= 63 for c in cuts]
        assert got[Kernel.RIG][1]

    @pytest.mark.parametrize("n, replications", [(100, 12), (1500, 3)])
    def test_one_and_several_blocks_per_sample(self, n, replications):
        # at n = 100 a block holds a sample's whole grid; at n = 1500 one
        # sample's grid spans several blocks
        rows_per_block = _BLOCK_ELEMENTS // n
        assert (rows_per_block >= 64) if n == 100 else (rows_per_block * 3 < 64)
        cfg = ExperimentConfig("A", kernels=tuple(Kernel), n=n, replications=replications,
                               seed=5, grid_size=64)
        assert _cell(run_experiment(cfg)) == _reference_cell(cfg)

    def test_more_threads_than_replications(self):
        cfg = ExperimentConfig("B", kernels=(Kernel.GE, Kernel.GAM2, Kernel.RIG), n=30,
                               replications=3, seed=9, grid_size=64)
        reports = run_experiment(cfg, threads=8)
        assert _cell(reports) == _reference_cell(cfg)
        assert mise_records_csv(reports) == mise_records_csv(run_experiment(cfg, threads=1))

    def test_batch_budget_splits_into_chunks(self, monkeypatch):
        # 3 samples of a 64-point grid per batch: 7 replications run as
        # chunks of 2, 2 and 3
        monkeypatch.setattr(gekde.simulation, "_BATCH_ELEMENTS", 192)
        sizes = []

        def recording(values, kernel, b, grid):
            sizes.append(values.shape[0])
            return _estimate_batch(values, kernel, b, grid)

        monkeypatch.setattr(gekde.simulation, "_estimate_batch", recording)
        cfg = ExperimentConfig("C", kernels=(Kernel.GE, Kernel.GAM1), n=50, replications=7,
                               seed=12, grid_size=64)
        assert _cell(run_experiment(cfg)) == _reference_cell(cfg)
        assert sizes == [2, 2, 2, 2, 3, 3]

    def test_one_batched_estimate_per_kernel(self, monkeypatch):
        calls = []

        def counting(values, kernel, b, grid):
            calls.append((kernel, values.shape[0]))
            return _estimate_batch(values, kernel, b, grid)

        monkeypatch.setattr(gekde.simulation, "_estimate_batch", counting)
        cfg = ExperimentConfig("A", kernels=(Kernel.GE, Kernel.GE2, Kernel.GAM1), n=40,
                               replications=7, seed=3, grid_size=64)
        run_experiment(cfg)
        assert calls == [(Kernel.GE, 7), (Kernel.GE2, 7), (Kernel.GAM1, 7)]

    def test_kernel_listed_twice_reports_twice(self):
        cfg = ExperimentConfig("A", kernels=(Kernel.GE, Kernel.GAM1, Kernel.GE), n=40,
                               replications=3, seed=6, grid_size=64)
        reports = run_experiment(cfg, threads=2)
        assert [rep.kernel for rep in reports] == [Kernel.GE, Kernel.GAM1, Kernel.GE]
        ref = _reference_cell(ExperimentConfig("A", kernels=(Kernel.GE, Kernel.GAM1), n=40,
                                               replications=3, seed=6, grid_size=64))
        for rep in reports:
            assert _cell([rep])[rep.kernel] == ref[rep.kernel]
        lines = mise_records_csv(reports).strip().split("\n")
        assert len(lines) == 1 + 3 * 3 and lines[1:4] == lines[7:10]

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig("D", kernels=(Kernel.RIG, Kernel.GE), n=4, replications=6, seed=4,
                         grid_size=64),
        ExperimentConfig("F", kernels=tuple(Kernel), n=50, replications=5, seed=31,
                         grid_size=64),
        ExperimentConfig("B", kernels=(Kernel.GAM2, Kernel.GE2), n=30, replications=1, seed=2,
                         grid_size=64),
    ], ids=["D-rig-inf", "F", "B-one-replication"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_statistics_are_plain_mean_and_var(self, cfg, threads):
        # every report's mean and variance: np.mean and np.var(ddof=1) of the
        # reference ISEs, math.nan (its sign bit too) where one is inf, with
        # no warning on the way
        ref = _reference_cell(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = run_experiment(cfg, threads=threads)

        def bits(*values):
            return np.array(values, dtype=float).tobytes()

        for rep in reports:
            ises = np.array([float.fromhex(v) for v in ref[rep.kernel][0]])
            var = (0.0 if ises.size == 1 else float(np.var(ises, ddof=1))
                   if np.isfinite(ises).all() else math.nan)
            got = bits(rep.mean_ise, rep.variance_ise)
            assert got == bits(np.mean(ises), var), rep.kernel
            assert (type(rep.mean_ise), type(rep.variance_ise)) == (float, float)
            one = MiseReport.from_ises(cfg.config_id, rep.kernel, cfg.n, ises)
            assert bits(one.mean_ise, one.variance_ise) == got
        if cfg.config_id == "D":
            assert math.isinf(reports[0].mean_ise) and math.isnan(reports[0].variance_ise)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    def test_draws_checked_as_a_sample_checks_them(self, monkeypatch, bad):
        monkeypatch.setattr(GammaDensity, "_draw",
                            lambda self, n, ss: np.concatenate(([bad], np.ones(n - 1))))
        with pytest.raises(DomainError, match="^sample values must be positive and finite$"):
            run_experiment(ExperimentConfig("A", n=20, replications=3, grid_size=64))

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_error_at_one_replication_names_it(self, monkeypatch, threads):
        cfg = ExperimentConfig("A", kernels=(Kernel.GE, Kernel.GAM1), n=30, replications=6,
                               seed=2, grid_size=64)
        streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
        bad = CONFIGURATIONS["A"].sample(cfg.n, streams[3]).values

        def failing(values, kernel, b, grid):
            if kernel is Kernel.GAM1 and any(np.array_equal(row, bad) for row in values):
                raise ConvergenceError("no root", last_iterate=1.5, residual=2e-3)
            return _estimate_batch(values, kernel, b, grid)

        monkeypatch.setattr(gekde.simulation, "_estimate_batch", failing)
        with pytest.raises(ConvergenceError) as err:
            run_experiment(cfg, threads=threads)
        assert str(err.value) == "replication 3, kernel gam1: no root"
        assert (err.value.last_iterate, err.value.residual) == (1.5, 2e-3)


class TestEstimateBatch:
    """Rows of ``_estimate_batch`` against the scalar-bandwidth combine."""

    @staticmethod
    def _single(values, kernel, b, grid):
        ev = _LogKernel(kernel, grid, b)
        with np.errstate(over="ignore"):
            return np.exp(ev.rows(ev.data(values))).mean(axis=1)

    @pytest.mark.parametrize("kernel", [Kernel.GE, Kernel.GE2])
    def test_regrouped_rows_in_some_samples_only(self, kernel):
        # x/b reaches 1200 for the bandwidths 0.01 and 0.012, and stays below
        # 24 for 0.5 and 2.0
        rng = np.random.default_rng(17)
        values = np.sort(rng.uniform(0.02, 13.0, (4, 300)), axis=1)
        b = np.array([0.01, 0.5, 0.012, 2.0])
        grid = np.linspace(0.05, 12.0, 200)
        regrouped = [bool(_LogKernel(kernel, grid, v).regroup) for v in b]
        assert regrouped == [True, False, True, False]
        got = _estimate_batch(values, kernel, b, grid)
        for r in range(b.size):
            assert np.array_equal(got[r], self._single(values[r], kernel, b[r], grid)), r

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    @pytest.mark.parametrize("reps, n", [(11, 60), (2, 2000)])
    def test_rows_equal_single_sample_combine(self, kernel, reps, n):
        rng = np.random.default_rng(reps)
        values = np.sort(rng.gamma(5.0, 1.0, (reps, n)), axis=1)
        b = rng.uniform(0.2, 0.6, reps)
        grid = np.linspace(0.7, 15.0, 97)
        got = _estimate_batch(values, kernel, b, grid)
        for r in range(reps):
            assert np.array_equal(got[r], self._single(values[r], kernel, b[r], grid)), r


class TestSerialization:
    def _reports(self):
        cfg = ExperimentConfig("A", kernels=(Kernel.GE, Kernel.GAM1), n=40,
                               replications=3, seed=8, grid_size=64)
        return run_experiment(cfg)

    def test_csv_layout(self):
        reports = self._reports()
        lines = mise_records_csv(reports).strip().split("\n")
        assert lines[0] == "config,kernel,n,replication,ise"
        assert len(lines) == 1 + 2 * 3
        cfg_id, kernel, n, r, ise = lines[1].split(",")
        assert (cfg_id, kernel, n, r) == ("A", "ge", "40", "0")
        assert float(ise) == reports[0].per_replication_ise[0]

    def test_json_summary(self):
        reports = self._reports()
        payload = json.loads(mise_summary_json(reports))
        assert payload == mise_summary(reports)
        cells = payload["cells"]
        assert [c["kernel"] for c in cells] == ["ge", "gam1"]
        assert cells[0]["replications"] == 3
        assert cells[0]["mean_ise"] == pytest.approx(reports[0].mean_ise)


class TestSampleSizeDirection:
    def test_mean_ise_decreases_from_100_to_500(self):
        means = {}
        for n in (100, 500):
            cfg = ExperimentConfig("A", kernels=(Kernel.GE, Kernel.GAM1), n=n,
                                   replications=100, seed=17, grid_size=128)
            means[n] = {r.kernel: r.mean_ise for r in run_experiment(cfg)}
        for kernel in (Kernel.GE, Kernel.GAM1):
            assert means[500][kernel] < means[100][kernel]


# --- cdf through one entry point, and every density at +inf -----------------

_EDGE_POINTS = [0.0, 5e-324, 1e-320, 1e300, 1.7e308, math.inf]


def _bits(v):
    return np.float64(v).view(np.uint64)


class TestCdfEntry:
    """``cdf`` runs each family's formula quietly at 0, the extremes and inf."""

    @pytest.mark.parametrize("name", list(EVERY_DENSITY))
    @pytest.mark.parametrize("x", _EDGE_POINTS)
    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_float_matches_0d_array_in_unit_interval(self, name, x, scalar):
        d = EVERY_DENSITY[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = d.cdf(scalar(x))
            ref = d.cdf(np.array(x))
        assert type(got) is float and type(ref) is float
        assert 0.0 <= got <= 1.0
        assert _bits(got) == _bits(ref)

    @pytest.mark.parametrize("name", list(EVERY_DENSITY))
    def test_array(self, name):
        d = EVERY_DENSITY[name]
        x = np.array(_EDGE_POINTS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = d.cdf(x)
        assert got.shape == x.shape
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert got[0] == 0.0 and got[-1] == 1.0
        assert np.array_equal(_bits(got), _bits([d.cdf(v) for v in _EDGE_POINTS]))


class TestPdfAtInfinity:
    """f, f' and f'' are 0.0 at +inf, for a float and in an array, with no warning."""

    @pytest.mark.parametrize("name", list(EVERY_DENSITY))
    @pytest.mark.parametrize("method", ["pdf", "pdf_d1", "pdf_d2"])
    def test_zero(self, name, method):
        fn = getattr(EVERY_DENSITY[name], method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_float = fn(math.inf)
            at_array = fn(np.array([1.0, math.inf]))
        assert at_float == 0.0
        assert at_array[1] == 0.0 and at_array[0] == fn(1.0)


class TestScalarPdfPaths:
    """A numpy scalar takes the array path: quiet, with the bits of a float and a 0-d array."""

    @pytest.mark.parametrize("name", list(EVERY_DENSITY))
    @pytest.mark.parametrize("method", ["pdf", "pdf_d1", "pdf_d2"])
    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_matches_0d_array_quietly(self, name, method, scalar):
        fn = getattr(EVERY_DENSITY[name], method)
        for x in (5e-324, 1e-320, 1e-300, 0.5, 3.0, 1e300, 1.7e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fn(scalar(x))
                ref = fn(np.array(x))
            assert type(got) is float and type(ref) is float
            assert _bits(got) == _bits(ref), x


_NEGATIVE_POINTS = [-math.inf, -1.7e308, -1.0, -5e-324, -0.0]


class TestBelowSupport:
    """pdf and cdf are 0.0 below 0, for a float and in an array, with no warning."""

    @pytest.mark.parametrize("name", list(EVERY_DENSITY))
    @pytest.mark.parametrize("method", ["pdf", "cdf"])
    def test_zero(self, name, method):
        fn = getattr(EVERY_DENSITY[name], method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_floats = [fn(x) for x in _NEGATIVE_POINTS]
            at_array = fn(np.array(_NEGATIVE_POINTS[:-1] + [2.0]))
        assert all(type(v) is float and v == 0.0 for v in at_floats[:-1])
        assert at_floats[-1] == fn(0.0)  # -0.0 is the point 0
        assert np.array_equal(at_array[:-1], np.zeros(len(_NEGATIVE_POINTS) - 1))
        assert _bits(at_array[-1]) == _bits(fn(2.0))

    @pytest.mark.parametrize("name", list(EVERY_DENSITY))
    def test_in_support_points_keep_bits_beside_points_off_it(self, name):
        # an array with no point below 0 or at inf (a set of quadrature nodes)
        # takes the pdf without masks
        d = EVERY_DENSITY[name]
        lo, hi = d._ise_range
        nodes = np.concatenate(([0.0, 5e-324, 1e-300], np.geomspace(lo / 64.0, 64.0 * hi, 97),
                                [1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = d.pdf(nodes)
            beside = d.pdf(np.concatenate(([-1.0, -0.0, math.inf], nodes)))
        assert np.array_equal(_bits(alone), _bits(beside[3:]))
        assert np.array_equal(_bits(beside[:3]), _bits([0.0, d.pdf(0.0), 0.0]))
