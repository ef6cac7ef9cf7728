import json
import math

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
    MixtureDensity,
    Bandwidth,
    integrated_squared_error,
    mise_records_csv,
    mise_summary,
    mise_summary_json,
    run_experiment,
)

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


class TestQuantiles:
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

        monkeypatch.setattr(gekde.simulation, "estimate_density", failing_estimate)
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
