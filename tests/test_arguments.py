"""Every public numeric argument: non-numbers, NaN and fractional counts raise DomainError.

Each argument is converted as ``float`` does (``gekde.errors``): a real
number must then be finite and in its range, a count must be whole, and an
array must hold finite numbers.  A real argument that is an ``int`` beyond
the double range is out of range too; a count keeps it.  Nothing raises an untyped ``TypeError`` or
``ValueError``, and no call returns NaN for a NaN argument.
"""

import math

import numpy as np
import pytest

from gekde import (
    INTERIOR,
    Bandwidth,
    DomainError,
    ExperimentConfig,
    GammaDensity,
    InverseGammaDensity,
    InverseWeibullDensity,
    Kernel,
    MixtureDensity,
    Sample,
    asymptotic_bias,
    asymptotic_variance,
    boundary_regime,
    default_grid,
    digamma,
    estimate_density,
    exact_estimator_moments,
    gam2_shape,
    ge2_shape,
    inverse_digamma,
    kernel_pdf,
    log_gamma,
    log_kernel,
    numeric_bandwidth_ge,
    optimal_bandwidth_ge2,
    run_experiment,
    trigamma,
)

F = GammaDensity(3.0, 1.0)
SAMPLE = Sample([1.0, 2.0, 3.0])
CFG = ExperimentConfig("A", n=20, replications=2, grid_size=64)

#: (argument, call with that argument replaced by v).  Real-valued ones.
REALS = [
    ("log_kernel x", lambda v: log_kernel(Kernel.GE, v, 0.5, 1.0)),
    ("log_kernel b", lambda v: log_kernel(Kernel.GE, 1.0, v, 1.0)),
    ("log_kernel z", lambda v: log_kernel(Kernel.GE, 1.0, 0.5, v)),
    ("log_kernel z entry", lambda v: log_kernel(Kernel.GE, 1.0, 0.5, [1.0, v])),
    ("kernel_pdf x", lambda v: kernel_pdf(Kernel.GAM1, v, 0.5, 1.0)),
    ("kernel_pdf b", lambda v: kernel_pdf(Kernel.GAM1, 1.0, v, 1.0)),
    ("kernel_pdf z", lambda v: kernel_pdf(Kernel.GAM1, 1.0, 0.5, v)),
    ("ge2_shape x", lambda v: ge2_shape(v, 0.5)),
    ("ge2_shape b", lambda v: ge2_shape(1.0, v)),
    ("gam2_shape x", lambda v: gam2_shape(v, 0.5)),
    ("gam2_shape b", lambda v: gam2_shape(1.0, v)),
    ("log_gamma", log_gamma),
    ("digamma", digamma),
    ("digamma entry", lambda v: digamma([1.0, v])),
    ("trigamma", trigamma),
    ("inverse_digamma", inverse_digamma),
    ("inverse_digamma entry", lambda v: inverse_digamma([1.0, v])),
    ("Sample entry", lambda v: Sample([1.0, v])),
    ("Bandwidth", Bandwidth),
    ("boundary_regime c", boundary_regime),
    ("estimate_density bandwidth", lambda v: estimate_density(SAMPLE, Kernel.GE, v, [1.0, 2.0])),
    ("estimate_density grid entry",
     lambda v: estimate_density(SAMPLE, Kernel.GE, 0.5, [1.0, v])),
    ("optimal_bandwidth_ge2 roughness", lambda v: optimal_bandwidth_ge2(v, 100)),
    ("numeric_bandwidth_ge a1", lambda v: numeric_bandwidth_ge(v, 1.0, 100)),
    ("numeric_bandwidth_ge a2", lambda v: numeric_bandwidth_ge(0.0, v, 100)),
    ("asymptotic_bias b", lambda v: asymptotic_bias(Kernel.GE, INTERIOR, v, 1.0, 1.0)),
    ("asymptotic_bias f1", lambda v: asymptotic_bias(Kernel.GE, INTERIOR, 0.1, v, 1.0)),
    ("asymptotic_bias f2", lambda v: asymptotic_bias(Kernel.GE2, INTERIOR, 0.1, 1.0, v)),
    ("asymptotic_variance b", lambda v: asymptotic_variance(INTERIOR, v, 100, 1.0)),
    ("asymptotic_variance fx", lambda v: asymptotic_variance(INTERIOR, 0.1, 100, v)),
    ("exact_estimator_moments x", lambda v: exact_estimator_moments(Kernel.GE, v, 0.1, F, 100)),
    ("exact_estimator_moments b", lambda v: exact_estimator_moments(Kernel.GE, 2.0, v, F, 100)),
    ("GammaDensity shape", lambda v: GammaDensity(v, 1.0)),
    ("GammaDensity scale", lambda v: GammaDensity(3.0, v)),
    ("InverseGammaDensity shape", lambda v: InverseGammaDensity(v, 150.0)),
    ("InverseGammaDensity scale", lambda v: InverseGammaDensity(25.0, v)),
    ("InverseWeibullDensity shape", lambda v: InverseWeibullDensity(v, 800.0)),
    ("InverseWeibullDensity scale", lambda v: InverseWeibullDensity(5.0, v)),
    ("MixtureDensity weight", lambda v: MixtureDensity((v, 0.5), (F, F))),
    ("quantile p", F.quantile),
]

#: Counts: the same, and a fractional value must raise too.
COUNTS = [
    ("default_grid size", lambda v: default_grid(SAMPLE, v)),
    ("optimal_bandwidth_ge2 n", lambda v: optimal_bandwidth_ge2(1.0, v)),
    ("numeric_bandwidth_ge n", lambda v: numeric_bandwidth_ge(0.0, 1.0, v)),
    ("asymptotic_variance n", lambda v: asymptotic_variance(INTERIOR, 0.1, v, 1.0)),
    ("exact_estimator_moments n", lambda v: exact_estimator_moments(Kernel.GE, 2.0, 0.1, F, v)),
    ("sample n", lambda v: F.sample(v, 0)),
    ("sample seed", lambda v: F.sample(10, v)),
    ("ExperimentConfig n", lambda v: ExperimentConfig("A", n=v)),
    ("ExperimentConfig replications", lambda v: ExperimentConfig("A", replications=v)),
    ("ExperimentConfig seed", lambda v: ExperimentConfig("A", seed=v)),
    ("ExperimentConfig grid_size", lambda v: ExperimentConfig("A", grid_size=v)),
    ("run_experiment threads", lambda v: run_experiment(CFG, threads=v)),
]

_BAD = {"str": "a", "None": None, "nan": math.nan}
_CASES = [pytest.param(call, value, id=f"{name}-{kind}")
          for name, call in REALS + COUNTS for kind, value in _BAD.items()]
_CASES += [pytest.param(call, 10.5, id=f"{name}-fraction") for name, call in COUNTS]


@pytest.mark.parametrize("call, value", _CASES)
def test_bad_argument_is_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


#: An int beyond the double range, which ``float`` and numpy cannot convert.
_HUGE = 10 ** 400


@pytest.mark.parametrize("call", [
    lambda: GammaDensity(_HUGE, 1.0),
    lambda: digamma(_HUGE),
    lambda: log_kernel(Kernel.GE, _HUGE, 1.0, 1.0),
    lambda: F.pdf([_HUGE]),
    lambda: exact_estimator_moments(Kernel.GE, 1.0, _HUGE, F, 100),
], ids=["GammaDensity shape", "digamma", "log_kernel x", "pdf entry",
        "exact_estimator_moments b"])
def test_int_beyond_double_range_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [call for _, call in REALS],
                         ids=[name for name, _ in REALS])
def test_every_real_rejects_an_int_beyond_double_range(call):
    with pytest.raises(DomainError):
        call(_HUGE)


def test_integer_counts_pass_unchanged():
    assert type(ExperimentConfig("A", n=np.int64(20)).n) is np.int64
    assert type(ExperimentConfig("A", replications=2.0).replications) is int
    # an int never goes through a float: 10**700 reaches the count check,
    # which keeps a sample size below 2**1020
    with pytest.raises(DomainError, match=r"n must be below 2\*\*1020"):
        numeric_bandwidth_ge(1.0, 1e300, 10 ** 700)


def test_whole_float_replications_keep_bits():
    ref = run_experiment(ExperimentConfig("A", n=20, replications=2, seed=3, grid_size=64))
    got = run_experiment(ExperimentConfig("A", n=20, replications=2.0, seed=3.0, grid_size=64.0))
    for r, g in zip(ref, got):
        assert np.array_equal(r.per_replication_ise.view(np.uint64),
                              g.per_replication_ise.view(np.uint64))


def test_whole_float_counts_keep_bits():
    assert np.array_equal(F.sample(10.0, 7.0).values, F.sample(10, 7).values)
    assert np.array_equal(default_grid(SAMPLE, 64.0), default_grid(SAMPLE, 64))
    ref = exact_estimator_moments(Kernel.GE, 2.0, 0.1, F, 100)
    got = exact_estimator_moments(Kernel.GE, 2.0, 0.1, F, 100.0)
    assert (got.mean.hex(), got.variance.hex()) == (ref.mean.hex(), ref.variance.hex())
    assert (asymptotic_variance(INTERIOR, 0.1, 100.0, 1.0)
            == asymptotic_variance(INTERIOR, 0.1, 100, 1.0))


@pytest.mark.parametrize("family, shape, scale, x", [
    (GammaDensity, "3", 1.0, 1.0),
    (InverseGammaDensity, 25, "150", 6.0),
    (InverseWeibullDensity, "5", 800, 1000.0),
])
def test_density_parameters_stored_as_floats(family, shape, scale, x):
    got, ref = family(shape, scale), family(float(shape), float(scale))
    assert type(got.shape) is float and type(got.scale) is float
    assert got == ref
    assert got.pdf(x).hex() == ref.pdf(x).hex()
    assert np.array_equal(got.sample(10, 1).values, ref.sample(10, 1).values)
