"""Asymmetric kernel density estimation for positive continuous data.

Kernels supported: the generalised-exponential pair (mode-parameterised
``ge`` and mean-parameterised ``ge2``), Chen's gamma kernels (``gam1``,
``gam2``) and Scaillet's inverse-Gaussian pair (``ig``, ``rig``).  The
package adds bandwidth selection, exact (quadrature-based) bias/variance
diagnostics, a reproducible Monte Carlo MISE benchmark harness and a CSV
command-line interface.
"""

from .errors import (
    BoundaryDegeneracyError,
    ConvergenceError,
    CoverageError,
    DegenerateSampleError,
    DomainError,
    GekdeError,
    IntegrationError,
    OptimizationError,
)
from .specfun import (
    EULER_GAMMA,
    digamma,
    inverse_digamma,
    log_gamma,
    trigamma,
)
from .kernels import (
    DEFAULT_KERNELS,
    Kernel,
    gam2_shape,
    ge2_shape,
    kernel_pdf,
    log_kernel,
)
from .estimator import (
    AsymptoticRegime,
    Bandwidth,
    DensityEstimate,
    INTERIOR,
    Moments,
    Sample,
    asymptotic_bias,
    asymptotic_variance,
    boundary_regime,
    default_grid,
    estimate_density,
    exact_estimator_moments,
    numeric_bandwidth_ge,
    optimal_bandwidth_ge2,
    silverman_bandwidth,
)
from .simulation import (
    CONFIGURATIONS,
    ExperimentConfig,
    GammaDensity,
    InverseGammaDensity,
    InverseWeibullDensity,
    MiseReport,
    MixtureDensity,
    TrueDensity,
    integrated_squared_error,
    mise_records_csv,
    mise_summary,
    mise_summary_json,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "GekdeError", "DomainError", "DegenerateSampleError", "BoundaryDegeneracyError",
    "CoverageError", "ConvergenceError", "IntegrationError", "OptimizationError",
    # special functions
    "EULER_GAMMA", "log_gamma", "digamma", "trigamma", "inverse_digamma",
    # kernels
    "Kernel", "DEFAULT_KERNELS", "log_kernel", "kernel_pdf", "ge2_shape", "gam2_shape",
    # estimator
    "Sample", "Bandwidth", "DensityEstimate", "AsymptoticRegime", "INTERIOR",
    "boundary_regime", "Moments", "silverman_bandwidth", "estimate_density",
    "default_grid", "optimal_bandwidth_ge2", "numeric_bandwidth_ge",
    "asymptotic_bias", "asymptotic_variance", "exact_estimator_moments",
    # simulation
    "TrueDensity", "GammaDensity", "InverseGammaDensity", "InverseWeibullDensity",
    "MixtureDensity", "CONFIGURATIONS", "ExperimentConfig", "MiseReport",
    "integrated_squared_error", "run_experiment",
    "mise_records_csv", "mise_summary", "mise_summary_json",
]
