"""Asymmetric kernel density estimation for positive continuous data.

Kernels supported: the generalised-exponential pair (mode-parameterised
``ge`` and mean-parameterised ``ge2``), Chen's gamma kernels (``gam1``,
``gam2``) and Scaillet's inverse-Gaussian pair (``ig``, ``rig``).  The
package adds bandwidth selection, exact (quadrature-based) bias/variance
diagnostics, a reproducible Monte Carlo MISE benchmark harness and a CSV
command-line interface.

The public names are those of each module's ``__all__``, re-exported here.
"""

from . import errors, estimator, kernels, simulation, specfun
from .errors import *
from .specfun import *
from .kernels import *
from .estimator import *
from .simulation import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *specfun.__all__, *kernels.__all__,
           *estimator.__all__, *simulation.__all__]
