"""The package's public names: one list per module, re-exported by ``gekde``."""

import gekde
from gekde import errors, estimator, kernels, simulation, specfun


def test_all_is_the_modules_names():
    modules = (errors, specfun, kernels, estimator, simulation)
    names = [name for m in modules for name in m.__all__]
    assert gekde.__all__ == ["__version__", *names]
    assert len(set(gekde.__all__)) == len(gekde.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(gekde, name) is getattr(m, name)
