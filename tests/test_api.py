"""The package's public surface: every name in a module's ``__all__`` is
exported by the package, once, and no other name is."""

import eselend
from eselend import errors, mean_variance, model_core, optimizer, oracle_sim, scoring

MODULES = (errors, model_core, optimizer, mean_variance, oracle_sim, scoring)


def test_package_exports_each_module_list():
    """``eselend.__all__`` is the module lists in import order plus
    ``__version__``, with no name twice; each name is the module's own
    object. `SolverConfig` is gone: `argmax_grid`'s grid and iteration cap
    are fixed."""
    names = [name for module in MODULES for name in module.__all__]
    assert eselend.__all__ == names + ["__version__"]
    assert len(set(eselend.__all__)) == len(eselend.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(eselend, name) is getattr(module, name)
    assert isinstance(eselend.__version__, str)
    assert not hasattr(eselend, "SolverConfig")
    assert not hasattr(optimizer, "SolverConfig")
