"""The package's public surface: every name in a module's ``__all__`` is
exported by the package, once, and no other name is; and every public
function rejects out-of-domain arguments with DomainError."""

import inspect
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eselend
from eselend import errors, mean_variance, model_core, optimizer, oracle_sim, scoring

MODULES = (errors, model_core, optimizer, mean_variance, oracle_sim, scoring)


def test_package_exports_each_module_list():
    """``eselend.__all__`` is the module lists in import order plus
    ``__version__``, with no name twice; each name is the module's own
    object. `SolverConfig` is gone: `argmax_grid`'s grid and iteration cap
    are fixed. `CHUNK_TRIALS` is gone: the simulator counts outcomes, so
    no trial partition shows in its results."""
    names = [name for module in MODULES for name in module.__all__]
    assert eselend.__all__ == names + ["__version__"]
    assert len(set(eselend.__all__)) == len(eselend.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(eselend, name) is getattr(module, name)
    assert isinstance(eselend.__version__, str)
    assert not hasattr(eselend, "SolverConfig")
    assert not hasattr(optimizer, "SolverConfig")
    assert not hasattr(eselend, "CHUNK_TRIALS")
    assert not hasattr(oracle_sim, "CHUNK_TRIALS")


# Valid values for every argument of a function that takes E, e, n, w or
# gamma; each test case spoils one of those five.
_VALID = {
    "E": 50.0, "e": 0.5, "n": 2, "w": 150.0, "gamma": 0.5, "group": 2,
    "params": eselend.DEFAULT_SWEEP_PARAMS, "cost": eselend.CostModel(c=1000.0),
    "link": eselend.ScoreLink(k=0.005, b=0.5),
    "cfg": eselend.SimConfig(trials=1000, seed=1),
    "cells": [(eselend.DEFAULT_SWEEP_PARAMS, 0.5, eselend.CostModel(c=1000.0),
               eselend.ScoreLink(k=0.005, b=0.5))],
}
_CHECKED = ("E", "e", "n", "w", "gamma")
_CASES = [(name, arg) for name in eselend.__all__
          if inspect.isfunction(getattr(eselend, name))
          for arg in inspect.signature(getattr(eselend, name)).parameters
          if arg in _CHECKED]


def test_the_domain_cases_cover_the_api():
    """The property below reaches every function that takes one of the
    checked arguments, `optimal_ese_mv_batch`'s shared w among them."""
    names = {name for name, _ in _CASES}
    assert {"success_probability", "binding_repayment", "mv_utility", "mv_foc",
            "optimal_ese_mv", "optimal_ese_mv_batch", "dE_dn", "group_foc",
            "simulate_member_profit", "enumerate_member_profit"} <= names
    assert ("optimal_ese_mv_batch", "w") in _CASES


@given(case=st.sampled_from(_CASES),
       bad=st.sampled_from([math.nan, math.inf, -math.inf])
       | st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
@settings(max_examples=400)
def test_non_finite_and_negative_arguments_are_domain_errors(case, bad):
    """NaN, +-inf or a negative E, e, n, w or gamma is a DomainError from
    every public function, raised before numpy can warn."""
    name, arg = case
    function = getattr(eselend, name)
    kwargs = {param: _VALID[param]
              for param in inspect.signature(function).parameters
              if param in _VALID}
    kwargs[arg] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eselend.DomainError):
            function(**kwargs)


@given(field=st.sampled_from(["p", "y_high", "y_low"]),
       value=st.floats(min_value=eselend.model_core.PROFIT_BOUND,
                       max_value=1e307, exclude_min=True))
def test_huge_revenue_is_a_domain_error(field, value):
    """A finite price or yield whose revenue exceeds the profit bound is
    rejected when the market is built, naming the revenue."""
    market = dict(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                  epsilon=0.05, delta=0.9)
    market[field] = value
    if field == "y_low":
        market["y_high"] = 10.0 * value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eselend.DomainError,
                           match=r"^revenue p\*y_high \+ p\*y_low="):
            eselend.MarketParams(**market)
