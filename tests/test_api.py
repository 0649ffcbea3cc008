"""The package's public surface: every name in a module's ``__all__`` is
exported by the package, once, and no other name is; every public
function rejects out-of-domain arguments with DomainError; and a batch
names the cell it rejects, one way only."""

import ast
import dataclasses
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eselend
from eselend import cli, errors, mean_variance, model_core, optimizer, oracle_sim, scoring

MODULES = (errors, model_core, optimizer, mean_variance, oracle_sim, scoring)
SRC = Path(eselend.__file__).parent


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


# The public names that no code in src/eselend loads, each with the reason
# it is kept.
_UNLOADED_PUBLIC = {
    "__version__": "the package version",
    "argmax_grid": "reference the tests compare against; perfbench/layers.TRACED",
    "dE_dn": "paper formula: the group-size sensitivity of the optimal score",
    "dE_dn_as_printed": "printed variant of dE_dn",
    "expected_profit_group": "paper formula: a member's expected profit",
    "expected_profit_group_sum": "reference the tests compare against",
    "group_foc": "paper formula: the group first-order condition",
    "mv_foc": "one-cell call of optimal_ese_mv_batch's re-validation",
    "mv_utility": "one-cell call of optimal_ese_mv_batch's re-validation",
    "optimal_ese_group": "one-cell call of optimal_ese_group_batch",
    "optimal_ese_mv": "one-cell call of optimal_ese_mv_batch",
    "optimal_ese_pair": "paper formula: the pair optimum in closed form",
    "optimal_ese_pair_as_printed": "printed variant of optimal_ese_pair",
    "profit_distribution_pair": "reference the tests compare against",
    "profit_moments_pair": "one-cell call of optimal_ese_mv_batch's re-validation",
    "simulate_member_profit": "one-cell call of simulate_member_profit_batch",
}


def _module_level_names(tree):
    """Names a module binds at its top level, other than ``__all__`` and
    ``__future__`` features."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id != "__all__":
                        yield sub.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        yield alias.asname or alias.name.split(".")[0]


def test_every_public_name_is_used_or_listed():
    """Every module-level name in src/eselend is public or loaded by some
    src/ code, and the public names that no src/ code loads are exactly
    `_UNLOADED_PUBLIC`, so a constant no code reads cannot stay exported."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
    modules = {"__init__": eselend, "cli": cli,
               **{module.__name__.rpartition(".")[2]: module for module in MODULES}}
    assert set(modules) == set(trees)
    unused = {f"{stem}.{name}" for stem, tree in trees.items()
              for name in _module_level_names(tree)
              if name not in modules[stem].__all__ and name not in loaded}
    assert not unused, f"module-level names nothing loads: {sorted(unused)}"
    unloaded = {name for module in modules.values() for name in module.__all__
                if name not in loaded}
    assert unloaded == set(_UNLOADED_PUBLIC), (
        f"unlisted: {sorted(unloaded - set(_UNLOADED_PUBLIC))}; "
        f"now loaded: {sorted(set(_UNLOADED_PUBLIC) - unloaded)}")


def test_every_import_is_loaded_where_it_is_imported():
    """Every name a src/eselend module imports at its top level is loaded
    in that module, so an import a change left behind cannot stay
    (`__init__`'s star imports and ``__future__`` features aside)."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.stem}: {alias.asname or alias.name}"
                   for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names if alias.name != "*"
                   and (alias.asname or alias.name.split(".")[0]) not in loaded]
    assert not unused, f"imported but never loaded: {unused}"


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


def test_only_errors_sets_a_cell():
    """src/eselend assigns an attribute named ``cell`` exactly once, inside
    `errors._raise_first`: it is the one way a batch names a cell."""
    stores = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node's innermost function; ast.walk visits outer ones first
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(function):
                    owner[id(node)] = getattr(function, "name", "<lambda>")
        stores += [(path.name, owner.get(id(node)), node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "cell"
                   and isinstance(node.ctx, ast.Store)]
    assert [store[:2] for store in stores] == [("errors.py", "_raise_first")], stores


def test_simulator_imports_no_solver():
    """The simulator is an independent oracle: of the package, oracle_sim.py
    imports only `errors` and `model_core`, not the solvers it checks."""
    tree = ast.parse((SRC / "oracle_sim.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert {name for name in imported if name.startswith((".", "eselend"))} == {
        ".errors", ".model_core"}


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def test_only_check_spells_the_mean_variance_checks():
    """No code in mean_variance.py but `mean_variance._check` holds a gamma,
    break-even ``b`` or float-range message, so every entry point reports
    its checks in the one order that routine writes down."""
    tree = ast.parse((SRC / "mean_variance.py").read_text(encoding="utf-8"))
    skip = {id(node) for node in _docstrings(tree)}
    for function in tree.body:
        if isinstance(function, ast.FunctionDef) and function.name == "_check":
            skip |= {id(node) for node in ast.walk(function)}
    for node in ast.walk(tree):
        if (id(node) not in skip and isinstance(node, ast.Constant)
                and isinstance(node.value, str)):
            for phrase in ("gamma must", "overflows the float range", "requires b > 0"):
                assert phrase not in node.value, f"line {node.lineno} spells {phrase!r}"


# ----------------------------------------------------------------------
# batch cell naming
# ----------------------------------------------------------------------

_MARKET = eselend.DEFAULT_SWEEP_PARAMS
_COST = eselend.CostModel(c=1000.0)
_LINK = eselend.ScoreLink(k=0.007, b=0.3)
_ZERO_START = eselend.ScoreLink(k=0.01, b=0.0)  # e = 0 at E = 0
_SIM = eselend.SimConfig(trials=64, seed=1)


def _mv_cell(gamma=0.5, params=_MARKET, c=1000.0, link=_LINK):
    return (params, gamma, eselend.CostModel(c=c), link)


def _mv_fixed(cells):
    return eselend.optimal_ese_mv_batch(150.0, cells)


def _mv_break_even(cells):
    return eselend.optimal_ese_mv_batch(None, cells)


def _group(ns):
    return eselend.optimal_ese_group_batch(ns, _MARKET, _COST, _ZERO_START)


def _simulate(cells):
    es, ws = zip(*cells)
    return eselend.simulate_member_profit_batch(es, [3] * len(es), ws, _MARKET, _SIM)


def _mv_scalar(cell):
    return eselend.mv_utility(0.0, 150.0, *cell)


def _sim_scalar(cell):
    return eselend.profit_distribution_group(cell[0], 3, cell[1], _MARKET)


# Batch, good cells, and per bad cell the one-cell reference and the
# ``cell`` that reference reports: a scalar route (None), or the batch on
# that cell alone (0) where no scalar route raises the check. That holds
# for b = 0 and for the FOC. A break-even w that overflows is named as
# `binding_repayment` gives it, since both reach it through `_coverage`.
_BATCHES = {
    "mv fixed w": (_mv_fixed, [_mv_cell(), _mv_cell(0.0), _mv_cell(0.001, c=800.0)], [
        (_mv_cell(-1.0), _mv_scalar, None),
        (_mv_cell(math.nan), _mv_scalar, None),
        (_mv_cell(1e300), _mv_scalar, None),
        (_mv_cell(c=1.7e308), _mv_scalar, None),
    ]),
    "mv break-even w": (_mv_break_even, [_mv_cell(), _mv_cell(0.0),
                                         _mv_cell(link=eselend.ScoreLink(k=0.003, b=0.7))], [
        (_mv_cell(-0.5), _mv_scalar, None),
        (_mv_cell(math.nan), _mv_scalar, None),
        (_mv_cell(link=_ZERO_START),
         lambda cell: eselend.optimal_ese_mv(None, *cell), 0),
        (_mv_cell(link=eselend.ScoreLink(k=0.005, b=1e-320)),
         lambda cell: eselend.binding_repayment(cell[3].b, 2, cell[0]), None),
        (_mv_cell(params=dataclasses.replace(_MARKET, loan=1e160)),
         lambda cell: eselend.mv_utility(
             0.0, eselend.binding_repayment(0.3, 2, cell[0]), *cell), None),
        (_mv_cell(c=1.7e308), lambda cell: eselend.mv_utility(
            0.0, eselend.binding_repayment(0.3, 2, _MARKET), *cell), None),
    ]),
    "group sizes": (_group, [2, 3, 7.5], [
        *((n, lambda n: eselend.group_foc(50.0, n, _MARKET, _COST, _ZERO_START), None)
          for n in (0.5, 0.0, -3.0, math.nan, math.inf)),
        (1e308, lambda n: eselend.optimal_ese_group(n, _MARKET, _COST, _ZERO_START), 0),
    ]),
    "simulation": (_simulate, [(0.5, 150.0), (0.0, 120.0), (1.0, 160.0)], [
        *(((e, 150.0), _sim_scalar, None) for e in (1.5, -0.1, math.nan)),
        *(((0.5, w), _sim_scalar, None) for w in (0.0, -1.0, math.inf, math.nan, 1e308)),
    ]),
}
_BAD_CELLS = [(name, i) for name, (_, _, bad) in _BATCHES.items()
              for i in range(len(bad))]


@given(data=st.data())
@settings(max_examples=300)
def test_a_bad_cell_is_named_by_its_index(data):
    """One bad cell at a random index of each batch: the error carries
    that index in ``cell``, and has the type and message of the error its
    one-cell reference raises for that cell."""
    name, which = data.draw(st.sampled_from(_BAD_CELLS), "bad cell")
    run, good, bad_cells = _BATCHES[name]
    bad, reference, reference_cell = bad_cells[which]
    cells = data.draw(st.lists(st.sampled_from(good), max_size=6), "good cells")
    index = data.draw(st.integers(0, len(cells)), "index")
    cells.insert(index, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eselend.EselendError) as got:
            run(cells)
        with pytest.raises(eselend.EselendError) as expected:
            reference(bad)
    assert got.value.cell == index
    assert expected.value.cell == reference_cell
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_the_first_failing_check_names_the_cell():
    """With two different bad cells, the check that comes first in the
    batch's order names its first failing cell, even when the other bad
    cell comes earlier: gamma before the float range, gamma before
    ``b > 0``, the break-even w before the float range, e before w."""
    cells = [_mv_cell(), _mv_cell(c=1.7e308), _mv_cell(-1.0)]
    with pytest.raises(eselend.DomainError, match="^gamma must be >= 0$") as got:
        _mv_fixed(cells)
    assert got.value.cell == 2
    cells = [_mv_cell(), _mv_cell(link=_ZERO_START), _mv_cell(-1.0)]
    with pytest.raises(eselend.DomainError, match="^gamma must be >= 0$") as got:
        _mv_break_even(cells)
    assert got.value.cell == 2
    cells = [_mv_cell(), _mv_cell(c=1.7e308),
             _mv_cell(link=eselend.ScoreLink(k=0.005, b=1e-320))]
    with pytest.raises(eselend.DomainError, match="^w must be finite, got inf$") as got:
        _mv_break_even(cells)
    assert got.value.cell == 2
    with pytest.raises(eselend.DomainError, match=r"^e must lie in \[0.0, 1.0\]$") as got:
        _simulate([(0.5, 150.0), (0.5, -1.0), (1.5, 150.0)])
    assert got.value.cell == 2


_GROUP_ROUTINES_WITH_W = ("expected_profit_group", "expected_profit_group_sum")
_GROUP_ROUTINES = _GROUP_ROUTINES_WITH_W + ("group_objective", "group_foc", "dE_dn")


@pytest.mark.parametrize("name, spoiled, message", [
    *((name, {"n": 0, "w": -1.0}, "^group size n must be >= 1$") for name in _GROUP_ROUTINES),
    ("expected_profit_group_sum", {"n": 1001, "w": -1.0},
     "^enumeration supports n <= 1000$"),
    *((name, {"w": -1.0}, "^w must be > 0$") for name in _GROUP_ROUTINES_WITH_W),
    *((name, {}, r"^score E must lie in \[0.0, 100.0\]$") for name in _GROUP_ROUTINES),
])
def test_group_routines_check_n_then_w_then_the_score(name, spoiled, message):
    """With the score out of range, every group routine that takes one
    reports a bad ``n`` first, then a bad ``w`` where it takes one, and
    the score last; a routine without ``w`` ignores the spoiled one."""
    function = getattr(eselend, name)
    given = {**_VALID, "E": -1.0, **spoiled}
    with pytest.raises(eselend.DomainError, match=message):
        function(**{param: given[param] for param in inspect.signature(function).parameters})


# The public functions whose E or e may be an array.
_ARRAY_FUNCTIONS = ("success_probability", "loan_ceiling_affordability",
                    "loan_ceiling_incentive", "expected_profit_group",
                    "expected_profit_group_sum", "group_objective", "group_foc")


@given(data=st.data())
@settings(max_examples=300)
def test_a_bad_array_entry_is_named_by_its_index(data):
    """One NaN, infinite, out-of-range or (for the incentive ceiling) zero
    entry at a random index of an ``E`` or ``e`` array: the DomainError
    carries that index in ``cell``, and the message the function raises
    for that entry alone."""
    name = data.draw(st.sampled_from(_ARRAY_FUNCTIONS), "function")
    function = getattr(eselend, name)
    params = inspect.signature(function).parameters
    arg = "E" if "E" in params else "e"
    top = 100.0 if arg == "E" else 1.0
    zero_is_bad = name == "loan_ceiling_incentive"
    special = [math.nan, math.inf, -math.inf] + ([0.0] if zero_is_bad else [])
    bad = data.draw(st.sampled_from(special)
                    | st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
                    | st.floats(min_value=top, exclude_min=True, allow_infinity=False),
                    "bad entry")
    entries = data.draw(st.lists(st.floats(0.0, top, exclude_min=zero_is_bad),
                                 max_size=6), "good entries")
    index = data.draw(st.integers(0, len(entries)), "index")
    entries.insert(index, bad)
    kwargs = {param: _VALID[param] for param in params if param in _VALID}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eselend.DomainError) as got:
            function(**{**kwargs, arg: np.array(entries)})
        with pytest.raises(eselend.DomainError) as alone:
            function(**{**kwargs, arg: bad})
    assert got.value.cell == index
    assert alone.value.cell is None
    assert str(got.value) == str(alone.value)
