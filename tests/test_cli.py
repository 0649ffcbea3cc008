"""End-to-end tests for the command line interface, run in process
through `eselend.cli.main`.

Every command writes a CSV whose first line records the resolved
settings (`# eselend <command> key=value ...` with keys sorted), so two
runs with the same inputs must produce byte-identical files. Exit codes:
0 success, 2 configuration or domain problems (also argparse usage), 3
data or filesystem problems, 4 violated internal invariants.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eselend import (CostModel, DomainError, EselendError, MarketParams, ScoreLink, cli,
                     mean_variance, optimizer, oracle_sim)
from eselend.cli import main
from eselend.errors import _raise_first

GOLDEN = Path(__file__).parent / "golden"


def _read_rows(path):
    """Parse an output CSV into (provenance line, header, data rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return first, rows[0], rows[1:]


# ----------------------------------------------------------------------
# ceilings
# ----------------------------------------------------------------------


class TestCeilings:
    """Loan ceiling table over a success-probability grid."""

    def test_default_run(self, tmp_path):
        """19 grid rows, the documented header, and L1 > L2 throughout."""
        out = tmp_path / "ceilings.csv"
        assert main(["ceilings", "--out", str(out)]) == 0
        first, header, rows = _read_rows(out)
        assert first.startswith("# eselend ceilings ")
        assert header == ["e", "L1", "L2", "binding"]
        assert len(rows) == 19
        for row in rows:
            assert float(row[1]) > float(row[2])
            assert row[3] == "L2"

    def test_byte_determinism(self, tmp_path):
        """Two identical runs write byte-identical files."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["ceilings", "--out", str(a)]) == 0
        assert main(["ceilings", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_certain_success_row(self, tmp_path):
        """A grid containing e=1 shows L1 = 1500/2.1 = 714.2857..."""
        out = tmp_path / "one.csv"
        assert main(["ceilings", "--e-grid", "0.5,1.0", "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        np.testing.assert_allclose(float(rows[1][1]), 1500.0 / 2.1,
                                   rtol=1e-9)

    def test_plot_data_twin(self, tmp_path):
        """--plot-data writes a whitespace table with the same rows."""
        out = tmp_path / "c.csv"
        assert main(["ceilings", "--plot-data", "--out", str(out)]) == 0
        dat = out.with_suffix(".dat")
        assert dat.exists()
        lines = [ln for ln in dat.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 19

    def test_empty_grid_is_usage_error(self, tmp_path):
        """A malformed grid spec exits 2 before any output is written."""
        out = tmp_path / "c.csv"
        assert main(["ceilings", "--e-grid", "", "--out", str(out)]) == 2
        assert not out.exists()

    def test_grid_with_zero_exits_two(self, tmp_path, capsys):
        """e=0 makes the incentive ceiling undefined: exit 2, naming that e."""
        out = tmp_path / "c.csv"
        rc = main(["ceilings", "--e-grid", "0.0,0.5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: e=0: incentive ceiling is undefined at e = 0\n")

    def test_grid_beyond_one_exits_two(self, tmp_path, capsys):
        """An e above 1 is named, exits 2 and writes no file."""
        out = tmp_path / "c.csv"
        rc = main(["ceilings", "--e-grid", "0.5,1.5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: e=1.5: e must lie in [0.0, 1.0]\n"
        assert not out.exists()

    def test_tiny_success_keeps_ordering(self, tmp_path):
        """At e=1e-300 the pair coverage 1-(1-e)^2 is 2e-300, not 0: both
        ceilings stay positive with L1 > L2, and no warning is raised."""
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ceilings", "--e-grid", "1e-300", "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert float(rows[0][1]) > float(rows[0][2]) > 0.0

    def test_ceiling_below_overflow_stays_positive(self, tmp_path):
        """At e=1e-310 the incentive ceiling is 4.76e-308, not an overflowed
        0, and no warning is raised."""
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ceilings", "--e-grid", "1e-310", "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert rows[0][2] == "4.761904762e-308"
        assert float(rows[0][1]) > float(rows[0][2])

    def test_grid_array_reaches_the_ceilings(self, tmp_path, monkeypatch):
        """The ceilings get the grid array that `np.linspace` built, not a
        copy made from a list of its points."""
        built, given = [], []
        real_linspace, real_ceiling = np.linspace, cli.loan_ceiling_affordability

        def linspace(*args, **kwargs):
            built.append(real_linspace(*args, **kwargs))
            return built[-1]

        def ceiling(e, params):
            given.append(e)
            return real_ceiling(e, params)

        monkeypatch.setattr(np, "linspace", linspace)
        monkeypatch.setattr(cli, "loan_ceiling_affordability", ceiling)
        assert main(["ceilings", "--e-grid", "0.1:0.9:5",
                     "--out", str(tmp_path / "c.csv")]) == 0
        assert len(built) == len(given) == 1
        assert given[0] is built[0]

    def test_oversized_grid_count_exits_two(self, tmp_path, capsys):
        """A start:stop:count grid above a million points is refused before
        it is built."""
        out = tmp_path / "c.csv"
        assert main(["sweep-mv", "--gamma-grid", "0:1:1000000000",
                     "--out", str(out)]) == 2
        assert "gamma-grid count must be <= 1000000" in capsys.readouterr().err
        assert not out.exists()


# ----------------------------------------------------------------------
# sweep-group-size
# ----------------------------------------------------------------------


class TestSweepGroupSize:
    """Optimal score by group size with the limiting score alongside."""

    def test_small_sweep(self, tmp_path):
        """n in 1..5: five rows, non-increasing scores, constant limit."""
        out = tmp_path / "g.csv"
        assert main(["sweep-group-size", "--n-max", "5",
                     "--out", str(out)]) == 0
        _, header, rows = _read_rows(out)
        assert header == ["n", "optimal_E", "at_boundary", "limit_E"]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
        scores = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))
        assert {r[3] for r in rows} == {"50"}

    def test_reference_pair_row(self, tmp_path):
        """The n=2 row carries the closed-form optimum 75."""
        out = tmp_path / "g.csv"
        assert main(["sweep-group-size", "--n-max", "2",
                     "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        np.testing.assert_allclose(float(rows[1][1]), 75.0, atol=1e-6)

    def test_single_size_window(self, tmp_path):
        """--n-min 2 --n-max 2 produces exactly one row."""
        out = tmp_path / "g.csv"
        assert main(["sweep-group-size", "--n-min", "2", "--n-max", "2",
                     "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert len(rows) == 1
        assert rows[0][0] == "2"

    def test_flat_link_gives_zero_scores(self, tmp_path):
        """--k 0 gives E = 0 at the boundary for every size and for the
        limit, as sweep-mv does for a flat link."""
        out = tmp_path / "g.csv"
        assert main(["sweep-group-size", "--k", "0", "--n-max", "3",
                     "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert rows == [[n, "0", "true", "0"] for n in ("1", "2", "3")]

    def test_bad_window_exits_two(self, tmp_path):
        """n-min above n-max is a usage error."""
        out = tmp_path / "g.csv"
        assert main(["sweep-group-size", "--n-min", "5", "--n-max", "3",
                     "--out", str(out)]) == 2

    def test_oversized_window_exits_two(self, tmp_path, capsys):
        """More than a million group sizes are refused before any size is
        solved, as an oversized grid count is."""
        out = tmp_path / "g.csv"
        for n_max in ("1000001", "1000000000"):
            assert main(["sweep-group-size", "--n-max", n_max,
                         "--out", str(out)]) == 2
            assert ("group-size count n-max - n-min + 1 must be <= 1000000"
                    in capsys.readouterr().err)
        assert not out.exists()

    def test_size_beyond_float_range_exits_two(self, tmp_path, capsys):
        """A group size no float can hold is a usage error, not a crash."""
        out = tmp_path / "g.csv"
        n = str(10**309)
        assert main(["sweep-group-size", "--n-min", n, "--n-max", n,
                     "--out", str(out)]) == 2
        assert ("n-max must not exceed the float range"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_overflowing_size_exits_four_without_warning(self, tmp_path,
                                                         capsys):
        """A size whose FOC overflows the float range is named, exit 4,
        without a numpy overflow warning on the way."""
        out = tmp_path / "g.csv"
        n = str(10**306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep-group-size", "--n-min", n, "--n-max", n,
                         "--out", str(out)]) == 4
        assert (capsys.readouterr().err
                == f"error: group size n={n}: FOC is not finite at E=0.0\n")
        assert not out.exists()

    def test_failing_size_is_named(self, tmp_path, monkeypatch, capsys):
        """A non-finite FOC exits 4, names its group size and writes
        nothing."""
        real = optimizer._foc
        monkeypatch.setattr(
            optimizer, "_foc",
            lambda e, n, params, cost: np.where(n == 3, np.nan,
                                                real(e, n, params, cost)))
        out = tmp_path / "g.csv"
        assert main(["sweep-group-size", "--n-max", "5",
                     "--out", str(out)]) == 4
        assert (capsys.readouterr().err
                == "error: group size n=3: FOC is not finite at E=0.0\n")
        assert not out.exists()


# ----------------------------------------------------------------------
# sweep-mv
# ----------------------------------------------------------------------


class TestSweepMv:
    """Risk-aversion sweep over baseline/cost cells."""

    def test_small_sweep_matches_library(self, tmp_path):
        """A 1x1x3 sweep reproduces optimal_ese_mv cell by cell."""
        from eselend import CostModel, MarketParams, ScoreLink, optimal_ese_mv

        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000",
                     "--gamma-grid", "0:0.1:3", "--out", str(out)]) == 0
        _, header, rows = _read_rows(out)
        assert header == ["b", "c", "gamma", "optimal_E", "at_boundary"]
        assert len(rows) == 3
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.05, delta=0.9)
        link = ScoreLink(k=0.005, b=0.5)
        cost = CostModel(c=1000.0)
        for row in rows:
            opt = optimal_ese_mv(140.0, params, float(row[2]), cost, link)
            np.testing.assert_allclose(float(row[3]), opt.score, atol=1e-6)

    def test_default_grid_shape(self, tmp_path):
        """Defaults sweep 3 baselines x 5 costs x 21 gammas = 315 rows."""
        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert len(rows) == 315

    def test_explicit_slope_respected(self, tmp_path):
        """Passing --k overrides the per-baseline default slope."""
        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", "--b-set", "0.3", "--c-set", "1000",
                     "--gamma-grid", "0", "--k", "0.004",
                     "--out", str(out)]) == 0
        first, _, rows = _read_rows(out)
        assert "k=0.004" in first
        assert len(rows) == 1

    def test_failing_cell_is_named(self, tmp_path, monkeypatch, capsys):
        """A failed re-validation exits 4 and names its (b, c, gamma)
        cell; a bad gamma exits 2 and names its cell too."""
        real = mean_variance._utility

        def broken(e, w, ph, pl, gamma, c):
            off = np.where((c == 1200.0) & (gamma == 0.5), 1.0, 0.0)
            return real(e, w, ph, pl, gamma, c) + off

        monkeypatch.setattr(mean_variance, "_utility", broken)
        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000,1200",
                     "--gamma-grid", "0:1:3", "--out", str(out)]) == 4
        assert "error: b=0.5, c=1200, gamma=0.5: " in capsys.readouterr().err
        assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000",
                     "--gamma-grid=0,-1", "--out", str(out)]) == 2
        assert ("error: b=0.5, c=1000, gamma=-1: gamma must be >= 0"
                in capsys.readouterr().err)

    def test_cells_are_labelled_only_on_failure(self, tmp_path, monkeypatch):
        """A sweep that succeeds formats no cell label: its `_fmt` calls do
        not grow with the gamma grid."""
        cli._parser()  # its first build formats every option's default
        real, calls = cli._fmt, []

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(cli, "_fmt", counting)
        counts = []
        for grid in ("0:1:3", "0:1:101"):
            calls.clear()
            assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000",
                         "--gamma-grid", grid,
                         "--out", str(tmp_path / "mv.csv")]) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("argv, message", [
        (["--k", "0.006"], "b=0.5, c=800: link must satisfy 100*k + b <= 1"),
        (["--c-set", "800,0"], "b=0.3, c=0: c must be > 0"),
        (["--b-set", "0.3,1.5"], "b=1.5, c=800: b must lie in [0, 1]"),
    ])
    def test_bad_scenario_is_named(self, argv, message, tmp_path, capsys):
        """A link or cost that cannot be built exits 2 naming its (b, c)
        scenario, as a bad gamma names its cell."""
        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_overflowing_w_is_named(self, tmp_path, capsys):
        """A --w whose utility overflows the float range is an input
        problem: exit 2 naming the first cell, with no floating-point
        warning, where it used to exit 4 as a non-finite objective."""
        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", "--w", "1e308", "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == "error: b=0.3, c=800, gamma=0: the mean-variance utility "
                   "overflows the float range at w=1e+308\n")
        assert not out.exists()

    def test_moment_route_failure_is_named(self, tmp_path, monkeypatch,
                                           capsys):
        """A disagreement between the two moment routes exits 4 and names
        the first cell it reached."""
        real = mean_variance._var_poly
        monkeypatch.setattr(mean_variance, "_var_poly",
                            lambda e, A, B: real(e, A, B) + 1.0)
        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000",
                     "--gamma-grid", "0:1:3", "--out", str(out)]) == 4
        assert ("error: b=0.5, c=1000, gamma=0: moment routes disagree"
                in capsys.readouterr().err)

    def test_engine_fault_is_caught_by_the_oracle(self, tmp_path, monkeypatch,
                                                  capsys):
        """The re-validation reads none of the engine's arrays, so a fault
        in the engine itself exits 4 naming its cell, with plain numbers in
        the message: a ranked value off by 1.0 disagrees with the utility,
        and roots shifted by 1e-4 move the interior optimum of cell 0
        (b=0.3, c=800, gamma=0, near E = 71.80) off its first-order
        condition."""
        out = tmp_path / "mv.csv"
        real_values = mean_variance._utility_at

        def off_values(e, s, rows, gamma, c):
            bump = np.where((c == 1200.0) & (gamma == 0.5), 1.0, 0.0)
            return real_values(e, s, rows, gamma, c) + bump

        with monkeypatch.context() as patch:
            patch.setattr(mean_variance, "_utility_at", off_values)
            assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000,1200",
                         "--gamma-grid", "0:1:3", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: b=0.5, c=1200, gamma=0.5: optimizer objective ")
        assert "disagrees with utility" in err and "np." not in err
        real_roots = mean_variance._real_roots

        def shifted_roots(coefs):
            roots = real_roots(coefs)
            roots[0] += 1e-4
            return roots

        monkeypatch.setattr(mean_variance, "_real_roots", shifted_roots)
        assert main(["sweep-mv", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: b=0.3, c=800, gamma=0: interior optimum at E=71.8")
        assert "FOC residual" in err and "np." not in err
        assert not out.exists()


# ----------------------------------------------------------------------
# sweep-yield
# ----------------------------------------------------------------------


class TestSweepYield:
    """High- versus low-yield scenario comparison."""

    def test_default_run(self, tmp_path):
        """Two scenarios over the 21-point gamma grid: 42 rows with the
        documented scenario labels."""
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--out", str(out)]) == 0
        _, header, rows = _read_rows(out)
        assert header == ["scenario", "gamma", "optimal_E"]
        assert len(rows) == 42
        labels = {row[0] for row in rows}
        assert labels == {"Ybar=1000,Ylow=500", "Ybar=600,Ylow=300"}

    def test_single_gamma_point(self, tmp_path):
        """A one-point gamma grid still yields one row per scenario."""
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--gamma-grid", "0.2",
                     "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert len(rows) == 2

    def test_identical_scenarios_agree(self, tmp_path):
        """Duplicated yield pairs produce identical score columns."""
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--yields", "1000:500,1000:500",
                     "--gamma-grid", "0:1:5", "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert len(rows) == 10
        assert [r[2] for r in rows[:5]] == [r[2] for r in rows[5:]]

    def test_failing_cell_is_named(self, tmp_path, monkeypatch, capsys):
        """A failed re-validation exits 4 and names its scenario and
        gamma."""
        real = mean_variance._utility

        def broken(e, w, ph, pl, gamma, c):
            return real(e, w, ph, pl, gamma, c) + np.where(ph == 600.0, 1.0, 0.0)

        monkeypatch.setattr(mean_variance, "_utility", broken)
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--endogenous-w", "--out", str(out)]) == 4
        assert ("error: scenario=Ybar=600,Ylow=300, gamma=0: "
                in capsys.readouterr().err)

    def test_overflowing_w_is_named(self, tmp_path, capsys):
        """A --w whose utility overflows exits 2 naming its scenario and
        gamma, with no floating-point warning."""
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--w", "1e308", "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == "error: scenario=Ybar=1000,Ylow=500, gamma=0: the "
                   "mean-variance utility overflows the float range at "
                   "w=1e+308\n")
        assert not out.exists()

    def test_invalid_market_is_named(self, tmp_path, capsys):
        """A yield pair that makes no valid market exits 2 naming the pair,
        before anything is written."""
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--yields", "1000:500,500:1000",
                     "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == "error: scenario=Ybar=500,Ylow=1000: need 0 < y_low < y_high\n")
        assert not out.exists()

    def test_yields_spec_needs_two_pairs(self, tmp_path):
        """One pair or malformed pairs exit 2."""
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--yields", "1000:500",
                     "--out", str(out)]) == 2
        assert main(["sweep-yield", "--yields", "1000:500,600",
                     "--out", str(out)]) == 2

    def test_blank_yields_token_is_skipped(self, tmp_path):
        """An empty token between commas is skipped: the CSV matches the one
        without it, apart from the provenance line, which records the spec
        as given."""
        tables = []
        for spec in ("1000:500,,600:300", "1000:500,600:300"):
            out = tmp_path / "y.csv"
            assert main(["sweep-yield", "--yields", spec, "--gamma-grid", "0:1:3",
                         "--out", str(out)]) == 0
            first, header, rows = _read_rows(out)
            assert first.endswith(f" yields={spec}")
            tables.append((first.rpartition(" yields=")[0], header, rows))
        assert tables[0] == tables[1]
        assert len(tables[0][2]) == 6


# ----------------------------------------------------------------------
# the sweeps' engine arrays
# ----------------------------------------------------------------------


@st.composite
def _sweeps(draw):
    """A mean-variance sweep as `cli._solve_sweep` takes it: options in
    either w mode, one to three (label, params, b, c) scenarios from yield
    pairs, and a gamma grid that holds 0. ``b`` may be 0 at a fixed w; ``k``
    is explicit or the per-baseline default. With ``spoil``, one scenario
    or gamma is out of the engine's domain: a negative gamma, b = 0 with the
    break-even w, or c = 1e308."""
    endogenous = draw(st.booleans())
    count = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.floats(100.0, 2000.0), st.floats(0.05, 0.95)),
                          min_size=count, max_size=count))
    baseline = st.floats(0.05, 0.9) if endogenous else st.floats(0.05, 0.9) | st.just(0.0)
    bs = draw(st.lists(baseline, min_size=count, max_size=count))
    cs = draw(st.lists(st.floats(100.0, 5000.0), min_size=count, max_size=count))
    k = draw(st.none() | st.floats(0.0, 1.0).map(lambda share: share * (1.0 - max(bs)) / 100.0))
    gammas = draw(st.lists(st.floats(0.0, 2.0), max_size=4))
    gammas.insert(draw(st.integers(0, len(gammas))), 0.0)
    spoil = draw(st.none() | st.sampled_from(["gamma", "b", "c"]))
    if spoil == "gamma":
        gammas.insert(draw(st.integers(0, len(gammas))), -draw(st.floats(0.01, 1.0)))
    elif spoil is not None:
        at = draw(st.integers(0, count - 1))
        if spoil == "b":
            endogenous, bs[at] = True, 0.0
        else:
            cs[at] = 1e308
    scenarios = [(f"scenario {i}", dataclasses.replace(mean_variance.DEFAULT_SWEEP_PARAMS,
                                                       y_high=y_high, y_low=y_high * ratio),
                  b, c)
                 for i, ((y_high, ratio), b, c) in enumerate(zip(pairs, bs, cs))]
    options = {"k": k, "endogenous_w": endogenous, "w": draw(st.floats(50.0, 300.0))}
    return options, scenarios, gammas


def _outcome(solve):
    """Each `Optima` field's bytes, or the error raised."""
    try:
        return [field.tobytes() for field in solve()]
    except EselendError as exc:
        return exc


class TestSweepArrays:
    """`cli._solve_sweep` hands the engine one row per scenario, repeated per
    gamma, not one (params, gamma, cost, link) cell per gamma."""

    def test_each_scenario_reads_its_market_once(self, tmp_path, monkeypatch):
        """A sweep reads a market's revenue once per scenario, not once per
        cell: 15 reads for the default `sweep-mv`, 2 for `sweep-yield`."""
        reads = Counter()
        real = MarketParams.high_revenue

        def counted(params):
            reads["high_revenue"] += 1
            return real.fget(params)

        monkeypatch.setattr(MarketParams, "high_revenue", property(counted))
        for command, scenarios in (("sweep-mv", 15), ("sweep-yield", 2)):
            reads.clear()
            assert main([command, "--out", str(tmp_path / "sweep.csv")]) == 0
            assert reads["high_revenue"] <= scenarios, command

    @given(sweep=_sweeps())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_per_cell_batch(self, sweep):
        """The sweep's `Optima` match `optimal_ese_mv_batch` on one
        (params, gamma, cost, link) cell per (scenario, gamma) bit for bit,
        and a spoiled cell raises the same error, which the sweep prefixes
        with the cell's scenario and gamma."""
        options, scenarios, gammas = sweep
        cells = [(params, gamma, CostModel(c=c),
                  ScoreLink(k=mean_variance.slope_for_baseline(b)
                            if options["k"] is None else options["k"], b=b))
                 for _, params, b, c in scenarios for gamma in gammas]
        w = None if options["endogenous_w"] else options["w"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: cli._solve_sweep(options, scenarios, gammas))
            expected = _outcome(lambda: mean_variance.optimal_ese_mv_batch(w, cells))
        if isinstance(expected, EselendError):
            scenario, j = divmod(expected.cell, len(gammas))
            assert type(got) is type(expected)
            assert str(got) == (f"{scenarios[scenario][0]}, "
                                f"gamma={cli._fmt(gammas[j])}: {expected}")
        else:
            assert got == expected


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


class TestSimulate:
    """Monte Carlo versus exact moments per (e, n) cell."""

    def test_certain_cell_is_exact(self, tmp_path):
        """e=1, n=2 with the break-even w=105 pays 895 in every trial, so
        the empirical and analytic means coincide and z = 0."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "1.0", "--n-set", "2",
                     "--trials", "2000", "--out", str(out)]) == 0
        first, header, rows = _read_rows(out)
        assert "w=auto" in first
        assert header == ["e", "n", "trials", "seed", "empirical_mean",
                          "analytic_mean", "empirical_var", "analytic_var",
                          "z_mean"]
        assert len(rows) == 1
        row = rows[0]
        assert float(row[4]) == 895.0
        assert float(row[5]) == 895.0
        assert float(row[8]) == 0.0

    def test_small_grid_z_bounded(self, tmp_path):
        """A 2x2 grid at 20k trials keeps |z| within 4."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.4,0.7", "--n-set", "2,3",
                     "--trials", "20000", "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert len(rows) == 4
        assert all(abs(float(row[8])) <= 4.0 for row in rows)

    def test_byte_determinism(self, tmp_path):
        """The seeded generator makes reruns byte-identical."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--e-grid", "0.5", "--n-set", "2",
                "--trials", "30000", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_biased_simulation_writes_then_exits_four(self, tmp_path,
                                                      monkeypatch, capsys):
        """A simulated mean 10 standard errors off the exact mean still
        writes its table, then exits 4 naming the worst cell."""
        real = cli.simulate_member_profit_batch

        def biased(es, ns, ws, params, cfg):
            results = real(es, ns, ws, params, cfg)
            return [dataclasses.replace(
                result, empirical_mean=result.empirical_mean
                + (10.0 if (e, n) == (0.5, 2) else 0.0) * result.std_error_mean)
                for e, n, result in zip(es, ns, results)]

        monkeypatch.setattr(cli, "simulate_member_profit_batch", biased)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.3,0.5", "--n-set", "3,2",
                     "--trials", "20000", "--out", str(out)]) == 4
        _, _, rows = _read_rows(out)
        assert [row[:2] for row in rows] == [["0.3", "3"], ["0.3", "2"],
                                             ["0.5", "3"], ["0.5", "2"]]
        assert abs(float(rows[3][8])) > 4.0
        assert max(abs(float(row[8])) for row in rows[:3]) <= 4.0
        err = capsys.readouterr().err
        assert err.startswith("error: e=0.5, n=2: simulated mean deviates")
        assert "standard errors (limit 4)" in err

    def test_zero_error_miss_keeps_its_sign(self, tmp_path, capsys):
        """One trial at seed 42 fails, so the simulated mean 0 has no
        spread and lies below the exact 520: z is -inf, not inf, and the
        cell exits 4 by inf standard errors."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--trials", "1", "--e-grid", "0.5",
                     "--n-set", "2", "--out", str(out)]) == 4
        _, _, rows = _read_rows(out)
        assert rows == [["0.5", "2", "1", "42", "0", "520", "0", "286600", "-inf"]]
        assert "by inf standard errors" in capsys.readouterr().err

    def test_failing_cell_is_named(self, tmp_path, monkeypatch, capsys):
        """An error the simulator raises for one e is prefixed with its
        (e, n) cell and exits 2 before anything is written."""
        def failing(es, ns, ws, params, cfg):
            _raise_first([False, True], DomainError, "empirical_mean must be finite")

        monkeypatch.setattr(cli, "simulate_member_profit_batch", failing)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.3,0.5", "--n-set", "3",
                     "--trials", "1000", "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == "error: e=0.5, n=3: empirical_mean must be finite\n")
        assert not out.exists()

    def test_overflowing_w_is_named(self, tmp_path, capsys):
        """A --w so large that a member's share of two failed peers'
        shortfall overflows exits 2 with no floating-point warning, and
        the error names its (e, n) cell and w. So does w = 1e160, whose
        profits are finite but whose squares overflow the variance."""
        out = tmp_path / "s.csv"
        for w in ("1e+308", "1e+160"):
            assert main(["simulate", "--w", w, "--n-set", "3", "--e-grid",
                         "0.5", "--trials", "1000", "--out", str(out)]) == 2
            assert (capsys.readouterr().err
                    == "error: e=0.5, n=3: the outcome profits overflow the "
                       f"float range at w={w}\n")
            assert not out.exists()

    def test_counter_space_error_names_the_size(self, tmp_path, capsys):
        """trials * n beyond the counter space names the group size."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.5", "--n-set", "2",
                     "--trials", str(2 ** 61), "--out", str(out)]) == 2
        assert (capsys.readouterr().err == "error: n=2: trials * n too large "
                "for the 64-bit counter space\n")
        assert not out.exists()

    def test_counter_space_error_names_the_largest_size(self, tmp_path, capsys):
        """With several sizes, the counter-space error names the largest,
        which sets how many draws a seed's stream needs."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.5", "--n-set", "2,3",
                     "--trials", str(2 ** 61), "--out", str(out)]) == 2
        assert (capsys.readouterr().err == "error: n=3: trials * n too large "
                "for the 64-bit counter space\n")
        assert not out.exists()

    def test_default_grid_hashes_the_largest_size_once(self, tmp_path, monkeypatch):
        """The default grid (n in 2, 3 and 10, 10^6 trials) hashes the
        first 10 * 10^6 draws of the seed's stream once, not a stream of
        n * 10^6 draws per size."""
        real, hashed = oracle_sim._hash64, []

        def counting(base, offsets, z, tmp):
            hashed.append(offsets.size)
            return real(base, offsets, z, tmp)

        monkeypatch.setattr(oracle_sim, "_hash64", counting)
        assert main(["simulate", "--out", str(tmp_path / "s.csv")]) == 0
        assert sum(hashed) == 10_000_000

    def test_default_grid_tests_each_e_once_per_draw(self, monkeypatch):
        """The default grid (n in 2, 3 and 10) compares each of the first
        10 * trials draws once per distinct e, as a batch of n = 10 alone
        does, not once per cell."""
        real, compared = oracle_sim._below, []

        def counting(z, threshold, out):
            compared.append(z.size)
            return real(z, threshold, out)

        monkeypatch.setattr(oracle_sim, "_below", counting)
        cfg = oracle_sim.SimConfig(trials=200_000, seed=1)
        for sizes in ((2, 3, 10), (10,)):
            cells = [(e, n) for e in (0.3, 0.5, 0.8) for n in sizes]
            compared.clear()
            oracle_sim.simulate_member_profit_batch(
                [e for e, _ in cells], [n for _, n in cells], [150.0] * len(cells),
                mean_variance.DEFAULT_SWEEP_PARAMS, cfg)
            assert sum(compared) == 6_000_000

    def test_zero_trials_exits_two(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--trials", "0", "--out", str(out)]) == 2

    def test_zero_success_needs_explicit_w(self, tmp_path, capsys):
        """e=0 has no break-even w; the error suggests passing --w."""
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--e-grid", "0.0", "--n-set", "2",
                   "--trials", "1000", "--out", str(out)])
        assert rc == 2
        assert "--w" in capsys.readouterr().err

    def test_group_size_below_one_exits_two(self, tmp_path, capsys):
        """A group size of 0 is reported as a bad n-set entry, not as a
        missing --w."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--n-set", "2,0", "--trials", "1000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n-set entry 0 must be >= 1" in err
        assert "--w" not in err
        assert not out.exists()

    def test_success_above_one_is_not_a_missing_w(self, tmp_path, capsys):
        """An e outside [0, 1] is reported as such, not as a missing --w."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "1.5", "--n-set", "2",
                     "--trials", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "e must lie in [0.0, 1.0]" in err
        assert "--w" not in err

    def test_explicit_w_accepted_at_zero_success(self, tmp_path):
        """With --w given, the e=0 cell simulates the all-zero profit."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.0", "--n-set", "2",
                     "--trials", "1000", "--w", "150",
                     "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert float(rows[0][4]) == 0.0
        assert float(rows[0][5]) == 0.0


# ----------------------------------------------------------------------
# score
# ----------------------------------------------------------------------


class TestScore:
    """Composite scoring from metric records."""

    def test_toy_cohort(self, tmp_path):
        """Two farmers on one metric score 0.0000 and 100.0000."""
        schema = tmp_path / "schema.csv"
        schema.write_text("metric_id,pillar,direction,kind\n"
                          "m,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n",
                          encoding="utf-8")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("farmer_id,metric_id,value\nF1,m,10\nF2,m,30\n",
                           encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert main(["score", "--metrics", str(metrics),
                     "--schema", str(schema), "--out", str(out)]) == 0
        first, header, rows = _read_rows(out)
        assert first.startswith("# eselend score ")
        assert header == ["farmer_id", "score"]
        assert rows == [["F1", "0.0000"], ["F2", "100.0000"]]

    def test_bundled_schema_default(self, tmp_path):
        """Omitting --schema resolves to the bundled 36-metric sample."""
        rng = np.random.default_rng(3)
        from eselend.scoring import read_schema_csv
        import importlib.resources as resources

        path = resources.files("eselend") / "data" / "sample_schema.csv"
        with resources.as_file(path) as p:
            scheme = read_schema_csv(p)
        lines = ["farmer_id,metric_id,value"]
        for farmer in ("A", "B", "C"):
            for metric in scheme.schema:
                value = (int(rng.integers(0, 2))
                         if metric.kind == "BINARY"
                         else round(float(rng.normal(50.0, 15.0)), 3))
                lines.append(f"{farmer},{metric.id},{value}")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert main(["score", "--metrics", str(metrics),
                     "--out", str(out)]) == 0
        first, _, rows = _read_rows(out)
        assert "schema=auto" in first
        assert len(rows) == 3
        assert all(0.0 <= float(r[1]) <= 100.0 for r in rows)

    def test_missing_metric_exits_three(self, tmp_path, capsys):
        """A coverage gap is a data error: exit 3 with itemised pairs."""
        schema = tmp_path / "schema.csv"
        schema.write_text("metric_id,pillar,direction,kind\n"
                          "m,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n"
                          "q,SOCIAL,HIGHER_BETTER,CONTINUOUS\n",
                          encoding="utf-8")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("farmer_id,metric_id,value\n"
                           "F1,m,1\nF1,q,2\nF2,m,3\n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        rc = main(["score", "--metrics", str(metrics),
                   "--schema", str(schema), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "F2" in err and "q" in err

    def test_invalid_utf8_exits_with_its_file_named(self, tmp_path, capsys):
        """A metrics file that is not UTF-8 is a data error (exit 3), a
        schema that is not UTF-8 a configuration error (exit 2); each
        names its file, byte and line."""
        schema = tmp_path / "schema.csv"
        schema.write_text("metric_id,pillar,direction,kind\n"
                          "m,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n",
                          encoding="utf-8")
        metrics = tmp_path / "metrics.csv"
        metrics.write_bytes(b"farmer_id,metric_id,value\nF1,m\xff,1\n")
        out = tmp_path / "scores.csv"
        argv = ["score", "--metrics", str(metrics), "--schema", str(schema),
                "--out", str(out)]
        assert main(argv) == 3
        assert (capsys.readouterr().err
                == f"error: {metrics}: not valid UTF-8: byte 0xff on line 2\n")
        metrics.write_text("farmer_id,metric_id,value\nF1,m,1\n", encoding="utf-8")
        schema.write_bytes(b"metric_id,pillar,direction,kind\n"
                           b"m,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\x80\n")
        assert main(argv) == 2
        assert (capsys.readouterr().err
                == f"error: {schema}: not valid UTF-8: byte 0x80 on line 2\n")
        assert not out.exists()

    def test_csv_error_exits_with_its_line_named(self, tmp_path, capsys):
        """A quoted cell over csv's field size limit is a data error in a
        metrics file (exit 3) and a configuration error in a schema (exit
        2); each names its file and the line the record starts on, even
        after an earlier bad record."""
        big = '"' + "x" * 200_000 + '"'
        limit = "field larger than field limit (131072)"
        schema = tmp_path / "schema.csv"
        schema.write_text("metric_id,pillar,direction,kind\n"
                          "m,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n",
                          encoding="utf-8")
        metrics = tmp_path / "metrics.csv"
        out = tmp_path / "scores.csv"
        argv = ["score", "--metrics", str(metrics), "--schema", str(schema),
                "--out", str(out)]
        # the field-limit error on line 3 still comes before the bad value
        # on line 2
        for value in ("1", "abc"):
            metrics.write_text(f"farmer_id,metric_id,value\nF1,m,{value}\n"
                               f"{big},m,1\n", encoding="utf-8")
            assert main(argv) == 3
            assert capsys.readouterr().err == f"error: {metrics}:3: {limit}\n"
        metrics.write_text("farmer_id,metric_id,value\nF1,m,1\n", encoding="utf-8")
        # in a schema too, also after an unknown pillar on line 2
        for rows, line in (("", 2), ("m,GOVERNANCE,HIGHER_BETTER,CONTINUOUS\n", 3)):
            schema.write_text("metric_id,pillar,direction,kind\n" + rows
                              + f"{big},ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n",
                              encoding="utf-8")
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {schema}:{line}: {limit}\n"
        assert not out.exists()

    def test_requires_metrics(self, tmp_path):
        """score without --metrics (or a config value) exits 2."""
        assert main(["score", "--out", str(tmp_path / "s.csv")]) == 2

    def test_missing_metrics_file_exits_three(self, tmp_path):
        """A nonexistent metrics path is a filesystem error: exit 3."""
        rc = main(["score", "--metrics", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 3


# ----------------------------------------------------------------------
# configuration file and exit codes
# ----------------------------------------------------------------------


class TestConfigResolution:
    """Flags beat config values; config values beat built-in defaults."""

    def test_config_supplies_defaults(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"e_grid": "0.5,0.6"}), encoding="utf-8")
        out = tmp_path / "c.csv"
        assert main(["ceilings", "--config", str(config),
                     "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert [row[0] for row in rows] == ["0.5", "0.6"]

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"e_grid": "0.5,0.6"}), encoding="utf-8")
        out = tmp_path / "c.csv"
        assert main(["ceilings", "--config", str(config),
                     "--e-grid", "0.7", "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert [row[0] for row in rows] == ["0.7"]

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"e_gird": "0.5"}), encoding="utf-8")
        rc = main(["ceilings", "--config", str(config),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "e_gird" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path):
        rc = main(["ceilings", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2

    def test_malformed_config_json_exits_two(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json", encoding="utf-8")
        rc = main(["ceilings", "--config", str(config),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2

    def test_provenance_reflects_resolved_settings(self, tmp_path):
        """The header carries the merged settings, sorted by key."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilon": 0.1}), encoding="utf-8")
        out = tmp_path / "c.csv"
        assert main(["ceilings", "--config", str(config), "--e-grid", "0.5",
                     "--out", str(out)]) == 0
        first, _, _ = _read_rows(out)
        assert "epsilon=0.1" in first
        assert "e_grid=0.5" in first
        keys = [tok.split("=")[0] for tok in first.split()[3:]]
        assert keys == sorted(keys)


    @pytest.mark.parametrize("command, config", [
        ("sweep-mv", {"p": "abc"}),
        ("sweep-mv", {"p": None}),
        ("sweep-group-size", {"n_max": "ten"}),
        ("simulate", {"trials": 1.5}),
        ("ceilings", {"plot_data": "no"}),
        ("sweep-mv", {"endogenous_w": "false"}),
    ])
    def test_bad_config_value_exits_two(self, command, config, tmp_path,
                                        capsys):
        """A config value its flag would reject exits 2, names the key and
        writes nothing. Only the switches take JSON booleans, and null
        only stands for a default of None."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        rc = main([command, "--config", str(path),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        (key,) = config
        assert f"error: config key {key}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_config_switch_matches_flag(self, tmp_path):
        """``endogenous_w: true`` runs exactly what --endogenous-w runs;
        ``k: null`` is the default automatic slope."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"endogenous_w": True, "k": None}),
                          encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep-mv", "--endogenous-w", "--out", str(a)]) == 0
        assert main(["sweep-mv", "--config", str(config),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


_TOY_SCORE_FILES = {
    "schema": "metric_id,pillar,direction,kind\nm,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n",
    "metrics": "farmer_id,metric_id,value\nF1,m,10\nF2,m,30\n",
}
_SIMULATE_HEADER = ("e,n,trials,seed,empirical_mean,analytic_mean,empirical_var,"
                    "analytic_var,z_mean")


class TestProvenance:
    """The provenance comment stays one line: a value that holds a line
    break, CR, LF or any other that str.splitlines splits at, is written as
    its repr(), whether it came from a flag or from --config."""

    @pytest.mark.parametrize("command, name, value, others, header", [
        ("ceilings", "e_grid", "0.3,\n0.5", {}, "e,L1,L2,binding"),
        ("simulate", "e_grid", "0.3,\r\n0.5", {"n_set": "2", "trials": "1000"},
         _SIMULATE_HEADER),
        ("simulate", "n_set", "2,\n3", {"e_grid": "0.5", "trials": "1000"},
         _SIMULATE_HEADER),
        ("sweep-mv", "b_set", "0.3,\n0.5", {"c_set": "1000", "gamma_grid": "0:1:3"},
         "b,c,gamma,optimal_E,at_boundary"),
        ("sweep-mv", "c_set", "800,\r1000", {"b_set": "0.5", "gamma_grid": "0:1:3"},
         "b,c,gamma,optimal_E,at_boundary"),
        ("sweep-yield", "gamma_grid", "0,\n1", {}, "scenario,gamma,optimal_E"),
        ("sweep-yield", "yields", "1000:500,\n600:300", {"gamma_grid": "0:1:3"},
         "scenario,gamma,optimal_E"),
        ("score", "metrics", "met\nrics.csv", {"schema": "schema.csv"}, "farmer_id,score"),
        ("score", "schema", "sch\rema.csv", {"metrics": "metrics.csv"}, "farmer_id,score"),
        ("ceilings", "e_grid", "0.3,\x0c0.5", {}, "e,L1,L2,binding"),
        ("ceilings", "e_grid", "0.3,\u20280.5", {}, "e,L1,L2,binding"),
    ])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_line_break_is_written_as_repr(self, command, name, value, others,
                                           header, by_config, tmp_path):
        options = {**others, name: value}
        if command == "score":  # the file options name files of the toy cohort
            options = {key: str(tmp_path / file) for key, file in options.items()}
            for key, path in options.items():
                Path(path).write_text(_TOY_SCORE_FILES[key], encoding="utf-8")
        value = options.pop(name)
        out = tmp_path / "out.csv"
        argv = [command, "--out", str(out)]
        for key, text in options.items():
            argv += ["--" + key.replace("_", "-"), text]
        if by_config:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({name: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        else:
            argv += ["--" + name.replace("_", "-"), value]
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("#")] == lines[:1]
        assert f" {name}={value!r} " in lines[0] + " "
        assert lines[1] == header

    @pytest.mark.parametrize("command, name, value, others", [
        ("score", "metrics", "my metrics.csv", {"schema": "schema.csv"}),
        ("sweep-mv", "b_set", "0.4, 0.6", {"c_set": "1000", "gamma_grid": "0:1:3"}),
        ("sweep-mv", "b_set", "0.4,\t0.6", {"c_set": "1000", "gamma_grid": "0:1:3"}),
        ("sweep-mv", "c_set", "800, \n1000", {"b_set": "0.5", "gamma_grid": "0:1:3"}),
        ("score", "metrics", "farmers'.csv", {"schema": "schema.csv"}),
        ("score", "metrics", "back\\slash.csv", {"schema": "schema.csv"}),
        ("score", "metrics", "farmers'\n\"m\".csv", {"schema": "schema.csv"}),
    ])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_whitespace_value_splits_back(self, command, name, value, others,
                                          by_config, tmp_path):
        """``shlex.split`` reads the provenance line back as one
        ``key=value`` token per setting when a value holds whitespace, a
        quote or a backslash; a value with a line break reads back as its
        repr() without the outer quotes."""
        if command == "score":  # the file options name files of the toy cohort
            paths = {key: tmp_path / file
                     for key, file in {**others, name: value}.items()}
            for key, path in paths.items():
                path.write_text(_TOY_SCORE_FILES[key], encoding="utf-8")
            others = {key: str(path) for key, path in paths.items() if key != name}
            value = str(paths[name])
        out = tmp_path / "out.csv"
        argv = [command, "--out", str(out)]
        for key, text in others.items():
            argv += ["--" + key.replace("_", "-"), text]
        if by_config:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({name: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        else:
            argv += ["--" + name.replace("_", "-"), value]
        assert main(argv) == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        tokens = shlex.split(first)
        assert tokens[:3] == ["#", "eselend", command]
        assert all("=" in token for token in tokens[3:])
        read = dict(token.split("=", 1) for token in tokens[3:])
        assert read[name] == (repr(value)[1:-1] if "\n" in value else value)
        assert len(read) == len(tokens) - 3


class TestSpecErrors:
    """Malformed list, grid and config specs exit 2 with one message."""

    @pytest.mark.parametrize("argv, config, message", [
        (["ceilings", "--e-grid", " "], None, "e-grid is empty"),
        (["ceilings", "--e-grid", ","], None, "e-grid is empty"),
        (["ceilings", "--e-grid", "0:1"], None,
         "e-grid must be start:stop:count, got '0:1'"),
        (["ceilings", "--e-grid", "0:x:3"], None,
         "e-grid has a non-numeric part in '0:x:3'"),
        (["ceilings", "--e-grid", "0:1:0"], None, "e-grid count must be >= 1"),
        (["ceilings", "--e-grid", "0:1:1000001"], None,
         "e-grid count must be <= 1000000"),
        (["ceilings", "--e-grid", "0.1,abc"], None,
         "e-grid has a non-numeric entry in '0.1,abc'"),
        (["ceilings", "--e-grid", "0.1,inf"], None,
         "e-grid contains a non-finite value"),
        (["sweep-yield", "--yields", "1000:abc,600:300"], None,
         "yield pair '1000:abc' is not numeric"),
        (["ceilings"], "[1, 2]", "config file must hold a JSON object"),
        (["simulate", "--n-set", "2,0"], None, "n-set entry 0 must be >= 1"),
        (["simulate", "--n-set", "2,x"], None,
         "n-set has a non-numeric entry in '2,x'"),
        (["simulate", "--n-set", "2:3:3"], None,
         "n-set entry 2.5 is not a whole number"),
        # Spans beyond the float range overflow in linspace; no warning leaks.
        (["ceilings", "--e-grid=-1e308:1e308:3"], None,
         "e-grid contains a non-finite value"),
        (["ceilings", "--e-grid=-1e308:1e308:2"], None,
         "e-grid contains a non-finite value"),
        (["sweep-group-size", "--n-min", "0"], None, "n-min must be >= 1"),
        # A bad shared w belongs to no cell, so it is named without one.
        (["sweep-mv", "--w", "-5"], None, "w must be > 0"),
        # A one-point grid is its start, even where the span overflows.
        (["sweep-mv", "--gamma-grid=-1e308:1e308:1"], None,
         "b=0.3, c=800, gamma=-1e+308: gamma must be >= 0"),
    ])
    def test_bad_spec_exits_two(self, argv, config, message, tmp_path, capsys):
        """Each case prints exactly its message and writes no output."""
        out = tmp_path / "o.csv"
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(path)]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec, point", [
        ("-1e308:1e308:1", -1e308),
        ("0.3:0.7:1", 0.3),
        ("-0:5:1", 0.0),
        ("-0:-5:1", -0.0),
    ])
    def test_one_point_grid(self, spec, point):
        """``start:stop:1`` is linspace's one point, sign of zero included,
        and ``[start]`` where linspace's point is not finite."""
        assert list(map(repr, cli._parse_grid(spec, "grid"))) == [repr(point)]


class TestRevenueBound:
    """A price or yield whose revenue exceeds the profit bound is an input
    problem named as the revenue, in every command that builds a market;
    `sweep-yield` also names the yield pair. It used to write inf ceilings,
    exit 4 on a non-finite FOC, or blame the break-even w."""

    @pytest.mark.parametrize("argv", [
        ["ceilings", "--e-grid", "0.5"],
        ["sweep-group-size", "--n-max", "3"],
        ["simulate"],
        ["sweep-mv"],
        ["sweep-yield", "--yields", "1e300:1,600:300"],
    ])
    def test_huge_revenue_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "o.csv"
        prefix = "scenario=Ybar=1e+300,Ylow=1: "
        if argv[0] != "sweep-yield":
            argv, prefix = [*argv, "--p", "1e308"], ""
        assert main([*argv, "--out", str(out)]) == 2
        assert (f"error: {prefix}revenue p*y_high + p*y_low="
                in capsys.readouterr().err)
        assert not out.exists()


class TestSweepDefaults:
    """The shipped sweep defaults use the library's market and fixed w,
    which the acceptance tests assert on; the acceptance tests read the
    grids from the command line itself."""

    def test_defaults_parse_to_the_shared_constants(self):
        parser = cli.build_parser()
        mv = cli._resolve(parser.parse_args(["sweep-mv"]), "sweep-mv")
        yld = cli._resolve(parser.parse_args(["sweep-yield"]), "sweep-yield")
        assert cli._market(mv) == mean_variance.DEFAULT_SWEEP_PARAMS
        for settings in (mv, yld):
            assert settings["w"] == mean_variance.DEFAULT_SWEEP_W
            assert settings["k"] is None
        assert (cli._market({**yld, "y_high": 1000.0, "y_low": 500.0})
                == mean_variance.DEFAULT_SWEEP_PARAMS)
        # test_criterion_08d_yield_scenarios runs at b = 0.5, c = 1000.
        assert (yld["b"], yld["c"]) == (0.5, 1000.0)


def _reference_write(settings, command, table):
    """The per-cell route the row-template writer replaced, kept as its
    reference: `_fmt` on every cell, of a numpy array's ``tolist()``, and
    on a scalar column's one value repeated on every row, through
    csv.writer, and space-joined ``.dat`` lines."""
    columns = list(table)
    lists = {name: cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
             for name, cells in table.items() if not _is_scalar(cells)}
    count = len(next(iter(lists.values())))
    rows = list(zip(*(lists[name] if name in lists else [cells] * count
                      for name, cells in table.items())))
    provenance = cli._provenance(command, settings)
    out = Path(settings["out"])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(provenance + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([[cli._fmt(cell) for cell in row] for row in rows])
    if settings["plot_data"]:
        with open(out.with_suffix(".dat"), "w", encoding="utf-8") as fh:
            fh.write(provenance + "\n")
            fh.write("# " + " ".join(columns) + "\n")
            for row in rows:
                fh.write(" ".join(cli._fmt(cell) for cell in row) + "\n")


def _is_scalar(cells):
    """Whether a table column is one value for every row."""
    return isinstance(cells, (str, int, float, bool, np.generic))


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, 1e300,
     -1e300, 100.0, 1e16, 1e22])
_INTS = st.integers() | st.sampled_from([-7, 2**53 + 1, -(2**63), 10**30])
_INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, -1, 0])
# NUL is left out: csv.writer's handling of it changed in Python 3.11.
_TEXT = st.text(st.characters(blacklist_characters="\x00")
                | st.sampled_from(list(',"\r\n \u00e9\u4e2d')), max_size=6)
# Numpy array columns: the cells of each kind and the array's dtype.
_ARRAYS = {
    "float64 array": (_FLOATS, np.float64),
    "float32 array": (st.floats(width=32), np.float32),
    "int64 array": (_INT64, np.int64),
    "int32 array": (st.integers(-(2**31), 2**31 - 1), np.int32),
    "uint64 array": (st.integers(0, 2**64 - 1) | st.just(2**64 - 1), np.uint64),
    "bool array": (st.booleans(), np.bool_),
}
# Scalar columns, one value for every row: each kind, numpy scalars too.
_SCALARS = {
    "str scalar": _TEXT,
    "float scalar": _FLOATS,
    "int scalar": _INTS,
    "bool scalar": st.booleans(),
    "numpy str scalar": _TEXT.map(np.str_),
    "float64 scalar": _FLOATS.map(np.float64),
    "float32 scalar": st.floats(width=32).map(np.float32),
    "int64 scalar": _INT64.map(np.int64),
    "numpy bool scalar": st.booleans().map(np.bool_),
}
_SEQUENCES = sorted(_ARRAYS) + ["str list"]


@st.composite
def _tables(draw):
    """Tables of two to five columns, zero to six rows. A column is one of
    the writer's three kinds: a float, integer or boolean array, a list of
    str or one scalar for every row. A table has two columns or more, as
    every output does, and at least one column that is not a scalar."""
    rows = draw(st.integers(0, 6))
    names = draw(st.lists(_TEXT, min_size=2, max_size=5, unique=True))
    kinds = draw(st.lists(st.sampled_from(_SEQUENCES + sorted(_SCALARS)),
                          min_size=len(names), max_size=len(names))
                 .filter(lambda kinds: not set(kinds) <= set(_SCALARS)))
    table = {}
    for name, kind in zip(names, kinds):
        if kind in _SCALARS:
            table[name] = draw(_SCALARS[kind])
        elif kind in _ARRAYS:
            cells, dtype = _ARRAYS[kind]
            table[name] = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)),
                                   dtype=dtype)
        else:
            table[name] = draw(st.lists(_TEXT, min_size=rows, max_size=rows))
    return table


def _is_column(cells):
    """Whether ``cells`` is one of the writer's three column kinds."""
    if isinstance(cells, np.ndarray):
        return cells.dtype.kind in "fiub"
    if isinstance(cells, list):
        return all(type(cell) is str for cell in cells)
    return _is_scalar(cells)


class TestOutputFiles:
    """The row-template writer writes the bytes of the per-cell route, and
    --plot-data never overwrites the CSV."""

    @settings(max_examples=300)
    @given(table=_tables())
    def test_writer_matches_per_cell_route(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            written = {}
            for name, write in (("new", cli._write_output),
                                ("ref", _reference_write)):
                out = Path(tmp) / f"{name}.csv"
                write({"out": str(out), "plot_data": True, "seed": 1},
                      "test", table)
                written[name] = (out.read_bytes(),
                                 out.with_suffix(".dat").read_bytes())
        assert written["new"] == written["ref"]

    def test_scalar_columns_fill_every_row(self, tmp_path):
        """A str or float given as a column is written, formatted and
        quoted, on every row of the CSV and of the .dat twin; a ``%`` in it
        is text, not a template field."""
        out = tmp_path / "s.csv"
        cli._write_output({"out": str(out), "plot_data": True}, "test",
                          {"x": np.array([1.5, -2.0, 3e20]), "tag": 'a,"b"%d',
                           "limit": 0.1 + 0.2})
        assert out.read_bytes() == (
            b'# eselend test \nx,tag,limit\r\n1.5,"a,""b""%d",0.3\r\n'
            b'-2,"a,""b""%d",0.3\r\n3e+20,"a,""b""%d",0.3\r\n')
        assert out.with_suffix(".dat").read_bytes() == (
            b'# eselend test \n# x tag limit\n1.5 a,"b"%d 0.3\n'
            b'-2 a,"b"%d 0.3\n3e+20 a,"b"%d 0.3\n')

    def test_unequal_columns_raise_before_writing(self, tmp_path):
        """An array or list column with more or fewer cells than the first
        is an error that names the first such column, and no file is
        opened; ``zip`` used to cut every column to the shortest."""
        out = tmp_path / "u.csv"
        with pytest.raises(ValueError, match=r"^column 'L2' has 2 rows, not the "
                                             r"3 of column 'e'$"):
            cli._write_output({"out": str(out), "plot_data": True}, "test",
                              {"tag": "x", "e": np.array([0.1, 0.2, 0.3]),
                               "L1": np.zeros(3), "L2": ["a", "b"], "n": np.arange(4)})
        assert list(tmp_path.iterdir()) == []

    def test_scalar_only_table_raises_before_writing(self, tmp_path):
        """A table of scalars alone has no row count: the error names the
        table and the rule, and no file is opened."""
        out = tmp_path / "s.csv"
        with pytest.raises(ValueError, match=r"^table 'test' needs an array or list "
                                             r"column to set its rows; every column "
                                             r"is one scalar$"):
            cli._write_output({"out": str(out), "plot_data": True}, "test",
                              {"a": 1.0, "b": "x"})
        assert list(tmp_path.iterdir()) == []

    def test_numpy_bools_are_written_as_bools(self, tmp_path):
        """`_fmt` writes a numpy bool as ``true``/``false``, as the writer
        writes a bool array's cells, and as a scalar."""
        assert (cli._fmt(np.True_), cli._fmt(np.False_)) == ("true", "false")
        out = tmp_path / "b.csv"
        cli._write_output({"out": str(out), "plot_data": False}, "test",
                          {"array": np.array([True, False]), "scalar": np.True_})
        assert out.read_bytes() == (b"# eselend test \narray,scalar\r\n"
                                    b"true,true\r\nfalse,true\r\n")

    @pytest.mark.parametrize("argv", [
        ["ceilings"], ["ceilings", "--e-grid", "0.01:0.99:5000"],
        ["sweep-group-size"], ["sweep-group-size", "--n-max", "1000"],
        ["sweep-mv"], ["sweep-mv", "--endogenous-w"],
        ["sweep-yield"], ["sweep-yield", "--endogenous-w"],
        ["simulate"], ["simulate", "--seed", "1"],
    ])
    def test_commands_hand_the_writer_its_three_kinds(self, argv, tmp_path,
                                                      monkeypatch):
        """Every table command, at its defaults and at the benchmark's
        invocations, hands the writer only arrays, lists of str and
        scalars."""
        real, seen = cli._write_output, []

        def checking(settings, command, table):
            seen.append(command)
            assert {name: type(cells) for name, cells in table.items()
                    if not _is_column(cells)} == {}
            real(settings, command, table)

        monkeypatch.setattr(cli, "_write_output", checking)
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert seen == [argv[0]]

    @pytest.mark.parametrize("n_min, n_max", [
        (2**63 - 3, 2**63 - 2), (2**63 - 2, 2**63 - 1), (2**63 - 1, 2**63 + 1),
        (10**20, 10**20)])
    def test_group_sizes_past_int64_are_exact(self, n_min, n_max, tmp_path):
        """The n column holds every size exactly on both sides of the
        int64 range."""
        out = tmp_path / "g.csv"
        assert main(["sweep-group-size", "--n-min", str(n_min), "--n-max",
                     str(n_max), "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert [row[0] for row in rows] == list(map(str, range(n_min, n_max + 1)))

    def test_constant_columns_are_formatted_once(self, tmp_path, monkeypatch):
        """The benchmark's contract invocations format `ceilings`' binding
        column and `sweep-group-size`'s limit_E column once each, and their
        `_fmt` calls do not grow with the row count."""
        cli._parser()  # its first build formats every option's default
        defaults = cli._COMMANDS["sweep-group-size"][2]
        limit = optimizer.ese_limit(
            cli._market(defaults), CostModel(c=defaults["c"]),
            ScoreLink(k=defaults["k"], b=defaults["b"])).score
        real, calls = cli._fmt, []

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(cli, "_fmt", counting)
        for argv, sizes, constant in (
                (["sweep-group-size", "--n-max"], ("10", "1000"), limit),
                (["ceilings", "--e-grid"], ("0.01:0.99:50", "0.01:0.99:5000"), "L2")):
            counts = []
            for size in sizes:
                calls.clear()
                assert main([*argv, size, "--out", str(tmp_path / "out.csv")]) == 0
                assert calls.count(constant) == 1
                counts.append(len(calls))
            assert counts[0] == counts[1]

    @pytest.mark.parametrize("argv", [
        ["sweep-group-size", "--n-max", "1000"],
        ["ceilings", "--e-grid", "0.01:0.99:5000"],
        ["sweep-mv", "--endogenous-w"],
        ["sweep-yield"],
    ])
    def test_contract_outputs_match_per_cell_route(self, argv, tmp_path,
                                                   monkeypatch):
        """The benchmark's two contract invocations and the mean-variance
        sweeps, whose solvers hand the writer arrays, with --plot-data."""
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        assert main([*argv, "--plot-data", "--out", str(new)]) == 0
        monkeypatch.setattr(cli, "_write_output", _reference_write)
        assert main([*argv, "--plot-data", "--out", str(ref)]) == 0
        assert new.read_bytes() == ref.read_bytes()
        assert (new.with_suffix(".dat").read_bytes()
                == ref.with_suffix(".dat").read_bytes())

    def test_solvers_build_no_optimum(self, tmp_path, monkeypatch):
        """The batch solvers hand their result arrays to the writer, so no
        command builds an `Optimum` per cell: `sweep-group-size` builds one,
        the large-group limit of `ese_limit`, and the others none."""
        built = Counter()
        real = optimizer.Optimum.__init__

        def counting(self, *args, **kwargs):
            built[argv[0]] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(optimizer.Optimum, "__init__", counting)
        for argv in (["sweep-group-size", "--n-max", "1000"],
                     ["ceilings", "--e-grid", "0.01:0.99:5000"],
                     ["sweep-mv"], ["sweep-mv", "--endogenous-w"], ["sweep-yield"]):
            assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert built == {"sweep-group-size": 1}

    @pytest.mark.parametrize("command", [
        "ceilings", "sweep-group-size", "sweep-mv", "sweep-yield", "simulate"])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_dat_out_with_plot_data_exits_two(self, command, by_config,
                                              tmp_path, capsys):
        """The twin of x.dat is x.dat itself: the run used to write the CSV
        there, overwrite it with the twin and exit 0."""
        out = tmp_path / "x.dat"
        argv = [command, "--out", str(out)]
        if by_config:
            config = tmp_path / "run.json"
            config.write_text('{"plot_data": true}', encoding="utf-8")
            argv += ["--config", str(config)]
        else:
            argv.append("--plot-data")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out} would be overwritten by its --plot-data .dat "
            "twin; give --out another suffix\n")
        assert not out.exists()


class TestExitCodes:
    """The documented exception-to-exit-code mapping."""

    def test_usage_error_is_system_exit_two(self):
        """argparse rejects unknown commands with SystemExit(2)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_unwritable_output_exits_three(self, tmp_path):
        """Writing into a missing directory is a filesystem error."""
        rc = main(["ceilings", "--out", str(tmp_path / "no" / "dir" / "c.csv")])
        assert rc == 3

    def test_invariant_violation_exits_four(self, tmp_path, monkeypatch,
                                            capsys):
        """If the ceiling ordering ever broke, the run would still write
        its table, then exit 4 naming every offending e. Forced here by
        stubbing the incentive ceiling above the affordability ceiling at
        e > 0.5 and equal to it at e = 0.5."""
        real_l1 = cli.loan_ceiling_affordability
        real_l2 = cli.loan_ceiling_incentive

        def broken(e, params):
            return np.where(e > 0.5, 1e9, np.where(
                e == 0.5, real_l1(e, params), real_l2(e, params)))

        monkeypatch.setattr(cli, "loan_ceiling_incentive", broken)
        out = tmp_path / "c.csv"
        rc = main(["ceilings", "--e-grid", "0.25,0.5,0.75,1",
                   "--out", str(out)])
        assert rc == 4
        assert ("error: affordability ceiling does not exceed incentive "
                "ceiling at e=0.5, 0.75, 1\n") == capsys.readouterr().err
        _, _, rows = _read_rows(out)
        assert [row[0] for row in rows] == ["0.25", "0.5", "0.75", "1"]
        assert float(rows[2][2]) == 1e9


class TestSharedParser:
    """`main` parses every call with the one parser its first call built;
    nothing that one call sets or fails on reaches the next, and the
    outputs stay byte-identical to the goldens."""

    def test_flags_do_not_leak(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-mv", "--endogenous-w", "--b-set", "0.5",
                     "--gamma-grid", "0:1:3", "--out", "first.csv"]) == 0
        assert main(["sweep-mv"]) == 0
        assert ((tmp_path / "mv_sweep.csv").read_bytes()
                == (GOLDEN / "mv_sweep.csv").read_bytes())

    @pytest.mark.parametrize("failing, code, written", [
        (["simulate", "--trials", "1.5"], 2, "simulate.csv"),
        (["sweep-mv", "--help"], 0, "mv_sweep.csv"),
    ])
    def test_exit_leaves_no_state(self, failing, code, written, tmp_path,
                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(failing)
        assert excinfo.value.code == code
        assert main(failing[:1]) == 0
        assert ((tmp_path / written).read_bytes()
                == (GOLDEN / written).read_bytes())

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_matches_a_fresh_parser(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as excinfo:
                parse([command, "--help"])
            assert excinfo.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_second_call_builds_no_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        assert main(["ceilings", "--out", str(tmp_path / "a.csv")]) == 0
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["ceilings", "--out", str(tmp_path / "b.csv")]) == 0
        assert built == []
        # The counter sees a build: the top parser and one per subcommand.
        cli.build_parser()
        assert len(built) == 1 + len(cli._COMMANDS)

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    built.append(self)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import eselend.cli\n"
                "print(len(built))\n"
                "eselend.cli.build_parser()\n"
                "print(len(built))\n")
        package_root = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_root}, check=True)
        assert result.stdout == f"0\n{1 + len(cli._COMMANDS)}\n"

    def test_start_up_imports_no_json(self):
        """Only a --config run loads json; the other tests of --config show
        that it still loads there."""
        code = ("import sys\n"
                "import eselend.cli\n"
                "eselend.cli.build_parser()\n"
                "print('json' in sys.modules)\n")
        package_root = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_root}, check=True)
        assert result.stdout == "False\n"
