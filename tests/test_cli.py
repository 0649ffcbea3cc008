"""End-to-end tests for the command line interface, run in process
through `eselend.cli.main`.

Every command writes a CSV whose first line records the resolved
settings (`# eselend <command> key=value ...` with keys sorted), so two
runs with the same inputs must produce byte-identical files. Exit codes:
0 success, 2 configuration or domain problems (also argparse usage), 3
data or filesystem problems, 4 violated internal invariants.
"""

import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from eselend import DomainError, cli, mean_variance, optimizer
from eselend.cli import main
from eselend.errors import _cell


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

    def test_grid_with_zero_exits_two(self, tmp_path):
        """e=0 makes the incentive ceiling undefined: exit 2."""
        out = tmp_path / "c.csv"
        rc = main(["ceilings", "--e-grid", "0.0,0.5", "--out", str(out)])
        assert rc == 2

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
        real = mean_variance.mv_utility

        def broken(E, w, params, gamma, cost, link):
            off = 1.0 if (cost.c, gamma.gamma) == (1200.0, 0.5) else 0.0
            return real(E, w, params, gamma, cost, link) + off

        monkeypatch.setattr(mean_variance, "mv_utility", broken)
        out = tmp_path / "mv.csv"
        assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000,1200",
                     "--gamma-grid", "0:1:3", "--out", str(out)]) == 4
        assert "error: b=0.5, c=1200, gamma=0.5: " in capsys.readouterr().err
        assert main(["sweep-mv", "--b-set", "0.5", "--c-set", "1000",
                     "--gamma-grid=0,-1", "--out", str(out)]) == 2
        assert ("error: b=0.5, c=1000, gamma=-1: gamma must be >= 0"
                in capsys.readouterr().err)

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
        real = mean_variance.mv_utility

        def broken(E, w, params, gamma, cost, link):
            off = 1.0 if params.y_high == 600.0 else 0.0
            return real(E, w, params, gamma, cost, link) + off

        monkeypatch.setattr(mean_variance, "mv_utility", broken)
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--endogenous-w", "--out", str(out)]) == 4
        assert ("error: scenario=Ybar=600,Ylow=300, gamma=0: "
                in capsys.readouterr().err)

    def test_yields_spec_needs_two_pairs(self, tmp_path):
        """One pair or malformed pairs exit 2."""
        out = tmp_path / "y.csv"
        assert main(["sweep-yield", "--yields", "1000:500",
                     "--out", str(out)]) == 2
        assert main(["sweep-yield", "--yields", "1000:500,600",
                     "--out", str(out)]) == 2


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

        def biased(es, n, ws, params, cfg):
            results = real(es, n, ws, params, cfg)
            return [dataclasses.replace(
                result, empirical_mean=result.empirical_mean
                + (10.0 if (e, n) == (0.5, 2) else 0.0) * result.std_error_mean)
                for e, result in zip(es, results)]

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

    def test_failing_cell_is_named(self, tmp_path, monkeypatch, capsys):
        """An error the simulator raises for one e is prefixed with its
        (e, n) cell and exits 2 before anything is written."""
        def failing(es, n, ws, params, cfg):
            with _cell(1):
                raise DomainError("empirical_mean must be finite")

        monkeypatch.setattr(cli, "simulate_member_profit_batch", failing)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.3,0.5", "--n-set", "3",
                     "--trials", "1000", "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == "error: e=0.5, n=3: empirical_mean must be finite\n")
        assert not out.exists()

    def test_counter_space_error_names_the_size(self, tmp_path, capsys):
        """trials * n beyond the counter space names the group size."""
        out = tmp_path / "s.csv"
        assert main(["simulate", "--e-grid", "0.5", "--n-set", "2",
                     "--trials", str(2 ** 61), "--out", str(out)]) == 2
        assert (capsys.readouterr().err == "error: n=2: trials * n too large "
                "for the 64-bit counter space\n")
        assert not out.exists()

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


class TestSweepDefaults:
    """The shipped sweep defaults are the constants the acceptance tests
    assert on."""

    def test_defaults_parse_to_the_shared_constants(self):
        parser = cli.build_parser()
        mv = cli._resolve(parser.parse_args(["sweep-mv"]), "sweep-mv")
        yld = cli._resolve(parser.parse_args(["sweep-yield"]), "sweep-yield")
        assert cli._market(mv) == mean_variance.DEFAULT_SWEEP_PARAMS
        assert (tuple(cli._parse_grid(mv["b_set"], "b-set"))
                == mean_variance.DEFAULT_BASELINES)
        assert (tuple(cli._parse_grid(mv["c_set"], "c-set"))
                == mean_variance.DEFAULT_COSTS)
        for settings in (mv, yld):
            assert (tuple(cli._parse_grid(settings["gamma_grid"], "gamma"))
                    == mean_variance.DEFAULT_GAMMA_GRID)
            assert settings["w"] == mean_variance.DEFAULT_SWEEP_W
            assert settings["k"] is None
        pairs = cli._parse_yield_pairs(yld["yields"])
        assert tuple(pairs) == mean_variance.DEFAULT_YIELD_SCENARIOS
        assert (cli._market({**yld, "y_high": 1000.0, "y_low": 500.0})
                == mean_variance.DEFAULT_SWEEP_PARAMS)
        # test_criterion_08d_yield_scenarios runs at b = 0.5, c = 1000.
        assert (yld["b"], yld["c"]) == (0.5, 1000.0)


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
