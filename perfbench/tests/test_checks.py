"""Every output check must pass the real output and flag corrupted ones."""

import csv

import numpy as np
import pytest

import checks
import cohort
import workloads
from eselend.cli import main as cli_main

REF = workloads.REFERENCE
SCHEMA = workloads.HERE.parent / "src" / "eselend" / "data" / "sample_schema.csv"


def _table(path):
    return checks.read_table(path)


def _write(path, comment, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(comment + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _truncate(path, dest):
    data = path.read_bytes()
    dest.write_bytes(data[: len(data) * 2 // 3])
    return dest


# ----------------------------------------------------------------------
# reference tables (mv-sweep, contract)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sweep_mv.csv", "group_size.csv", "ceilings.csv",
                                  "sweep_yield_endogenous.csv"])
def test_reference_matches_itself(name):
    ref = _table(REF / name)
    command = ref[0].split()[2]
    assert checks.compare_table(ref, ref, command) == []


def test_program_output_matches_reference(tmp_path):
    out = tmp_path / "g.csv"
    assert cli_main(["sweep-group-size", "--n-max", "1000", "--out", str(out)]) == 0
    assert checks.compare_table(_table(out), _table(REF / "group_size.csv"),
                                "sweep-group-size") == []


@pytest.mark.parametrize("name,column", [("sweep_mv.csv", "at_boundary"),
                                         ("group_size.csv", "at_boundary"),
                                         ("ceilings.csv", "binding")])
def test_flipped_flag_is_flagged(tmp_path, name, column):
    comment, header, rows = _table(REF / name)
    col = header.index(column)
    flip = {"true": "false", "false": "true", "L2": "L1"}
    rows[7][col] = flip[rows[7][col]]
    bad = _table(_write(tmp_path / name, comment, header, rows))
    problems = checks.compare_table(bad, _table(REF / name), comment.split()[2])
    assert len(problems) == 1 and column in problems[0]


def test_perturbed_score_is_flagged_and_print_noise_is_not(tmp_path):
    comment, header, rows = _table(REF / "sweep_mv.csv")
    col = header.index("optimal_E")
    ref = _table(REF / "sweep_mv.csv")
    noisy = [list(r) for r in rows]
    noisy[3][col] = repr(float(rows[3][col]) + 2e-8)   # last printed digit
    assert checks.compare_table(_table(_write(tmp_path / "n.csv", comment, header, noisy)),
                                ref, "sweep-mv") == []
    rows[3][col] = repr(float(rows[3][col]) + 1e-4)
    problems = checks.compare_table(_table(_write(tmp_path / "p.csv", comment, header, rows)),
                                    ref, "sweep-mv")
    assert len(problems) == 1 and "optimal_E" in problems[0]


@pytest.mark.parametrize("name", ["sweep_mv.csv", "ceilings.csv", "group_size.csv"])
def test_truncated_table_is_flagged(tmp_path, name):
    bad = _table(_truncate(REF / name, tmp_path / name))
    assert checks.compare_table(bad, _table(REF / name), _table(REF / name)[0].split()[2])


def test_wrong_command_and_header_are_flagged(tmp_path):
    comment, header, rows = _table(REF / "sweep_mv.csv")
    ref = _table(REF / "sweep_mv.csv")
    other = _write(tmp_path / "a.csv", comment.replace("sweep-mv", "sweep-yield"), header, rows)
    assert checks.compare_table(_table(other), ref, "sweep-mv")
    renamed = _write(tmp_path / "b.csv", comment, ["B", *header[1:]], rows)
    assert checks.compare_table(_table(renamed), ref, "sweep-mv")


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _sim_check(path, first=None):
    data = path.read_bytes()
    return checks.check_simulate(_table(path), _table(REF / "simulate.csv"), 0,
                                 data, data if first is None else first)


def test_simulate_reference_passes():
    assert _sim_check(REF / "simulate.csv") == []


def test_simulate_compares_only_analytic_columns(tmp_path):
    """Another seed and trial count change only the seed and empirical cells."""
    out = tmp_path / "s.csv"
    assert cli_main(["simulate", "--trials", "20000", "--seed", "5", "--out", str(out)]) == 0
    ref = _table(REF / "simulate.csv")
    assert checks.compare_table(_table(out), ref, "simulate", checks.SIM_ANALYTIC) == [
        f"line {i}: trials='20000', reference '1000000'" for i in range(3, 12)]


@pytest.mark.parametrize("column,value", [("z_mean", "4.5"), ("z_mean", "inf"),
                                          ("analytic_mean", "301"), ("seed", "7")])
def test_simulate_corruption_is_flagged(tmp_path, column, value):
    comment, header, rows = _table(REF / "simulate.csv")
    rows[4][header.index(column)] = value
    problems = _sim_check(_write(tmp_path / "s.csv", comment, header, rows))
    assert len(problems) == 1 and (column in problems[0] or "z_mean" in problems[0])


def test_simulate_truncation_and_nonrepeat_are_flagged(tmp_path):
    assert _sim_check(_truncate(REF / "simulate.csv", tmp_path / "t.csv"))
    problems = _sim_check(REF / "simulate.csv", first=b"other bytes")
    assert problems == ["output differs from the first pass with the same seed"]


# ----------------------------------------------------------------------
# score-cohort
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("score")
    c = cohort.make_cohort(SCHEMA, seed=11, farmers=300)
    metrics, out = tmp / "metrics.csv", tmp / "scores.csv"
    cohort.write_metrics_csv(c, metrics, chunk=64)
    assert cli_main(["score", "--metrics", str(metrics), "--out", str(out)]) == 0
    return c, checks.expected_scores(c.values, c.lower_better), out


def test_cohort_is_seeded_and_round_trips(tmp_path):
    a = cohort.make_cohort(SCHEMA, seed=4, farmers=40)
    b = cohort.make_cohort(SCHEMA, seed=4, farmers=40)
    c = cohort.make_cohort(SCHEMA, seed=5, farmers=40)
    assert np.array_equal(a.values, b.values) and not np.array_equal(a.values, c.values)
    assert a.values.shape == (40, 36) and a.lower_better.sum() > 0
    binary = [j for j, kind in enumerate(cohort.read_schema(SCHEMA)[2]) if kind == "BINARY"]
    assert set(np.unique(a.values[:, binary])) <= {0.0, 1.0}
    path = tmp_path / "m.csv"
    cohort.write_metrics_csv(a, path, chunk=7)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 40 * 36
    back = np.array([float(r[2]) for r in rows]).reshape(40, 36)
    assert np.array_equal(back, a.values)


def test_program_scores_pass(scored):
    c, expected, out = scored
    assert checks.check_scores(_table(out), c.farmer_ids, expected) == []


def test_perturbed_score_is_flagged(scored, tmp_path):
    c, expected, out = scored
    comment, header, rows = _table(out)
    rows[10][1] = f"{float(rows[10][1]) + 0.0002:.4f}"
    problems = checks.check_scores(_table(_write(tmp_path / "s.csv", comment, header, rows)),
                                   c.farmer_ids, expected)
    assert len(problems) == 1 and "line 13" in problems[0]


def test_score_format_and_order_are_checked(scored, tmp_path):
    c, expected, out = scored
    comment, header, rows = _table(out)
    three = [list(r) for r in rows]
    three[0][1] = f"{float(rows[0][1]):.3f}"
    swapped = [list(r) for r in rows]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    for i, bad in enumerate((three, swapped)):
        path = _write(tmp_path / f"{i}.csv", comment, header, bad)
        assert checks.check_scores(_table(path), c.farmer_ids, expected)


def test_truncated_scores_are_flagged(scored, tmp_path):
    c, expected, out = scored
    bad = _table(_truncate(out, tmp_path / "t.csv"))
    assert checks.check_scores(bad, c.farmer_ids, expected)


def test_independent_composite_matches_bundled_route(scored):
    """The numpy recomputation agrees with the library beyond print precision."""
    from eselend.scoring import MetricRecord, composite_score, read_schema_csv

    c, expected, _ = scored
    records = [MetricRecord(f, m, float(v)) for f, row in zip(c.farmer_ids, c.values)
               for m, v in zip(c.metric_ids, row)]
    got = composite_score(records, read_schema_csv(SCHEMA))
    assert np.allclose([got[f] for f in c.farmer_ids], expected, rtol=0, atol=1e-9)
