"""Output checks. Each returns a list of problems; an empty list passes.

Reference CSVs under ``reference/`` were written by the program at the
commit that introduced this benchmark (see ``make_reference.py``).
Numeric cells compare with ``math.isclose(rel_tol=1e-8, abs_tol=1e-6)``:
cells print with 10 significant digits, so on the [0, 100] score scale a
solver change of 1e-9 can move the last printed digit (1e-8), and the
tolerance leaves a hundredfold margin over that while failing any change
visible at six decimals. Flag columns (``at_boundary``, ``binding``) and
text cells must match exactly. Of the provenance comment only the
command name is checked; the settings show in the data rows.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

REL_TOL = 1e-8
ABS_TOL = 1e-6
Z_LIMIT = 4.0
# A printed 4-decimal score may differ from the exact value by half a unit
# in the last place, plus rounding dust from a different summation order.
SCORE_TOL = 0.5e-4 + 1e-9
_SCORE_TEXT = re.compile(r"^-?\d+\.\d{4}$")
EXACT_COLUMNS = frozenset({"at_boundary", "binding", "scenario"})


def read_table(path):
    """(comment line, header, rows) of a program output CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        comment = fh.readline().rstrip("\r\n")
        rows = list(csv.reader(fh))
    if not rows:
        return comment, [], []
    return comment, rows[0], rows[1:]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _frame(actual, reference, command):
    """Problems with the comment, header and row count of a table."""
    problems = []
    comment, header, rows = actual
    if not comment.startswith(f"# eselend {command} "):
        problems.append(f"comment line {comment[:60]!r} does not name {command!r}")
    if header != reference[1]:
        problems.append(f"header {header} != reference {reference[1]}")
    if len(rows) != len(reference[2]):
        problems.append(f"{len(rows)} rows, reference has {len(reference[2])}")
    return problems


def compare_table(actual, reference, command, columns=None):
    """Cell-by-cell comparison of a table against its reference.

    columns: names of the columns to compare (default all).
    """
    problems = _frame(actual, reference, command)
    if problems:
        return problems
    header = reference[1]
    wanted = [i for i, name in enumerate(header) if columns is None or name in columns]
    for lineno, (row, ref) in enumerate(zip(actual[2], reference[2]), start=3):
        if len(row) != len(ref):
            problems.append(f"line {lineno}: {len(row)} cells, reference has {len(ref)}")
            continue
        for i in wanted:
            got, want = row[i], ref[i]
            if got == want:
                continue
            a, b = _number(got), _number(want)
            if (header[i] in EXACT_COLUMNS or a is None or b is None
                    or not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)):
                problems.append(f"line {lineno}: {header[i]}={got!r}, reference {want!r}")
    return problems


SIM_ANALYTIC = ("e", "n", "trials", "analytic_mean", "analytic_var")


def check_simulate(actual, reference, seed, data, first_data):
    """Simulation table: analytic columns, seed, z bound, repeatability.

    data: the file's bytes; first_data: the bytes of the first pass of the
    same run (identical seed), which every later pass must reproduce.
    """
    problems = compare_table(actual, reference, "simulate", SIM_ANALYTIC)
    if problems:
        return problems
    header = actual[1]
    col_seed, col_z = header.index("seed"), header.index("z_mean")
    for lineno, row in enumerate(actual[2], start=3):
        if row[col_seed] != str(seed):
            problems.append(f"line {lineno}: seed {row[col_seed]!r} != {seed}")
        z = _number(row[col_z])
        if z is None or not abs(z) <= Z_LIMIT:
            problems.append(f"line {lineno}: |z_mean| = {row[col_z]} exceeds {Z_LIMIT}")
    if data != first_data:
        problems.append("output differs from the first pass with the same seed")
    return problems


def expected_scores(values, lower_better):
    """Min-max composite (equal weights) recomputed from the raw arrays."""
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    flat = span == 0.0
    scaled = (values - lo) / np.where(flat, 1.0, span)
    scaled[:, flat] = 0.5
    scaled[:, lower_better] = 1.0 - scaled[:, lower_better]
    return np.clip(np.clip(scaled, 0.0, 1.0).mean(axis=1) * 100.0, 0.0, 100.0)


def check_scores(actual, farmer_ids, expected):
    """Every farmer once, in id order, each score within SCORE_TOL."""
    comment, header, rows = actual
    problems = []
    if not comment.startswith("# eselend score "):
        problems.append(f"comment line {comment[:60]!r} does not name 'score'")
    if header != ["farmer_id", "score"]:
        problems.append(f"header {header} != ['farmer_id', 'score']")
    if len(rows) != len(farmer_ids):
        problems.append(f"{len(rows)} rows, cohort has {len(farmer_ids)} farmers")
        return problems
    for lineno, (row, farmer, want) in enumerate(zip(rows, farmer_ids, expected), start=3):
        if len(row) != 2 or row[0] != farmer:
            problems.append(f"line {lineno}: {row} is not farmer {farmer!r}")
        elif not _SCORE_TEXT.match(row[1]) or abs(float(row[1]) - want) > SCORE_TOL:
            problems.append(f"line {lineno}: score {row[1]!r}, expected {want:.6f}")
        if len(problems) >= 20:
            break
    return problems
