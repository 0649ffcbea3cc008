"""Seeded synthetic cohort for the ``score-cohort`` workload.

The cohort covers every metric of a scoring schema for every farmer, with
per-metric distributions drawn from the seed: normal, log-normal and
uniform continuous metrics, and Bernoulli 0/1 metrics for the binary kind.
Values are rounded to three decimals, so the text written to the metrics
file parses back to exactly the array the independent checker scores.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FARMERS = 5_000


@dataclass(frozen=True)
class Cohort:
    farmer_ids: list[str]
    metric_ids: list[str]
    lower_better: np.ndarray   # bool per metric
    values: np.ndarray         # farmers x metrics, float64


def read_schema(path) -> tuple[list[str], list[str], list[str]]:
    """(metric ids, directions, kinds) from a schema CSV, in file order."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    header = [h.strip() for h in rows[0]]
    col = {name: header.index(name) for name in ("metric_id", "direction", "kind")}
    body = [[c.strip() for c in row] for row in rows[1:]]
    return ([r[col["metric_id"]] for r in body],
            [r[col["direction"]] for r in body],
            [r[col["kind"]] for r in body])


def make_cohort(schema_path, seed: int, farmers: int = FARMERS) -> Cohort:
    """Draw a cohort from ``seed``; the same seed gives the same values."""
    metric_ids, directions, kinds = read_schema(schema_path)
    rng = np.random.default_rng(seed)
    values = np.empty((farmers, len(metric_ids)))
    for j, kind in enumerate(kinds):
        if kind == "BINARY":
            col = (rng.random(farmers) < rng.uniform(0.15, 0.85)).astype(float)
        else:
            shape = rng.integers(3)
            scale = 10.0 ** rng.uniform(-1.0, 3.0)
            if shape == 0:
                col = rng.normal(scale, 0.3 * scale, farmers)
            elif shape == 1:
                col = scale * rng.lognormal(0.0, 0.75, farmers)
            else:
                col = rng.uniform(0.0, scale, farmers)
        values[:, j] = np.round(col, 3)
    width = len(str(farmers))
    farmer_ids = [f"F{i:0{width}d}" for i in range(1, farmers + 1)]
    lower = np.array([d == "LOWER_BETTER" for d in directions])
    return Cohort(farmer_ids, metric_ids, lower, values)


def write_metrics_csv(cohort: Cohort, path, chunk: int = 1000) -> None:
    """Write ``farmer_id,metric_id,value`` rows, farmer-major, in chunks."""
    ids = cohort.metric_ids
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        fh.write("farmer_id,metric_id,value\n")
        for lo in range(0, len(cohort.farmer_ids), chunk):
            block = cohort.values[lo:lo + chunk].tolist()
            fh.write("".join(
                f"{farmer},{metric},{value!r}\n"
                for farmer, row in zip(cohort.farmer_ids[lo:lo + chunk], block)
                for metric, value in zip(ids, row)
            ))
