"""The four workloads: CLI invocation lists and how each output is checked.

mv-sweep      sweep-mv and sweep-yield, fixed and endogenous w: 714 MV
              optima through optimizer.argmax_grid.
contract      sweep-group-size to n=1000 and a 5000-point ceilings grid:
              FOC roots and model_core closed forms, no argmax_grid.
simulate      the Monte Carlo oracle at its defaults with the run's seed:
              the splitmix64 kernel in oracle_sim, no solver code.
score-cohort  score on a seeded 5,000 x 36 cohort: CSV parsing, record
              validation and normalization in scoring.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import checks
import cohort as cohort_mod

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"


@dataclass
class Invocation:
    argv: list          # without --out
    out: str            # output file name; also the reference file name
    check: str          # "table", "simulate" or "scores"

    @property
    def command(self):
        return self.argv[0]


@dataclass
class Workload:
    name: str
    invocations: list
    seed: int
    probe: str          # speed.py probe kind for rescaling pass times
    cohort: object = None
    _refs: dict = field(default_factory=dict)
    _first: dict = field(default_factory=dict)
    _expected: object = None

    def prepare(self, workdir: Path, schema_path: Path) -> None:
        """Build inputs and load references; runs before any timing."""
        for inv in self.invocations:
            if inv.check in ("table", "simulate"):
                self._refs[inv.out] = checks.read_table(REFERENCE / inv.out)
        if self.name == "score-cohort":
            self.cohort = cohort_mod.make_cohort(schema_path, self.seed)
            metrics = workdir / "metrics.csv"
            cohort_mod.write_metrics_csv(self.cohort, metrics)
            self._expected = checks.expected_scores(self.cohort.values,
                                                    self.cohort.lower_better)
            for inv in self.invocations:
                inv.argv = [*inv.argv, "--metrics", str(metrics)]

    def check(self, inv: Invocation, path: Path) -> list:
        """Problems with one invocation's output file."""
        try:
            data = path.read_bytes()
            table = checks.read_table(path)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            return [f"cannot read {path.name}: {exc}"]
        if inv.check == "table":
            return checks.compare_table(table, self._refs[inv.out], inv.command)
        if inv.check == "simulate":
            first = self._first.setdefault(inv.out, data)
            return checks.check_simulate(table, self._refs[inv.out], self.seed,
                                         data, first)
        return checks.check_scores(table, self.cohort.farmer_ids, self._expected)


def invocations(name: str, seed: int) -> list:
    """Invocation list of a workload (KeyError for an unknown name)."""
    return {
        "mv-sweep": [
            Invocation(["sweep-mv"], "sweep_mv.csv", "table"),
            Invocation(["sweep-mv", "--endogenous-w"], "sweep_mv_endogenous.csv", "table"),
            Invocation(["sweep-yield"], "sweep_yield.csv", "table"),
            Invocation(["sweep-yield", "--endogenous-w"], "sweep_yield_endogenous.csv",
                       "table"),
        ],
        "contract": [
            Invocation(["sweep-group-size", "--n-max", "1000"], "group_size.csv", "table"),
            Invocation(["ceilings", "--e-grid", "0.01:0.99:5000"], "ceilings.csv", "table"),
        ],
        "simulate": [
            Invocation(["simulate", "--seed", str(seed)], "simulate.csv", "simulate"),
        ],
        "score-cohort": [
            Invocation(["score"], "scores.csv", "scores"),
        ],
    }[name]


WORKLOADS = ("mv-sweep", "contract", "simulate", "score-cohort")


def make(name: str, seed: int) -> Workload:
    probe = "vector" if name == "simulate" else "mixed"
    return Workload(name, invocations(name, seed), seed, probe)
