"""Byte-exact golden outputs of the command line.

Each case runs `eselend.cli.main` in an empty directory with relative
paths, so the provenance line carries no machine path, and compares every
file the run writes with ``tests/golden/<case><suffix>`` byte for byte.
The run must write nothing else. A change that alters an output on
purpose regenerates the files with ``PYTHONPATH=src python3
tests/test_golden.py`` and says why in CHANGES.md.

The option strings of every subcommand are pinned as well, so the flag
set cannot grow or shrink unnoticed.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from eselend.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
METRICS = GOLDEN / "metrics.csv"

CONFIG = {"p": 1.1, "b_set": "0.4,0.6", "plot_data": True}

# case id -> (argv, files the run writes)
CASES = {
    "ceilings": (["ceilings"], ["ceilings.csv"]),
    "group_size": (["sweep-group-size"], ["group_size.csv"]),
    "mv_sweep": (["sweep-mv"], ["mv_sweep.csv"]),
    "yield_sweep": (["sweep-yield"], ["yield_sweep.csv"]),
    "simulate": (["simulate"], ["simulate.csv"]),
    "scores_min_max": (["score", "--metrics", "metrics.csv"], ["scores.csv"]),
    "scores_z_score_clipped": (
        ["score", "--metrics", "metrics.csv",
         "--normalization", "Z_SCORE_CLIPPED"], ["scores.csv"]),
    "mv_sweep_endogenous": (["sweep-mv", "--endogenous-w"], ["mv_sweep.csv"]),
    "yield_sweep_endogenous": (
        ["sweep-yield", "--endogenous-w"], ["yield_sweep.csv"]),
    "ceilings_plot": (["ceilings", "--plot-data"],
                      ["ceilings.csv", "ceilings.dat"]),
    "yield_sweep_endogenous_plot": (
        ["sweep-yield", "--endogenous-w", "--plot-data"],
        ["yield_sweep.csv", "yield_sweep.dat"]),
    "group_size_window": (
        ["sweep-group-size", "--n-min", "3", "--n-max", "12",
         "--b", "0.1", "--k", "0.009"], ["group_size.csv"]),
    "mv_sweep_config": (["sweep-mv", "--config", "config.json"],
                        ["mv_sweep.csv", "mv_sweep.dat"]),
}

OPTION_STRINGS = {
    "ceilings": {
        "-h", "--help", "--config", "--out", "--plot-data", "--p", "--y-high",
        "--y-low", "--loan", "--epsilon", "--delta", "--e-grid"},
    "sweep-group-size": {
        "-h", "--help", "--config", "--out", "--plot-data", "--p", "--y-high",
        "--y-low", "--loan", "--epsilon", "--delta", "--k", "--b", "--c",
        "--n-min", "--n-max"},
    "sweep-mv": {
        "-h", "--help", "--config", "--out", "--plot-data", "--p", "--y-high",
        "--y-low", "--loan", "--epsilon", "--delta", "--b-set", "--c-set",
        "--gamma-grid", "--w", "--k", "--endogenous-w"},
    "sweep-yield": {
        "-h", "--help", "--config", "--out", "--plot-data", "--p", "--loan",
        "--epsilon", "--delta", "--yields", "--b", "--c", "--gamma-grid",
        "--w", "--k", "--endogenous-w"},
    "simulate": {
        "-h", "--help", "--config", "--out", "--plot-data", "--p", "--y-high",
        "--y-low", "--loan", "--epsilon", "--delta", "--e-grid", "--n-set",
        "--trials", "--seed", "--w"},
    "score": {
        "-h", "--help", "--config", "--out", "--metrics", "--schema",
        "--normalization"},
}


def _prepare(workdir: Path) -> set:
    """Put the run's input files into ``workdir``; return their names."""
    shutil.copyfile(METRICS, workdir / "metrics.csv")
    (workdir / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    return {"metrics.csv", "config.json"}


def _golden_name(case: str, written: str) -> str:
    return case + Path(written).suffix


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path, monkeypatch):
    argv, written = CASES[case]
    inputs = _prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert {p.name for p in tmp_path.iterdir()} == inputs | set(written)
    for name in written:
        expected = (GOLDEN / _golden_name(case, name)).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, name


def test_option_strings_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: {s for a in command._actions for s in a.option_strings}
             for name, command in sub.choices.items()}
    assert found == OPTION_STRINGS


if __name__ == "__main__":
    # Regenerate every golden file from the code on the import path.
    for case, (argv, written) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            _prepare(workdir)
            with pytest.MonkeyPatch.context() as mp:
                mp.chdir(workdir)
                if main(argv) != 0:
                    sys.exit(f"{case}: run failed")
            for name in written:
                shutil.copyfile(workdir / name,
                                GOLDEN / _golden_name(case, name))
