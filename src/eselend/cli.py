"""Command-line front end.

Subcommands compute loan ceilings, the optimal score over group size, the
mean-variance sweeps over risk aversion, the yield comparison, Monte Carlo
validation runs, and composite scores from metric files. Every output is a
CSV whose first line is a ``#`` comment echoing the subcommand and all
effective parameter values, so a result file is self-describing; identical
invocations produce byte-identical files. ``--plot-data`` additionally
writes a whitespace-delimited twin next to the CSV (same stem, ``.dat``)
for gnuplot.

Option values resolve as: explicit flag, then the ``--config`` JSON file
(keys are flag names with underscores), then the documented defaults.
Exit codes: 0 success, 2 usage or configuration problem, 3 data problem,
4 solver or invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    EvaluationError,
    InvariantViolation,
    SolverError,
)
from .mean_variance import (
    DEFAULT_SWEEP_W,
    optimal_ese_mv_batch,
    slope_for_baseline,
)
from .model_core import (
    CostModel,
    MarketParams,
    ScoreLink,
    binding_repayment,
    loan_ceiling_affordability,
    loan_ceiling_incentive,
)
from .optimizer import ese_limit, optimal_ese_group
from .oracle_sim import SimConfig, enumerate_member_profit, simulate_member_profit
from .scoring import (
    composite_score,
    read_metrics_csv,
    read_schema_csv,
    write_scores_csv,
)

__all__ = ["main"]

_MARKET_DEFAULTS = {
    "p": 1.0,
    "y_high": 1000.0,
    "y_low": 500.0,
    "loan": 100.0,
    "epsilon": 0.05,
    "delta": 0.9,
}

# Effective defaults per subcommand; also the whitelist of config-file keys.
_DEFAULTS: dict[str, dict] = {
    "ceilings": {
        **_MARKET_DEFAULTS,
        "e_grid": "0.05:0.95:19",
        "out": "ceilings.csv",
        "plot_data": False,
    },
    "sweep-group-size": {
        **_MARKET_DEFAULTS,
        "k": 0.01,
        "b": 0.0,
        "c": 1000.0,
        "n_min": 1,
        "n_max": 100,
        "out": "group_size.csv",
        "plot_data": False,
    },
    "sweep-mv": {
        **_MARKET_DEFAULTS,
        "b_set": "0.3,0.5,0.7",
        "c_set": "800,1000,1200,1500,2000",
        "gamma_grid": "0:1:21",
        "w": DEFAULT_SWEEP_W,
        "k": None,
        "endogenous_w": False,
        "out": "mv_sweep.csv",
        "plot_data": False,
    },
    "sweep-yield": {
        "p": 1.0,
        "loan": 100.0,
        "epsilon": 0.05,
        "delta": 0.9,
        "yields": "1000:500,600:300",
        "b": 0.5,
        "c": 1000.0,
        "gamma_grid": "0:1:21",
        "w": DEFAULT_SWEEP_W,
        "k": None,
        "endogenous_w": False,
        "out": "yield_sweep.csv",
        "plot_data": False,
    },
    "simulate": {
        **_MARKET_DEFAULTS,
        "e_grid": "0.3,0.5,0.8",
        "n_set": "2,3,10",
        "trials": 1_000_000,
        "seed": 42,
        "w": None,
        "out": "simulate.csv",
        "plot_data": False,
    },
    "score": {
        "metrics": None,
        "schema": None,
        "normalization": "MIN_MAX",
        "out": "scores.csv",
    },
}


def _fmt(value) -> str:
    """Deterministic cell formatting: 10 significant digits for floats."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _parse_grid(spec: str, what: str) -> list[float]:
    """Parse 'start:stop:count' or a comma-separated list of numbers."""
    spec = spec.strip()
    if not spec:
        raise ConfigError(f"{what} is empty")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{what} must be start:stop:count, got {spec!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"{what} has a non-numeric part in {spec!r}") from None
        if count < 1:
            raise ConfigError(f"{what} count must be >= 1")
        values = [float(v) for v in np.linspace(start, stop, count)]
    else:
        try:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"{what} has a non-numeric entry in {spec!r}") from None
    if not values:
        raise ConfigError(f"{what} is empty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{what} contains a non-finite value")
    return values


def _parse_int_set(spec: str, what: str) -> list[int]:
    spec = spec.strip()
    if not spec:
        raise ConfigError(f"{what} is empty")
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise ConfigError(f"{what} entry {tok!r} is not an integer") from None
    if not out:
        raise ConfigError(f"{what} is empty")
    return out


def _parse_yield_pairs(spec: str) -> list[tuple[float, float]]:
    pairs = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 2:
            raise ConfigError(f"yield pair {tok!r} must be high:low")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"yield pair {tok!r} is not numeric") from None
    if len(pairs) != 2:
        raise ConfigError(f"exactly two yield pairs are required, got {len(pairs)}")
    return pairs


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    return loaded


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge flags over config-file values over defaults."""
    defaults = _DEFAULTS[command]
    config = _load_config(getattr(args, "config", None))
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    settings = {}
    for name, fallback in defaults.items():
        flag = getattr(args, name)
        if flag is not None:
            settings[name] = flag
        elif name in config:
            settings[name] = config[name]
        else:
            settings[name] = fallback
    return settings


def _market(settings: dict, y_high=None, y_low=None) -> MarketParams:
    return MarketParams(
        p=float(settings["p"]),
        y_high=float(settings["y_high"] if y_high is None else y_high),
        y_low=float(settings["y_low"] if y_low is None else y_low),
        loan=float(settings["loan"]),
        epsilon=float(settings["epsilon"]),
        delta=float(settings["delta"]),
    )


def _write_output(settings: dict, command: str, columns: list[str],
                  rows: list[list]) -> None:
    provenance = "# eselend " + command + " " + " ".join(
        f"{key}={_fmt(value)}" for key, value in sorted(settings.items())
        if key not in ("out", "plot_data")
    )
    out = Path(settings["out"])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(provenance + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([[_fmt(cell) for cell in row] for row in rows])
    if settings.get("plot_data"):
        with open(out.with_suffix(".dat"), "w", encoding="utf-8") as fh:
            fh.write(provenance + "\n")
            fh.write("# " + " ".join(columns) + "\n")
            for row in rows:
                fh.write(" ".join(_fmt(cell) for cell in row) + "\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_ceilings(args: argparse.Namespace) -> int:
    settings = _resolve(args, "ceilings")
    params = _market(settings)
    e_grid = _parse_grid(str(settings["e_grid"]), "e-grid")
    rows = []
    for e in e_grid:
        l1 = float(loan_ceiling_affordability(e, params))
        l2 = float(loan_ceiling_incentive(e, params))
        rows.append([float(e), l1, l2, "L2"])
    _write_output(settings, "ceilings", ["e", "L1", "L2", "binding"], rows)
    offenders = [row[0] for row in rows if not row[1] > row[2]]
    if offenders:
        raise InvariantViolation(
            "affordability ceiling does not exceed incentive ceiling at e="
            + ", ".join(_fmt(e) for e in offenders)
        )
    return 0


def cmd_sweep_group_size(args: argparse.Namespace) -> int:
    settings = _resolve(args, "sweep-group-size")
    params = _market(settings)
    link = ScoreLink(k=float(settings["k"]), b=float(settings["b"]))
    cost = CostModel(c=float(settings["c"]))
    n_min = int(settings["n_min"])
    n_max = int(settings["n_max"])
    if n_min < 1:
        raise ConfigError("n-min must be >= 1")
    if n_max < n_min:
        raise ConfigError("n-max must be >= n-min")
    limit = ese_limit(params, cost, link).score
    rows = []
    for n in range(n_min, n_max + 1):
        try:
            opt = optimal_ese_group(n, params, cost, link)
        except SolverError as exc:
            raise SolverError(f"group size n={n}: {exc}", bracket=exc.bracket) from None
        rows.append([n, opt.score, opt.at_boundary, limit])
    _write_output(settings, "sweep-group-size",
                  ["n", "optimal_E", "at_boundary", "limit_E"], rows)
    return 0


def _solve_mv_cells(w, cells: list, labels: list[str], endogenous: bool) -> list:
    """Solve every sweep cell at once; errors name the cell they came from."""
    try:
        return optimal_ese_mv_batch(w, cells, endogenous_w=endogenous)
    except (DomainError, EvaluationError, InvariantViolation) as exc:
        if exc.cell is None:
            raise
        raise type(exc)(f"{labels[exc.cell]}: {exc}") from None


def cmd_sweep_mv(args: argparse.Namespace) -> int:
    settings = _resolve(args, "sweep-mv")
    params = _market(settings)
    b_set = _parse_grid(str(settings["b_set"]), "b-set")
    c_set = _parse_grid(str(settings["c_set"]), "c-set")
    gammas = _parse_grid(str(settings["gamma_grid"]), "gamma-grid")
    endogenous = bool(settings["endogenous_w"])
    w = None if endogenous else float(settings["w"])
    cells, labels, keys = [], [], []
    for b in b_set:
        k = float(settings["k"]) if settings["k"] is not None else slope_for_baseline(b)
        link = ScoreLink(k=k, b=float(b))
        for c in c_set:
            cost = CostModel(c=float(c))
            for gamma in gammas:
                cells.append((params, gamma, cost, link))
                labels.append(f"b={_fmt(b)}, c={_fmt(c)}, gamma={_fmt(gamma)}")
                keys.append([float(b), float(c), float(gamma)])
    optima = _solve_mv_cells(w, cells, labels, endogenous)
    rows = [key + [opt.score, opt.at_boundary] for key, opt in zip(keys, optima)]
    _write_output(settings, "sweep-mv",
                  ["b", "c", "gamma", "optimal_E", "at_boundary"], rows)
    return 0


def cmd_sweep_yield(args: argparse.Namespace) -> int:
    settings = _resolve(args, "sweep-yield")
    pairs = _parse_yield_pairs(str(settings["yields"]))
    gammas = _parse_grid(str(settings["gamma_grid"]), "gamma-grid")
    b = float(settings["b"])
    k = float(settings["k"]) if settings["k"] is not None else slope_for_baseline(b)
    link = ScoreLink(k=k, b=b)
    cost = CostModel(c=float(settings["c"]))
    endogenous = bool(settings["endogenous_w"])
    w = None if endogenous else float(settings["w"])
    cells, labels, keys = [], [], []
    for y_high, y_low in pairs:
        params = _market({**settings, "y_high": y_high, "y_low": y_low})
        scenario = f"Ybar={_fmt(y_high)},Ylow={_fmt(y_low)}"
        for gamma in gammas:
            cells.append((params, gamma, cost, link))
            labels.append(f"scenario={scenario}, gamma={_fmt(gamma)}")
            keys.append([scenario, float(gamma)])
    optima = _solve_mv_cells(w, cells, labels, endogenous)
    rows = [key + [opt.score] for key, opt in zip(keys, optima)]
    _write_output(settings, "sweep-yield", ["scenario", "gamma", "optimal_E"], rows)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _resolve(args, "simulate")
    params = _market(settings)
    e_grid = _parse_grid(str(settings["e_grid"]), "e-grid")
    n_set = _parse_int_set(str(settings["n_set"]), "n-set")
    sim_cfg_probe = SimConfig(trials=int(settings["trials"]), seed=int(settings["seed"]))
    rows = []
    for e in e_grid:
        for n in n_set:
            if settings["w"] is not None:
                w = float(settings["w"])
            else:
                try:
                    w = float(binding_repayment(e, n, params).w)
                except DomainError:
                    raise ConfigError(
                        f"break-even repayment is undefined at e={_fmt(float(e))}; "
                        "pass an explicit --w"
                    ) from None
            exact = enumerate_member_profit(e, n, w, params)
            result = simulate_member_profit(e, n, w, params, sim_cfg_probe)
            diff = result.empirical_mean - exact.mean
            if diff == 0.0:
                z = 0.0
            elif result.std_error_mean == 0.0:
                z = math.inf
            else:
                z = diff / result.std_error_mean
            rows.append([float(e), n, result.trials, result.seed,
                         result.empirical_mean, exact.mean,
                         result.empirical_variance, exact.variance, z])
    _write_output(settings, "simulate",
                  ["e", "n", "trials", "seed", "empirical_mean", "analytic_mean",
                   "empirical_var", "analytic_var", "z_mean"], rows)
    worst = max(abs(row[-1]) for row in rows)
    if worst > 4.0:
        raise InvariantViolation(
            f"simulated mean deviates from the exact mean by {worst:.2f} "
            "standard errors (limit 4)"
        )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    settings = _resolve(args, "score")
    if settings["metrics"] is None:
        raise ConfigError("a metrics CSV is required (--metrics)")
    records = read_metrics_csv(settings["metrics"])
    normalization = str(settings["normalization"])
    if settings["schema"] is None:
        bundled = resources.files("eselend").joinpath("data/sample_schema.csv")
        with resources.as_file(bundled) as schema_path:
            scheme = read_schema_csv(schema_path, normalization)
    else:
        scheme = read_schema_csv(settings["schema"], normalization)
    scores = composite_score(records, scheme)
    provenance = "# eselend score " + " ".join(
        f"{key}={_fmt(value)}" for key, value in sorted(settings.items())
        if key != "out"
    )
    write_scores_csv(settings["out"], scores, header_comment=provenance)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_market_flags(sub: argparse.ArgumentParser, include_yields: bool = True):
    sub.add_argument("--p", type=float, help="unit selling price")
    if include_yields:
        sub.add_argument("--y-high", dest="y_high", type=float,
                         help="high-production yield")
        sub.add_argument("--y-low", dest="y_low", type=float,
                         help="low-production yield")
    sub.add_argument("--loan", type=float, help="loan principal")
    sub.add_argument("--epsilon", type=float, help="risk-free rate")
    sub.add_argument("--delta", type=float, help="borrower discount factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eselend",
        description="Joint-liability lending contracts driven by ESE scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ceilings = sub.add_parser("ceilings", help="loan ceilings over a success grid")
    _add_market_flags(ceilings)
    ceilings.add_argument("--e-grid", dest="e_grid",
                          help="success probabilities: start:stop:count or comma list")

    group = sub.add_parser("sweep-group-size", help="optimal score by group size")
    _add_market_flags(group)
    group.add_argument("--k", type=float, help="score-to-probability slope")
    group.add_argument("--b", type=float, help="baseline success probability")
    group.add_argument("--c", type=float, help="effort cost scale")
    group.add_argument("--n-min", dest="n_min", type=int, help="smallest group size")
    group.add_argument("--n-max", dest="n_max", type=int, help="largest group size")

    mv = sub.add_parser("sweep-mv", help="risk-aversion sweep for pairs")
    _add_market_flags(mv)
    mv.add_argument("--b-set", dest="b_set", help="baseline probabilities to sweep")
    mv.add_argument("--c-set", dest="c_set", help="cost scales to sweep")
    mv.add_argument("--gamma-grid", dest="gamma_grid",
                    help="risk aversion grid: start:stop:count or comma list")
    mv.add_argument("--w", type=float, help="fixed repayment obligation")
    mv.add_argument("--k", type=float,
                    help="score slope (default (1-b)/100 per baseline)")
    mv.add_argument("--endogenous-w", dest="endogenous_w", action="store_const",
                    const=True, help="substitute the break-even repayment")

    yld = sub.add_parser("sweep-yield", help="high- vs low-yield comparison")
    _add_market_flags(yld, include_yields=False)
    yld.add_argument("--yields", help="two high:low pairs, comma separated")
    yld.add_argument("--b", type=float, help="baseline success probability")
    yld.add_argument("--c", type=float, help="effort cost scale")
    yld.add_argument("--gamma-grid", dest="gamma_grid", help="risk aversion grid")
    yld.add_argument("--w", type=float, help="fixed repayment obligation")
    yld.add_argument("--k", type=float, help="score slope (default (1-b)/100)")
    yld.add_argument("--endogenous-w", dest="endogenous_w", action="store_const",
                     const=True, help="substitute the break-even repayment")

    sim = sub.add_parser("simulate", help="Monte Carlo check against exact moments")
    _add_market_flags(sim)
    sim.add_argument("--e-grid", dest="e_grid", help="success probabilities")
    sim.add_argument("--n-set", dest="n_set", help="group sizes, comma separated")
    sim.add_argument("--trials", type=int, help="trials per (e, n) cell")
    sim.add_argument("--seed", type=int, help="reproducibility seed")
    sim.add_argument("--w", type=float,
                     help="repayment obligation (default: break-even per cell)")

    score = sub.add_parser("score", help="composite scores from metric records")
    score.add_argument("--metrics", help="metrics CSV (farmer_id,metric_id,value)")
    score.add_argument("--schema", help="schema CSV (default: bundled sample)")
    score.add_argument("--normalization", choices=["MIN_MAX", "Z_SCORE_CLIPPED"],
                       help="normalization method (default MIN_MAX)")

    for name, command in (("ceilings", ceilings), ("sweep-group-size", group),
                          ("sweep-mv", mv), ("sweep-yield", yld),
                          ("simulate", sim), ("score", score)):
        command.add_argument("--out", help=f"output CSV path "
                             f"(default {_DEFAULTS[name]['out']})")
        command.add_argument("--config", help="JSON file with option defaults")
        if name != "score":
            command.add_argument("--plot-data", dest="plot_data",
                                 action="store_const", const=True,
                                 help="also write a gnuplot .dat twin")

    return parser


_DISPATCH = {
    "ceilings": cmd_ceilings,
    "sweep-group-size": cmd_sweep_group_size,
    "sweep-mv": cmd_sweep_mv,
    "sweep-yield": cmd_sweep_yield,
    "simulate": cmd_simulate,
    "score": cmd_score,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in getattr(exc, "details", None) or []:
            print(f"  {line}", file=sys.stderr)
        return 3
    except (SolverError, EvaluationError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
