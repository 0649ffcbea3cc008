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
(keys are flag names with underscores), then the documented defaults. Each
option is declared once, in ``_OPTIONS``, and each subcommand once, in
``_COMMANDS``; a config value is converted and checked exactly like its flag.
Exit codes: 0 success, 2 usage or configuration problem, 3 data problem,
4 solver or invariant failure.

`main` builds its parser on its first call and reuses it for the rest of
the process; `build_parser` returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import shlex
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    EvaluationError,
    InvariantViolation,
)
from .mean_variance import (
    DEFAULT_SWEEP_PARAMS,
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
from .optimizer import ese_limit, optimal_ese_group_batch
from .oracle_sim import SimConfig, enumerate_member_profit, simulate_member_profit_batch
from .scoring import (
    NORMALIZATIONS,
    _csv_quote,
    _format_rows,
    composite_score,
    read_metrics_csv,
    read_schema_csv,
    write_scores_csv,
)

__all__ = ["main"]


class _Option(NamedTuple):
    """One command-line option: the type its value converts to, its help
    text and, if restricted, its allowed values."""

    type: type
    help: str
    choices: tuple | None = None


# Every option, declared once. ``bool`` marks the two on/off switches.
_OPTIONS = {
    "p": _Option(float, "unit selling price"),
    "y_high": _Option(float, "high-production yield"),
    "y_low": _Option(float, "low-production yield"),
    "loan": _Option(float, "loan principal"),
    "epsilon": _Option(float, "risk-free rate"),
    "delta": _Option(float, "borrower discount factor"),
    "e_grid": _Option(str, "success probabilities: start:stop:count or comma list"),
    "n_set": _Option(str, "whole group sizes: start:stop:count or comma list"),
    "n_min": _Option(int, "smallest group size"),
    "n_max": _Option(int, "largest group size"),
    "b": _Option(float, "baseline success probability"),
    "b_set": _Option(str, "baseline probabilities to sweep"),
    "c": _Option(float, "effort cost scale"),
    "c_set": _Option(str, "cost scales to sweep"),
    "k": _Option(float, "score-to-probability slope; auto is (1-b)/100 per baseline"),
    "gamma_grid": _Option(str, "risk aversion grid: start:stop:count or comma list"),
    "yields": _Option(str, "two high:low pairs, comma separated"),
    "w": _Option(float, "repayment obligation; auto is the break-even value per cell"),
    "endogenous_w": _Option(bool, "substitute the break-even repayment"),
    "trials": _Option(int, "trials per (e, n) cell"),
    "seed": _Option(int, "reproducibility seed"),
    "metrics": _Option(str, "metrics CSV (farmer_id,metric_id,value)"),
    "schema": _Option(str, "schema CSV; auto is the bundled sample"),
    "normalization": _Option(str, "normalization method", NORMALIZATIONS),
    "out": _Option(str, "output CSV path"),
    "plot_data": _Option(bool, "also write a gnuplot .dat twin"),
}

_MARKET = asdict(DEFAULT_SWEEP_PARAMS)


def _fmt(value) -> str:
    """Deterministic cell formatting: 10 significant digits for floats,
    and ``true``/``false`` for Python and numpy bools."""
    if value is None:
        return "auto"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


# Largest count of a start:stop:count grid. It is checked before the grid is
# built, so a count such as 10**9 exits 2 instead of exhausting memory.
_MAX_GRID_COUNT = 1_000_000


def _grid_array(spec: str, what: str) -> np.ndarray:
    """Parse 'start:stop:count' or a comma-separated list of numbers into a
    checked float array."""
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
        if count > _MAX_GRID_COUNT:
            raise ConfigError(f"{what} count must be <= {_MAX_GRID_COUNT}")
        # An overflowing span gives inf or nan, which the check below rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(start, stop, count)
        # linspace's one point is start + 0 * (stop - start), which is nan
        # when the span overflows; the point itself is start.
        if count == 1 and not np.isfinite(grid[0]):
            grid = np.array([start])
    else:
        try:
            grid = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
        except ValueError:
            raise ConfigError(f"{what} has a non-numeric entry in {spec!r}") from None
    if not grid.size:
        raise ConfigError(f"{what} is empty")
    if not np.isfinite(grid).all():
        raise ConfigError(f"{what} contains a non-finite value")
    return grid


def _parse_grid(spec: str, what: str) -> list[float]:
    """`_grid_array` as a list of floats."""
    return _grid_array(spec, what).tolist()


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
    import json  # here, not at module level: only --config runs need it

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


def _config_value(name: str, value, default):
    """Check and convert one config-file value the way its flag would be.

    Switches take only JSON booleans, and options whose default is None
    also take null. Any other value goes through the flag's type and
    choices, so 1.5 fails for an integer option just as "--trials 1.5" does.
    """
    option = _OPTIONS[name]
    if (value is None and default is None
            or type(value) is bool and option.type is bool):
        return value
    if type(value) in (str, int, float) and option.type is not bool:
        try:
            converted = option.type(str(value))
        except ValueError:
            pass
        else:
            if option.choices is None or converted in option.choices:
                return converted
    import json

    raise ConfigError(f"config key {name}: invalid {option.type.__name__} "
                      f"value {json.dumps(value)}")


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge flags over config-file values over defaults; reject an out
    path that its own --plot-data twin would overwrite."""
    defaults = _COMMANDS[command][2]
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    settings = dict(defaults)
    for name, value in config.items():
        settings[name] = _config_value(name, value, defaults[name])
    for name in defaults:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    if settings.get("plot_data") and Path(settings["out"]).suffix == ".dat":
        raise ConfigError(f"--out {settings['out']} would be overwritten by its "
                          "--plot-data .dat twin; give --out another suffix")
    return settings


def _market(settings: dict) -> MarketParams:
    return MarketParams(**{name: settings[name] for name in _MARKET})


def _provenance(command: str, settings: dict) -> str:
    """First line of every output: the command and its effective values,
    keys sorted, each value as `_fmt` writes it. A value that holds a line
    break (CR, LF or any other that ``str.splitlines`` splits at) is first
    escaped as its ``repr()`` without the outer quotes, so the line stays
    one. Each value is then written as its ``shlex.quote``, so that
    ``shlex.split`` gives one ``key=value`` token per setting; text made only
    of ``[\\w@%+=:,./-]`` is written as it is."""
    return f"# eselend {command} " + " ".join(
        f"{key}={_token(_fmt(value))}" for key, value in sorted(settings.items())
        if key not in ("out", "plot_data")
    )


def _token(text: str) -> str:
    if "".join(text.splitlines()) != text:
        text = repr(text)[1:-1]
    return shlex.quote(text)


def _write_output(settings: dict, command: str, table: dict) -> None:
    """Write ``table`` (column name -> cells) as the CSV at ``out`` and, with
    ``plot_data``, its ``.dat`` twin: the bytes of `_fmt` on every cell,
    through csv.writer, and space-joined LF lines. A column is one of three
    kinds:

    - a float, integer or boolean numpy array, written by its dtype as
      ``%.10g``, ``%d`` or ``true``/``false`` after one ``tolist()``;
    - a list of str, each cell quoted where csv.writer would quote it;
    - one scalar (``str``, ``int``, ``float``, ``bool`` or numpy scalar),
      formatted and quoted once and written on every row.

    Each file's rows are formatted in one ``%`` call, by `_format_rows`
    over the array and list columns. At least one column must be an array
    or a list, and every such column must have as many cells as the first;
    ValueError says which rule fails before any file is opened.
    """
    specs, columns = [], []  # (CSV, .dat) fields; (name, CSV cells, .dat cells)
    for name, cells in table.items():
        if isinstance(cells, (str, int, float, np.generic)):
            text = _fmt(cells)
            specs.append((_csv_quote(text).replace("%", "%%"), text.replace("%", "%%")))
            continue
        if isinstance(cells, list):
            specs.append(("%s", "%s"))
            columns.append((name, list(map(_csv_quote, cells)), cells))
            continue
        kind, cells = cells.dtype.kind, cells.tolist()
        if kind == "b":
            cells = ["true" if cell else "false" for cell in cells]
        spec = {"b": "%s", "f": "%.10g"}.get(kind, "%d")
        specs.append((spec, spec))
        columns.append((name, cells, cells))
    if not columns:
        raise ValueError(f"table {command!r} needs an array or list column to "
                         "set its rows; every column is one scalar")
    (csv_specs, dat_specs), (names, csv_cols, dat_cols) = zip(*specs), zip(*columns)
    rows = len(csv_cols[0])
    for name, cells in zip(names, csv_cols):
        if len(cells) != rows:
            raise ValueError(f"column {name!r} has {len(cells)} rows, not the "
                             f"{rows} of column {names[0]!r}")
    provenance = _provenance(command, settings) + "\n"
    out = Path(settings["out"])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(provenance + ",".join(map(_csv_quote, table)) + "\r\n")
        fh.write(_format_rows(",".join(csv_specs) + "\r\n", csv_cols, rows))
    if settings["plot_data"]:
        with open(out.with_suffix(".dat"), "w", encoding="utf-8") as fh:
            fh.write(provenance + "# " + " ".join(table) + "\n")
            fh.write(_format_rows(" ".join(dat_specs) + "\n", dat_cols, rows))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_ceilings(settings: dict) -> int:
    params = _market(settings)
    e = _grid_array(settings["e_grid"], "e-grid")
    try:
        l1 = loan_ceiling_affordability(e, params)
        l2 = loan_ceiling_incentive(e, params)
    except DomainError as exc:
        raise DomainError(f"e={_fmt(e[exc.cell])}: {exc}") from None
    _write_output(settings, "ceilings", {"e": e, "L1": l1, "L2": l2,
                                         "binding": "L2"})
    offenders = e[~(l1 > l2)].tolist()
    if offenders:
        raise InvariantViolation(
            "affordability ceiling does not exceed incentive ceiling at e="
            + ", ".join(map(_fmt, offenders))
        )
    return 0


def cmd_sweep_group_size(settings: dict) -> int:
    params = _market(settings)
    link = ScoreLink(k=settings["k"], b=settings["b"])
    cost = CostModel(c=settings["c"])
    n_min, n_max = settings["n_min"], settings["n_max"]
    if n_min < 1:
        raise ConfigError("n-min must be >= 1")
    if n_max < n_min:
        raise ConfigError("n-max must be >= n-min")
    if n_max - n_min + 1 > _MAX_GRID_COUNT:
        raise ConfigError(f"group-size count n-max - n-min + 1 must be "
                          f"<= {_MAX_GRID_COUNT}")
    if n_max > sys.float_info.max:
        raise ConfigError("n-max must not exceed the float range")
    limit = ese_limit(params, cost, link).score
    sizes = range(n_min, n_max + 1)
    try:
        optima = optimal_ese_group_batch(sizes, params, cost, link)
    except EvaluationError as exc:
        raise EvaluationError(f"group size n={sizes[exc.cell]}: {exc}") from None
    _write_output(settings, "sweep-group-size", {
        "n": list(map(str, sizes)), "optimal_E": optima.score,
        "at_boundary": optima.at_boundary, "limit_E": limit})
    return 0


def _solve_sweep(settings: dict, scenarios: list, gammas: list[float]):
    """Solve every (scenario, gamma) cell of a mean-variance sweep at once.

    ``scenarios`` holds (label, params, b, c) tuples. ``k`` defaults to
    `slope_for_baseline` of each scenario's ``b``, and ``endogenous_w``
    replaces the fixed ``w`` by the break-even repayment. Returns the
    `Optima` of the cells scenario by scenario in gamma order; an error
    names the scenario or cell it came from.
    """
    cells = []
    for label, params, b, c in scenarios:
        try:
            k = slope_for_baseline(b) if settings["k"] is None else settings["k"]
            link = ScoreLink(k=k, b=b)
            cost = CostModel(c=c)
        except DomainError as exc:
            raise DomainError(f"{label}: {exc}") from None
        cells += [(params, gamma, cost, link) for gamma in gammas]
    try:
        optima = optimal_ese_mv_batch(
            None if settings["endogenous_w"] else settings["w"], cells)
    except (DomainError, EvaluationError, InvariantViolation) as exc:
        if exc.cell is None:
            raise
        scenario, gamma = divmod(exc.cell, len(gammas))
        label = f"{scenarios[scenario][0]}, gamma={_fmt(gammas[gamma])}"
        raise type(exc)(f"{label}: {exc}") from None
    return optima


def cmd_sweep_mv(settings: dict) -> int:
    params = _market(settings)
    b_set = _parse_grid(settings["b_set"], "b-set")
    c_set = _parse_grid(settings["c_set"], "c-set")
    gammas = _parse_grid(settings["gamma_grid"], "gamma-grid")
    scenarios = [(f"b={_fmt(b)}, c={_fmt(c)}", params, b, c)
                 for b in b_set for c in c_set]
    optima = _solve_sweep(settings, scenarios, gammas)
    _write_output(settings, "sweep-mv", {
        "b": np.repeat([b for _, _, b, _ in scenarios], len(gammas)),
        "c": np.repeat([c for _, _, _, c in scenarios], len(gammas)),
        "gamma": np.tile(gammas, len(scenarios)),
        "optimal_E": optima.score, "at_boundary": optima.at_boundary})
    return 0


def cmd_sweep_yield(settings: dict) -> int:
    pairs = _parse_yield_pairs(settings["yields"])
    gammas = _parse_grid(settings["gamma_grid"], "gamma-grid")
    names = [f"Ybar={_fmt(y_high)},Ylow={_fmt(y_low)}" for y_high, y_low in pairs]
    scenarios = []
    for name, (y_high, y_low) in zip(names, pairs):
        try:
            params = _market({**settings, "y_high": y_high, "y_low": y_low})
        except DomainError as exc:
            raise DomainError(f"scenario={name}: {exc}") from None
        scenarios.append((f"scenario={name}", params, settings["b"], settings["c"]))
    optima = _solve_sweep(settings, scenarios, gammas)
    _write_output(settings, "sweep-yield", {
        "scenario": [name for name in names for _ in gammas],
        "gamma": np.tile(gammas, len(names)), "optimal_E": optima.score})
    return 0


def cmd_simulate(settings: dict) -> int:
    params = _market(settings)
    e_grid = _parse_grid(settings["e_grid"], "e-grid")
    n_set = _parse_grid(settings["n_set"], "n-set")
    if min(n_set) < 1:
        raise ConfigError(f"n-set entry {_fmt(min(n_set))} must be >= 1")
    for n in n_set:
        if not n.is_integer():
            raise ConfigError(f"n-set entry {_fmt(n)} is not a whole number")
    n_set = [int(n) for n in n_set]
    sim_cfg = SimConfig(trials=settings["trials"], seed=settings["seed"])
    cells = [(e, n) for e in e_grid for n in n_set]
    ws, exact = [], []
    for e, n in cells:
        w = settings["w"]
        if w is None and e == 0.0:
            raise ConfigError(
                f"break-even repayment is undefined at e={_fmt(e)}; "
                "pass an explicit --w"
            )
        try:
            if w is None:
                w = binding_repayment(e, n, params)
            exact.append(enumerate_member_profit(e, n, w, params))
        except DomainError as exc:
            raise DomainError(f"e={_fmt(e)}, n={n}: {exc}") from None
        ws.append(w)
    try:
        simulated = simulate_member_profit_batch(
            [e for e, _ in cells], [n for _, n in cells], ws, params, sim_cfg)
    except DomainError as exc:
        if exc.cell is None:  # the counter space, which the largest n sets
            raise DomainError(f"n={max(n_set)}: {exc}") from None
        e, n = cells[exc.cell]
        raise DomainError(f"e={_fmt(e)}, n={n}: {exc}") from None
    rows = []
    for (e, n), result, moments in zip(cells, simulated, exact):
        diff = result.empirical_mean - moments.mean
        if diff == 0.0:
            z = 0.0
        elif result.std_error_mean == 0.0:
            z = math.copysign(math.inf, diff)
        else:
            z = diff / result.std_error_mean
        rows.append([e, n, result.empirical_mean, moments.mean,
                     result.empirical_variance, moments.variance, z])
    e_cells, n_cells, *stats = map(np.array, zip(*rows))
    columns = ["e", "n", "trials", "seed", "empirical_mean", "analytic_mean",
               "empirical_var", "analytic_var", "z_mean"]
    _write_output(settings, "simulate", dict(zip(
        columns, [e_cells, n_cells, sim_cfg.trials, sim_cfg.seed, *stats])))
    e, n, *_, z = max(rows, key=lambda row: abs(row[-1]))
    if abs(z) > 4.0:
        raise InvariantViolation(
            f"e={_fmt(e)}, n={n}: simulated mean deviates from the exact mean "
            f"by {abs(z):.2f} standard errors (limit 4)"
        )
    return 0


def cmd_score(settings: dict) -> int:
    if settings["metrics"] is None:
        raise ConfigError("a metrics CSV is required (--metrics)")
    records = read_metrics_csv(settings["metrics"])
    normalization = settings["normalization"]
    if settings["schema"] is None:
        bundled = resources.files("eselend").joinpath("data/sample_schema.csv")
        with resources.as_file(bundled) as schema_path:
            scheme = read_schema_csv(schema_path, normalization)
    else:
        scheme = read_schema_csv(settings["schema"], normalization)
    scores = composite_score(records, scheme)
    write_scores_csv(settings["out"], scores,
                     header_comment=_provenance("score", settings))
    return 0


_SWEEP = {"gamma_grid": "0:1:21", "w": DEFAULT_SWEEP_W, "k": None,
          "endogenous_w": False}

# Each subcommand's function, help line and effective defaults; the
# defaults are also the whitelist of its config-file keys.
_COMMANDS: dict[str, tuple] = {
    "ceilings": (cmd_ceilings, "loan ceilings over a success grid", {
        **_MARKET, "e_grid": "0.05:0.95:19",
        "out": "ceilings.csv", "plot_data": False}),
    "sweep-group-size": (cmd_sweep_group_size, "optimal score by group size", {
        **_MARKET, "k": 0.01, "b": 0.0, "c": 1000.0, "n_min": 1, "n_max": 100,
        "out": "group_size.csv", "plot_data": False}),
    "sweep-mv": (cmd_sweep_mv, "risk-aversion sweep for pairs", {
        **_MARKET, "b_set": "0.3,0.5,0.7", "c_set": "800,1000,1200,1500,2000",
        **_SWEEP, "out": "mv_sweep.csv", "plot_data": False}),
    "sweep-yield": (cmd_sweep_yield, "high- vs low-yield comparison", {
        **{name: value for name, value in _MARKET.items()
           if name not in ("y_high", "y_low")},
        "yields": "1000:500,600:300", "b": 0.5, "c": 1000.0,
        **_SWEEP, "out": "yield_sweep.csv", "plot_data": False}),
    "simulate": (cmd_simulate, "Monte Carlo check against exact moments", {
        **_MARKET, "e_grid": "0.3,0.5,0.8", "n_set": "2,3,10",
        **asdict(SimConfig()), "w": None,
        "out": "simulate.csv", "plot_data": False}),
    "score": (cmd_score, "composite scores from metric records", {
        "metrics": None, "schema": None, "normalization": "MIN_MAX",
        "out": "scores.csv"}),
}


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eselend",
        description="Joint-liability lending contracts driven by ESE scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, defaults) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for name, default in defaults.items():
            option = _OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if option.type is bool:
                cmd.add_argument(flag, action="store_const", const=True,
                                 help=option.help)
            else:
                cmd.add_argument(flag, type=option.type, choices=option.choices,
                                 help=f"{option.help} (default {_fmt(default)})")
        cmd.add_argument("--config", help="JSON file with option defaults")
    return parser


# A build takes about 50 times as long as a parse, and parse_args keeps
# no state between calls, so `main` builds one parser on its first call,
# not at import, and reuses it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args, args.command))
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in getattr(exc, "details", None) or []:
            print(f"  {line}", file=sys.stderr)
        return 3
    except (EvaluationError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
