"""Which eselend functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/eselend``. Span names are
``<module>.<function>``; ``cli.main`` is the span the runner opens around
each ``eselend.cli.main(argv)`` call. Count metrics named ``.calls`` or
``.evals`` count calls of the wrapped function (a vectorized call counts
once); ``optimizer.objective.*`` count calls of the objective handed to
``argmax_grid``, split by scalar or array argument. A layer that does no
work on a workload reports 0 for its metrics there.
"""

from __future__ import annotations

import inspect

from spans import count_objective

MODULES = ("cli", "optimizer", "mean_variance", "model_core", "oracle_sim", "scoring")


def _count_draws(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    group = bound.arguments["group"]
    n = int(getattr(group, "n", group))
    tracer.counts["oracle_sim.draws"] += bound.arguments["cfg"].trials * n
    return args, kwargs


def _count_records(tracer, result):
    tracer.counts["scoring.records"] += len(result)


# (module, function, span options)
TRACED = (
    ("optimizer", "argmax_grid", {"on_call": count_objective}),
    ("optimizer", "optimal_ese_group", {}),
    ("optimizer", "group_foc", {}),
    ("optimizer", "group_objective", {}),
    ("optimizer", "ese_limit", {}),
    ("mean_variance", "optimal_ese_mv", {}),
    ("mean_variance", "mv_utility", {}),
    ("mean_variance", "mv_foc", {}),
    ("mean_variance", "profit_moments_pair", {}),
    ("model_core", "success_probability", {}),
    ("model_core", "loan_ceiling_affordability", {}),
    ("model_core", "loan_ceiling_incentive", {}),
    ("model_core", "binding_repayment", {}),
    ("model_core", "profit_distribution_pair", {}),
    ("model_core", "profit_distribution_group", {}),
    ("oracle_sim", "simulate_member_profit", {"peak": True, "on_call": _count_draws}),
    ("oracle_sim", "enumerate_member_profit", {}),
    ("scoring", "read_metrics_csv", {"peak": True, "on_result": _count_records}),
    ("scoring", "read_schema_csv", {}),
    ("scoring", "composite_score", {"peak": True}),
    ("scoring", "normalize", {}),
    ("scoring", "write_scores_csv", {}),
)

# (metric, unit, better); every name here is printed by a traced run.
PER_LAYER = (
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("optimizer.argmax_grid.calls", "count", "lower"),
    ("optimizer.argmax_grid.s", "s", "lower"),
    ("optimizer.argmax_grid.self_s", "s", "lower"),
    ("optimizer.objective.scalar_evals", "count", "lower"),
    ("optimizer.objective.vector_evals", "count", "lower"),
    ("optimizer.objective.s", "s", "lower"),
    ("optimizer.optimal_ese_group.calls", "count", "lower"),
    ("optimizer.optimal_ese_group.s", "s", "lower"),
    ("optimizer.group_foc.evals", "count", "lower"),
    ("optimizer.group_objective.evals", "count", "lower"),
    ("optimizer.ese_limit.s", "s", "lower"),
    ("mean_variance.optimal_ese_mv.calls", "count", "lower"),
    ("mean_variance.optimal_ese_mv.s", "s", "lower"),
    ("mean_variance.optimal_ese_mv.self_s", "s", "lower"),
    ("mean_variance.mv_utility.calls", "count", "lower"),
    ("mean_variance.mv_utility.s", "s", "lower"),
    ("mean_variance.mv_foc.s", "s", "lower"),
    ("mean_variance.profit_moments_pair.calls", "count", "lower"),
    ("mean_variance.profit_moments_pair.s", "s", "lower"),
    ("model_core.success_probability.calls", "count", "lower"),
    ("model_core.success_probability.s", "s", "lower"),
    ("model_core.loan_ceiling_affordability.s", "s", "lower"),
    ("model_core.loan_ceiling_incentive.s", "s", "lower"),
    ("model_core.binding_repayment.calls", "count", "lower"),
    ("model_core.profit_distribution_pair.calls", "count", "lower"),
    ("model_core.profit_distribution_pair.s", "s", "lower"),
    ("model_core.profit_distribution_group.s", "s", "lower"),
    ("oracle_sim.simulate_member_profit.calls", "count", "lower"),
    ("oracle_sim.simulate_member_profit.s", "s", "lower"),
    ("oracle_sim.simulate_member_profit.peak_mb", "MB", "lower"),
    ("oracle_sim.draws", "count", "lower"),
    ("oracle_sim.draws_per_s", "1/s", "higher"),
    ("oracle_sim.enumerate_member_profit.s", "s", "lower"),
    ("scoring.read_metrics_csv.s", "s", "lower"),
    ("scoring.read_metrics_csv.peak_mb", "MB", "lower"),
    ("scoring.records", "count", "lower"),
    ("scoring.read_schema_csv.s", "s", "lower"),
    ("scoring.composite_score.s", "s", "lower"),
    ("scoring.composite_score.self_s", "s", "lower"),
    ("scoring.composite_score.peak_mb", "MB", "lower"),
    ("scoring.normalize.calls", "count", "lower"),
    ("scoring.normalize.s", "s", "lower"),
    ("scoring.write_scores_csv.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def traced_functions(package):
    """Yield ``(span name, function, options)`` for every traced function."""
    for module, name, options in TRACED:
        yield f"{module}.{name}", getattr(getattr(package, module), name), options


def pass_metrics(tracer, out_bytes):
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``)."""
    total, self_total = tracer.totals()
    counts, peaks = tracer.counts, tracer.peaks
    out = {}
    for metric, _unit, _better in PER_LAYER:
        span, kind = metric.rsplit(".", 1)
        if metric == "cli.self_s":
            value = self_total["cli.main"]
        elif metric == "cli.out_bytes":
            value = out_bytes
        elif metric == "trace.overhead_s":
            continue
        elif metric == "oracle_sim.draws_per_s":
            busy = total["oracle_sim.simulate_member_profit"]
            value = counts["oracle_sim.draws"] / busy if busy else 0.0
        elif kind == "s":
            value = total[span]
        elif kind == "self_s":
            value = self_total[span]
        elif kind in ("calls", "evals"):
            value = counts[span + ".calls"]
        elif kind == "peak_mb":
            value = peaks[metric]
        else:
            value = counts[metric]
        out[metric] = value
    return out
