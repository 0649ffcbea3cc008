"""Joint-liability microcredit contracts driven by a composite ESE score.

A borrower's Environmental-Social-Economics score maps linearly to project
success probability; groups of borrowers cover each other's repayment. The
package provides the closed-form contract quantities (break-even repayment,
loan ceilings, expected profit), optimal-score solvers for pairs and larger
groups including the large-group limit, a mean-variance extension for
risk-averse members, exact-enumeration and Monte Carlo validation oracles,
and the composite scoring pipeline that produces the score itself.
"""

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    EselendError,
    EvaluationError,
    InvariantViolation,
)
from .model_core import (
    CostModel,
    MarketParams,
    ProfitDistribution,
    ScoreLink,
    binding_repayment,
    expected_profit_group,
    expected_profit_group_sum,
    expected_profit_pair,
    loan_ceiling_affordability,
    loan_ceiling_incentive,
    profit_distribution_group,
    profit_distribution_pair,
    success_probability,
)
from .optimizer import (
    Optimum,
    SolverConfig,
    argmax_grid,
    dE_dn,
    dE_dn_as_printed,
    ese_limit,
    group_foc,
    group_objective,
    optimal_ese_group,
    optimal_ese_group_batch,
    optimal_ese_pair,
    optimal_ese_pair_as_printed,
    pair_objective,
)
from .mean_variance import (
    Moments,
    mv_foc,
    mv_utility,
    optimal_ese_mv,
    optimal_ese_mv_batch,
    profit_moments_pair,
    slope_for_baseline,
)
from .oracle_sim import (
    SimConfig,
    SimResult,
    enumerate_member_profit,
    simulate_member_profit,
    simulate_member_profit_batch,
)
from .scoring import (
    MetricDef,
    MetricRecord,
    MetricTable,
    ScoringScheme,
    composite_score,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "EselendError",
    "DomainError",
    "DataError",
    "ConfigError",
    "EvaluationError",
    "InvariantViolation",
    "MarketParams",
    "ScoreLink",
    "CostModel",
    "ProfitDistribution",
    "success_probability",
    "binding_repayment",
    "loan_ceiling_affordability",
    "loan_ceiling_incentive",
    "expected_profit_pair",
    "expected_profit_group",
    "expected_profit_group_sum",
    "profit_distribution_pair",
    "profit_distribution_group",
    "Optimum",
    "SolverConfig",
    "argmax_grid",
    "pair_objective",
    "group_objective",
    "group_foc",
    "optimal_ese_pair",
    "optimal_ese_pair_as_printed",
    "optimal_ese_group",
    "optimal_ese_group_batch",
    "dE_dn",
    "dE_dn_as_printed",
    "ese_limit",
    "Moments",
    "profit_moments_pair",
    "mv_utility",
    "mv_foc",
    "optimal_ese_mv",
    "optimal_ese_mv_batch",
    "slope_for_baseline",
    "SimConfig",
    "SimResult",
    "simulate_member_profit",
    "simulate_member_profit_batch",
    "enumerate_member_profit",
    "MetricDef",
    "MetricRecord",
    "MetricTable",
    "ScoringScheme",
    "normalize",
    "composite_score",
    "__version__",
]
