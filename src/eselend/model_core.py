"""Core joint-liability lending contract model.

A group of ``n`` smallholder borrowers takes identical loans ``L`` and is
jointly liable for repayment ``w`` per member. Each member's project succeeds
with probability ``e`` and yields revenue ``p * y_high``; failure yields
``p * y_low``. Successful members split the shortfall of failed peers. A
member's success probability is driven by a composite score ``E`` on a 0..100
scale through the affine link ``e = k * E + b``, and exerting the effort that
sustains ``e`` costs ``c * e^2 / 2``.

This module holds the parameter types, the per-member profit distributions,
expected profits in closed form and as an explicit outcome enumeration, the
repayment level that makes the financier whole, and the two loan ceilings
(affordability and incentive-compatibility).

All monetary quantities share one currency unit. Functions broadcast over
numpy arrays wherever a formula is closed-form in ``e`` or ``E``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "MarketParams",
    "ScoreLink",
    "CostModel",
    "GroupSpec",
    "RepaymentContract",
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
]

# Validation slack for the link cap 100*k + b <= 1. The usual calibration
# k = (1 - b) / 100 lands at 1.0000000000000002 in float64.
LINK_CAP_SLACK = 1e-9

# A probability vector must sum to 1 within this tolerance.
PROB_SUM_TOL = 1e-12

# Largest group size for which outcome enumeration is supported.
MAX_ENUM_GROUP = 1000


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_in(name: str, value, lo: float, hi: float) -> None:
    """Range check that works for scalars and arrays (NaN fails it)."""
    ok = np.all((np.asarray(value) >= lo) & (np.asarray(value) <= hi))
    if not ok:
        raise DomainError(f"{name} must lie in [{lo}, {hi}]")


@dataclass(frozen=True)
class MarketParams:
    """Market environment shared by every borrower in a group.

    Attributes
    ----------
    p : float
        Output price, > 0.
    y_high : float
        Per-member physical yield on success. Must exceed ``y_low``.
    y_low : float
        Per-member physical yield on failure, > 0.
    loan : float
        Principal per member, > 0.
    epsilon : float
        Financier's opportunity cost of funds (risk-free rate), >= 0.
    delta : float
        One-period discount factor applied to the continuation value of
        keeping access to credit, in (0, 1).
    """

    p: float
    y_high: float
    y_low: float
    loan: float
    epsilon: float
    delta: float

    def __post_init__(self):
        for name in ("p", "y_high", "y_low", "loan", "epsilon", "delta"):
            _require_finite(name, getattr(self, name))
        if self.p <= 0:
            raise DomainError("p must be > 0")
        if not 0 < self.y_low < self.y_high:
            raise DomainError("need 0 < y_low < y_high")
        if self.loan <= 0:
            raise DomainError("loan must be > 0")
        if self.epsilon < 0:
            raise DomainError("epsilon must be >= 0")
        if not 0 < self.delta < 1:
            raise DomainError("delta must lie in (0, 1)")

    @property
    def high_revenue(self) -> float:
        """p * y_high, the success revenue."""
        return self.p * self.y_high

    @property
    def low_revenue(self) -> float:
        """p * y_low, the failure revenue."""
        return self.p * self.y_low


@dataclass(frozen=True)
class ScoreLink:
    """Affine map from a 0..100 score to a success probability.

    ``e = k * E + b`` with ``k >= 0``, ``0 <= b <= 1`` and
    ``100 * k + b <= 1`` (tiny float slack allowed), so that every score in
    [0, 100] maps into [0, 1].
    """

    k: float
    b: float

    def __post_init__(self):
        _require_finite("k", self.k)
        _require_finite("b", self.b)
        if self.k < 0:
            raise DomainError("k must be >= 0")
        if not 0 <= self.b <= 1:
            raise DomainError("b must lie in [0, 1]")
        if 100.0 * self.k + self.b > 1.0 + LINK_CAP_SLACK:
            raise DomainError("link must satisfy 100*k + b <= 1")


@dataclass(frozen=True)
class CostModel:
    """Quadratic effort cost ``C(e) = c * e^2 / 2`` with ``c > 0``."""

    c: float

    def __post_init__(self):
        _require_finite("c", self.c)
        if self.c <= 0:
            raise DomainError("c must be > 0")

    def effort_cost(self, e):
        return 0.5 * self.c * e * e

    def marginal_cost(self, e):
        return self.c * e


@dataclass(frozen=True)
class GroupSpec:
    """Joint-liability group of ``n >= 1`` identical members."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise DomainError("group size n must be an integer")
        if self.n < 1:
            raise DomainError("group size n must be >= 1")


def _as_group(group) -> GroupSpec:
    """Accept a GroupSpec or a bare integer group size."""
    return group if isinstance(group, GroupSpec) else GroupSpec(group)


@dataclass(frozen=True)
class RepaymentContract:
    """Per-member repayment ``w`` owed under joint liability in a group of ``n``."""

    w: float
    n: int

    def __post_init__(self):
        _require_finite("w", self.w)
        if self.w <= 0:
            raise DomainError("repayment w must be > 0")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise DomainError("group size n must be an integer")
        if self.n < 1:
            raise DomainError("group size n must be >= 1")


class ProfitDistribution:
    """Discrete per-member profit distribution.

    Holds (probability, profit) outcome pairs. Probabilities must be
    non-negative (up to float dust) and sum to 1 within ``PROB_SUM_TOL``;
    profits must be finite.
    """

    __slots__ = ("outcomes",)

    def __init__(self, outcomes):
        pairs = []
        total = 0.0
        for prob, profit in outcomes:
            prob = float(prob)
            profit = float(profit)
            if not np.isfinite(prob) or prob < -1e-15:
                raise DomainError(f"invalid outcome probability {prob!r}")
            if not np.isfinite(profit):
                raise DomainError(f"invalid outcome profit {profit!r}")
            pairs.append((max(prob, 0.0), profit))
            total += max(prob, 0.0)
        if not pairs:
            raise DomainError("a profit distribution needs at least one outcome")
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"outcome probabilities sum to {total!r}, expected 1")
        self.outcomes = tuple(pairs)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.outcomes])

    @property
    def profits(self) -> np.ndarray:
        return np.array([x for _, x in self.outcomes])

    def mean(self) -> float:
        return float(self.probabilities @ self.profits)

    def variance(self) -> float:
        """Population variance, computed around the mean for stability."""
        p = self.probabilities
        x = self.profits
        m = p @ x
        return float(p @ (x - m) ** 2)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __repr__(self) -> str:
        return f"ProfitDistribution({list(self.outcomes)!r})"


# ----------------------------------------------------------------------
# score link and contract terms
# ----------------------------------------------------------------------


def success_probability(E, link: ScoreLink):
    """Map score(s) ``E`` in [0, 100] to success probability ``e = k*E + b``.

    The result is clipped into [0, 1] to absorb float dust at the cap (the
    link invariants already confine the exact value to [0, 1]).
    """
    _require_in("score E", E, 0.0, 100.0)
    e = link.k * np.asarray(E, dtype=float) + link.b
    e = np.clip(e, 0.0, 1.0)
    return float(e) if np.ndim(E) == 0 else e


def binding_repayment(e: float, group, params: MarketParams) -> RepaymentContract:
    """Smallest repayment making the financier whole in expectation.

    Joint liability means the financier collects ``n*w`` unless every member
    fails, so the break-even condition per member is
    ``w * (1 - (1-e)^n) = L * (1 + epsilon)``. Expected borrower profit falls
    in ``w``, hence the binding value is the one a competitive contract uses.

    Raises DomainError at ``e = 0`` (no repayment level can break even).
    """
    group = _as_group(group)
    e = _require_finite("e", e)
    _require_in("e", e, 0.0, 1.0)
    if e == 0.0:
        raise DomainError("binding repayment is undefined at e = 0")
    # 1 - (1-e)^n without its cancellation at tiny e; log1p(-1) is a math error
    coverage = 1.0 if e == 1.0 else -math.expm1(group.n * math.log1p(-e))
    w = params.loan * (1.0 + params.epsilon) / coverage
    return RepaymentContract(w=w, n=group.n)


def loan_ceiling_affordability(e, params: MarketParams):
    """Largest loan a two-member group can repay out of pooled revenue.

    ``L1 = (p*y_high + p*y_low) / (2*(1+epsilon)) * (1 - (1-e)^2)``
    """
    _require_in("e", e, 0.0, 1.0)
    e = np.asarray(e, dtype=float)
    pooled = params.high_revenue + params.low_revenue
    # e*(2-e) is 1-(1-e)^2 without the cancellation that zeroes it at tiny e
    out = pooled / (2.0 * (1.0 + params.epsilon)) * (e * (2.0 - e))
    return float(out) if out.ndim == 0 else out


def loan_ceiling_incentive(e, params: MarketParams):
    """Largest loan under which repaying beats strategic default.

    A member tempted to default weighs keeping ``p*y_low`` today against the
    discounted value of future credit access, which yields
    ``L2 = p*y_low / (2*(1+epsilon)/(1-(1-e)^2) - delta)``.
    The denominator is positive for every ``delta < 1``. It is evaluated
    cleared of the fraction, ``p*y_low*s / (2*(1+epsilon) - delta*s)`` with
    ``s = 1-(1-e)^2``, which does not overflow at e below about 1e-308.
    """
    _require_in("e", e, 0.0, 1.0)
    e = np.asarray(e, dtype=float)
    if np.any(e == 0):
        raise DomainError("incentive ceiling is undefined at e = 0")
    coverage = e * (2.0 - e)  # 1-(1-e)^2, as in loan_ceiling_affordability
    out = (params.low_revenue * coverage
           / (2.0 * (1.0 + params.epsilon) - params.delta * coverage))
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# expected profits
# ----------------------------------------------------------------------


def expected_profit_pair(E, w: float, params: MarketParams, cost: CostModel, link: ScoreLink):
    """Expected profit of one member of a two-member group at score ``E``.

    Enumerates the four joint outcomes: both succeed (keep high revenue minus
    own repayment), self succeeds and covers the failing peer, self fails
    (limited liability, profit 0) regardless of the peer.

    ``pi = e^2 (pYh - w) + e(1-e) (pYh + pYl - 2w) - c e^2 / 2``
    """
    if w <= 0:
        raise DomainError("w must be > 0")
    e = success_probability(E, link)
    a = params.high_revenue - w
    both = params.high_revenue + params.low_revenue - 2.0 * w
    return e * e * a + e * (1.0 - e) * both - cost.effort_cost(e)


def expected_profit_group(E, group, w: float, params: MarketParams, cost: CostModel, link: ScoreLink):
    """Expected profit of one member of an ``n``-member group, closed form.

    The binomial enumeration over peer failures collapses to

    ``pi = e*pYh - w*(1-(1-e)^n) + pYl*((1-e) - (1-e)^n) - c e^2 / 2``

    (`expected_profit_group_sum` keeps the explicit sum as a cross-check).
    """
    group = _as_group(group)
    if w <= 0:
        raise DomainError("w must be > 0")
    e = success_probability(E, link)
    fail_all = (1.0 - e) ** group.n
    gross = (
        e * params.high_revenue
        - w * (1.0 - fail_all)
        + params.low_revenue * ((1.0 - e) - fail_all)
    )
    return gross - cost.effort_cost(e)


def _success_profits(n: int, w: float, params: MarketParams) -> np.ndarray:
    """Member profit when she succeeds and exactly k of n-1 peers fail, k = 0..n-1.

    The k failing peers each contribute ``p*y_low`` toward their repayment
    ``w``; the ``n - k`` successful members split the shortfall equally.
    """
    k = np.arange(n, dtype=float)
    shortfall_share = k * (w - params.low_revenue) / (n - k)
    return params.high_revenue - w - shortfall_share


def _member_success_pmf(e_values: np.ndarray, n: int) -> np.ndarray:
    """P(self succeeds, exactly k of n-1 peers fail) for k = 0..n-1.

    Shape (n, m) for m values of e, all strictly inside (0, 1). Binomial
    coefficients use the incremental ratio recurrence
    ``C(n-1, k+1) = C(n-1, k) * (n-1-k) / (k+1)`` in float64; the power
    factors combine in log space so extreme tails underflow to 0 harmlessly
    instead of poisoning the whole vector.
    """
    k = np.arange(n, dtype=float)
    if n > 1:
        j = np.arange(n - 1, dtype=float)
        coeff = np.concatenate(([1.0], np.cumprod((n - 1 - j) / (j + 1))))
    else:
        coeff = np.ones(1)
    log_pow = np.outer(n - k, np.log(e_values)) + np.outer(k, np.log1p(-e_values))
    return coeff[:, None] * np.exp(log_pow)


def expected_profit_group_sum(E, group, w: float, params: MarketParams, cost: CostModel, link: ScoreLink):
    """Expected profit of one member, as the explicit outcome enumeration.

    Sums ``C(n-1,k) e^{n-k} (1-e)^k * [pYh - w - k(w - pYl)/(n-k)]`` over
    ``k = 0..n-1`` and subtracts the effort cost. Supported for group sizes
    up to 1000. Agrees with `expected_profit_group` to float accuracy; kept
    separate so the closed form has an independent check.
    """
    group = _as_group(group)
    if group.n > MAX_ENUM_GROUP:
        raise DomainError(f"enumeration supports n <= {MAX_ENUM_GROUP}")
    if w <= 0:
        raise DomainError("w must be > 0")
    e = success_probability(E, link)
    scalar = np.ndim(e) == 0
    ev = np.atleast_1d(np.asarray(e, dtype=float))
    profits = _success_profits(group.n, w, params)
    gross = np.empty_like(ev)
    interior = (ev > 0.0) & (ev < 1.0)
    if np.any(interior):
        gross[interior] = profits @ _member_success_pmf(ev[interior], group.n)
    gross[ev == 0.0] = 0.0
    gross[ev == 1.0] = profits[0]
    out = gross - cost.effort_cost(ev)
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# profit distributions
# ----------------------------------------------------------------------


def profit_distribution_pair(e: float, w: float, params: MarketParams) -> ProfitDistribution:
    """Four-outcome profit distribution for a member of a two-member group.

    Outcomes in order: both succeed; self succeeds, peer fails; self fails,
    peer succeeds; both fail. Limited liability zeroes the last two.
    """
    e = _require_finite("e", e)
    _require_in("e", e, 0.0, 1.0)
    if w <= 0:
        raise DomainError("w must be > 0")
    a = params.high_revenue - w
    both = params.high_revenue + params.low_revenue - 2.0 * w
    return ProfitDistribution(
        [
            (e * e, a),
            (e * (1.0 - e), both),
            ((1.0 - e) * e, 0.0),
            ((1.0 - e) * (1.0 - e), 0.0),
        ]
    )


def profit_distribution_group(e: float, group, w: float, params: MarketParams) -> ProfitDistribution:
    """Per-member profit distribution in an ``n``-member group.

    ``n`` outcomes for "self succeeds with k = 0..n-1 failing peers" plus a
    single mass ``1 - e`` on profit 0 for own failure.
    """
    group = _as_group(group)
    if group.n > MAX_ENUM_GROUP:
        raise DomainError(f"enumeration supports n <= {MAX_ENUM_GROUP}")
    e = _require_finite("e", e)
    _require_in("e", e, 0.0, 1.0)
    if w <= 0:
        raise DomainError("w must be > 0")
    profits = _success_profits(group.n, w, params)
    if e == 0.0:
        pmf = np.zeros(group.n)
    elif e == 1.0:
        pmf = np.zeros(group.n)
        pmf[0] = 1.0
    else:
        pmf = _member_success_pmf(np.array([e]), group.n)[:, 0]
    outcomes = list(zip(pmf, profits))
    outcomes.append((1.0 - e, 0.0))
    return ProfitDistribution(outcomes)
