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

Group sizes and repayments are plain numbers; `_group_size` is the one
check of ``n`` and `_repayment` the one check of ``w``. A pair is the
``n = 2`` case of the group formulas. `_outcomes` is the one enumeration
of a member's n + 1 outcomes, which `expected_profit_group_sum` and
`profit_distribution_group` both read, and `_profit` the one closed form
of a member's expected profit. Only `profit_distribution_pair` stays
pair-specific: its four-outcome table is the tests' scalar reference for
the group enumeration.

All monetary quantities share one currency unit. Functions broadcast over
numpy arrays wherever a formula is closed-form in ``e`` or ``E``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _raise_first

__all__ = [
    "MarketParams",
    "ScoreLink",
    "CostModel",
    "ProfitDistribution",
    "Moments",
    "success_probability",
    "binding_repayment",
    "loan_ceiling_affordability",
    "loan_ceiling_incentive",
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

# Largest outcome profit magnitude, 2**480. Its square times 2**62 draws
# stays finite, so every sum of squared profits does.
PROFIT_BOUND = 2.0 ** 480


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _as_float(value):
    """``value`` as a float, or as a float array if it has dimensions; a
    Python float or int takes no numpy call."""
    if isinstance(value, (float, int)):
        return float(value)
    return np.asarray(value, dtype=float) if np.ndim(value) else float(value)


def _require_in(name: str, value, lo: float, hi: float):
    """Check that ``value``, or each entry of it, lies in [lo, hi] (NaN does
    not); returns it as a float or a float array, which names its cell. A
    scalar is checked without numpy."""
    value = _as_float(value)
    bad = (not lo <= value <= hi if isinstance(value, float)
           else np.logical_not((value >= lo) & (value <= hi)))
    _raise_first(bad, DomainError, f"{name} must lie in [{lo}, {hi}]")
    return value


@dataclass(frozen=True)
class MarketParams:
    """Market environment shared by every borrower in a group.

    Attributes
    ----------
    p : float
        Output price, > 0, with revenue ``p*y_high + p*y_low <= PROFIT_BOUND``.
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
        revenue = float(self.p) * float(self.y_high) + float(self.p) * float(self.y_low)
        if revenue > PROFIT_BOUND:
            raise DomainError(f"revenue p*y_high + p*y_low={revenue!r} exceeds 2**480")

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
        _require_in("b", self.b, 0, 1)
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


def _group_size(n, *, real: bool = False):
    """Check a group size ``n >= 1``, or a list or array of them, and return it.

    The enumeration, break-even and simulation routes need a whole number of
    members: an int or numpy integer, never a bool. A list is checked for
    "an integer" and then for ">= 1", each over every cell, and returned as
    a list of ints. With ``real=True`` any finite ``n >= 1``, or an array of
    them, is returned as a float or float array, for the first-order
    condition routes, which are analytic in ``n``. A scalar is checked
    without numpy and names no cell.
    """
    if real:
        n = _as_float(n)
        bad = (not 1.0 <= n < math.inf if isinstance(n, float)
               else np.logical_not(np.isfinite(n) & (n >= 1.0)))
        _raise_first(bad, DomainError, "group size n must be >= 1")
        return n
    if isinstance(n, list):
        _raise_first([isinstance(m, bool) or not isinstance(m, (int, np.integer)) for m in n],
                     DomainError, "group size n must be an integer")
        _raise_first([m < 1 for m in n], DomainError, "group size n must be >= 1")
        return [int(m) for m in n]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError("group size n must be an integer")
    if n < 1:
        raise DomainError("group size n must be >= 1")
    return int(n)


def _repayment(w):
    """Check a repayment ``w``, or one per cell: finite, then > 0; returns
    it as a float, or as a float array. A scalar is checked without numpy."""
    w = _as_float(w)
    bad = not math.isfinite(w) if isinstance(w, float) else ~np.isfinite(w)
    _raise_first(bad, DomainError, "w must be finite, got {!r}", w)
    _raise_first(w <= 0.0, DomainError, "w must be > 0")
    return w


class ProfitDistribution:
    """Discrete per-member profit distribution.

    Outcome ``i`` has probability ``probabilities[i]`` and profit
    ``profits[i]``; both are read-only 1-d float arrays of one length, with
    at least one outcome. Probabilities must be non-negative up to float
    dust (which is clipped to 0) and sum to 1 within ``PROB_SUM_TOL``;
    profits must lie within ``PROFIT_BOUND`` in magnitude.
    """

    __slots__ = ("probabilities", "profits")

    def __init__(self, probabilities, profits):
        p = np.asarray(probabilities, dtype=float)
        x = np.array(profits, dtype=float)
        if p.ndim != 1 or p.shape != x.shape:
            raise DomainError("probabilities and profits must be 1-d arrays "
                              "of the same length")
        if not p.size:
            raise DomainError("a profit distribution needs at least one outcome")
        ok = np.isfinite(p) & (p >= -1e-15)
        if not ok.all():
            raise DomainError(f"invalid outcome probability {float(p[~ok][0])!r}")
        ok = np.abs(x) <= PROFIT_BOUND
        if not ok.all():
            raise DomainError(f"invalid outcome profit {float(x[~ok][0])!r}")
        p = np.maximum(p, 0.0)
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"outcome probabilities sum to {total!r}, expected 1")
        p.flags.writeable = x.flags.writeable = False
        self.probabilities = p
        self.profits = x

    def mean(self) -> float:
        return float(self.probabilities @ self.profits)

    def variance(self) -> float:
        """Population variance, computed around the mean for stability."""
        p = self.probabilities
        x = self.profits
        m = p @ x
        return float(p @ (x - m) ** 2)

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class Moments:
    """Mean and variance of a member's repayment-stage profit."""

    mean: float
    variance: float

    def __post_init__(self):
        _require_finite("mean", self.mean)
        _require_finite("variance", self.variance)
        if self.variance < 0:
            raise DomainError("variance must be >= 0")


# ----------------------------------------------------------------------
# score link and contract terms
# ----------------------------------------------------------------------


def success_probability(E, link: ScoreLink):
    """Map score(s) ``E`` in [0, 100] to success probability ``e = k*E + b``.

    The result is clipped into [0, 1] to absorb float dust at the cap (the
    link invariants already confine the exact value to [0, 1]). A scalar
    ``E`` gives a float, clipped without numpy.
    """
    E = _require_in("score E", E, 0.0, 100.0)
    if isinstance(E, float):
        return float(min(max(link.k * E + link.b, 0.0), 1.0))
    return np.clip(link.k * E + link.b, 0.0, 1.0)


def _coverage(e, n):
    """``1 - (1-e)^n``, the chance that not every member fails.

    Computed as ``-expm1(n log1p(-e))``, without the cancellation that the
    direct form suffers at tiny ``e``; ``e = 1`` gives 1. Every input goes
    through numpy's loop on one contiguous 1-d array, since its scalar
    loop and `math` can differ from it in the last bit; a float gives a
    float and an array the shape of ``e`` broadcast with ``n``.
    """
    e_all, n_all = np.broadcast_arrays(np.asarray(e, dtype=float), n)
    with np.errstate(divide="ignore"):
        out = -np.expm1(n_all.ravel() * np.log1p(-e_all.ravel()))
    return float(out[0]) if isinstance(e, float) else out.reshape(e_all.shape)


def binding_repayment(e: float, n: int, params: MarketParams) -> float:
    """Smallest repayment making the financier whole in expectation.

    Joint liability means the financier collects ``n*w`` unless every member
    fails, so the break-even condition per member is
    ``w * (1 - (1-e)^n) = L * (1 + epsilon)``. Expected borrower profit falls
    in ``w``, hence the binding value is the one a competitive contract uses.

    Raises DomainError at ``e = 0`` (no repayment level can break even) and
    where ``w`` is not finite (``e`` so small that the coverage is
    subnormal).
    """
    n = _group_size(n)
    e = _require_in("e", float(e), 0.0, 1.0)
    if e == 0.0:
        raise DomainError("binding repayment is undefined at e = 0")
    return _require_finite("w", params.loan * (1.0 + params.epsilon) / _coverage(e, n))


def loan_ceiling_affordability(e, params: MarketParams):
    """Largest loan a two-member group can repay out of pooled revenue.

    ``L1 = (p*y_high + p*y_low) / (2*(1+epsilon)) * (1 - (1-e)^2)``
    """
    e = _require_in("e", e, 0.0, 1.0)
    pooled = params.high_revenue + params.low_revenue
    return pooled / (2.0 * (1.0 + params.epsilon)) * _coverage(e, 2)


def loan_ceiling_incentive(e, params: MarketParams):
    """Largest loan under which repaying beats strategic default.

    A member tempted to default weighs keeping ``p*y_low`` today against the
    discounted value of future credit access, which yields
    ``L2 = p*y_low / (2*(1+epsilon)/(1-(1-e)^2) - delta)``.
    The denominator is positive for every ``delta < 1``. It is evaluated
    cleared of the fraction, ``p*y_low*s / (2*(1+epsilon) - delta*s)`` with
    ``s = 1-(1-e)^2``, which does not overflow at e below about 1e-308.
    """
    e = _require_in("e", e, 0.0, 1.0)
    _raise_first(e == 0.0, DomainError, "incentive ceiling is undefined at e = 0")
    coverage = _coverage(e, 2)
    return (params.low_revenue * coverage
            / (2.0 * (1.0 + params.epsilon) - params.delta * coverage))


# ----------------------------------------------------------------------
# expected profits
# ----------------------------------------------------------------------


def expected_profit_group(E, n: int, w: float, params: MarketParams, cost: CostModel, link: ScoreLink):
    """Expected profit of one member of an ``n``-member group, closed form.

    The binomial enumeration over peer failures collapses to

    ``pi = e*pYh - w*(1-(1-e)^n) + pYl*((1-e) - (1-e)^n) - c e^2 / 2``

    where ``(1-e) - (1-e)^n`` is the coverage `_coverage` less ``e``
    (`expected_profit_group_sum` keeps the explicit sum as a cross-check).
    A pair is ``n = 2``: ``e^2 (pYh - w) + e(1-e) (pYh + pYl - 2w) - c e^2/2``.
    """
    n = _group_size(n)
    w = _repayment(w)
    e = success_probability(E, link)
    coverage = _coverage(e, n)
    return _profit(e, coverage, w * coverage, params, cost)


def _profit(e, coverage, repaid, params: MarketParams, cost: CostModel):
    """A member's expected profit net of effort, ``e*pYh - repaid +
    pYl*(coverage - e) - c e^2/2``, where ``coverage`` is the chance
    ``1 - (1-e)^n`` that the group repays and ``repaid`` the member's
    expected repayment; no range checks, so it broadcasts over ``e``."""
    return (e * params.high_revenue - repaid
            + params.low_revenue * (coverage - e) - cost.effort_cost(e))


def _success_profits(n: int, w, params: MarketParams) -> np.ndarray:
    """Member profit on own success with exactly k of n-1 peers failing,
    k = 0..n-1; a 1-d ``w`` gives one row per cell.

    The k failing peers each contribute ``p*y_low`` toward their repayment
    ``w``; the ``n - k`` successful members split the shortfall equally.
    A huge ``w`` gives infinite profits without a warning; each caller
    passes the rows' largest magnitude to `_check_profit_bound`.
    """
    k = np.arange(n, dtype=float)
    col = np.asarray(w)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        return params.high_revenue - col - k * (col - params.low_revenue) / (n - k)


def _check_profit_bound(largest, w) -> None:
    """Raise DomainError naming ``w`` unless ``largest <= PROFIT_BOUND``;
    with one value per cell, the first cell that fails is named."""
    _raise_first(np.logical_not(largest <= PROFIT_BOUND), DomainError,
                 "the outcome profits overflow the float range at w={!r}", w)


def _enumerable(n) -> int:
    """`_group_size` for the enumeration, which stops at ``MAX_ENUM_GROUP``."""
    if _group_size(n) > MAX_ENUM_GROUP:
        raise DomainError(f"enumeration supports n <= {MAX_ENUM_GROUP}")
    return int(n)


def _outcomes(e, n: int, w: float, params: MarketParams):
    """A member's ``n + 1`` outcomes as ``(probabilities, profits)``.

    Row ``k < n``: self succeeds and k of the n-1 peers fail, with
    probability ``C(n-1,k) e^{n-k} (1-e)^k`` and the `_success_profits`
    profit; the last row is own failure, ``1 - e`` on profit 0.
    ``probabilities`` has shape ``(n + 1,) + shape(e)``. Checks ``n`` (at
    most ``MAX_ENUM_GROUP``), ``e``, ``w`` and the profits' bound, in that
    order. The binomial coefficients come from the ratio recurrence
    ``C(n-1, k+1) = C(n-1, k) (n-1-k) / (k+1)``; the powers combine in log
    space, so extreme tails underflow to 0 instead of poisoning the row,
    and ``e = 1`` puts all mass on ``k = 0``.
    """
    n = _enumerable(n)
    e = np.asarray(_require_in("e", e, 0.0, 1.0), dtype=float)
    w = _repayment(w)
    profits = np.append(_success_profits(n, w, params), 0.0)
    _check_profit_bound(np.abs(profits).max(), w)
    k = np.arange(n, dtype=float).reshape((n,) + (1,) * e.ndim)
    j = np.arange(n - 1, dtype=float)
    coeff = np.concatenate(([1.0], np.cumprod((n - 1 - j) / (j + 1))))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pow = (n - k) * np.log(e) + k * np.log1p(-e)
    success = np.where(e == 1.0, k == 0.0, coeff.reshape(k.shape) * np.exp(log_pow))
    return np.concatenate((success, (1.0 - e)[None])), profits


def expected_profit_group_sum(E, n: int, w: float, params: MarketParams, cost: CostModel, link: ScoreLink):
    """Expected profit of one member, as the explicit outcome enumeration.

    The mean of the `_outcomes` table, ``sum_k C(n-1,k) e^{n-k} (1-e)^k *
    [pYh - w - k(w - pYl)/(n-k)]``, less the effort cost. Supported for
    group sizes up to 1000. Agrees with `expected_profit_group` to float
    accuracy; kept separate so the closed form has an independent check.
    Checks ``n``, ``w`` and the score in `expected_profit_group`'s order.
    """
    n, w = _enumerable(n), _repayment(w)
    e = success_probability(E, link)
    probabilities, profits = _outcomes(e, n, w, params)
    out = np.tensordot(profits, probabilities, 1) - cost.effort_cost(e)
    return float(out) if np.ndim(e) == 0 else out


# ----------------------------------------------------------------------
# profit distributions
# ----------------------------------------------------------------------


def profit_distribution_pair(e: float, w: float, params: MarketParams) -> ProfitDistribution:
    """Four-outcome profit distribution for a member of a two-member group.

    Outcomes in order: both succeed; self succeeds, peer fails; self fails,
    peer succeeds; both fail. Limited liability zeroes the last two; a ``w``
    that puts a profit beyond ``PROFIT_BOUND`` raises DomainError.
    """
    e = _require_in("e", float(e), 0.0, 1.0)
    w = _repayment(w)
    a = params.high_revenue - w
    both = params.high_revenue + params.low_revenue - 2.0 * w
    _check_profit_bound(max(abs(a), abs(both)), w)
    return ProfitDistribution(
        [e * e, e * (1.0 - e), (1.0 - e) * e, (1.0 - e) * (1.0 - e)],
        [a, both, 0.0, 0.0],
    )


def profit_distribution_group(e: float, n: int, w: float, params: MarketParams) -> ProfitDistribution:
    """Per-member profit distribution in an ``n``-member group.

    ``n`` outcomes for "self succeeds with k = 0..n-1 failing peers" plus a
    single mass ``1 - e`` on profit 0 for own failure (`_outcomes`).
    """
    return ProfitDistribution(*_outcomes(float(e), n, w, params))
