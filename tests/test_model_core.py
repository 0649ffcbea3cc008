"""Tests for the contract primitives: the score-to-probability link, the
break-even repayment obligation, the two loan ceilings, expected member
profit in pairs and groups, and the exact profit distributions.

Expected values quoted in docstrings are hand computations from the model
formulas; each test states the arithmetic it pins down.
"""

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eselend import (
    CostModel,
    DomainError,
    MarketParams,
    ProfitDistribution,
    ScoreLink,
    SimConfig,
    binding_repayment,
    expected_profit_group,
    expected_profit_group_sum,
    group_objective,
    loan_ceiling_affordability,
    loan_ceiling_incentive,
    mv_utility,
    optimal_ese_mv_batch,
    profit_distribution_group,
    profit_distribution_pair,
    simulate_member_profit_batch,
    success_probability,
)
from eselend import errors, model_core
from eselend.model_core import PROFIT_BOUND, _coverage

BASE = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                    epsilon=0.05, delta=0.9)


def _random_params(rng):
    p = rng.uniform(0.2, 3.0)
    y_low = rng.uniform(50.0, 800.0)
    y_high = y_low + rng.uniform(50.0, 1500.0)
    return MarketParams(p=p, y_high=y_high, y_low=y_low,
                        loan=rng.uniform(10.0, 400.0),
                        epsilon=rng.uniform(0.0, 0.2),
                        delta=rng.uniform(0.05, 0.95))


# ----------------------------------------------------------------------
# parameter containers
# ----------------------------------------------------------------------


class TestParameterValidation:
    """Constructors reject out-of-domain inputs with DomainError."""

    def test_market_params_accepts_base_case(self):
        """The reference calibration constructs cleanly."""
        assert BASE.high_revenue == 1000.0
        assert BASE.low_revenue == 500.0

    def test_market_params_rejects_bad_values(self):
        """Nonpositive price, disordered yields, bad epsilon or delta fail."""
        with pytest.raises(DomainError):
            MarketParams(p=0.0, y_high=1000.0, y_low=500.0, loan=100.0,
                         epsilon=0.05, delta=0.9)
        with pytest.raises(DomainError):
            MarketParams(p=1.0, y_high=500.0, y_low=500.0, loan=100.0,
                         epsilon=0.05, delta=0.9)
        with pytest.raises(DomainError):
            MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=0.0,
                         epsilon=0.05, delta=0.9)
        with pytest.raises(DomainError):
            MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                         epsilon=-0.01, delta=0.9)
        with pytest.raises(DomainError):
            MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                         epsilon=0.05, delta=1.0)
        with pytest.raises(DomainError):
            MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                         epsilon=0.05, delta=0.0)

    def test_score_link_cap(self):
        """The link must keep k*100 + b inside [0, 1]."""
        ScoreLink(k=0.007, b=0.3)
        with pytest.raises(DomainError):
            ScoreLink(k=0.009, b=0.15)
        with pytest.raises(DomainError):
            ScoreLink(k=-0.001, b=0.5)
        with pytest.raises(DomainError):
            ScoreLink(k=0.005, b=1.2)

    def test_cost_model_requires_positive_scale(self):
        """c = 0 would make every effort free, so it is rejected."""
        with pytest.raises(DomainError):
            CostModel(c=0.0)
        with pytest.raises(DomainError):
            CostModel(c=-5.0)

    def test_group_spec_requires_integer_members(self):
        """The enumeration routes take a whole number of at least one
        member and at most MAX_ENUM_GROUP = 1000: n = 2.5, n = True, n = 0
        and n = 1001 are rejected, while a numpy integer is accepted."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        for n, match in ((2.5, "group size n must be"),
                         (True, "group size n must be"),
                         (0, "group size n must be"),
                         (1001, "^enumeration supports n <= 1000$")):
            with pytest.raises(DomainError, match=match):
                profit_distribution_group(0.5, n, 150.0, BASE)
            with pytest.raises(DomainError, match=match):
                expected_profit_group_sum(50.0, n, 150.0, BASE, cost, link)
        assert (profit_distribution_group(0.5, np.int64(3), 150.0, BASE).mean()
                == profit_distribution_group(0.5, 3, 150.0, BASE).mean())

    def test_cost_model_quadratic(self):
        """effort_cost(e) = c/2 * e^2 and marginal_cost(e) = c*e."""
        cost = CostModel(c=1000.0)
        np.testing.assert_allclose(cost.effort_cost(0.5), 125.0, atol=1e-12)
        np.testing.assert_allclose(cost.marginal_cost(0.5), 500.0, atol=1e-12)
        np.testing.assert_allclose(cost.effort_cost(0.0), 0.0, atol=0.0)


# ----------------------------------------------------------------------
# score-to-probability link
# ----------------------------------------------------------------------


class TestSuccessProbability:
    """e = k*E + b maps the score in [0, 100] to a probability."""

    def test_midpoint(self):
        """k=0.01, b=0: a score of 50 gives e = 0.5."""
        link = ScoreLink(k=0.01, b=0.0)
        np.testing.assert_allclose(success_probability(50.0, link), 0.5,
                                   atol=1e-15)

    def test_saturates_at_top_score(self):
        """k=0.007, b=0.3: a score of 100 gives e = 1.0 exactly."""
        link = ScoreLink(k=0.007, b=0.3)
        np.testing.assert_allclose(success_probability(100.0, link), 1.0,
                                   atol=1e-15)

    def test_baseline_at_zero_score(self):
        """A zero score returns the baseline probability b."""
        link = ScoreLink(k=0.007, b=0.3)
        np.testing.assert_allclose(success_probability(0.0, link), 0.3,
                                   atol=0.0)

    def test_float_overshoot_is_clipped(self):
        """k=0.0057, b=0.43 overshoots 1.0 by one ulp at E=100; the result
        is clipped back to exactly 1.0."""
        link = ScoreLink(k=0.0057, b=0.43)
        assert success_probability(100.0, link) == 1.0

    def test_vectorised_scores(self):
        """Array scores map elementwise."""
        link = ScoreLink(k=0.01, b=0.0)
        out = success_probability(np.array([0.0, 25.0, 100.0]), link)
        np.testing.assert_allclose(out, [0.0, 0.25, 1.0], atol=1e-15)

    def test_rejects_scores_outside_range(self):
        """Scores below 0 or above 100 are domain errors, not clipped."""
        link = ScoreLink(k=0.01, b=0.0)
        with pytest.raises(DomainError):
            success_probability(-1.0, link)
        with pytest.raises(DomainError):
            success_probability(100.5, link)


class TestScalarChecks:
    """A Python float or int is range-checked with plain comparisons, and
    a failing scalar gets the message an array entry gets, naming no cell."""

    def test_in_range_scalar_makes_no_numpy_call(self, monkeypatch):
        """`_require_in`, `_repayment`, `_group_size(real=True)` and a
        scalar `success_probability` check and return a Python float or
        int with plain comparisons."""
        link = ScoreLink(k=0.01, b=0.0)

        def numpy_called(*args, **kwargs):
            raise AssertionError("a scalar check called numpy")

        for name in ("asarray", "ndim", "logical_not", "flatnonzero", "broadcast_to",
                     "isfinite", "clip"):
            monkeypatch.setattr(np, name, numpy_called)
        for value in (0.5, 0, 1, True, np.float64(0.25)):
            checked = model_core._require_in("e", value, 0.0, 1.0)
            assert type(checked) is float and checked == value
        for check, value in ((model_core._repayment, 1.5), (model_core._repayment, 2),
                             (lambda n: model_core._group_size(n, real=True), 2.0),
                             (lambda n: model_core._group_size(n, real=True), 3),
                             (lambda E: model_core.success_probability(E, link), 50.0)):
            checked = check(value)
            assert type(checked) is float
        assert model_core.success_probability(50.0, link) == 0.5
        errors._raise_first(False, DomainError, "never raised")
        errors._raise_first(np.False_, DomainError, "never raised")

    @pytest.mark.parametrize("E, k, b", [
        (0.0, -0.0, -0.0), (50.0, -0.0, -0.0), (0.0, 0.0, -0.0), (0.0, 0.01, 0.0),
        (100.0, 0.01, 0.0), (100.0, 0.01 + 1e-12, 0.0), (100.0, 0.0, 1.0),
        (33.3, 0.007, 0.3), (1e-300, 0.01, 0.0), (100, 0.003, 0.7)])
    def test_scalar_score_maps_as_an_array_entry(self, E, k, b):
        """A scalar score gives the bits of the array route's entry: -0.0
        stays -0.0, and a link at its slack clips to 1."""
        link = ScoreLink(k=k, b=b)
        scalar = model_core.success_probability(E, link)
        entry = float(model_core.success_probability(np.array([E]), link)[0])
        assert type(scalar) is float
        assert struct.pack("<d", scalar) == struct.pack("<d", entry)

    @pytest.mark.parametrize("n", [0.5, 0, -1, math.nan, math.inf, -math.inf,
                                   np.float64(math.nan), np.float32(0.25), np.int64(0)])
    def test_out_of_range_group_size_fails_as_an_array_entry(self, n):
        with pytest.raises(DomainError) as scalar:
            model_core._group_size(n, real=True)
        with pytest.raises(DomainError) as array:
            model_core._group_size(np.array([2.0, n]), real=True)
        assert str(scalar.value) == str(array.value) == "group size n must be >= 1"
        assert (scalar.value.cell, array.value.cell) == (None, 1)

    @pytest.mark.parametrize("value", [1.5, 2, -1, np.float64(-0.5), math.nan,
                                       np.float64(math.nan), np.float32(2.0),
                                       np.int64(3)])
    def test_out_of_range_scalar_fails_as_an_array_entry(self, value):
        with pytest.raises(DomainError) as scalar:
            model_core._require_in("e", value, 0.0, 1.0)
        with pytest.raises(DomainError) as array:
            model_core._require_in("e", np.array([0.5, value]), 0.0, 1.0)
        assert str(scalar.value) == str(array.value) == "e must lie in [0.0, 1.0]"
        assert (scalar.value.cell, array.value.cell) == (None, 1)

    @pytest.mark.parametrize("w", [math.nan, -math.inf, np.float64(math.inf), 0.0, -0.0,
                                   -1, np.float32(-2.0)])
    def test_scalar_message_formats_its_value(self, w):
        with pytest.raises(DomainError) as scalar:
            model_core._repayment(w)
        with pytest.raises(DomainError) as array:
            model_core._repayment(np.array([1.0, w]))
        message = (f"w must be finite, got {float(w)!r}" if not math.isfinite(w)
                   else "w must be > 0")
        assert str(scalar.value) == str(array.value) == message
        assert (scalar.value.cell, array.value.cell) == (None, 1)
        if not math.isfinite(w):
            with pytest.raises(DomainError) as direct:
                errors._raise_first(np.True_, DomainError, "w must be finite, got {!r}",
                                    np.float64(w))
            assert str(direct.value) == str(scalar.value)


# ----------------------------------------------------------------------
# break-even repayment
# ----------------------------------------------------------------------


class TestBindingRepayment:
    """w is the smallest obligation that lets the lender break even."""

    def test_certain_success_pair(self):
        """e=1, n=2, L=100, eps=0.05: repayment is certain, so
        w = 100 * 1.05 = 105."""
        w = binding_repayment(1.0, 2, BASE)
        assert type(w) is float
        np.testing.assert_allclose(w, 105.0, atol=1e-12)

    def test_half_success_pair(self):
        """e=0.5, n=2, eps=0: the group repays with probability 0.75, so
        w = 100 / 0.75 = 133.333..."""
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.0, delta=0.9)
        np.testing.assert_allclose(binding_repayment(0.5, 2, params),
                                   400.0 / 3.0, atol=1e-10)

    def test_single_borrower(self):
        """e=0.5, n=1, eps=0: no partner to fall back on, w = 100/0.5 = 200."""
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.0, delta=0.9)
        np.testing.assert_allclose(binding_repayment(0.5, 1, params), 200.0,
                                   atol=1e-12)

    def test_break_even_identity(self):
        """w * (1 - (1-e)^n) recovers L*(1+eps) for random draws."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = _random_params(rng)
            e = rng.uniform(0.05, 1.0)
            n = int(rng.integers(1, 30))
            lhs = binding_repayment(e, n, params) * (1.0 - (1.0 - e) ** n)
            rhs = params.loan * (1.0 + params.epsilon)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_undefined_at_zero_success(self):
        """e=0 means nobody ever repays; no finite w breaks even."""
        with pytest.raises(DomainError):
            binding_repayment(0.0, 2, BASE)

    def test_overflowing_repayment_rejected(self):
        """e=1e-320 leaves a subnormal coverage of 2e-320, and
        105 / 2e-320 overflows: w is not finite, a domain error."""
        with pytest.raises(DomainError, match="w must be finite"):
            binding_repayment(1e-320, 2, BASE)

    def test_larger_groups_lower_w(self):
        """More co-signers raise the repayment probability, so w falls."""
        w_values = [binding_repayment(0.3, n, BASE) for n in (1, 2, 5, 20)]
        assert all(a > b for a, b in zip(w_values, w_values[1:]))


# ----------------------------------------------------------------------
# loan ceilings
# ----------------------------------------------------------------------


class TestLoanCeilings:
    """The affordability ceiling L1 and the incentive ceiling L2."""

    def test_affordability_certain_success(self):
        """e=1, p=1, yields 1000/500, eps=0: L1 = (1000+500)/2 = 750."""
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.0, delta=0.9)
        np.testing.assert_allclose(loan_ceiling_affordability(1.0, params),
                                   750.0, atol=1e-12)

    def test_affordability_half_success(self):
        """e=0.5 scales the pooled ceiling by 1-(0.5)^2 = 0.75: 562.5."""
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.0, delta=0.9)
        np.testing.assert_allclose(loan_ceiling_affordability(0.5, params),
                                   562.5, atol=1e-12)

    def test_affordability_with_interest(self):
        """eps=0.05 divides the previous case by 1.05: 535.714285..."""
        np.testing.assert_allclose(loan_ceiling_affordability(0.5, BASE),
                                   562.5 / 1.05, atol=1e-10)

    def test_incentive_certain_success_no_discounting(self):
        """e=1, p=1, y_low=500, eps=0, delta -> 0: L2 -> 500/2 = 250."""
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.0, delta=1e-12)
        np.testing.assert_allclose(loan_ceiling_incentive(1.0, params),
                                   250.0, atol=1e-9)

    def test_incentive_reference_point(self):
        """e=0.5, delta=0.9, eps=0: L2 = 500/(2/0.75 - 0.9) = 283.0188..."""
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.0, delta=0.9)
        np.testing.assert_allclose(loan_ceiling_incentive(0.5, params),
                                   500.0 / (2.0 / 0.75 - 0.9), atol=1e-10)
        np.testing.assert_allclose(loan_ceiling_incentive(0.5, params),
                                   283.0188679245283, atol=1e-10)

    def test_incentive_no_future_value(self):
        """delta -> 0 removes the future-access motive: L2 -> 500*0.75/2
        = 187.5 at e=0.5."""
        params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                              epsilon=0.0, delta=1e-12)
        np.testing.assert_allclose(loan_ceiling_incentive(0.5, params),
                                   187.5, atol=1e-9)

    def test_incentive_two_algebraic_forms(self):
        """The nested-fraction form equals the cleared product form
        p*y_low*s / (2*(1+eps) - delta*s) with s = 2e - e^2."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            params = _random_params(rng)
            e = rng.uniform(0.01, 1.0)
            s = 2.0 * e - e * e
            cleared = (params.low_revenue * s
                       / (2.0 * (1.0 + params.epsilon) - params.delta * s))
            np.testing.assert_allclose(loan_ceiling_incentive(e, params),
                                       cleared, rtol=1e-12)

    def test_incentive_undefined_at_zero(self):
        """e=0 gives zero repayment coverage; the ceiling is undefined."""
        with pytest.raises(DomainError):
            loan_ceiling_incentive(0.0, BASE)

    def test_affordability_zero_at_zero(self):
        """e=0 means no revenue to repay from, so L1 = 0."""
        assert loan_ceiling_affordability(0.0, BASE) == 0.0

    def test_vectorised_grids(self):
        """Both ceilings broadcast over an e grid."""
        grid = np.linspace(0.1, 1.0, 10)
        l1 = loan_ceiling_affordability(grid, BASE)
        l2 = loan_ceiling_incentive(grid, BASE)
        assert l1.shape == grid.shape
        assert l2.shape == grid.shape
        assert np.all(l1 > l2)


class TestTinySuccessCoverage:
    """The coverage 1-(1-e)^n is computed once, as -expm1(n*log1p(-e)), for
    binding_repayment, the pair ceilings and the closed-form group profit.
    The direct form loses digits as e shrinks: at e=1e-12, n=2 its
    relative error is 2.2e-5, and below e=1.1e-16 it is 0."""

    E = 1e-12

    def _exact_coverage(self, n):
        return 1 - (1 - Fraction(self.E)) ** n

    def test_binding_repayment(self):
        """w = L(1+eps)/coverage to 1e-15 relative at e=1e-12, n=2."""
        exact = (Fraction(BASE.loan) * (1 + Fraction(BASE.epsilon))
                 / self._exact_coverage(2))
        w = binding_repayment(self.E, 2, BASE)
        assert abs(Fraction(w) / exact - 1) <= 1e-15

    def test_group_profit_matches_enumeration(self):
        """The closed-form group profit equals the binomial sum within
        1e-12 relative for e down to 1e-12; the direct coverage left a
        gap of 2.2e-5 there."""
        for e in (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0):
            link = ScoreLink(k=0.0, b=e)
            for n in (2, 3, 10):
                closed = expected_profit_group(0.0, n, 150.0, BASE, _COST, link)
                summed = expected_profit_group_sum(0.0, n, 150.0, BASE, _COST, link)
                assert abs(closed - summed) <= 1e-12 * abs(summed)

    def test_ceilings(self):
        """Both ceilings to 1e-15 relative at e=1e-12."""
        s = self._exact_coverage(2)
        two_r = 2 * (1 + Fraction(BASE.epsilon))
        l1 = (Fraction(BASE.high_revenue) + Fraction(BASE.low_revenue)) / two_r * s
        l2 = Fraction(BASE.low_revenue) / (two_r / s - Fraction(BASE.delta))
        assert abs(Fraction(loan_ceiling_affordability(self.E, BASE)) / l1 - 1) <= 1e-15
        assert abs(Fraction(loan_ceiling_incentive(self.E, BASE)) / l2 - 1) <= 1e-15

    def test_incentive_ceiling_below_overflow(self):
        """At e=1e-310, 2(1+eps)/coverage overflows, so the ceiling is
        evaluated cleared of that fraction: 4.76e-308 to 1e-15 relative,
        with no floating-point warning."""
        e = 1e-310
        s = 1 - (1 - Fraction(e)) ** 2
        exact = (Fraction(BASE.low_revenue) * s
                 / (2 * (1 + Fraction(BASE.epsilon)) - Fraction(BASE.delta) * s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l2 = loan_ceiling_incentive(e, BASE)
        assert abs(Fraction(l2) / exact - 1) <= 1e-15
        np.testing.assert_allclose(l2, 4.761904761904762e-308, rtol=1e-12)

    @given(e=st.one_of(st.floats(0.0, 1.0),
                       st.floats(-300.0, 0.0).map(lambda x: 10.0 ** x)),
           n=st.sampled_from([1, 2, 3, 10, 1000]))
    @example(e=0.7, n=2)
    @settings(max_examples=500)
    def test_one_route_for_floats_and_arrays(self, e, n):
        """A float, a 0-d array and an element of a longer array give the
        same bits, so `binding_repayment` and the scalar ceilings agree
        with the batch engines. `math` gives 0.9099999999999999 at e=0.7,
        n=2, where numpy's array loop gives 0.91."""
        row = np.linspace(0.0, 1.0, 17)
        row[5] = e
        got = [_coverage(e, n), _coverage(np.array(e), n), _coverage(row, n)[5]]
        assert type(got[0]) is float and np.shape(got[1]) == ()
        assert len({np.float64(x).tobytes() for x in got}) == 1


# ----------------------------------------------------------------------
# expected profits
# ----------------------------------------------------------------------


class TestExpectedProfitPair:
    """Expected profit of one member of a two-person group."""

    def test_reference_value(self):
        """E=50, w=150, c=1000, k=0.01, b=0: e=0.5, so
        0.25*850 + 0.25*1200 + 0.5*0 - 125 = 387.5."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        np.testing.assert_allclose(
            expected_profit_group(50.0, 2, 150.0, BASE, cost, link),
            387.5, atol=1e-10)

    def test_zero_score_zero_baseline(self):
        """E=0 with b=0 gives e=0: no revenue, no cost, profit 0."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        np.testing.assert_allclose(
            expected_profit_group(0.0, 2, 150.0, BASE, cost, link),
            0.0, atol=1e-12)

    def test_certain_success_net_of_cost(self):
        """E=100 with k=0.01 gives e=1: profit is 1000 - w - c/2."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        np.testing.assert_allclose(
            expected_profit_group(100.0, 2, 150.0, BASE, cost, link),
            1000.0 - 150.0 - 500.0, atol=1e-10)

    def test_matches_group_of_two(self):
        """The pair profit equals the explicit binomial sum over the
        partner's outcome at n=2."""
        rng = np.random.default_rng(42)
        cost = CostModel(c=1200.0)
        link = ScoreLink(k=0.008, b=0.1)
        for _ in range(25):
            params = _random_params(rng)
            E = rng.uniform(0.0, 100.0)
            w = rng.uniform(10.0, 500.0)
            np.testing.assert_allclose(
                expected_profit_group(E, 2, w, params, cost, link),
                expected_profit_group_sum(E, 2, w, params, cost, link),
                rtol=1e-12, atol=1e-12)

    @given(data=st.data())
    @settings(max_examples=300)
    def test_matches_four_outcome_table(self, data):
        """Over e log-uniform on [1e-12, 1], `expected_profit_group` at
        n = 2 is the mean of the four-outcome table less the effort cost,
        and `group_objective` at n = 2 is the same quantity at the
        break-even w, each within 1e-12 of max(1, |value|)."""
        p = data.draw(st.floats(0.2, 3.0), "p")
        y_low = data.draw(st.floats(50.0, 800.0), "y_low")
        y_high = y_low + data.draw(st.floats(50.0, 1500.0), "y_gap")
        params = MarketParams(p=p, y_high=y_high, y_low=y_low,
                              loan=data.draw(st.floats(10.0, 400.0), "loan"),
                              epsilon=data.draw(st.floats(0.0, 0.2), "epsilon"),
                              delta=0.9)
        cost = CostModel(c=data.draw(st.floats(100.0, 4000.0), "c"))
        link = ScoreLink(k=0.01, b=0.0)
        E = min(100.0 * 10.0 ** data.draw(st.floats(-12.0, 0.0), "log10_e"), 100.0)
        e = success_probability(E, link)
        w = data.draw(st.floats(10.0, 500.0), "w")
        w_star = binding_repayment(e, 2, params)
        for value, w_at in ((expected_profit_group(E, 2, w, params, cost, link), w),
                            (group_objective(E, 2, params, cost, link), w_star)):
            table = profit_distribution_pair(e, w_at, params).mean() - cost.effort_cost(e)
            assert abs(value - table) <= 1e-12 * max(1.0, abs(table))

    def test_decreasing_in_w(self):
        """A heavier obligation can only lower expected profit."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        values = [expected_profit_group(60.0, 2, w, BASE, cost, link)
                  for w in (50.0, 150.0, 300.0, 600.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_w(self):
        """The obligation must be positive."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        with pytest.raises(DomainError):
            expected_profit_group(50.0, 2, 0.0, BASE, cost, link)


_COST = CostModel(c=1000.0)
_LINK = ScoreLink(k=0.01, b=0.0)

# Every route that takes a repayment w, as a function of w alone.
_W_ROUTES = {
    "expected_profit_group_n2":
        lambda w: expected_profit_group(50.0, 2, w, BASE, _COST, _LINK),
    "expected_profit_group":
        lambda w: expected_profit_group(50.0, 3, w, BASE, _COST, _LINK),
    "expected_profit_group_sum":
        lambda w: expected_profit_group_sum(50.0, 3, w, BASE, _COST, _LINK),
    "profit_distribution_pair": lambda w: profit_distribution_pair(0.5, w, BASE),
    "profit_distribution_group":
        lambda w: profit_distribution_group(0.5, 3, w, BASE),
    "simulate_member_profit_batch": lambda w: simulate_member_profit_batch(
        [0.5], [3], [w], BASE, SimConfig(trials=1000)),
    "optimal_ese_mv_batch":
        lambda w: optimal_ese_mv_batch(w, [(BASE, 0.5, _COST, _LINK)]),
    "mv_utility": lambda w: mv_utility(50.0, w, BASE, 0.5, _COST, _LINK),
}


@pytest.mark.parametrize("w", [float("nan"), float("inf")])
@pytest.mark.parametrize("route", sorted(_W_ROUTES))
def test_non_finite_w_is_rejected(route, w):
    """Every route rejects a NaN or infinite w with one message, and with
    no floating-point warning; the closed forms used to return nan or
    -inf."""
    with pytest.raises(DomainError, match=f"w must be finite, got {w!r}"):
        _W_ROUTES[route](w)


class TestExpectedProfitGroup:
    """Expected member profit under n-wise joint liability."""

    def test_single_member_reduction(self):
        """n=1 collapses to e*(p*y_high - w) - c/2*e^2: a lone borrower
        pays w only when she succeeds herself."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        rng = np.random.default_rng(42)
        for _ in range(20):
            E = rng.uniform(0.0, 100.0)
            w = rng.uniform(10.0, 800.0)
            e = 0.01 * E
            direct = e * (1000.0 - w) - 500.0 * e * e
            np.testing.assert_allclose(
                expected_profit_group(E, 1, w, BASE, cost, link),
                direct, rtol=1e-12, atol=1e-12)

    def test_gross_profit_three_members(self):
        """e=0.5, n=3, w=150: the distribution mean before effort cost is
        556.25, and the formula returns that mean less c/2*e^2."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        gross = profit_distribution_group(0.5, 3, 150.0, BASE).mean()
        np.testing.assert_allclose(gross, 556.25, atol=1e-10)
        np.testing.assert_allclose(
            expected_profit_group(50.0, 3, 150.0, BASE, cost, link),
            gross - cost.effort_cost(0.5), rtol=1e-12)

    def test_closed_form_matches_binomial_sum(self):
        """The closed form equals the explicit sum over partner outcomes,
        at the table's edges e = 0 and e = 1 as well."""
        cost = CostModel(c=900.0)
        link = ScoreLink(k=0.009, b=0.05)
        rng = np.random.default_rng(7)
        for i in range(26):
            params = _random_params(rng)
            E = rng.uniform(0.0, 100.0)
            w = rng.uniform(10.0, 500.0)
            n = int(rng.integers(1, 40))
            if i >= 20:  # E = 0 and E = 100 map to e = 0 and e = 1
                E, link = 100.0 * (i % 2), ScoreLink(k=0.01, b=0.0)
            a = expected_profit_group(E, n, w, params, cost, link)
            b = expected_profit_group_sum(E, n, w, params, cost, link)
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)

    def test_binomial_sum_rejects_overflowing_w(self):
        """w = 1e308 overflows the profit of a member who covers two failed
        peers: a domain error with no floating-point warning, where the
        sum used to return -inf."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        with pytest.raises(DomainError, match=r"float range at w=1e\+308"):
            expected_profit_group_sum(50.0, 3, 1e308, BASE, cost, link)

    def test_distribution_mean_consistency(self):
        """expected_profit_group + effort cost equals the exact
        distribution mean for random draws."""
        cost = CostModel(c=1500.0)
        link = ScoreLink(k=0.006, b=0.2)
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = _random_params(rng)
            E = rng.uniform(0.0, 100.0)
            w = rng.uniform(10.0, 500.0)
            n = int(rng.integers(1, 12))
            e = float(success_probability(E, link))
            net = expected_profit_group(E, n, w, params, cost, link)
            gross = profit_distribution_group(e, n, w, params).mean()
            np.testing.assert_allclose(net + cost.effort_cost(e), gross,
                                       rtol=1e-10, atol=1e-10)

    def test_vectorised_over_scores(self):
        """The group formula broadcasts over a score grid."""
        cost = CostModel(c=1000.0)
        link = ScoreLink(k=0.01, b=0.0)
        grid = np.linspace(0.0, 100.0, 21)
        out = expected_profit_group(grid, 4, 150.0, BASE, cost, link)
        assert out.shape == grid.shape
        solo = [expected_profit_group(float(E), 4, 150.0, BASE, cost, link)
                for E in grid]
        np.testing.assert_allclose(out, solo, rtol=1e-12)


# ----------------------------------------------------------------------
# profit distributions
# ----------------------------------------------------------------------


class TestProfitDistributionPair:
    """Exact four-outcome distribution for one member of a pair."""

    def test_reference_table(self):
        """e=0.5, w=150, p=1, yields 1000/500: outcomes
        (0.25, 850), (0.25, 1200), (0.25, 0), (0.25, 0)."""
        dist = profit_distribution_pair(0.5, 150.0, BASE)
        np.testing.assert_allclose(dist.probabilities,
                                   [0.25, 0.25, 0.25, 0.25], atol=0.0)
        np.testing.assert_allclose(dist.profits,
                                   [850.0, 1200.0, 0.0, 0.0], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        """The four outcome probabilities always total 1."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            params = _random_params(rng)
            e = rng.uniform(0.0, 1.0)
            dist = profit_distribution_pair(e, 120.0, params)
            np.testing.assert_allclose(dist.probabilities.sum(), 1.0,
                                       atol=1e-15)

    def test_certain_success(self):
        """e=1 puts all mass on the own-repay outcome p*y_high - w."""
        dist = profit_distribution_pair(1.0, 150.0, BASE)
        np.testing.assert_allclose(dist.mean(), 850.0, atol=1e-12)
        np.testing.assert_allclose(dist.variance(), 0.0, atol=1e-12)

    def test_certain_failure(self):
        """e=0 puts all mass on zero profit."""
        dist = profit_distribution_pair(0.0, 150.0, BASE)
        np.testing.assert_allclose(dist.mean(), 0.0, atol=0.0)
        np.testing.assert_allclose(dist.variance(), 0.0, atol=0.0)

    def test_mean_and_variance_reference(self):
        """e=0.5, w=150: mean 512.5 and variance
        0.25*850^2 + 0.25*1200^2 - 512.5^2 = 277968.75."""
        dist = profit_distribution_pair(0.5, 150.0, BASE)
        np.testing.assert_allclose(dist.mean(), 512.5, atol=1e-10)
        np.testing.assert_allclose(dist.variance(), 277968.75, atol=1e-8)

    def test_profits_beyond_the_bound_rejected(self):
        """w = 1e160 puts a profit near -2e160, beyond PROFIT_BOUND = 2**480
        (about 3.1e144). The pair table raises the DomainError naming w that
        the group enumeration raises, and a distribution holding such a
        profit is rejected, so no variance squares it into an overflow
        warning. Profits at the bound itself are accepted."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (profit_distribution_pair,
                          lambda e, w, params: profit_distribution_group(e, 2, w, params)):
                with pytest.raises(DomainError, match=r"float range at w=1e\+160$"):
                    route(0.5, 1e160, BASE)
            with pytest.raises(DomainError, match=r"invalid outcome profit 1e\+160"):
                ProfitDistribution([0.5, 0.5], [1e160, -1e160])
            edge = ProfitDistribution([0.5, 0.5], [PROFIT_BOUND, -PROFIT_BOUND])
            assert edge.variance() == PROFIT_BOUND ** 2


class TestProfitDistributionGroup:
    """Exact n+1 outcome distribution for one member of an n-group."""

    def test_reduces_to_pair(self):
        """n=2 aggregates to the same mean and variance as the pair table,
        at e = 0 and e = 1 as well."""
        rng = np.random.default_rng(7)
        for i in range(24):
            params = _random_params(rng)
            e = rng.uniform(0.0, 1.0) if i < 20 else float(i % 2)
            w = rng.uniform(10.0, 400.0)
            pair = profit_distribution_pair(e, w, params)
            grp = profit_distribution_group(e, 2, w, params)
            np.testing.assert_allclose(grp.mean(), pair.mean(), rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose(grp.variance(), pair.variance(),
                                       rtol=1e-10, atol=1e-8)

    def test_single_member(self):
        """n=1, e=0.5: half mass on p*y_high - w, half on zero."""
        dist = profit_distribution_group(0.5, 1, 150.0, BASE)
        assert len(dist) == 2
        np.testing.assert_allclose(sorted(dist.profits), [0.0, 850.0],
                                   atol=1e-12)
        np.testing.assert_allclose(dist.mean(), 425.0, atol=1e-12)

    def test_three_member_mean(self):
        """e=0.5, n=3, w=150 has gross mean 556.25."""
        dist = profit_distribution_group(0.5, 3, 150.0, BASE)
        assert len(dist) == 4
        np.testing.assert_allclose(dist.mean(), 556.25, atol=1e-10)

    def test_outcome_count_and_mass(self):
        """An n-group has n+1 outcomes whose probabilities sum to 1."""
        for n in (1, 2, 5, 17):
            dist = profit_distribution_group(0.37, n, 140.0, BASE)
            assert len(dist) == n + 1
            np.testing.assert_allclose(dist.probabilities.sum(), 1.0,
                                       atol=1e-12)

    def test_distribution_validates_probabilities(self):
        """The two arrays are checked whole: negative mass, mass that does
        not sum to 1, a non-finite profit, arrays of unequal length and an
        empty distribution are rejected. Float dust below zero is clipped."""
        for probabilities, profits, match in (
                ([1.2, -0.2], [10.0, 0.0], "invalid outcome probability -0.2"),
                ([0.5, 0.25], [10.0, 0.0], "sum to 0.75,"),
                ([0.5, 0.5], [10.0, np.inf], "invalid outcome profit inf"),
                ([0.5, 0.5], [10.0, 0.0, 0.0], "same length"),
                ([], [], "at least one outcome")):
            with pytest.raises(DomainError, match=match):
                ProfitDistribution(probabilities, profits)
        dist = ProfitDistribution([1.0, -1e-16], [10.0, 0.0])
        assert dist.probabilities.tolist() == [1.0, 0.0]
        assert len(dist) == 2 and dist.mean() == 10.0
