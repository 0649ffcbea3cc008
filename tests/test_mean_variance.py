"""Tests for the mean-variance layer: exact pair profit moments, the
risk-adjusted utility, its analytic score derivative, and the utility
maximiser in fixed- and endogenous-repayment modes.

Reference numbers come from the four-outcome profit table at e=0.5,
w=150 with p=1 and yields 1000/500: outcomes (850, 1200, 0, 0) at
probability 1/4 each, so the mean is 512.5 and the variance is
0.25*850^2 + 0.25*1200^2 - 512.5^2 = 277968.75.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eselend import (
    CostModel,
    DomainError,
    InvariantViolation,
    MarketParams,
    Moments,
    Optima,
    ScoreLink,
    argmax_grid,
    binding_repayment,
    expected_profit_group,
    mv_foc,
    mv_utility,
    optimal_ese_mv,
    optimal_ese_mv_batch,
    profit_distribution_pair,
    profit_moments_pair,
    slope_for_baseline,
    success_probability,
)
from eselend import cli, mean_variance, model_core
from oracles import RootCounter

BASE = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                    epsilon=0.05, delta=0.9)
COST = CostModel(c=1000.0)
LINK = ScoreLink(k=0.01, b=0.0)


def _random_setup(rng):
    p = rng.uniform(0.2, 3.0)
    y_low = rng.uniform(50.0, 800.0)
    y_high = y_low + rng.uniform(50.0, 1500.0)
    params = MarketParams(p=p, y_high=y_high, y_low=y_low,
                          loan=rng.uniform(10.0, 400.0),
                          epsilon=rng.uniform(0.0, 0.2),
                          delta=rng.uniform(0.05, 0.95))
    c = rng.uniform(100.0, 4000.0)
    k = rng.uniform(1e-3, 0.01)
    b = rng.uniform(0.0, 1.0 - 100.0 * k)
    return params, CostModel(c=c), ScoreLink(k=k, b=b)


def _table_utility(E, w, params, gamma, cost, link):
    """Mean-variance utility from the four-outcome profit table, vectorized
    over scores, and its rounding noise (64 ulps of the largest term).
    ``w=None`` substitutes the break-even obligation."""
    e = success_probability(E, link)
    if w is None:
        w = params.loan * (1.0 + params.epsilon) / (1.0 - (1.0 - e) ** 2)
    probs = [e * e, e * (1.0 - e), 1.0 - e]
    profits = [params.high_revenue - w,
               params.high_revenue + params.low_revenue - 2.0 * w, 0.0]
    mean = sum(q * x for q, x in zip(probs, profits))
    spread = sum(q * x * x for q, x in zip(probs, profits))
    var = sum(q * (x - mean) ** 2 for q, x in zip(probs, profits))
    effort = cost.effort_cost(e)
    noise = 64.0 * np.finfo(float).eps * (
        sum(q * abs(x) for q, x in zip(probs, profits))
        + 0.5 * gamma * spread + effort)
    return mean - 0.5 * gamma * var - effort, noise


def _draw_cell(data, endogenous):
    """A random sweep cell ``(w, params, gamma, cost, link)`` over the whole
    domain: gamma in [0, 1], every link with 100k + b <= 1, k = 0 included,
    and ``w = None`` for the break-even repayment."""
    unit = st.floats(0.0, 1.0)
    p = data.draw(st.floats(0.2, 3.0), "p")
    y_low = data.draw(st.floats(50.0, 800.0), "y_low")
    y_high = y_low + data.draw(st.floats(50.0, 1500.0), "y_gap")
    params = MarketParams(p=p, y_high=y_high, y_low=y_low,
                          loan=data.draw(st.floats(10.0, 400.0), "loan"),
                          epsilon=data.draw(st.floats(0.0, 0.2), "epsilon"),
                          delta=0.9)
    cost = CostModel(c=data.draw(st.floats(100.0, 4000.0), "c"))
    # Log-spread so that interior optima (small gamma) are common.
    gamma = data.draw(st.just(0.0) | st.floats(-6.0, 0.0).map(
        lambda x: 10.0 ** x), "gamma")
    # The break-even w needs e bounded away from 0.
    b = data.draw(st.floats(0.05, 1.0) if endogenous else unit, "b")
    link = ScoreLink(k=data.draw(unit, "k_share") * (1.0 - b) / 100.0, b=b)
    w = None if endogenous else data.draw(st.floats(10.0, 500.0), "w")
    return w, params, gamma, cost, link


def _cli_cells(command):
    """The cells ``eselend sweep-mv`` or ``eselend sweep-yield`` solves at
    its defaults, in the CLI's order."""
    settings = cli._COMMANDS[command][2]
    if command == "sweep-mv":
        scenarios = [(cli._market(settings), b, c)
                     for b in cli._parse_grid(settings["b_set"], "b-set")
                     for c in cli._parse_grid(settings["c_set"], "c-set")]
    else:
        scenarios = [(cli._market({**settings, "y_high": y_high, "y_low": y_low}),
                      settings["b"], settings["c"])
                     for y_high, y_low in cli._parse_yield_pairs(settings["yields"])]
    return [(params, gamma, CostModel(c=c), ScoreLink(k=slope_for_baseline(b), b=b))
            for params, b, c in scenarios
            for gamma in cli._parse_grid(settings["gamma_grid"], "gamma-grid")]


# ----------------------------------------------------------------------
# exact profit moments
# ----------------------------------------------------------------------


class TestProfitMomentsPair:
    """Polynomial moments of a pair member's gross profit."""

    def test_reference_moments(self):
        """e=0.5, w=150: mean 512.5 and variance 277968.75."""
        m = profit_moments_pair(0.5, 150.0, BASE)
        np.testing.assert_allclose(m.mean, 512.5, atol=1e-10)
        np.testing.assert_allclose(m.variance, 277968.75, atol=1e-8)

    def test_degenerate_endpoints(self):
        """e=0 gives (0, 0); e=1 gives (p*y_high - w, 0)."""
        lo = profit_moments_pair(0.0, 150.0, BASE)
        hi = profit_moments_pair(1.0, 150.0, BASE)
        np.testing.assert_allclose([lo.mean, lo.variance], [0.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(hi.mean, 850.0, atol=1e-12)
        np.testing.assert_allclose(hi.variance, 0.0, atol=1e-8)

    def test_matches_outcome_enumeration(self):
        """The polynomial route and the outcome table agree everywhere."""
        rng = np.random.default_rng(42)
        for _ in range(60):
            params, _, _ = _random_setup(rng)
            e = rng.uniform(0.0, 1.0)
            w = rng.uniform(10.0, 500.0)
            m = profit_moments_pair(e, w, params)
            dist = profit_distribution_pair(e, w, params)
            np.testing.assert_allclose(m.mean, dist.mean(),
                                       rtol=1e-10, atol=1e-10)
            scale = max(abs(m.variance), 1.0)
            np.testing.assert_allclose(m.variance, dist.variance(),
                                       rtol=1e-10, atol=1e-10 * scale)

    def test_variance_nonnegative(self):
        """Variances never go negative, including near the endpoints."""
        for e in np.linspace(0.0, 1.0, 101):
            m = profit_moments_pair(float(e), 150.0, BASE)
            assert m.variance >= 0.0

    def test_moments_container_validation(self):
        """Moments rejects a negative variance outright."""
        with pytest.raises(DomainError):
            Moments(mean=1.0, variance=-1e-6)

    def test_route_disagreement_is_an_invariant_violation(self, monkeypatch):
        """If the polynomial variance ever drifted from the outcome table,
        the moments raise instead of returning either value."""
        real = mean_variance._var_poly
        monkeypatch.setattr(mean_variance, "_var_poly",
                            lambda e, A, B: real(e, A, B) + 1.0)
        with pytest.raises(InvariantViolation, match="moment routes disagree"):
            profit_moments_pair(0.5, 150.0, BASE)


# ----------------------------------------------------------------------
# risk-adjusted utility
# ----------------------------------------------------------------------


class TestMvUtility:
    """Utility = mean - gamma/2 * variance - effort cost."""

    def test_reference_value(self):
        """E=50, w=150, gamma=0.001, c=1000:
        512.5 - 0.0005*277968.75 - 125 = 248.515625."""
        value = mv_utility(50.0, 150.0, BASE, 0.001, COST, LINK)
        np.testing.assert_allclose(value, 248.515625, atol=1e-10)

    def test_risk_neutral_reduction(self):
        """gamma=0 reproduces expected profit exactly."""
        rng = np.random.default_rng(7)
        for _ in range(30):
            params, cost, link = _random_setup(rng)
            E = rng.uniform(0.0, 100.0)
            w = rng.uniform(10.0, 500.0)
            np.testing.assert_allclose(
                mv_utility(E, w, params, 0.0, cost, link),
                expected_profit_group(E, 2, w, params, cost, link),
                rtol=1e-12, atol=1e-12)

    def test_certain_outcome_has_no_risk_penalty(self):
        """e=1 kills the variance, so utility is 850 - 500 = 350 at any
        gamma."""
        for gamma in (0.0, 0.5, 5.0):
            np.testing.assert_allclose(
                mv_utility(100.0, 150.0, BASE, gamma, COST, LINK),
                350.0, atol=1e-8)

    def test_utility_decreasing_in_gamma(self):
        """With positive variance, more risk aversion lowers utility."""
        values = [mv_utility(50.0, 150.0, BASE, g, COST, LINK)
                  for g in (0.0, 0.01, 0.1, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_overflowing_w_is_rejected_without_warning(self):
        """w = 1e160 overflows the variance's squares: the moments and the
        utility are domain errors naming w, raised before numpy warns."""
        with pytest.raises(DomainError, match=r"float range at w=1e\+160"):
            profit_moments_pair(0.5, 1e160, BASE)
        with pytest.raises(DomainError, match=r"float range at w=1e\+160"):
            mv_utility(50.0, 1e160, BASE, 0.5, COST, LINK)

    def test_overflow_names_the_argument_at_fault(self):
        """An ordinary w = 140 is never blamed: a huge gamma or effort cost
        is named instead, with no floating-point warning. A huge revenue
        never reaches the utility: the market parameters reject it."""
        for gamma, cost, name in ((1e300, COST, r"gamma=1e\+300"),
                                  (0.5, CostModel(c=1e307), r"c=1e\+307")):
            with pytest.raises(DomainError, match=f"float range at {name}$"):
                mv_utility(50.0, 140.0, BASE, gamma, cost, LINK)
        with pytest.raises(DomainError,
                           match=r"revenue p\*y_high \+ p\*y_low=1e\+200"):
            MarketParams(p=1.0, y_high=1e200, y_low=500.0, loan=100.0,
                         epsilon=0.05, delta=0.9)

    def test_risk_preference_validation(self):
        """gamma must be finite and >= 0: -0.1 and nan are rejected."""
        with pytest.raises(DomainError, match="gamma must be >= 0"):
            mv_utility(50.0, 150.0, BASE, -0.1, COST, LINK)
        with pytest.raises(DomainError, match="gamma must be finite"):
            mv_utility(50.0, 150.0, BASE, float("nan"), COST, LINK)


class TestMvFoc:
    """Analytic derivative of the utility with respect to the score."""

    def test_matches_finite_differences(self):
        """Central differences at h=1e-4 agree to 1e-6 relative."""
        rng = np.random.default_rng(42)
        h = 1e-4
        for _ in range(50):
            params, cost, link = _random_setup(rng)
            E = rng.uniform(1.0, 99.0)
            w = rng.uniform(10.0, 500.0)
            gamma = rng.uniform(0.0, 1.0)
            analytic = mv_foc(E, w, params, gamma, cost, link)
            fd = (mv_utility(E + h, w, params, gamma, cost, link)
                  - mv_utility(E - h, w, params, gamma, cost, link)) / (2 * h)
            scale = max(abs(analytic), abs(fd), 1e-6)
            assert abs(analytic - fd) <= 1e-6 * scale

    def test_zero_at_interior_optimum(self):
        """The derivative vanishes at the fixed-w maximiser. Gamma is kept
        small; a large risk penalty pushes the optimum to the
        zero-variance corner e=1 instead."""
        opt = optimal_ese_mv(150.0, BASE, 0.001, COST, LINK)
        assert not opt.at_boundary
        residual = mv_foc(opt.score, 150.0, BASE, 0.001, COST, LINK)
        assert abs(residual) < 1e-4

    def test_repayment_is_checked(self):
        """w is checked as mv_utility checks it: an overflowing, NaN or
        negative w is a domain error, where the derivative used to return
        nan, nan and 639.46."""
        for w, message in ((1e160, r"float range at w=1e\+160"),
                           (float("nan"), "w must be finite"),
                           (-5.0, "w must be > 0")):
            with pytest.raises(DomainError, match=message):
                mv_foc(50.0, w, BASE, 0.5, COST, LINK)
            with pytest.raises(DomainError, match=message):
                mv_utility(50.0, w, BASE, 0.5, COST, LINK)

    def test_flat_link_gives_zero(self):
        """k=0 means the score cannot move anything: derivative 0."""
        assert mv_foc(50.0, 150.0, BASE, 0.5, COST,
                      ScoreLink(k=0.0, b=0.5)) == 0.0

    def test_risk_neutral_matches_profit_slope(self):
        """At gamma=0 the derivative is the slope of expected profit."""
        h = 1e-4
        for E in (10.0, 40.0, 80.0):
            analytic = mv_foc(E, 150.0, BASE, 0.0, COST, LINK)
            fd = (expected_profit_group(E + h, 2, 150.0, BASE, COST, LINK)
                  - expected_profit_group(E - h, 2, 150.0, BASE, COST, LINK)) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-7, atol=1e-7)


# ----------------------------------------------------------------------
# utility maximiser
# ----------------------------------------------------------------------


class TestOptimalEseMv:
    """Exact maximiser of the risk-adjusted utility: endpoints and FOC
    roots, ranked by utility."""

    def test_risk_neutral_closed_form(self):
        """gamma=0, fixed w=150: the quadratic mean-less-cost peaks at
        e = 1200/1700, so E = 70.5882..."""
        opt = optimal_ese_mv(150.0, BASE, 0.0, COST, LINK)
        np.testing.assert_allclose(opt.score, 1200.0 / 17.0, atol=1e-6)
        assert not opt.at_boundary

    def test_matches_blind_argmax(self):
        """The maximiser agrees with argmax_grid on the raw utility."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            params, cost, link = _random_setup(rng)
            w = rng.uniform(50.0, 400.0)
            gamma = rng.uniform(0.0, 0.05)
            opt = optimal_ese_mv(w, params, gamma, cost, link)
            blind = argmax_grid(
                lambda E: mv_utility(E, w, params, gamma, cost, link))
            np.testing.assert_allclose(opt.score, blind.score, atol=1e-6)

    @given(data=st.data(), endogenous=st.booleans())
    @settings(max_examples=500)
    def test_matches_blind_argmax_everywhere(self, data, endogenous):
        """The exact maximiser agrees with argmax_grid over the whole
        domain: fixed and break-even w, gamma in [0, 1], and every link
        with 100k + b <= 1, k = 0 included. The grid search evaluates the
        four-outcome table at each score, with the variance taken around
        the mean, not the polynomials in e that the maximiser builds.

        Utilities agree within 1e-9 of max(1, |utility|), the scale of
        the solver's own re-validation, and the maximiser's is never lower
        beyond rounding. Scores agree within 1e-6 and boundary flags
        exactly, unless the utility at the two scores is equal to
        rounding: no search that compares values can place a maximizer
        more finely than that. It happens where the link is nearly flat
        (tiny k) and where the slope at an endpoint optimum is too small
        for the grid's last steps to see."""
        w, params, gamma, cost, link = _draw_cell(data, endogenous)
        opt = optimal_ese_mv(w, params, gamma, cost, link)
        blind = argmax_grid(
            lambda E: _table_utility(E, w, params, gamma, cost, link)[0])
        scale = max(1.0, abs(opt.objective_value), abs(blind.objective_value))
        assert abs(opt.objective_value - blind.objective_value) <= 1e-9 * scale
        at_opt, noise = _table_utility(opt.score, w, params, gamma, cost, link)
        at_blind, _ = _table_utility(blind.score, w, params, gamma, cost, link)
        assert at_opt >= at_blind - noise
        if abs(at_opt - at_blind) > noise:
            np.testing.assert_allclose(opt.score, blind.score, atol=1e-6)
            assert opt.at_boundary == blind.at_boundary

    def test_risk_aversion_changes_the_optimum(self):
        """Raising gamma moves the maximiser away from its neutral spot."""
        neutral = optimal_ese_mv(150.0, BASE, 0.0, COST, LINK)
        averse = optimal_ese_mv(150.0, BASE, 0.5, COST, LINK)
        assert abs(neutral.score - averse.score) > 1.0

    def test_endogenous_repayment_mode(self):
        """With endogenous w the reported value matches the utility at the
        break-even obligation for the optimal score."""
        link = ScoreLink(k=0.007, b=0.3)
        opt = optimal_ese_mv(None, BASE, 0.2, COST, link)
        e_star = float(success_probability(opt.score, link))
        w_star = binding_repayment(e_star, 2, BASE)
        np.testing.assert_allclose(
            opt.objective_value,
            mv_utility(opt.score, w_star, BASE, 0.2, COST, link),
            rtol=1e-9)

    def test_endogenous_mode_needs_positive_baseline(self):
        """b=0 makes the break-even w undefined at the bottom score."""
        with pytest.raises(DomainError):
            optimal_ese_mv(None, BASE, 0.2, COST, LINK)

    def test_input_validation(self):
        """Nonpositive w and negative gamma are rejected."""
        with pytest.raises(DomainError):
            optimal_ese_mv(0.0, BASE, 0.0, COST, LINK)
        with pytest.raises(DomainError):
            optimal_ese_mv(150.0, BASE, -0.5, COST, LINK)

    def test_utility_disagreement_is_an_invariant_violation(self, monkeypatch):
        """If the utility route behind `mv_utility` ever disagreed with the
        engine's objective at the optimum, the solver raises instead of
        returning."""
        real = mean_variance._utility
        monkeypatch.setattr(mean_variance, "_utility",
                            lambda *args: real(*args) + 1e-3)
        with pytest.raises(InvariantViolation, match="disagrees with utility"):
            optimal_ese_mv(150.0, BASE, 0.001, COST, LINK)

    def test_foc_residual_is_an_invariant_violation(self, monkeypatch):
        """An interior fixed-w optimum whose FOC residual is not ~0 raises;
        boundary optima never consult the FOC."""
        monkeypatch.setattr(mean_variance, "_foc",
                            lambda e, *args: np.ones_like(e))
        with pytest.raises(InvariantViolation, match="FOC residual"):
            optimal_ese_mv(150.0, BASE, 0.001, COST, LINK)
        assert optimal_ese_mv(150.0, BASE, 0.5, COST, LINK).at_boundary


def _assert_optima(batch, single):
    """``batch`` is an `Optima` of float64 scores and values and boolean
    flags, whose cells equal, field by field, the one-cell optima
    ``single``, each of Python floats and a bool."""
    assert isinstance(batch, Optima)
    assert [field.dtype for field in batch] == [np.float64, np.bool_, np.float64]
    for field in Optima._fields:
        assert (getattr(batch, field).tolist()
                == [getattr(opt, field) for opt in single]), field
    for opt in single:
        assert list(map(type, dataclasses.astuple(opt))) == [float, bool, float]


class TestOptimalEseMvBatch:
    """Many cells solved together, each re-validated on its own."""

    def test_matches_one_cell_calls(self):
        """A mixed batch returns exactly the per-cell optima, in order."""
        cells = [(BASE, gamma, CostModel(c=c), ScoreLink(k=(1 - b) / 100, b=b))
                 for b in (0.3, 0.7) for c in (800.0, 2000.0)
                 for gamma in (0.0, 0.001, 0.3)]
        for w in (140.0, None):
            _assert_optima(optimal_ese_mv_batch(w, cells),
                           [optimal_ese_mv(w, *cell) for cell in cells])

    def test_flat_link_reports_lower_bound(self):
        """k = 0: every score gives the same utility, so E = 0 at the
        boundary, in both repayment modes."""
        flat = ScoreLink(k=0.0, b=0.4)
        for w in (150.0, None):
            opt = optimal_ese_mv(w, BASE, 0.2, COST, flat)
            assert (opt.score, opt.at_boundary) == (0.0, True)

    def test_tiny_baseline_break_even(self):
        """Baselines down to b = 1e-100, where 1 - (1-e)^2 rounds to 0 and
        e^2 s^2 underflows, still give re-validated break-even optima with
        no floating-point warning: E = 100 at a moderate effort cost, and
        E = 0 at a cost so large that it dominates even at e = b."""
        for b in (1e-20, 1e-100):
            link = ScoreLink(k=(1.0 - b) / 100.0, b=b)
            for c, score in ((1000.0, 100.0), (1.5e305, 0.0)):
                opt = optimal_ese_mv(None, BASE, 0.5, CostModel(c=c), link)
                assert (opt.score, opt.at_boundary) == (score, True)

    def test_empty_batch(self):
        for w in (150.0, None):
            _assert_optima(optimal_ese_mv_batch(w, []), [])

    def test_errors_carry_the_cell_index(self, monkeypatch):
        """Validation and re-validation failures name the cell's index;
        errors about the shared w name none."""
        cells = [(BASE, 0.0, COST, LINK), (BASE, 0.1, COST, LINK),
                 (BASE, -1.0, COST, LINK)]
        with pytest.raises(DomainError, match="gamma") as excinfo:
            optimal_ese_mv_batch(150.0, cells)
        assert excinfo.value.cell == 2
        with pytest.raises(DomainError) as excinfo:
            optimal_ese_mv_batch(0.0, cells)
        assert excinfo.value.cell is None
        real = mean_variance._utility
        monkeypatch.setattr(
            mean_variance, "_utility",
            lambda e, w, ph, pl, gamma, c:
                real(e, w, ph, pl, gamma, c) + np.where(gamma > 0, 1.0, 0.0))
        with pytest.raises(InvariantViolation) as excinfo:
            optimal_ese_mv_batch(150.0, cells[:2])
        assert excinfo.value.cell == 1

    def test_entry_checks_do_not_grow_with_the_batch(self, monkeypatch):
        """A 315-cell break-even batch checks its entries with as many calls
        of `binding_repayment` and `_check` as a one-cell batch:
        the checks run on arrays, not cell by cell."""
        calls = Counter()
        for name in ("binding_repayment", "_check"):
            def counted(*args, _real=getattr(mean_variance, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mean_variance, name, counted)
        cells = [(BASE, gamma, CostModel(c=c), ScoreLink(k=(1 - b) / 100, b=b))
                 for b in (0.1, 0.3, 0.5, 0.7, 0.9)
                 for c in (600.0, 800.0, 1000.0, 1200.0, 1500.0, 2000.0, 3000.0)
                 for gamma in np.linspace(0.0, 1.0, 9)]
        assert len(cells) == 315
        counts = []
        for batch in (cells[:1], cells):
            calls.clear()
            optimal_ese_mv_batch(None, batch)
            counts.append(dict(calls))
        assert counts[0] == counts[1]

    def test_each_distinct_polynomial_is_solved_once(self, monkeypatch):
        """The first-order condition does not depend on the link, so the 315
        default `sweep-mv` cells (3 b x 5 c x 21 gamma) solve 105 companion
        matrices in each w mode, and the 42 default `sweep-yield` cells, all
        distinct, solve 42."""
        solved = []
        real = np.linalg.eigvals

        def counted(matrices):
            solved.append(len(matrices))
            return real(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for command, cells, distinct in (("sweep-mv", 315, 105), ("sweep-yield", 42, 42)):
            batch = _cli_cells(command)
            assert len(batch) == cells
            for w in (mean_variance.DEFAULT_SWEEP_W, None):
                solved.clear()
                optimal_ese_mv_batch(w, batch)
                assert sum(solved) == distinct, (command, w)

    @pytest.mark.parametrize("w", [mean_variance.DEFAULT_SWEEP_W, None],
                             ids=["fixed-w", "break-even-w"])
    def test_objective_value_is_the_ranking_value(self, w):
        """On every default `sweep-mv` cell, `objective_value` is bit for bit
        the value the engine ranks candidates by, `_utility_at` on the pair
        outcome table at the optimum's e, and not the re-validation route's
        utility, which differs from it in the last bits of a few cells."""
        cells = _cli_cells("sweep-mv")
        optima = optimal_ese_mv_batch(w, cells)
        ph, pl, principal, gamma, c, k, b = np.array(
            [(params.high_revenue, params.low_revenue,
              params.loan * (1.0 + params.epsilon), gamma, cost.c, link.k, link.b)
             for params, gamma, cost, link in cells]).T
        s, table = mean_variance._outcome_table(ph, pl, principal, w)
        e = np.clip(k * optima.score + b, 0.0, 1.0)
        assert np.array_equal(optima.objective_value,
                              mean_variance._utility_at(e, s, table, gamma, c))

    @given(data=st.data())
    @settings(max_examples=100)
    def test_a_cell_does_not_depend_on_its_batch(self, data):
        """Cells drawn with replacement from a small pool, so that many share
        their polynomial or repeat, give exactly the one-cell optima in a
        batch, for a fixed w and the break-even w."""
        markets = data.draw(st.lists(st.builds(
            MarketParams, p=st.floats(0.2, 3.0), y_high=st.floats(900.0, 2000.0),
            y_low=st.floats(50.0, 800.0), loan=st.floats(10.0, 400.0),
            epsilon=st.floats(0.0, 0.2), delta=st.just(0.9)),
            min_size=1, max_size=2), "markets")
        gammas = data.draw(st.lists(st.just(0.0) | st.floats(-6.0, 0.0).map(
            lambda x: 10.0 ** x), min_size=1, max_size=2), "gammas")
        costs = data.draw(st.lists(st.floats(100.0, 4000.0), min_size=1,
                                   max_size=2), "costs")
        links = data.draw(st.lists(st.builds(
            lambda b, share: ScoreLink(k=share * (1.0 - b) / 100.0, b=b),
            st.floats(0.05, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3), "links")
        pool = [(params, gamma, CostModel(c=c), link) for params in markets
                for gamma in gammas for c in costs for link in links]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                   max_size=3 * len(pool)), "picks")
        batch = [pool[i] for i in picks]
        for w in (data.draw(st.floats(10.0, 500.0), "w"), None):
            _assert_optima(optimal_ese_mv_batch(w, batch),
                           [optimal_ese_mv(w, *cell) for cell in batch])

    def test_overflow_is_rejected_per_cell(self):
        """A cell whose utility would overflow the float range is a domain
        error naming its index, raised before any numpy overflow: a huge
        fixed w, a huge effort cost, or a loan whose break-even w is huge."""
        huge_loan = MarketParams(p=1.0, y_high=1000.0, y_low=500.0,
                                 loan=1e160, epsilon=0.05, delta=0.9)
        for w, cells in (
                (1e308, [(BASE, 0.0, COST, LINK)]),
                (150.0, [(BASE, 0.0, COST, LINK),
                         (BASE, 0.0, CostModel(c=1.7e308), LINK)]),
                (None, [(BASE, 0.5, COST, ScoreLink(k=0.007, b=0.3)),
                        (huge_loan, 0.5, COST, ScoreLink(k=0.007, b=0.3))])):
            with pytest.raises(DomainError, match="overflows the float range") as excinfo:
                optimal_ese_mv_batch(w, cells)
            assert excinfo.value.cell == len(cells) - 1


_ENTRY_POINTS = {
    "mv_utility": lambda E, w, gamma, cost: mv_utility(E, w, BASE, gamma, cost, LINK),
    "mv_foc": lambda E, w, gamma, cost: mv_foc(E, w, BASE, gamma, cost, LINK),
    "optimal_ese_mv": lambda E, w, gamma, cost: optimal_ese_mv(w, BASE, gamma, cost, LINK),
    "optimal_ese_mv_batch":
        lambda E, w, gamma, cost: optimal_ese_mv_batch(w, [(BASE, gamma, cost, LINK)]),
}


class TestCheckOrder:
    """Every mean-variance entry point checks its arguments in one order:
    w, then gamma, then the float range, then the score (where the score
    is an argument)."""

    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    @pytest.mark.parametrize("w, gamma, cost, message", [
        (-1.0, -1.0, COST, "w must be > 0"),
        (150.0, -1.0, CostModel(c=1e307), "gamma must be >= 0"),
        (150.0, 0.5, CostModel(c=1e307), r"float range at c=1e\+307"),
    ], ids=["w", "gamma", "float-range"])
    def test_the_first_failing_check_is_reported(self, entry, w, gamma, cost, message):
        with pytest.raises(DomainError, match=message):
            _ENTRY_POINTS[entry](150.0, w, gamma, cost)

    @pytest.mark.parametrize("entry", ["mv_utility", "mv_foc"])
    def test_the_score_is_checked_last(self, entry):
        with pytest.raises(DomainError, match="score E"):
            _ENTRY_POINTS[entry](150.0, 150.0, 0.5, COST)

    @pytest.mark.parametrize("call", [
        lambda: profit_moments_pair(0.5, None, BASE),
        lambda: _ENTRY_POINTS["mv_utility"](50.0, None, -1.0, COST),
        lambda: _ENTRY_POINTS["mv_foc"](50.0, None, -1.0, COST),
    ], ids=["profit_moments_pair", "mv_utility", "mv_foc"])
    def test_one_cell_calls_name_a_break_even_w(self, call):
        """The one-cell calls take a number ``w`` only: ``w=None``, the
        break-even repayment, raises DomainError naming ``w`` (before a
        bad gamma), not a TypeError from comparing None with a float."""
        with pytest.raises(DomainError, match="^w must be a number; optimal_ese_mv "
                           "solves the break-even w=None$"):
            call()


class TestRealRoots:
    """The batched root finder against one-row calls and exact counts."""

    def test_only_identical_rows_share_a_solve(self):
        """Rows one ulp or one signed zero apart come back bit for bit as
        their one-row calls return them: ``x^2 + 1`` with a +0.0 or -0.0
        middle coefficient has roots whose real parts are zeros of opposite
        signs, which a key by value (``numpy.unique(axis=0)``) would merge."""
        quadratic = [0.18, -0.9, 1.0]
        rows = np.array([quadratic, [np.nextafter(0.18, 1.0), -0.9, 1.0],
                         [1.0, 0.0, 1.0], [1.0, -0.0, 1.0], quadratic])
        batch = mean_variance._real_roots(rows)
        for row, roots in zip(rows, batch):
            assert roots.tobytes() == mean_variance._real_roots(row[None])[0].tobytes()
        assert batch[0].tobytes() != batch[1].tobytes()
        assert batch[2].tobytes() != batch[3].tobytes()

    @pytest.mark.parametrize("w", [mean_variance.DEFAULT_SWEEP_W, None],
                             ids=["fixed-w", "break-even-w"])
    def test_in_range_roots_match_exact_counts(self, w, monkeypatch):
        """On every default `sweep-mv` cell, the engine's roots inside the
        open score range ``(b, b + 100k)`` are as many as the polynomial it
        solved has distinct real roots there, counted exactly by a Sturm
        sequence over `Fraction` copies of its float coefficients."""
        solved = []
        real = mean_variance._real_roots

        def recorded(coefs):
            roots = real(coefs)
            solved.append((np.array(coefs), roots))
            return roots

        monkeypatch.setattr(mean_variance, "_real_roots", recorded)
        cells = _cli_cells("sweep-mv")
        optimal_ese_mv_batch(w, cells)
        [(coefs, roots)] = solved
        counters, engine, exact = {}, [], []
        for row, row_roots, (_, _, _, link) in zip(coefs, roots, cells):
            lo, hi = link.b, link.b + 100.0 * link.k
            engine.append(int(np.count_nonzero((row_roots > lo) & (row_roots < hi))))
            key = row.tobytes()
            if key not in counters:
                counters[key] = RootCounter(row.tolist())
            exact.append(counters[key].count(lo, hi))
        assert engine == exact
        assert sum(exact) == (111 if w is not None else 203)


class TestUtilityBuilder:
    """The engine's utility ``N / s^2``, built from the pair outcome table,
    away from the optima as well as at them."""

    @given(data=st.data(), endogenous=st.booleans(),
           scores=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_matches_mv_utility_at_any_score(self, data, endogenous, scores):
        """At random scores of a random cell, in both repayment modes, the
        value the engine ranks candidates by, and the polynomial ``N`` its
        roots come from, match the cross-checked scalar `mv_utility` within
        1e-9 of max(1, |utility|)."""
        mv = mean_variance
        w, params, gamma, cost, link = _draw_cell(data, endogenous)
        s, table = mv._outcome_table(
            np.array([params.high_revenue]), np.array([params.low_revenue]),
            np.array([params.loan * (1.0 + params.epsilon)]), w)
        N = mv._scaled_utility(mv._poly(0.0, 1.0), s, table, gamma, cost.c, mv._pmul)
        e = success_probability(np.array(scores), link)[:, None]
        ranked = mv._utility_at(e, s, table, gamma, cost.c)[:, 0]
        from_poly = (mv._peval(N, e) / mv._peval(s, e) ** 2)[:, 0]
        for E, e_i, *values in zip(scores, e[:, 0], ranked, from_poly):
            w_i = binding_repayment(float(e_i), 2, params) if endogenous else w
            utility = mv_utility(E, w_i, params, gamma, cost, link)
            for value in values:
                assert abs(value - utility) <= 1e-9 * max(1.0, abs(utility))


class TestOutcomeTable:
    """The engine's pair outcome table against the model's one
    enumeration of a member's outcomes."""

    @given(data=st.data(), endogenous=st.booleans(),
           scores=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_rows_are_the_pair_enumeration(self, data, endogenous, scores):
        """At random scores of a random cell, in both repayment modes, each
        row of `_outcome_table` at ``e`` is the matching n = 2 success row
        of `model_core._outcomes`, its profit times ``s``, at ``w`` or the
        break-even `binding_repayment`: probabilities within 1e-12, profits
        within 1e-12 of ``pYh + pYl``."""
        w, params, _, _, link = _draw_cell(data, endogenous)
        ph, pl = params.high_revenue, params.low_revenue
        s, table = mean_variance._outcome_table(
            np.array([ph]), np.array([pl]),
            np.array([params.loan * (1.0 + params.epsilon)]), w)
        for e in success_probability(np.array(scores), link).tolist():
            w_e = binding_repayment(e, 2, params) if endogenous else w
            probabilities, profits = model_core._outcomes(e, 2, w_e, params)
            s_e = mean_variance._peval(s, e)[0]
            assert len(table) == len(profits) - 1
            for (P, X), q, x in zip(table, probabilities, profits):
                assert abs(mean_variance._peval(P, e)[0] - q) <= 1e-12
                assert abs(mean_variance._peval(X, e)[0] - x * s_e) <= 1e-12 * (ph + pl)


# ----------------------------------------------------------------------
# sweep helper
# ----------------------------------------------------------------------


class TestSlopeForBaseline:
    """Default slope pairing: k = (1 - b)/100 saturates at a top score."""

    def test_values(self):
        """b=0.3 gives k=0.007; b=1 gives a flat link."""
        np.testing.assert_allclose(slope_for_baseline(0.3), 0.007, atol=1e-15)
        np.testing.assert_allclose(slope_for_baseline(0.0), 0.01, atol=1e-15)
        assert slope_for_baseline(1.0) == 0.0

    def test_link_saturates(self):
        """The paired link reaches success probability 1 at a score of 100."""
        for b in (0.0, 0.25, 0.6):
            link = ScoreLink(k=slope_for_baseline(b), b=b)
            np.testing.assert_allclose(success_probability(100.0, link), 1.0,
                                       atol=1e-12)

    def test_rejects_bad_baseline(self):
        """Baselines outside [0, 1] are domain errors."""
        with pytest.raises(DomainError):
            slope_for_baseline(-0.1)
        with pytest.raises(DomainError):
            slope_for_baseline(1.5)
