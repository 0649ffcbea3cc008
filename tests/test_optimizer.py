"""Tests for the score optimizers: the generic grid argmax, the pair
closed form and its as-printed variant, the group first-order-condition
solver, the group-size sensitivity derivative, and the large-group limit.

Docstrings carry the hand computations behind every pinned number. The
reference calibration used throughout is p=1, yields 1000/500, L=100,
eps=0.05, delta=0.9, c=1000, k=0.01, b=0.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eselend import (
    CostModel,
    DomainError,
    EvaluationError,
    MarketParams,
    Optima,
    Optimum,
    ScoreLink,
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
    optimizer,
    success_probability,
)
from eselend.model_core import LINK_CAP_SLACK

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


# ----------------------------------------------------------------------
# grid argmax
# ----------------------------------------------------------------------


class TestArgmaxGrid:
    """Bounded scalar maximisation over the score interval."""

    def test_quadratic_vertex(self):
        """-(E-40)^2 peaks at 40, an interior point."""
        opt = argmax_grid(lambda E: -((E - 40.0) ** 2))
        np.testing.assert_allclose(opt.score, 40.0, atol=1e-9)
        assert not opt.at_boundary
        np.testing.assert_allclose(opt.objective_value, 0.0, atol=1e-12)

    def test_constant_objective(self):
        """A flat objective resolves to the lower bound, flagged boundary."""
        opt = argmax_grid(lambda E: 3.0)
        assert opt.score == 0.0
        assert opt.at_boundary
        assert opt.objective_value == 3.0

    def test_monotone_ramps(self):
        """Increasing objectives end at 100, decreasing ones at 0."""
        up = argmax_grid(lambda E: 2.0 * E)
        down = argmax_grid(lambda E: -2.0 * E)
        assert up.score == 100.0 and up.at_boundary
        assert down.score == 0.0 and down.at_boundary

    def test_near_boundary_interior_peak(self):
        """A vertex just inside the bounds is found, not snapped away."""
        opt = argmax_grid(lambda E: -((E - 99.99999) ** 2))
        np.testing.assert_allclose(opt.score, 99.99999, atol=1e-6)
        assert not opt.at_boundary
        opt = argmax_grid(lambda E: -((E - 0.012) ** 2))
        np.testing.assert_allclose(opt.score, 0.012, atol=1e-6)

    def test_custom_bounds(self):
        """The peak respects caller-supplied bounds."""
        opt = argmax_grid(lambda E: -((E - 40.0) ** 2), lo=50.0, hi=80.0)
        assert opt.score == 50.0
        assert opt.at_boundary

    def test_rejects_bad_bounds_and_config(self):
        """lo >= hi is a domain error."""
        with pytest.raises(DomainError):
            argmax_grid(lambda E: 0.0, lo=5.0, hi=5.0)

    def test_non_finite_objective_is_reported(self):
        """An objective returning NaN raises EvaluationError at the point."""
        def bad(E):
            return np.nan if E > 60.0 else float(E)

        with pytest.raises(EvaluationError):
            argmax_grid(bad)

    def test_golden_section_names_its_non_finite_probe(self):
        """NaN on (50.001, 50.049), which no grid point reaches, around the
        vertex 50: golden section on the grid neighbours (49.95, 50.05)
        names its first probe there, 49.95 + 0.1 / phi = 50.0118."""
        a, b = (float(x) for x in np.linspace(0.0, 100.0, 2001)[[999, 1001]])
        with pytest.raises(EvaluationError) as excinfo:
            argmax_grid(lambda E: math.nan if 50.001 < E < 50.049 else -(E - 50.0) ** 2)
        assert str(excinfo.value) == (
            f"objective is not finite at E={a + optimizer._INVPHI * (b - a)!r}")

    @pytest.mark.parametrize("lo, hi", [
        # The polish probes x0 + 0.05 right of the vertex 50.0123.
        (50.0613, 50.0633),
        # The polish extrapolates to the vertex itself, which golden
        # section comes no closer to than its 1e-10 tolerance allows.
        (50.0123 - 1e-13, 50.0123 + 1e-13),
    ], ids=["side-point", "vertex"])
    def test_polish_names_a_non_finite_point(self, lo, hi):
        """NaN on a short interval near the vertex of -(E - 50.0123)^2 that
        only the polish reaches: the error names a point inside it."""
        with pytest.raises(EvaluationError, match="objective is not finite at E=") as excinfo:
            argmax_grid(lambda E: math.nan if lo < E < hi else -(E - 50.0123) ** 2)
        assert lo < float(str(excinfo.value).rpartition("=")[2]) < hi

    @pytest.mark.parametrize("f", [
        # Slopes 1 and 10 either side: the fits at h and h/2 put the vertex
        # 0.41 h and 0.20 h from x0, more than h/8 apart.
        lambda E: -(50.0123 - E) if E < 50.0123 else -10.0 * (E - 50.0123),
        # The fitted vertex evaluates to -1, far below the search best.
        lambda E: -1.0 if abs(E - 50.0123) < 1e-13 else -(E - 50.0123) ** 2,
    ], ids=["fits-disagree", "vertex-dip"])
    def test_polish_keeps_the_search_best(self, f):
        """When the polish declines, the optimum is the golden-section best
        from the neighbours of the best grid point."""
        grid = np.linspace(0.0, 100.0, 2001)
        i = int(np.argmax([f(E) for E in grid]))
        x, fx = optimizer._golden_max(f, float(grid[i - 1]), float(grid[i + 1]),
                                      1e-10, optimizer._MAX_ITER)
        assert argmax_grid(f) == Optimum(x, False, fx)


# ----------------------------------------------------------------------
# pair optimum
# ----------------------------------------------------------------------


class TestOptimalEsePair:
    """Closed-form score maximising a pair member's expected profit."""

    def test_reference_fifty(self):
        """c=2000: e* = 1500/3000 = 0.5, so E* = 50."""
        opt = optimal_ese_pair(BASE, CostModel(c=2000.0), LINK)
        np.testing.assert_allclose(opt.score, 50.0, atol=1e-12)
        assert not opt.at_boundary

    def test_reference_seventyfive(self):
        """c=1000: e* = 1500/2000 = 0.75, so E* = 75."""
        opt = optimal_ese_pair(BASE, COST, LINK)
        np.testing.assert_allclose(opt.score, 75.0, atol=1e-12)

    def test_reference_shifted_link(self):
        """c=1200, k=0.005, b=0.5: e* = 1500/2200, so
        E* = (15/22 - 0.5)/0.005 = 36.3636..."""
        opt = optimal_ese_pair(BASE, CostModel(c=1200.0),
                               ScoreLink(k=0.005, b=0.5))
        np.testing.assert_allclose(opt.score, (1500.0 / 2200.0 - 0.5) / 0.005,
                                   atol=1e-10)
        np.testing.assert_allclose(opt.score, 36.36363636363637, atol=1e-10)

    def test_clamps_to_score_range(self):
        """Raw optima outside [0, 100] clamp and flag the boundary."""
        low = optimal_ese_pair(BASE, COST, ScoreLink(k=0.002, b=0.8))
        assert low.score == 0.0 and low.at_boundary
        high = optimal_ese_pair(BASE, CostModel(c=10.0), LINK)
        assert high.score == 100.0 and high.at_boundary

    def test_flat_link_pins_score_to_zero(self):
        """k=0 makes the score irrelevant; the cheapest score, 0, wins."""
        opt = optimal_ese_pair(BASE, COST, ScoreLink(k=0.0, b=0.5))
        assert opt.score == 0.0
        assert opt.at_boundary

    def test_matches_numeric_argmax(self):
        """The closed form agrees with a blind argmax of the objective."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            params, cost, link = _random_setup(rng)
            closed = optimal_ese_pair(params, cost, link)
            blind = argmax_grid(lambda E: group_objective(E, 2, params, cost, link))
            np.testing.assert_allclose(closed.score, blind.score, atol=1e-6)

    def test_objective_value_is_objective_at_score(self):
        """The reported objective value evaluates the objective itself."""
        opt = optimal_ese_pair(BASE, COST, LINK)
        np.testing.assert_allclose(
            opt.objective_value, group_objective(opt.score, 2, BASE, COST, LINK),
            rtol=1e-12)


class TestOptimalEsePairAsPrinted:
    """Companion form kept for comparison; it divides by k(c - 2*p*y_low)."""

    def test_agrees_where_algebra_coincides(self):
        """At c=2000 the variant also returns 50: the numerator 500 over
        the denominator 0.01*(2000-1000) = 10."""
        printed = optimal_ese_pair_as_printed(BASE, CostModel(c=2000.0), LINK)
        np.testing.assert_allclose(printed, 50.0, atol=1e-10)

    def test_disagrees_elsewhere(self):
        """At c=1200 the variant gives 500/2 = 250 while the canonical
        optimum is 68.18..., so the two are not the same formula."""
        printed = optimal_ese_pair_as_printed(BASE, CostModel(c=1200.0), LINK)
        np.testing.assert_allclose(printed, 250.0, atol=1e-10)
        canonical = optimal_ese_pair(BASE, CostModel(c=1200.0), LINK)
        assert abs(printed - canonical.score) > 100.0

    def test_singular_denominator(self):
        """c = 2*p*y_low zeroes the denominator and is rejected."""
        with pytest.raises(DomainError):
            optimal_ese_pair_as_printed(BASE, COST, LINK)

    def test_flat_link_rejected(self):
        """k=0 also zeroes the denominator."""
        with pytest.raises(DomainError):
            optimal_ese_pair_as_printed(BASE, CostModel(c=1200.0),
                                        ScoreLink(k=0.0, b=0.5))


# ----------------------------------------------------------------------
# group optimum
# ----------------------------------------------------------------------


class TestSolveGroupFoc:
    """Root of the group first-order condition, checked against anchors."""

    def test_single_member(self):
        """n=1: the condition 1000 - 1000*e = 0 puts the root at e=1,
        so E = 100 with the condition satisfied (not a clamped boundary)."""
        opt = optimal_ese_group(1, BASE, COST, LINK)
        np.testing.assert_allclose(opt.score, 100.0, atol=1e-9)
        assert not opt.at_boundary

    def test_pair_matches_closed_form(self):
        """n=2 reproduces the closed-form pair optimum E = 75."""
        opt = optimal_ese_group(2, BASE, COST, LINK)
        np.testing.assert_allclose(opt.score, 75.0, atol=1e-8)

    def test_three_members(self):
        """n=3: 500 + 1500*(1-e)^2 - 1000*e = 0 holds at e = 2/3,
        so E = 66.666..."""
        opt = optimal_ese_group(3, BASE, COST, LINK)
        np.testing.assert_allclose(opt.score, 200.0 / 3.0, atol=1e-8)

    def test_large_group_near_limit(self):
        """n=100: the joint-liability term is negligible and the root sits
        within 1e-3 of the limiting score 50."""
        opt = optimal_ese_group(100, BASE, COST, LINK)
        np.testing.assert_allclose(opt.score, 50.0, atol=1e-3)

    def test_residual_at_solution(self):
        """Interior solutions satisfy the first-order condition to 1e-8."""
        for n in (2, 3, 5, 10, 40):
            opt = optimal_ese_group(n, BASE, COST, LINK)
            assert not opt.at_boundary
            assert abs(group_foc(opt.score, n, BASE, COST, LINK)) < 1e-8

    def test_scores_non_increasing_in_n(self):
        """Adding members weakens the incentive, so the score never rises."""
        scores = [optimal_ese_group(n, BASE, COST, LINK).score
                  for n in range(1, 21)]
        assert all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_objective_value_consistency(self):
        """The reported value is the substituted objective at the root."""
        opt = optimal_ese_group(3, BASE, COST, LINK)
        np.testing.assert_allclose(
            opt.objective_value, group_objective(opt.score, 3, BASE, COST, LINK),
            rtol=1e-12)

    def test_flat_link_pins_score_to_zero(self):
        """k=0 makes the score irrelevant, so the optimum is E = 0 at the
        boundary with the objective at e = b, as for the pair closed form
        and for every size, fractional ones too."""
        flat = ScoreLink(k=0.0, b=0.5)
        for n in (1, 2, 2.5, 7):
            opt = optimal_ese_group(n, BASE, COST, flat)
            assert (opt.score, opt.at_boundary) == (0.0, True)
            np.testing.assert_allclose(
                opt.objective_value, group_objective(0.0, n, BASE, COST, flat),
                rtol=1e-14)
        pair = optimal_ese_pair(BASE, COST, flat)
        assert (pair.score, pair.at_boundary) == (0.0, True)
        np.testing.assert_allclose(optimal_ese_group(2, BASE, COST, flat).objective_value,
                                   pair.objective_value, rtol=1e-14)

    def test_bad_group_size_rejected(self):
        """Group sizes below one member are domain errors."""
        with pytest.raises(DomainError):
            optimal_ese_group(0, BASE, COST, LINK)

    def test_objective_checks_group_size_as_the_foc_does(self):
        """`group_objective` rejects n = NaN, -5 and 0.5 as `group_foc`
        does, where it used to return nan, -511511.25 and 238.75, and it
        takes a fractional n >= 1 as the FOC does."""
        for n in (float("nan"), -5.0, 0.5):
            for route in (group_objective, group_foc):
                with pytest.raises(DomainError, match="group size n must be >= 1"):
                    route(50.0, n, BASE, COST, LINK)
        # e = 0.5, n = 2.5: 500 - 105 + 500*((1 - 0.5**2.5) - 0.5) - 125
        np.testing.assert_allclose(group_objective(50.0, 2.5, BASE, COST, LINK),
                                   520.0 - 500.0 * 0.5 ** 2.5, rtol=1e-14)


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


class TestOptimalEseGroupBatch:
    """Many group sizes solved together by lockstep bisection."""

    def test_matches_one_cell_calls(self):
        """A mixed batch returns exactly the per-size optima, in order."""
        sizes = [1, 2, 3, 2.5, 7, 40.25, 1000]
        for link in (LINK, ScoreLink(k=0.004, b=0.3), ScoreLink(k=0.0, b=0.5)):
            _assert_optima(optimal_ese_group_batch(sizes, BASE, COST, link),
                           [optimal_ese_group(n, BASE, COST, link) for n in sizes])

    def test_empty_batch(self):
        _assert_optima(optimal_ese_group_batch([], BASE, COST, LINK), [])

    def test_endpoint_rule(self):
        """|g| <= 1e-10 at an endpoint makes it a root, not a boundary:
        n=1 has g = 0 at E = 100 exactly. Beyond that tolerance the
        optimum is a boundary: a cheap effort technology (c=100) keeps g > 0
        up to E = 100, and a baseline b = 0.9 with c = 4000 puts g < 0 from
        E = 0 on."""
        lone = optimal_ese_group(1, BASE, COST, LINK)
        assert (lone.score, lone.at_boundary) == (100.0, False)
        # n=1 with c = 1000 -+ 1e-6 puts g(100) at +-1e-6, beyond the
        # tolerance: a boundary optimum, then a root just inside E = 100.
        for c, at_boundary in ((1000.0 - 1e-6, True), (1000.0 + 1e-6, False)):
            opt = optimal_ese_group(1, BASE, CostModel(c=c), LINK)
            np.testing.assert_allclose(opt.score, min(1e5 / c, 100.0), rtol=1e-15)
            assert opt.at_boundary == at_boundary
        top = optimal_ese_group(3, BASE, CostModel(c=100.0), LINK)
        assert (top.score, top.at_boundary) == (100.0, True)
        bottom = optimal_ese_group(3, BASE, CostModel(c=4000.0),
                                   ScoreLink(k=0.001, b=0.9))
        assert (bottom.score, bottom.at_boundary) == (0.0, True)

    def test_errors_carry_the_cell_index(self):
        """A bad size or a non-finite FOC names the size's index, also with
        a flat link. At n = 1e308 the FOC term p*y_low*n overflows at
        E = 0."""
        with pytest.raises(DomainError, match="n must be >= 1") as excinfo:
            optimal_ese_group_batch([2, 3, 0.5], BASE, COST, LINK)
        assert excinfo.value.cell == 2
        with pytest.raises(DomainError) as excinfo:
            optimal_ese_group_batch([2, np.inf], BASE, COST, LINK)
        assert excinfo.value.cell == 1
        with pytest.raises(DomainError, match="n must be >= 1") as excinfo:
            optimal_ese_group_batch([2, 0.5], BASE, COST, ScoreLink(k=0.0, b=0.5))
        assert excinfo.value.cell == 1
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError,
                               match=r"FOC is not finite at E=0\.0") as excinfo:
                optimal_ese_group_batch([2, 1e308, 3], BASE, COST, LINK)
        assert excinfo.value.cell == 1

    def test_checks_scores_once_per_batch(self, monkeypatch):
        """Bisection midpoints lie in [0, 100] by construction, so the
        bisection applies the link unchecked: `success_probability` runs
        once per batch, for the optima's values, whatever the number of
        FOC evaluations."""
        calls = {"success_probability": 0, "_foc": 0}

        def counted(name):
            original = getattr(optimizer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(optimizer, name, counted(name))
        foc_evals = set()
        for sizes, cost in (([2], COST), ([2, 3, 40.25, 1000], COST),
                            ([3], CostModel(c=100.0))):
            calls.update(success_probability=0, _foc=0)
            optimal_ese_group_batch(sizes, BASE, cost, LINK)
            assert calls["success_probability"] == 1
            foc_evals.add(calls["_foc"])
        assert min(foc_evals) == 2 < max(foc_evals)

    @given(data=st.data())
    @settings(max_examples=300)
    def test_matches_blind_argmax_everywhere(self, data):
        """Each optimum agrees with argmax_grid on `group_objective` over
        the whole domain: group sizes up to 1000, fractional ones included,
        and every link with k > 0 and 100k + b <= 1.

        Objective values agree within 1e-9 of max(1, |value|) and the
        engine's is never lower beyond rounding. Scores agree within 1e-6,
        and boundary flags exactly, unless the objective at the two scores
        is equal to rounding (a grid search cannot place the maximizer
        more finely than that) or the engine found a root at an endpoint,
        which it reports as interior."""
        p = data.draw(st.floats(0.2, 3.0), "p")
        y_low = data.draw(st.floats(50.0, 800.0), "y_low")
        y_high = y_low + data.draw(st.floats(50.0, 1500.0), "y_gap")
        params = MarketParams(p=p, y_high=y_high, y_low=y_low,
                              loan=data.draw(st.floats(10.0, 400.0), "loan"),
                              epsilon=data.draw(st.floats(0.0, 0.2), "epsilon"),
                              delta=0.9)
        cost = CostModel(c=data.draw(st.floats(100.0, 4000.0), "c"))
        b = data.draw(st.floats(0.0, 1.0, exclude_max=True), "b")
        k = data.draw(st.floats(0.0, (1.0 - b) / 100.0, exclude_min=True), "k")
        link = ScoreLink(k=k, b=b)
        size = st.integers(1, 1000) | st.floats(1.0, 1000.0)
        sizes = data.draw(st.lists(size, min_size=1, max_size=4), "sizes")

        noise = 64.0 * np.finfo(float).eps * (
            params.high_revenue + params.low_revenue
            + params.loan * (1.0 + params.epsilon) + cost.c)
        for n, *cell in zip(sizes, *optimal_ese_group_batch(sizes, params, cost, link)):
            opt = Optimum(*cell)
            blind = argmax_grid(
                lambda E: group_objective(E, n, params, cost, link))
            scale = max(1.0, abs(opt.objective_value), abs(blind.objective_value))
            assert abs(opt.objective_value - blind.objective_value) <= 1e-9 * scale
            assert opt.objective_value >= blind.objective_value - noise
            endpoint_root = (opt.score in (0.0, 100.0)) and not opt.at_boundary
            if abs(opt.objective_value - blind.objective_value) > noise:
                np.testing.assert_allclose(opt.score, blind.score, atol=1e-6)
                if not endpoint_root:
                    assert opt.at_boundary == blind.at_boundary


def _lockstep_reference(ns, params, cost, link):
    """The group engine for ``k > 0`` with its bisection loop as first
    written, the reference for bit identity: every step masks its updates
    by the brackets still live and rebuilds ``lo``, ``hi`` and their FOC
    values with `numpy.where`. Returns the scores, flags and values."""
    tol = optimizer.FOC_ROOT_TOL
    n = np.array(ns, dtype=float).reshape(-1)

    def g(E, n):
        return optimizer._foc(np.clip(link.k * E + link.b, 0.0, 1.0), n, params, cost)

    g0, g100 = g(0.0, n), g(100.0, n)
    lower = g0 <= tol
    scores = np.where(lower, 0.0, 100.0)
    at_boundary = np.where(lower, g0 < -tol, g100 > tol)

    inner = np.flatnonzero(~lower & (g100 < -tol))
    lo, hi = np.zeros(inner.size), np.full(inner.size, 100.0)
    g_lo, g_hi, n_in = g0[inner], g100[inner], n[inner]
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        g_mid = g(mid, n_in)
        up = live & (g_mid > 0.0)
        down = live & ~up
        lo, g_lo = np.where(up, mid, lo), np.where(up, g_mid, g_lo)
        hi, g_hi = np.where(down, mid, hi), np.where(down, g_mid, g_hi)
    scores[inner] = np.where(np.abs(g_lo) <= np.abs(g_hi), lo, hi)

    values = optimizer._objective(success_probability(scores, link), n, params, cost)
    return scores, at_boundary, values


@st.composite
def _group_problems(draw):
    """Sizes and a calibration for the group engine: integer and fractional
    sizes up to 1000, links up to the cap's slack, where ``100k + b > 1``
    and the clip to e = 1 binds, and half the time revenues on the scale of
    `FOC_ROOT_TOL` with a cost that puts ``g`` at one endpoint, for the
    first size, within a few ulps of ``-FOC_ROOT_TOL`` or ``+FOC_ROOT_TOL``."""
    b = draw(st.floats(0.0, 1.0, exclude_max=True), "b")
    k_top = (1.0 + 0.5 * LINK_CAP_SLACK - b) / 100.0
    k = draw(st.floats(0.0, k_top, exclude_min=True) | st.just(k_top), "k")
    link = ScoreLink(k=k, b=b)
    sizes = draw(st.lists(st.integers(1, 1000) | st.floats(1.0, 1000.0),
                          min_size=1, max_size=8), "sizes")
    y_low = draw(st.floats(50.0, 800.0), "y_low")
    y_high = y_low + draw(st.floats(50.0, 1500.0), "y_gap")
    if not draw(st.booleans(), "near the tolerance"):
        params = MarketParams(p=draw(st.floats(0.2, 3.0), "p"), y_high=y_high,
                              y_low=y_low, loan=100.0, epsilon=0.05, delta=0.9)
        return sizes, params, CostModel(c=draw(st.floats(100.0, 4000.0), "c")), link
    tol = optimizer.FOC_ROOT_TOL
    p = draw(st.floats(1.0, 4.0), "revenue / tol") * tol / y_high
    params = MarketParams(p=p, y_high=y_high, y_low=y_low, loan=100.0,
                          epsilon=0.05, delta=0.9)
    e = min(k * draw(st.sampled_from([0.0, 100.0]), "endpoint") + b, 1.0)
    assume(e > 0.0)
    target = draw(st.sampled_from([-tol, tol]), "g at the endpoint")
    n = float(sizes[0])
    c = (params.high_revenue
         + params.low_revenue * (n * (1.0 - e) ** (n - 1.0) - 1.0) - target) / e
    assume(0.0 < c < math.inf)
    for _ in range(draw(st.integers(0, 3), "ulps")):
        c = np.nextafter(c, draw(st.sampled_from([0.0, math.inf]), "toward"))
    return sizes, params, CostModel(c=float(c)), link


class TestLockstepBisectionMatchesReference:
    """The engine's scores, flags and values are bit-identical to the
    reference loop's."""

    @staticmethod
    def _assert_identical(sizes, params, cost, link):
        got = optimal_ese_group_batch(sizes, params, cost, link)
        want = _lockstep_reference(sizes, params, cost, link)
        for field, expected in zip(Optima._fields, want):
            assert getattr(got, field).tobytes() == expected.tobytes(), field

    @given(problem=_group_problems())
    @settings(max_examples=400)
    def test_random_problems(self, problem):
        self._assert_identical(*problem)

    def test_default_grid(self):
        """`sweep-group-size --n-max 1000` at its defaults, where the roots
        of large n land exactly on E = 50, the large-group limit."""
        sizes = range(1, 1001)
        self._assert_identical(sizes, BASE, COST, LINK)
        scores = optimal_ese_group_batch(sizes, BASE, COST, LINK).score
        assert ese_limit(BASE, COST, LINK).score == 50.0
        assert np.count_nonzero(scores == 50.0) > 100


@st.composite
def _links_and_scores(draw):
    """A valid `ScoreLink`, with b = -0.0, k = 0 and ``100k + b`` at the
    top of the cap's slack among the draws, and the midpoints of one path of
    the group engine's bisection on [0, 100]."""
    b = draw(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 1.0]), "b")
    k_top = (1.0 + LINK_CAP_SLACK - b) / 100.0
    k = draw(st.floats(0.0, k_top) | st.sampled_from([-0.0, 0.0, k_top]), "k")
    while 100.0 * k + b > 1.0 + LINK_CAP_SLACK:
        k = float(np.nextafter(k, 0.0))
    lo, hi, mids = 0.0, 100.0, []
    for up in draw(st.lists(st.booleans(), max_size=64), "path"):
        mids.append(0.5 * (lo + hi))
        lo, hi = (mids[-1], hi) if up else (lo, mids[-1])
    return ScoreLink(k=k, b=b), np.array(mids)


class TestGroupEngineNeedsNoLowerClip:
    """The group engine maps a score to ``e`` with ``np.minimum(k*E + b,
    1.0)``: for every valid link and every score its ``g`` sees (the
    endpoints as floats, bisection midpoints as an array), that is
    bit-identical to ``np.clip(k*E + b, 0.0, 1.0)``."""

    @given(case=_links_and_scores())
    @settings(max_examples=300)
    def test_minimum_is_clip(self, case):
        link, mids = case
        for E in (0.0, 100.0, mids):
            x = link.k * E + link.b
            capped, clipped = np.minimum(x, 1.0), np.clip(x, 0.0, 1.0)
            assert type(capped) is type(clipped)
            assert np.asarray(capped).tobytes() == np.asarray(clipped).tobytes()


# ----------------------------------------------------------------------
# group-size sensitivity
# ----------------------------------------------------------------------


class TestGroupSizeDerivative:
    """dE/dn from the implicit function theorem on the group condition."""

    def test_reference_value(self):
        """At the n=3 optimum (e = 2/3): numerator
        500*(1/9)*(1 + 3*ln(1/3)) = -127.55, denominator
        0.01*(500*6*(1/3) + 1000) = 20, giving -6.3773..."""
        value = dE_dn(3, 200.0 / 3.0, BASE, COST, LINK)
        np.testing.assert_allclose(value, -6.377324627789804, atol=1e-9)

    def test_positive_for_small_groups(self):
        """At n=1, e=0.5: 1 + ln(0.5) > 0, so the derivative is positive:
        500*(1 + ln 0.5)/10 = 15.3426..."""
        value = dE_dn(1, 50.0, BASE, COST, LINK)
        np.testing.assert_allclose(value, 15.342640972002735, atol=1e-9)

    def test_sign_follows_log_term(self):
        """The sign matches 1 + n*ln(1-e) for a spread of points."""
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            E = rng.uniform(1.0, 99.0)
            e = 0.01 * E
            expected_sign = np.sign(1.0 + n * np.log1p(-e))
            value = dE_dn(n, E, BASE, COST, LINK)
            assert np.sign(value) == expected_sign

    def test_vanishes_for_large_groups(self):
        """The geometric factor kills the derivative as n grows."""
        opt = optimal_ese_group(100, BASE, COST, LINK)
        assert abs(dE_dn(100, opt.score, BASE, COST, LINK)) < 1e-6

    def test_as_printed_variant_differs(self):
        """The companion denominator (k*y_low-term plus c*e) shares the
        sign but is a factor ~34 larger at the n=3 anchor."""
        canonical = dE_dn(3, 200.0 / 3.0, BASE, COST, LINK)
        printed = dE_dn_as_printed(3, 200.0 / 3.0, BASE, COST, LINK)
        np.testing.assert_allclose(printed, -0.18849235353073307, atol=1e-9)
        assert np.sign(printed) == np.sign(canonical)
        assert abs(canonical / printed) > 30.0

    def test_finite_for_huge_groups(self):
        """At n = 1e154 and 1e300, where n (n-1) pYl overflows and
        (1-e)^(n-2) underflows, both variants return the limit -0.0 with
        no floating-point warning (they used to return nan)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1e154, 1e300):
                for route in (dE_dn, dE_dn_as_printed):
                    value = route(n, 50.0, BASE, COST, LINK)
                    assert value == 0.0 and math.copysign(1.0, value) == -1.0

    def test_domain_errors(self):
        """e in {0, 1} and k = 0 leave the derivative undefined."""
        with pytest.raises(DomainError):
            dE_dn(3, 0.0, BASE, COST, LINK)
        with pytest.raises(DomainError):
            dE_dn(3, 100.0, BASE, COST, LINK)
        with pytest.raises(DomainError):
            dE_dn(3, 50.0, BASE, COST, ScoreLink(k=0.0, b=0.5))


# ----------------------------------------------------------------------
# large-group limit
# ----------------------------------------------------------------------


class TestEseLimit:
    """Limiting optimal score as the group grows without bound."""

    def test_reference_fifty(self):
        """Defaults: e_inf = (1000-500)/1000 = 0.5, so E = 50."""
        opt = ese_limit(BASE, COST, LINK)
        np.testing.assert_allclose(opt.score, 50.0, atol=1e-12)
        assert not opt.at_boundary

    def test_smaller_yield_gap(self):
        """Yields 600/300: e_inf = 0.3, so E = 30."""
        params = MarketParams(p=1.0, y_high=600.0, y_low=300.0, loan=100.0,
                              epsilon=0.05, delta=0.9)
        np.testing.assert_allclose(ese_limit(params, COST, LINK).score,
                                   30.0, atol=1e-12)

    def test_cancellation_to_zero(self):
        """y_high = y_low + c*b/p makes e_inf = b, so the score is 0."""
        params = MarketParams(p=1.0, y_high=800.0, y_low=500.0, loan=100.0,
                              epsilon=0.05, delta=0.9)
        opt = ese_limit(params, COST, ScoreLink(k=0.007, b=0.3))
        assert opt.score == 0.0

    def test_clamps_at_top(self):
        """A cheap effort technology pushes the raw limit past 100."""
        opt = ese_limit(BASE, CostModel(c=100.0), LINK)
        assert opt.score == 100.0
        assert opt.at_boundary

    def test_flat_link_pins_score_to_zero(self):
        """k=0: the limit is E = 0 at the boundary, as every group optimum
        is, with the limiting objective at e = b = 0.5:
        500 - 105 + 500 * 0.5 - 125 = 520."""
        opt = ese_limit(BASE, COST, ScoreLink(k=0.0, b=0.5))
        assert opt == Optimum(0.0, True, 520.0)

    def test_group_solver_converges_to_limit(self):
        """optimal_ese_group approaches the limit from above as n grows."""
        limit = ese_limit(BASE, COST, LINK).score
        gaps = [optimal_ese_group(n, BASE, COST, LINK).score - limit
                for n in (10, 30, 100)]
        assert all(gap >= -1e-9 for gap in gaps)
        assert all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
