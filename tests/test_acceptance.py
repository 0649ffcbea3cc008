"""Acceptance gate for the lending model library.

One test per acceptance criterion, each printing a single line

    acceptance <name>: PASS/FAIL (detail)

so a full run reads as a checklist (use ``pytest tests/test_acceptance.py
-v -rA`` to see the lines for passing tests too). Every quantitative
tolerance and runtime budget is asserted, not just reported.

The four sweep direction properties assert the directions the
mean-variance model implies: at the default calibration the optimal
score never falls as risk aversion grows, never rises with the climate
baseline or the effort cost, and is no higher in the low-yield scenario
than in the high-yield one. Before reading any optimum, the risk, cost
and yield tests each check, on the moment polynomials alone, the sign
condition that fixes their direction, and each pins the closed-form
values the README cites, so a sweep engine that reverses a direction
fails here.
"""

import math
import time

import numpy as np
import pytest

from eselend import (
    CostModel,
    DomainError,
    MarketParams,
    MetricRecord,
    ScoreLink,
    ScoringScheme,
    MetricDef,
    argmax_grid,
    binding_repayment,
    composite_score,
    dE_dn,
    enumerate_member_profit,
    ese_limit,
    expected_profit_group,
    expected_profit_group_sum,
    group_objective,
    loan_ceiling_affordability,
    loan_ceiling_incentive,
    mv_foc,
    mv_utility,
    optimal_ese_group,
    optimal_ese_mv,
    optimal_ese_mv_batch,
    optimal_ese_pair,
    optimal_ese_pair_as_printed,
    profit_distribution_pair,
    profit_moments_pair,
    simulate_member_profit,
    success_probability,
)
from eselend import cli
from eselend.cli import main as cli_main
from eselend.mean_variance import (
    DEFAULT_SWEEP_PARAMS,
    DEFAULT_SWEEP_W,
    slope_for_baseline,
)
from eselend import SimConfig

BASE = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                    epsilon=0.05, delta=0.9)
COST = CostModel(c=1000.0)
LINK = ScoreLink(k=0.01, b=0.0)


def _cli_defaults(command):
    return cli._resolve(cli.build_parser().parse_args([command]), command)


# The grids `eselend sweep-mv` and `eselend sweep-yield` run by default (the
# two share one gamma grid), so the sweep directions below are asserted on
# what the command line ships.
_MV_DEFAULTS = _cli_defaults("sweep-mv")
BASELINES = cli._parse_grid(_MV_DEFAULTS["b_set"], "b-set")
COSTS = cli._parse_grid(_MV_DEFAULTS["c_set"], "c-set")
GAMMA_GRID = cli._parse_grid(_MV_DEFAULTS["gamma_grid"], "gamma-grid")
YIELD_PAIRS = cli._parse_yield_pairs(_cli_defaults("sweep-yield")["yields"])


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {status}{suffix}")


def _random_params(rng, *, eps_hi=0.2):
    p = rng.uniform(0.2, 3.0)
    y_low = rng.uniform(50.0, 800.0)
    y_high = y_low + rng.uniform(50.0, 1500.0)
    return MarketParams(p=p, y_high=y_high, y_low=y_low,
                        loan=rng.uniform(10.0, 400.0),
                        epsilon=rng.uniform(0.0, eps_hi),
                        delta=rng.uniform(0.05, 0.95))


def _random_link(rng):
    k = rng.uniform(1e-3, 0.0095)
    b = rng.uniform(0.05, 1.0 - 100.0 * k)
    return ScoreLink(k=k, b=b)


# ----------------------------------------------------------------------
# group profit identity
# ----------------------------------------------------------------------


def test_criterion_01_group_profit_identity():
    """Closed-form and binomial-sum member profit agree to 1e-10 relative
    over n in 1..60, e in {0.01..0.99}, and 20 random (w, params) draws,
    in under 5 seconds. Differences are measured against the profit
    magnitude, floored at one currency unit, so zero crossings do not
    inflate the ratio."""
    rng = np.random.default_rng(42)
    scores = np.arange(1.0, 100.0)  # e = 0.01..0.99 through k=0.01, b=0
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        params = _random_params(rng)
        w = rng.uniform(10.0, 900.0)
        cost = CostModel(c=rng.uniform(100.0, 4000.0))
        for n in range(1, 61):
            closed = expected_profit_group(scores, n, w, params, cost, LINK)
            summed = expected_profit_group_sum(scores, n, w, params, cost, LINK)
            scale = np.maximum(np.maximum(np.abs(closed), np.abs(summed)), 1.0)
            worst = max(worst, float(np.max(np.abs(closed - summed) / scale)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("group profit identity", ok,
            f"worst relative gap {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10, (
        f"closed-form and summed group profit disagree: {worst:.3e}")
    assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s (budget 5s)"


# ----------------------------------------------------------------------
# ceiling ordering
# ----------------------------------------------------------------------


def test_criterion_02_affordability_dominates_incentive():
    """L1 > L2 strictly on 10,000 random valid parameter points in under
    1 second."""
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    checked = 0
    min_gap = math.inf
    for _ in range(200):
        params = _random_params(rng)
        e = rng.uniform(0.01, 1.0, size=50)
        l1 = loan_ceiling_affordability(e, params)
        l2 = loan_ceiling_incentive(e, params)
        min_gap = min(min_gap, float(np.min(l1 - l2)))
        checked += e.size
    elapsed = time.perf_counter() - started
    ok = min_gap > 0.0 and elapsed < 1.0
    _report("affordability ceiling dominates", ok,
            f"{checked} points, smallest L1-L2 gap {min_gap:.6g}, "
            f"{elapsed:.2f}s")
    assert checked == 10_000
    assert min_gap > 0.0, f"found L1 <= L2 (worst gap {min_gap:.6g})"
    assert elapsed < 1.0, f"ceiling sweep took {elapsed:.2f}s (budget 1s)"


def test_criterion_03_incentive_ceiling_rises_with_score():
    """The centered finite difference of L2 along the score axis is
    positive at every E in 1..99 for 100 random parameter sets, in under
    1 second."""
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    min_slope = math.inf
    for _ in range(100):
        params = _random_params(rng)
        link = _random_link(rng)
        grid = np.arange(0.0, 101.0)
        l2 = loan_ceiling_incentive(
            np.asarray(success_probability(grid, link)), params)
        slopes = (l2[2:] - l2[:-2]) / 2.0
        min_slope = min(min_slope, float(np.min(slopes)))
    elapsed = time.perf_counter() - started
    ok = min_slope > 0.0 and elapsed < 1.0
    _report("incentive ceiling rises with score", ok,
            f"smallest centered slope {min_slope:.6g}, {elapsed:.2f}s")
    assert min_slope > 0.0, (
        f"L2 fails to rise somewhere (worst slope {min_slope:.6g})")
    assert elapsed < 1.0, f"slope sweep took {elapsed:.2f}s (budget 1s)"


# ----------------------------------------------------------------------
# pair optimum consistency
# ----------------------------------------------------------------------


def test_criterion_04_pair_routes_agree():
    """On 200 random parameter sets the closed-form pair optimum matches
    a blind argmax of the substituted objective within 1e-6 and the n=2
    group solver within 1e-8. The as-printed companion formula is
    reported for visibility but exempt from the gate: it is a different
    expression that only coincides at c = 2*p*y_high."""
    rng = np.random.default_rng(11)
    worst_argmax = 0.0
    worst_group = 0.0
    printed_gaps = []
    for _ in range(200):
        params = _random_params(rng)
        cost = CostModel(c=rng.uniform(100.0, 4000.0))
        k = rng.uniform(1e-3, 0.01)
        link = ScoreLink(k=k, b=rng.uniform(0.0, 1.0 - 100.0 * k))
        closed = optimal_ese_pair(params, cost, link)
        blind = argmax_grid(lambda E: group_objective(E, 2, params, cost, link))
        grp = optimal_ese_group(2, params, cost, link)
        worst_argmax = max(worst_argmax, abs(closed.score - blind.score))
        worst_group = max(worst_group, abs(closed.score - grp.score))
        try:
            printed = optimal_ese_pair_as_printed(params, cost, link)
            printed_gaps.append(abs(printed - closed.score))
        except DomainError:
            # The variant is singular at c = 2*p*y_low; skip such draws.
            pass
    gaps = np.array(printed_gaps)
    ok = worst_argmax <= 1e-6 and worst_group <= 1e-8
    _report("pair optimum route agreement", ok,
            f"argmax gap {worst_argmax:.3e}, n=2 gap {worst_group:.3e}; "
            f"as-printed variant deviates median {np.median(gaps):.3g}, "
            f"max {gaps.max():.3g} over {gaps.size} draws (exempt)")
    assert worst_argmax <= 1e-6, (
        f"closed form vs argmax disagree by {worst_argmax:.3e}")
    assert worst_group <= 1e-8, (
        f"closed form vs n=2 solver disagree by {worst_group:.3e}")


# ----------------------------------------------------------------------
# group-size sweep shape
# ----------------------------------------------------------------------


def test_criterion_05_group_size_sweep():
    """Reference calibration (p=1, k=0.01, b=0, yields 1000/500, c=1000):
    the optimal score is 100 for a lone borrower, 75 +- 1e-6 for a pair,
    non-increasing across n = 1..100, and within 0.5 of the limiting
    score 50 at n=100, all in under 2 seconds."""
    started = time.perf_counter()
    scores = [optimal_ese_group(n, BASE, COST, LINK).score
              for n in range(1, 101)]
    elapsed = time.perf_counter() - started
    limit = ese_limit(BASE, COST, LINK).score
    monotone = all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))
    ok = (abs(scores[0] - 100.0) < 1e-9 and abs(scores[1] - 75.0) <= 1e-6
          and monotone and abs(scores[99] - 50.0) <= 0.5 and limit == 50.0
          and elapsed < 2.0)
    _report("group size sweep", ok,
            f"E(1)={scores[0]:.6f}, E(2)={scores[1]:.6f}, "
            f"E(100)={scores[99]:.6f}, limit {limit:.1f}, {elapsed:.2f}s")
    assert abs(scores[0] - 100.0) < 1e-9
    assert abs(scores[1] - 75.0) <= 1e-6
    assert monotone, "optimal score increased when the group grew"
    assert abs(scores[99] - 50.0) <= 0.5
    np.testing.assert_allclose(limit, 50.0, atol=1e-12)
    assert elapsed < 2.0, f"sweep took {elapsed:.2f}s (budget 2s)"


def test_criterion_06_group_size_derivative():
    """The analytic dE/dn matches centered finite differences of the
    fractional-n solver within 5% relative at n in {3, 5, 10, 30}, and
    the derivative magnitude falls below 1e-6 by n=100."""
    h = 0.05
    worst_rel = 0.0
    for n in (3, 5, 10, 30):
        at_n = optimal_ese_group(n, BASE, COST, LINK).score
        analytic = dE_dn(n, at_n, BASE, COST, LINK)
        up = optimal_ese_group(n + h, BASE, COST, LINK).score
        down = optimal_ese_group(n - h, BASE, COST, LINK).score
        fd = (up - down) / (2.0 * h)
        worst_rel = max(worst_rel, abs(fd - analytic) / abs(analytic))
    tail = optimal_ese_group(100, BASE, COST, LINK).score
    tail_slope = abs(dE_dn(100, tail, BASE, COST, LINK))
    ok = worst_rel <= 0.05 and tail_slope < 1e-6
    _report("group size derivative", ok,
            f"worst relative FD gap {worst_rel:.3e}, "
            f"|dE/dn| at n=100 is {tail_slope:.3e}")
    assert worst_rel <= 0.05, (
        f"analytic dE/dn disagrees with finite differences: {worst_rel:.3%}")
    assert tail_slope < 1e-6, (
        f"dE/dn has not vanished by n=100: {tail_slope:.3e}")


# ----------------------------------------------------------------------
# moment algebra and utility gradient
# ----------------------------------------------------------------------


def test_criterion_07_moments_and_gradient():
    """The polynomial variance expansion equals the enumerated variance
    within 1e-10 relative over e in {0.01..0.99} x 20 random (w, params)
    draws, and the analytic utility derivative matches centered finite
    differences within 1e-6 of the derivative scale at 1000 random
    points."""
    rng = np.random.default_rng(42)
    worst_var = 0.0
    for _ in range(20):
        params = _random_params(rng)
        w = rng.uniform(10.0, 900.0)
        for e in np.arange(0.01, 1.0, 0.01):
            poly = profit_moments_pair(float(e), w, params)
            dist = profit_distribution_pair(float(e), w, params)
            scale = max(abs(poly.variance), abs(dist.variance()), 1.0)
            worst_var = max(worst_var,
                            abs(poly.variance - dist.variance()) / scale)

    h = 1e-4
    gaps = np.empty(1000)
    magnitudes = np.empty(1000)
    for i in range(1000):
        params = _random_params(rng)
        cost = CostModel(c=rng.uniform(100.0, 4000.0))
        k = rng.uniform(1e-3, 0.01)
        link = ScoreLink(k=k, b=rng.uniform(0.0, 1.0 - 100.0 * k))
        E = rng.uniform(1.0, 99.0)
        w = rng.uniform(10.0, 900.0)
        gamma = rng.uniform(0.0, 1.0)
        analytic = mv_foc(E, w, params, gamma, cost, link)
        fd = (mv_utility(E + h, w, params, gamma, cost, link)
              - mv_utility(E - h, w, params, gamma, cost, link)) / (2.0 * h)
        gaps[i] = abs(fd - analytic)
        magnitudes[i] = abs(analytic)
    rel_gap = float(gaps.max() / magnitudes.max())

    ok = worst_var <= 1e-10 and rel_gap <= 1e-6
    _report("moment algebra and utility gradient", ok,
            f"variance route gap {worst_var:.3e}, "
            f"gradient FD gap {rel_gap:.3e} of scale")
    assert worst_var <= 1e-10, (
        f"polynomial vs enumerated variance disagree: {worst_var:.3e}")
    assert rel_gap <= 1e-6, (
        f"analytic derivative vs finite differences disagree: {rel_gap:.3e}")


# ----------------------------------------------------------------------
# sweep direction properties
# ----------------------------------------------------------------------
#
# Each direction below follows from the sign of a cross-difference of the
# utility U(e) = mean - (gamma/2) var - c e^2/2 (monotone comparative
# statics: Topkis 1978, "Minimizing a submodular function on a lattice";
# Milgrom & Shannon 1994, "Monotone Comparative Statics"). The tests check
# that sign on dense grids of the moment polynomials, without calling the
# optimizer, and compute every expected score from closed forms or from
# those polynomials, never from `optimal_ese_mv` itself.


def _spreads(params, w):
    """``A = pYh - w`` and ``B = pYh + pYl - 2w``; ``w`` may be an array."""
    return (params.high_revenue - w,
            params.high_revenue + params.low_revenue - 2.0 * w)


def _moment_polys(e, A, B):
    """Pair-member profit mean and variance as polynomials in ``e`` (the
    expansions in the `eselend.mean_variance` module docstring)."""
    mean = e * e * A + e * (1.0 - e) * B
    var = ((e**2 - e**4) * A * A + (e - 2.0 * e**2 + 2.0 * e**3 - e**4) * B * B
           - 2.0 * (e**3 - e**4) * A * B)
    return mean, var


def _utility(e, params, w, gamma, c):
    """Mean-variance utility from the moment polynomials, vectorized."""
    mean, var = _moment_polys(e, *_spreads(params, w))
    return mean - 0.5 * gamma * var - 0.5 * c * e * e


def _assert_polys_match_library(params, w):
    """The polynomials above agree with the library's enumeration route."""
    for e in np.linspace(0.0, 1.0, 11):
        moments = profit_moments_pair(float(e), w, params)
        mean, var = _moment_polys(e, *_spreads(params, w))
        np.testing.assert_allclose([mean, var],
                                   [moments.mean, moments.variance],
                                   rtol=1e-10, atol=1e-6)


def _risk_neutral_score(params, w, c, b):
    """Closed-form optimum at gamma = 0 for a fixed ``w``.

    Mean minus effort cost is the concave quadratic
    ``e B - e^2 (B - A + c/2)``, maximal at ``e_R = B / (2(B - A) + c)``,
    so the score is ``clip((e_R - b) / k, 0, 100)``.
    """
    A, B = _spreads(params, w)
    e_r = B / (2.0 * (B - A) + c)
    return min(max((e_r - b) / slope_for_baseline(b), 0.0), 100.0)


@pytest.fixture(scope="module")
def mv_sweep():
    """Optimal MV scores over the default sweep grid (3 baselines x 5
    costs x 21 gammas at the fixed obligation w=140), computed once.
    The 10-second budget of the risk-aversion test covers this grid.
    The risk-aversion, baseline and effort-cost directions are all read
    from it."""
    started = time.perf_counter()
    scores = {}
    for b in BASELINES:
        link = ScoreLink(k=slope_for_baseline(b), b=b)
        for c in COSTS:
            cost = CostModel(c=c)
            for gamma in GAMMA_GRID:
                opt = optimal_ese_mv(DEFAULT_SWEEP_W, DEFAULT_SWEEP_PARAMS,
                                     gamma, cost, link)
                scores[(b, c, gamma)] = opt.score
    return scores, time.perf_counter() - started


def test_criterion_08a_score_vs_risk_aversion(mv_sweep):
    """The optimal score is non-decreasing in gamma within every
    (baseline, cost) cell at the fixed obligation w = 140.

    Why: gamma enters dU/de as -V'(e)/2, so U has increasing differences
    in (e, gamma) wherever the variance V falls. At w = 140, V peaks at
    e_V ~ 0.434 and falls to 0 at e = 1. Baselines 0.5 and 0.7 keep every
    score above e_V. For b = 0.3, each e < e_V loses at every gamma to the
    e' > e_V with V(e') = V(e): mean minus effort cost R is a quadratic
    symmetric about e_R, and e + e' <= 0.879 < 2 e_R (at least 0.897 on
    the default costs), so R(e') > R(e). No optimum lies below e_V, and on
    [e_V, 1] the optimum cannot fall as gamma rises. The test checks these
    preconditions on the moment polynomials before it reads the sweep.

    Every cell sits at E = 100 from gamma = 0.05 on (b = 0.3, c = 800:
    71.80 at gamma = 0, then 100), so the default grid sees one
    informative step. The rise itself is continuous: a scan of the same
    cells over gamma in (0, 4e-3] moves less than one score point per
    step and reaches 100 exactly where e = 1 becomes the maximizer,
    gamma_1(c) = 2(c + B - 2A) / (A^2 + (A - B)^2), from 6.9e-4 at
    c = 800 to 3.5e-3 at c = 2000.

    The direction depends on the calibration; it is not a law of the
    model. With the break-even obligation at b = 0.3, c = 2000, the
    optimum falls from 28.57 at gamma = 0 to 0 near gamma = 1.7e-3, jumps
    to about 89.4 near 2.9e-3 and then reaches 100. A 100,001-point scan
    of the utility confirms 28.57 at gamma = 0, 0 at 2e-3 and 100 at 5e-3,
    and the optimizer matches it.
    """
    scores, elapsed = mv_sweep
    params, w = DEFAULT_SWEEP_PARAMS, DEFAULT_SWEEP_W
    _assert_polys_match_library(params, w)
    A, B = _spreads(params, w)

    # Preconditions, from the moment polynomials alone.
    e = np.linspace(0.0, 1.0, 1_000_001)
    mean, var = _moment_polys(e, A, B)
    peak = int(np.argmax(var))
    e_v = float(e[peak])
    assert np.all(np.diff(var[peak:]) < 0.0), "variance does not fall on [e_V, 1]"
    two_e_r = min(2.0 * B / (2.0 * (B - A) + c) for c in COSTS)
    pair_sum = 0.0
    for b in BASELINES:
        below = e[(e >= b) & (e < e_v)]
        if below.size:
            twin = np.interp(_moment_polys(below, A, B)[1],
                             var[peak:][::-1], e[peak:][::-1])
            pair_sum = max(pair_sum, float(np.max(below + twin)))
    assert abs(e_v - 0.434) < 1e-3, f"variance peaks at e={e_v:.4f}"
    assert pair_sum <= 0.879 < 0.897 <= two_e_r, (
        f"e + e' reaches {pair_sum:.4f} against 2 e_R = {two_e_r:.4f}")
    inner = (e >= min(BASELINES)) & (e < 1.0)
    gamma_one = {}
    for c in COSTS:
        gamma_one[c] = 2.0 * (c + B - 2.0 * A) / (A * A + (A - B) ** 2)
        # U(1) >= U(e) on the whole range once gamma reaches gamma_1(c),
        # since U(1) - U(e) = R(1) - R(e) + (gamma/2) V(e); below it
        # dU/de < 0 at e = 1, so E = 100 is not optimal.
        revenue = mean - 0.5 * c * e * e
        worst = np.max(2.0 * (revenue[inner] - revenue[-1]) / var[inner])
        assert worst <= gamma_one[c], f"c={c:g}: e=1 loses at gamma_1"

    # The default grid.
    violations = []
    for b in BASELINES:
        for c in COSTS:
            for g0, g1 in zip(GAMMA_GRID, GAMMA_GRID[1:]):
                lo, hi = scores[(b, c, g0)], scores[(b, c, g1)]
                if hi < lo - 1e-6:
                    violations.append((b, c, g0, g1, lo, hi))
    expected = _risk_neutral_score(params, w, 800.0, 0.3)
    corner = [scores[(b, c, g)] for b in BASELINES
              for c in COSTS for g in GAMMA_GRID[1:]]

    # A fine gamma scan of the same cells, in one batch.
    fine = np.linspace(0.0, 4e-3, 801)[1:]
    started = time.perf_counter()
    cells = [(params, float(g), CostModel(c=c),
              ScoreLink(k=slope_for_baseline(b), b=b))
             for b in BASELINES for c in COSTS for g in fine]
    fine_scores = optimal_ese_mv_batch(w, cells).score
    fine_scores = fine_scores.reshape(len(BASELINES),
                                      len(COSTS), fine.size)
    elapsed += time.perf_counter() - started
    path_gammas = np.concatenate([[0.0], fine])
    largest_step = 0.0
    threshold_misses = []
    for i, b in enumerate(BASELINES):
        for j, c in enumerate(COSTS):
            path = np.concatenate([[scores[(b, c, 0.0)]], fine_scores[i, j]])
            steps = np.diff(path)
            largest_step = max(largest_step, float(steps.max()))
            for n in np.flatnonzero(steps < -1e-6):
                violations.append((b, c, path_gammas[n], path_gammas[n + 1],
                                   path[n], path[n + 1]))
            at_corner = np.abs(fine_scores[i, j] - 100.0) <= 1e-6
            if np.any(at_corner != (fine >= gamma_one[c])):
                threshold_misses.append((b, c))

    # Break-even obligation at b = 0.3, c = 2000: the direction reverses.
    b, c = 0.3, 2000.0
    link = ScoreLink(k=slope_for_baseline(b), b=b)
    grid = np.linspace(0.0, 100.0, 100_001)
    e_grid = link.k * grid + b
    w_grid = params.loan * (1.0 + params.epsilon) / (1.0 - (1.0 - e_grid) ** 2)
    _assert_polys_match_library(params, float(w_grid[0]))
    # At gamma = 0 the mean collapses to e pYh + e(1-e) pYl - L(1+eps).
    e_star = ((params.high_revenue + params.low_revenue)
              / (2.0 * params.low_revenue + c))
    break_even = {0.0: (e_star - b) / link.k}
    break_even_opt = {}
    for gamma in (0.0, 2e-3, 5e-3):
        dense = float(grid[np.argmax(_utility(e_grid, params, w_grid, gamma, c))])
        break_even.setdefault(gamma, dense)
        assert abs(dense - break_even[gamma]) <= 1e-3
        break_even_opt[gamma] = optimal_ese_mv(
            None, params, gamma, CostModel(c=c), link).score

    ok = (not violations and not threshold_misses and largest_step < 1.0
          and elapsed < 10.0)
    detail = (f"default grid and {fine.size}-point fine scan in "
              f"{elapsed:.2f}s; largest fine step {largest_step:.3f}")
    if violations:
        b, c, g0, g1, lo, hi = violations[0]
        detail += (f"; {len(violations)} falling steps, first at b={b}, "
                   f"c={c:g}: score {lo:.2f} -> {hi:.2f} as gamma "
                   f"{g0:g} -> {g1:g}")
    _report("score non-decreasing in risk aversion", ok, detail)
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s (budget 10s)"
    assert not violations, (
        f"optimal score falls with risk aversion in {len(violations)} "
        f"adjacent gamma steps; first: b={violations[0][0]}, "
        f"c={violations[0][1]:g}, score {violations[0][4]:.2f} -> "
        f"{violations[0][5]:.2f} as gamma {violations[0][2]:g} -> "
        f"{violations[0][3]:g}")
    assert round(expected, 2) == 71.80
    assert abs(scores[(0.3, 800.0, 0.0)] - expected) <= 1e-6
    assert abs(scores[(0.3, 800.0, 0.05)] - 100.0) <= 1e-6
    assert max(abs(s - 100.0) for s in corner) <= 1e-6, (
        "a cell is below E = 100 at some gamma >= 0.05")
    assert largest_step < 1.0, (
        f"the fine gamma scan jumps by {largest_step:.3f} score points")
    assert not threshold_misses, (
        f"E = 100 is reached away from gamma_1(c) in cells {threshold_misses}")
    assert round(break_even[0.0], 2) == 28.57
    assert break_even[2e-3] == 0.0 and break_even[5e-3] == 100.0
    for gamma, score in break_even_opt.items():
        assert abs(score - break_even[gamma]) <= 1e-6, (
            f"break-even w, gamma={gamma:g}: optimum {score:.6f}, "
            f"expected {break_even[gamma]:.6f}")


def test_criterion_08b_score_vs_baseline(mv_sweep):
    """The optimal score is non-increasing in the climate baseline b for
    every (gamma, cost) pair: a better exogenous environment lowers the
    score the contract needs."""
    scores, _ = mv_sweep
    violations = []
    for c in COSTS:
        for gamma in GAMMA_GRID:
            by_b = [scores[(b, c, gamma)] for b in BASELINES]
            for (b0, s0), (b1, s1) in zip(zip(BASELINES, by_b),
                                          zip(BASELINES[1:], by_b[1:])):
                if s1 > s0 + 1e-6:
                    violations.append((gamma, c, b0, b1, s0, s1))
    ok = not violations
    detail = "no rising steps across baselines"
    if violations:
        gamma, c, b0, b1, s0, s1 = violations[0]
        detail = (f"{len(violations)} rising steps, first at gamma={gamma:g}, "
                  f"c={c:g}: score {s0:.2f} -> {s1:.2f} as b {b0} -> {b1}")
    _report("score non-increasing in baseline", ok, detail)
    assert not violations, (
        f"optimal score rises with the baseline in {len(violations)} steps")


def test_criterion_08c_score_vs_cost(mv_sweep):
    """The optimal score is non-increasing in the effort cost scale c
    within every (gamma, baseline) cell of the default grid.

    Why: c enters U only through -c e^2/2, so d2U/(de dc) = -e < 0 on the
    score range. U has strictly decreasing differences in (e, c), so every
    maximizer at a larger c is at most every maximizer at a smaller one.
    This holds at any gamma and for a fixed or break-even w. The test
    checks on a dense grid that U(e; c1) - U(e; c0) falls in e for each
    adjacent pair of costs before it reads the sweep. The gamma = 0 rows
    must equal the closed form E_R = clip((B/(2(B-A)+c) - b)/k, 0, 100);
    for b = 0.3 that is 71.80 at c = 800 down to 21.22 at c = 2000.
    """
    scores, _ = mv_sweep
    params, w = DEFAULT_SWEEP_PARAMS, DEFAULT_SWEEP_W
    _assert_polys_match_library(params, w)
    for b in BASELINES:
        e = np.linspace(b, 1.0, 10_001)
        for gamma in GAMMA_GRID:
            for c0, c1 in zip(COSTS, COSTS[1:]):
                gap = (_utility(e, params, w, gamma, c1)
                       - _utility(e, params, w, gamma, c0))
                assert np.max(np.diff(gap)) < 0.0, (
                    f"b={b}, gamma={gamma:g}: U(c={c1:g}) - U(c={c0:g}) "
                    f"does not fall in e")

    violations = []
    for b in BASELINES:
        for gamma in GAMMA_GRID:
            by_c = [scores[(b, c, gamma)] for c in COSTS]
            for (c0, s0), (c1, s1) in zip(zip(COSTS, by_c),
                                          zip(COSTS[1:], by_c[1:])):
                if s1 > s0 + 1e-6:
                    violations.append((b, gamma, c0, c1, s0, s1))
    closed = {(b, c): _risk_neutral_score(params, w, c, b)
              for b in BASELINES for c in COSTS}
    worst = max(abs(scores[(b, c, 0.0)] - closed[(b, c)]) for b, c in closed)
    ok = not violations and worst <= 1e-6
    detail = f"gamma=0 rows within {worst:.2e} of the closed form"
    if violations:
        b, gamma, c0, c1, s0, s1 = violations[0]
        detail += (f"; {len(violations)} rising steps, first at b={b}, "
                   f"gamma={gamma:g}: score {s0:.2f} -> {s1:.2f} as "
                   f"c {c0:g} -> {c1:g}")
    _report("score non-increasing in effort cost", ok, detail)
    assert not violations, (
        f"optimal score rises with the effort cost in {len(violations)} "
        f"adjacent cost steps; first: b={violations[0][0]}, "
        f"gamma={violations[0][1]:g}, score {violations[0][4]:.2f} -> "
        f"{violations[0][5]:.2f} as c {violations[0][2]:g} -> "
        f"{violations[0][3]:g}")
    assert worst <= 1e-6, (
        f"a gamma=0 optimum is {worst:.3e} away from the closed form")
    assert round(closed[(0.3, 800.0)], 2) == 71.80
    assert round(closed[(0.3, 2000.0)], 2) == 21.22


def test_criterion_08d_yield_scenarios():
    """The low-yield scenario (600, 300) never needs a higher score than
    the high-yield scenario (1000, 500) at b = 0.5, c = 1000, w = 140, at
    any gamma on the default grid.

    Why: the scenarios differ only in A and B, so the effort cost cancels
    in D(e) = U_high(e) - U_low(e). Where D strictly rises on [b, 1], U
    has strictly increasing differences in (e, scenario), and every
    high-yield maximizer is at least every low-yield one. The test checks
    that D rises (smallest step > 0 on a dense grid) at each gamma before
    it compares the optima. At gamma = 0 the order is strict: the
    high-yield e_R = 1220/1720 gives E = 41.86, while the low-yield
    e_R = 620/1320 = 0.470 lies below b = 0.5 and pins its score at 0.
    The low technology does cover the obligation (pYl = 300 > w = 140);
    it rewards effort less.
    """
    b = 0.5
    link = ScoreLink(k=slope_for_baseline(b), b=b)
    cost = CostModel(c=1000.0)
    w = DEFAULT_SWEEP_W
    scenarios = {}
    for y_high, y_low in YIELD_PAIRS:
        scenarios[(y_high, y_low)] = MarketParams(
            p=1.0, y_high=y_high, y_low=y_low, loan=100.0, epsilon=0.05,
            delta=0.9)
    high = scenarios[(1000.0, 500.0)]
    low = scenarios[(600.0, 300.0)]
    for params in (high, low):
        _assert_polys_match_library(params, w)
    e = np.linspace(b, 1.0, 100_001)
    for gamma in GAMMA_GRID:
        gap = (_utility(e, high, w, gamma, cost.c)
               - _utility(e, low, w, gamma, cost.c))
        assert np.min(np.diff(gap)) > 0.0, (
            f"gamma={gamma:g}: U_high - U_low does not rise in e")

    rows = {key: [optimal_ese_mv(w, params, gamma, cost, link).score
                  for gamma in GAMMA_GRID]
            for key, params in scenarios.items()}
    violations = []
    for gamma, s_high, s_low in zip(GAMMA_GRID, rows[(1000.0, 500.0)],
                                    rows[(600.0, 300.0)]):
        if s_low > s_high + 1e-6:
            violations.append((gamma, s_high, s_low))
    expected_high = _risk_neutral_score(high, w, cost.c, b)
    expected_low = _risk_neutral_score(low, w, cost.c, b)
    ok = not violations
    detail = "high-yield scenario needs at least the score at every gamma"
    if violations:
        gamma, s_high, s_low = violations[0]
        phrase = ("gamma point violates" if len(violations) == 1
                  else "gamma points violate")
        detail = (f"{len(violations)} {phrase}, first at "
                  f"gamma={gamma:g}: low-yield score {s_low:.2f} > "
                  f"high-yield score {s_high:.2f}")
    _report("yield scenario ordering", ok, detail)
    assert not violations, (
        f"the low-yield scenario scores above the high-yield one at "
        f"{len(violations)} of {len(GAMMA_GRID)} gamma points; "
        f"first at gamma={violations[0][0]:g}: {violations[0][2]:.2f} vs "
        f"{violations[0][1]:.2f}")
    assert low.low_revenue > w
    assert round(expected_high, 2) == 41.86 and expected_low == 0.0
    assert abs(rows[(1000.0, 500.0)][0] - expected_high) <= 1e-6
    assert abs(rows[(600.0, 300.0)][0] - expected_low) <= 1e-6


# ----------------------------------------------------------------------
# Monte Carlo consistency
# ----------------------------------------------------------------------


def test_criterion_09_monte_carlo():
    """With seed 42 and one million trials per cell, the simulated mean
    stays within 4 standard errors of the exact mean and the variance
    ratio within 1% for (e, n) in {0.3, 0.5, 0.8} x {2, 3, 10}, in under
    30 seconds. The obligation is the break-even w for each cell."""
    cfg = SimConfig(trials=1_000_000, seed=42)
    started = time.perf_counter()
    worst_z = 0.0
    worst_var = 0.0
    for e in (0.3, 0.5, 0.8):
        for n in (2, 3, 10):
            w = binding_repayment(e, n, BASE)
            exact = enumerate_member_profit(e, n, w, BASE)
            sim = simulate_member_profit(e, n, w, BASE, cfg)
            z = abs(sim.empirical_mean - exact.mean) / sim.std_error_mean
            ratio = abs(sim.empirical_variance / exact.variance - 1.0)
            worst_z = max(worst_z, z)
            worst_var = max(worst_var, ratio)
    elapsed = time.perf_counter() - started
    ok = worst_z <= 4.0 and worst_var <= 0.01 and elapsed < 30.0
    _report("Monte Carlo consistency", ok,
            f"max |z| {worst_z:.3f}, max variance deviation "
            f"{worst_var:.4%}, {elapsed:.2f}s")
    assert worst_z <= 4.0, f"simulated mean off by {worst_z:.2f} se"
    assert worst_var <= 0.01, f"variance ratio off by {worst_var:.3%}"
    assert elapsed < 30.0, f"simulation took {elapsed:.2f}s (budget 30s)"


# ----------------------------------------------------------------------
# scoring pipeline
# ----------------------------------------------------------------------


def test_criterion_10_scoring_pipeline(tmp_path):
    """Composite scores are bounded in [0, 100], metric weights conserve
    total mass, record order never matters, the toy two-farmer cohort
    lands on {0, 100}, and two identical CLI runs produce byte-identical
    output files."""
    rng = np.random.default_rng(42)
    scheme = ScoringScheme(schema=(
        MetricDef(id="soil", pillar="ENVIRONMENTAL",
                  direction="HIGHER_BETTER", kind="CONTINUOUS"),
        MetricDef(id="runoff", pillar="ENVIRONMENTAL",
                  direction="LOWER_BETTER", kind="CONTINUOUS"),
        MetricDef(id="training", pillar="SOCIAL",
                  direction="HIGHER_BETTER", kind="BINARY"),
        MetricDef(id="margin", pillar="ECONOMIC",
                  direction="HIGHER_BETTER", kind="CONTINUOUS")))

    records = []
    for farmer in range(15):
        records.append(MetricRecord(f"F{farmer:02d}", "soil",
                                    float(rng.normal(40.0, 12.0))))
        records.append(MetricRecord(f"F{farmer:02d}", "runoff",
                                    float(rng.uniform(0.0, 9.0))))
        records.append(MetricRecord(f"F{farmer:02d}", "training",
                                    float(rng.integers(0, 2))))
        records.append(MetricRecord(f"F{farmer:02d}", "margin",
                                    float(rng.normal(0.2, 0.1))))
    scores = composite_score(records, scheme)
    bounded = all(0.0 <= s <= 100.0 for s in scores.values())

    weight_total = sum(scheme.metric_weights().values())
    conserved = abs(weight_total - 1.0) <= 1e-12

    shuffled = list(records)
    rng.shuffle(shuffled)
    invariant = composite_score(shuffled, scheme) == scores

    toy = composite_score(
        [MetricRecord("F1", "m", 10.0), MetricRecord("F2", "m", 30.0)],
        ScoringScheme(schema=(MetricDef(id="m", pillar="ENVIRONMENTAL",
                                        direction="HIGHER_BETTER",
                                        kind="CONTINUOUS"),)))
    toy_exact = toy == {"F1": 0.0, "F2": 100.0}

    schema_csv = tmp_path / "schema.csv"
    schema_csv.write_text(
        "metric_id,pillar,direction,kind\n"
        "m,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n"
        "q,ECONOMIC,LOWER_BETTER,CONTINUOUS\n", encoding="utf-8")
    metrics_csv = tmp_path / "metrics.csv"
    metrics_csv.write_text(
        "farmer_id,metric_id,value\n"
        "F1,m,10\nF1,q,4\nF2,m,30\nF2,q,1\n", encoding="utf-8")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    rc_a = cli_main(["score", "--metrics", str(metrics_csv),
                     "--schema", str(schema_csv), "--out", str(out_a)])
    rc_b = cli_main(["score", "--metrics", str(metrics_csv),
                     "--schema", str(schema_csv), "--out", str(out_b)])
    deterministic = (rc_a == rc_b == 0
                     and out_a.read_bytes() == out_b.read_bytes())

    ok = bounded and conserved and invariant and toy_exact and deterministic
    _report("scoring pipeline", ok,
            f"bounded={bounded}, weights={weight_total:.12f}, "
            f"order-invariant={invariant}, toy={toy_exact}, "
            f"byte-deterministic={deterministic}")
    assert bounded, "a composite score left [0, 100]"
    assert conserved, f"metric weights sum to {weight_total!r}"
    assert invariant, "record order changed a composite score"
    assert toy_exact, f"toy cohort scored {toy}"
    assert deterministic, "identical runs produced different bytes"
