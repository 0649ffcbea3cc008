"""Optimal score computation for joint-liability groups.

The financed member picks the effort (equivalently, the score ``E`` through
the affine link) that maximizes expected profit under the binding repayment
contract. Substituting the binding ``w`` into expected profit leaves the
objective

``pi(E) = e*pYh - L(1+eps) + pYl*((1-e) - (1-e)^n) - c e^2 / 2``

whose stationary condition, divided through by ``k``, is

``g(E) = pYh + pYl*(n (1-e)^{n-1} - 1) - c e = 0``.

A pair is ``n = 2``, where `optimal_ese_pair` gives the optimum in closed
form. For general ``n``, ``g`` is strictly decreasing in ``e``, so the
optimum is its one root or an endpoint; `optimal_ese_group_batch` bisects
the roots of many group sizes in lockstep and `optimal_ese_group` solves
one. The objective and FOC routes take any real ``n >= 1``. A one-cell
solver returns an `Optimum` of Python scalars; a batch solver returns
`Optima`, one array per field, which callers hand on without building an
object per cell.
`argmax_grid` provides an independent derivative-free maximizer (a fixed
2,001-point grid plus golden-section refinement capped at 200 iterations),
a public utility and the cross-check route in the tests for the closed
forms and the mean-variance maximizer.

Two historically printed variants, `optimal_ese_pair_as_printed` and
`dE_dn_as_printed`, reproduce widely circulated but algebraically
inconsistent formulas for comparison. They are never used internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError, _raise_first
from .model_core import (
    CostModel,
    MarketParams,
    ScoreLink,
    _coverage,
    _group_size,
    _profit,
    success_probability,
)

__all__ = [
    "Optimum",
    "Optima",
    "group_objective",
    "group_foc",
    "argmax_grid",
    "optimal_ese_pair",
    "optimal_ese_pair_as_printed",
    "optimal_ese_group",
    "optimal_ese_group_batch",
    "dE_dn",
    "dE_dn_as_printed",
    "ese_limit",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# `argmax_grid`'s dense-grid resolution and golden-section iteration cap.
_GRID_POINTS = 2001
_MAX_ITER = 200


@dataclass(frozen=True)
class Optimum:
    """A maximizer on the score scale, with Python ``float`` and ``bool``
    fields; the batch solvers return their cells as `Optima` instead.

    at_boundary is True when the reported score is a clamped interval
    endpoint rather than an interior stationary point. When it is False the
    score is the solver's approximation of a stationary point: for the group
    FOC, an endpoint with ``|g| <= FOC_ROOT_TOL`` or the end of an
    exhausted float bracket with the smaller ``|g|``, whose residual can
    exceed that tolerance where ``g`` is steep.
    """

    score: float
    at_boundary: bool
    objective_value: float


class Optima(NamedTuple):
    """The maximizers of a batch, one array per `Optimum` field and one
    entry per cell: float64 scores and values, boolean flags."""

    score: np.ndarray
    at_boundary: np.ndarray
    objective_value: np.ndarray


def _first(optima: Optima) -> Optimum:
    """Cell 0 of a batch as an `Optimum` of Python scalars."""
    return Optimum(*(field[0].item() for field in optima))


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------


def group_objective(E, n, params: MarketParams, cost: CostModel, link: ScoreLink):
    """n-member expected profit with the binding repayment substituted in;
    any real ``n >= 1``, as in `group_foc` (a pair is ``n = 2``)."""
    n = _group_size(n, real=True)
    return _objective(success_probability(E, link), n, params, cost)


def _objective(e, n, params: MarketParams, cost: CostModel):
    """`group_objective` at success probability ``e``, without range checks:
    the binding contract repays ``L(1+eps)`` in expectation."""
    return _profit(e, _coverage(e, n), params.loan * (1.0 + params.epsilon), params, cost)


def group_foc(E, n, params: MarketParams, cost: CostModel, link: ScoreLink):
    """Stationarity residual of `group_objective`, divided through by ``k``.

    Analytic in ``n``, so fractional group sizes are allowed here (used for
    finite-difference validation of the group-size sensitivity). ``n`` is
    checked before the score, as in `dE_dn`.
    """
    n = _group_size(n, real=True)
    return _foc(success_probability(E, link), n, params, cost)


def _foc(e, n, params: MarketParams, cost: CostModel):
    """`group_foc` at success probability ``e``, without range checks."""
    ph, pl = params.high_revenue, params.low_revenue
    return ph + pl * (n * (1.0 - e) ** (n - 1.0) - 1.0) - cost.marginal_cost(e)


# ----------------------------------------------------------------------
# derivative-free maximizer
# ----------------------------------------------------------------------


def _eval_objective(objective: Callable, grid: np.ndarray) -> np.ndarray:
    """Evaluate an objective on a grid, tolerating scalar-only callables."""
    try:
        vals = np.asarray(objective(grid), dtype=float)
        if vals.shape != grid.shape:
            raise TypeError
    except Exception:
        vals = np.array([float(objective(x)) for x in grid])
    return vals


def _golden_max(objective: Callable, a: float, b: float, xtol: float, max_iter: int):
    """Golden-section maximization on [a, b]; ties shrink toward ``a``."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(objective(c))
    fd = float(objective(d))
    for _ in range(max_iter):
        if not (np.isfinite(fc) and np.isfinite(fd)):
            bad = c if not np.isfinite(fc) else d
            raise EvaluationError(f"objective is not finite at E={bad!r}")
        if b - a <= xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(objective(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(objective(d))
    return (c, fc) if fc >= fd else (d, fd)


def _richardson_polish(objective: Callable, x0: float, f0: float,
                       lo: float, hi: float, h0: float):
    """Parabolic vertex refinement for smooth interior maxima.

    Golden-section accuracy is limited by the rounding plateau where the
    objective is flat to machine precision, but a parabola fitted through
    points spaced well outside that plateau recovers the vertex of a smooth
    objective far more precisely. Two same-center fits at spacings ``h``
    and ``h/2`` are combined by Richardson extrapolation, which cancels the
    cubic term's h^2 vertex bias; the result is exact (to rounding) for any
    polynomial objective up to degree four. Returns ``(x, f, engaged)``
    where ``engaged`` is False when the fit was skipped for lack of local
    concavity (flat or boundary-pinned objectives).
    """
    h = min(h0, x0 - lo, hi - x0)
    eps = np.finfo(float).eps
    if h <= 1e3 * eps * max(1.0, abs(x0)):
        return x0, f0, False
    vertices = []
    curvature = 0.0
    fscale = max(abs(f0), 1.0)
    for step in (h, 0.5 * h):
        fl = float(objective(x0 - step))
        fr = float(objective(x0 + step))
        if not (np.isfinite(fl) and np.isfinite(fr)):
            bad = x0 - step if not np.isfinite(fl) else x0 + step
            raise EvaluationError(f"objective is not finite at E={bad!r}")
        fscale = max(fscale, abs(fl), abs(fr))
        denom = fl - 2.0 * f0 + fr
        if not denom < -16.0 * eps * fscale:
            return x0, f0, False
        curvature = max(curvature, -denom)
        vertices.append(x0 + 0.5 * step * (fl - fr) / denom)
    if abs(vertices[1] - vertices[0]) > 0.125 * h:
        # The two fits disagree at a scale where the quadratic model is not
        # trustworthy, so the search best stands.
        return x0, f0, False
    v = vertices[1] + (vertices[1] - vertices[0]) / 3.0
    v = min(max(v, x0 - h, lo), x0 + h, hi)
    fv = float(objective(v))
    if not np.isfinite(fv):
        raise EvaluationError(f"objective is not finite at E={v!r}")
    # The vertex may evaluate below the incumbent by rounding noise, which
    # can exceed ulp(f) when the objective cancels internally. A genuine
    # regression shows up at the scale of the fitted curvature instead.
    if fv < f0 - max(0.25 * curvature, 32.0 * eps * fscale):
        return x0, f0, False
    return v, fv, True


def _snap_tolerance(lo: float, hi: float) -> float:
    """Distance within which a maximizer is reported at an endpoint."""
    xtol = max(1e-12, 1e-12 * (hi - lo))
    return max(xtol, 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0))


def argmax_grid(objective: Callable, lo: float = 0.0, hi: float = 100.0) -> Optimum:
    """Global maximization of a scalar objective on [lo, hi].

    Dense evaluation on 2,001 equally spaced points picks the best
    neighborhood, golden-section refinement (at most 200 iterations)
    localizes the maximizer inside that neighborhood, and
    Richardson-extrapolated parabolic interpolation polishes smooth peaks
    through the rounding plateau (see `_richardson_polish`). A constant
    objective resolves to ``lo`` with the boundary flag set. Any non-finite objective
    value raises EvaluationError naming the offending point.
    """
    lo, hi = float(lo), float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError("need finite bounds with lo < hi")
    grid = np.linspace(lo, hi, _GRID_POINTS)
    vals = _eval_objective(objective, grid)
    if not np.all(np.isfinite(vals)):
        bad = grid[int(np.flatnonzero(~np.isfinite(vals))[0])]
        raise EvaluationError(f"objective is not finite at E={bad!r}")
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _GRID_POINTS - 1)]
    xtol = max(1e-12, 1e-12 * (hi - lo))
    x_ref, f_ref = _golden_max(objective, float(a), float(b), xtol, _MAX_ITER)
    # Best of the coarse and refined candidates; ties resolve to the lower
    # score so flat objectives report the lower bound.
    if f_ref > vals[i] or (f_ref == vals[i] and x_ref < grid[i]):
        best_x, best_f = x_ref, f_ref
    else:
        best_x, best_f = float(grid[i]), float(vals[i])
    spacing = (hi - lo) / (_GRID_POINTS - 1)
    x_pol, f_pol, engaged = _richardson_polish(objective, best_x, best_f, lo, hi, spacing)
    if engaged:
        best_x, best_f = x_pol, f_pol
    snap = _snap_tolerance(lo, hi)
    if best_x - lo <= snap:
        best_x = lo
    elif hi - best_x <= snap:
        best_x = hi
    at_boundary = best_x == lo or best_x == hi
    return Optimum(score=best_x, at_boundary=at_boundary, objective_value=float(best_f))


# ----------------------------------------------------------------------
# closed-form pair optimum
# ----------------------------------------------------------------------


def optimal_ese_pair(params: MarketParams, cost: CostModel, link: ScoreLink) -> Optimum:
    """Score maximizing the substituted two-member objective.

    Interior solution ``e* = (pYh + pYl) / (2 pYl + c)``, mapped back through
    the link and clamped to [0, 100]. The objective is strictly concave in
    ``e`` (the quadratic coefficient is ``-(pYl + c/2)``), so clamping yields
    the constrained maximizer. With ``k = 0`` the score has no effect and the
    result is reported at E = 0 with the boundary flag set.
    """
    if link.k == 0.0:
        return Optimum(0.0, True, float(group_objective(0.0, 2, params, cost, link)))
    e_star = (params.high_revenue + params.low_revenue) / (2.0 * params.low_revenue + cost.c)
    raw = (e_star - link.b) / link.k
    score = min(max(raw, 0.0), 100.0)
    at_boundary = score != raw
    return Optimum(score, at_boundary, float(group_objective(score, 2, params, cost, link)))


def optimal_ese_pair_as_printed(params: MarketParams, cost: CostModel, link: ScoreLink) -> float:
    """Widely circulated closed form for the pair optimum, kept verbatim.

    ``E = (pYh + (2b - 1) pYl - c b) / (c k - 2 k pYl)``

    This derives from differentiating the cross term with ``pYh - pYl``
    instead of ``pYh + pYl`` and therefore disagrees with the objective's
    true stationary point whenever ``pYl != 0``. Exposed for comparison
    only; nothing in this package consumes it. The returned score is raw
    (no clamping). Raises DomainError at the ``c = 2 pYl`` singularity and
    for ``k = 0``.
    """
    ph, pl = params.high_revenue, params.low_revenue
    if link.k == 0.0:
        raise DomainError("printed form requires k > 0")
    denom = cost.c * link.k - 2.0 * link.k * pl
    if denom == 0.0:
        raise DomainError("printed form is singular at c = 2*p*y_low")
    return (ph + (2.0 * link.b - 1.0) * pl - cost.c * link.b) / denom


# ----------------------------------------------------------------------
# group optimum via FOC root
# ----------------------------------------------------------------------

# |g| at or below this at an endpoint makes the endpoint a root of the FOC.
FOC_ROOT_TOL = 1e-10


def optimal_ese_group_batch(ns, params: MarketParams, cost: CostModel,
                            link: ScoreLink) -> Optima:
    """Optimal scores of many group sizes, solved together.

    The slope of ``g`` in ``e``, ``-pYl n (n-1) (1-e)^{n-2} - c``, is
    negative for every ``n >= 1``, so the substituted objective is strictly
    concave and its maximizer on [0, 100] is the one root of ``g`` or an
    endpoint. ``g`` is evaluated at both endpoints for every ``n``. An
    endpoint with ``|g| <= FOC_ROOT_TOL`` is a root (E = 0 first), with
    ``at_boundary`` False; otherwise ``g(0) < 0`` gives E = 0 and
    ``g(100) > 0`` gives E = 100, both at the boundary. Every other size
    has a sign-change bracket, and all brackets are bisected in lockstep
    until no midpoint lies strictly inside its bracket; the end with the
    smaller ``|g|`` is the root. ``n`` may be fractional; the FOC is
    analytic in ``n``. With ``k = 0`` the score has no effect, and every
    optimum is E = 0 at the boundary, as in `optimal_ese_pair`. Returns
    `Optima`, one entry per size. A bad size, then a FOC not finite at an
    endpoint, raises an error whose ``cell`` is the index of the first size
    that fails it.
    """
    n = _group_size(np.array(ns, dtype=float).reshape(-1), real=True)
    if link.k == 0.0:
        values = _objective(success_probability(np.zeros_like(n), link), n, params, cost)
        return Optima(np.zeros_like(n), np.ones(n.shape, dtype=bool), values)

    # E lies in [0, 100]: an endpoint or a bisection midpoint. A ScoreLink has
    # k >= 0 and b >= 0, so k*E + b is never below zero and a lower clip
    # never acts; the cap at 1 absorbs the float dust of a link at the cap's
    # slack. np.minimum gives np.clip's bits here without its Python wrapper.
    def g(E, n):
        return _foc(np.minimum(link.k * E + link.b, 1.0), n, params, cost)

    # g is monotone, so finite endpoint values bound it everywhere between.
    # A size too large for them overflows; the check below names it.
    with np.errstate(over="ignore", invalid="ignore"):
        g0, g100 = g(0.0, n), g(100.0, n)
    _raise_first(~(np.isfinite(g0) & np.isfinite(g100)), EvaluationError,
                 "FOC is not finite at E={!r}", np.where(np.isfinite(g0), 100.0, 0.0))
    lower = g0 <= FOC_ROOT_TOL
    scores = np.where(lower, 0.0, 100.0)
    at_boundary = np.where(lower, g0 < -FOC_ROOT_TOL, g100 > FOC_ROOT_TOL)

    inner = np.flatnonzero(~lower & (g100 < -FOC_ROOT_TOL))
    lo, hi = np.zeros(inner.size), np.full(inner.size, 100.0)
    g_lo, g_hi, n_in = g0[inner], g100[inner], n[inner]
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            break
        # An exhausted bracket's midpoint is one of its ends, whose g has the
        # sign that sends the update back to that end, so every bracket is
        # updated and the exhausted ones keep their ends and values.
        g_mid = g(mid, n_in)
        up = g_mid > 0.0
        np.copyto(lo, mid, where=up)
        np.copyto(g_lo, g_mid, where=up)
        down = ~up
        np.copyto(hi, mid, where=down)
        np.copyto(g_hi, g_mid, where=down)
    scores[inner] = np.where(np.abs(g_lo) <= np.abs(g_hi), lo, hi)

    values = _objective(success_probability(scores, link), n, params, cost)
    return Optima(scores, at_boundary, values)


def optimal_ese_group(n: float, params: MarketParams, cost: CostModel,
                      link: ScoreLink) -> Optimum:
    """Maximize the substituted n-member objective over scores in [0, 100]
    (`optimal_ese_group_batch` on one size; ``n`` may be fractional)."""
    return _first(optimal_ese_group_batch([n], params, cost, link))


# ----------------------------------------------------------------------
# sensitivity to group size, and the large-group limit
# ----------------------------------------------------------------------


def _sensitivity_terms(n, E, params: MarketParams, link: ScoreLink):
    """Checked ``e``, the numerator ``pYl (1-e)^{n-1} (1 + n ln(1-e))`` and
    the curvature ``pYl n (n-1) (1-e)^{n-2}`` of `dE_dn` and
    `dE_dn_as_printed`; each takes its power of ``1-e`` first, so an
    underflow there gives 0, not ``inf * 0``."""
    n = _group_size(n, real=True)
    if link.k <= 0.0:
        raise DomainError("sensitivity requires k > 0")
    e = success_probability(E, link)
    if not 0.0 < e < 1.0:
        raise DomainError("sensitivity requires 0 < e < 1")
    one_m = 1.0 - e
    pl = params.low_revenue
    numerator = pl * one_m ** (n - 1.0) * (1.0 + n * math.log(one_m))
    curvature = pl * (n * ((n - 1.0) * one_m ** (n - 2.0)))
    return e, numerator, curvature


def dE_dn(n: float, E: float, params: MarketParams, cost: CostModel, link: ScoreLink) -> float:
    """Sensitivity of the FOC-optimal score to group size.

    Implicit differentiation of ``g(E(n), n) = 0``:

    ``dE/dn = pYl (1-e)^{n-1} (1 + n ln(1-e))
              / ( k ( pYl n (n-1) (1-e)^{n-2} + c ) )``

    Strictly negative whenever ``n ln(1-e) < -1``, and it vanishes as the
    group grows since the numerator carries ``(1-e)^{n-1}``. Requires
    ``0 < e < 1`` and ``k > 0``.
    """
    _, numerator, curvature = _sensitivity_terms(n, E, params, link)
    return numerator / (link.k * (curvature + cost.c))


def dE_dn_as_printed(n: float, E: float, params: MarketParams, cost: CostModel,
                     link: ScoreLink) -> float:
    """Widely circulated variant of `dE_dn`, kept verbatim for comparison.

    Its denominator ends in ``c e`` where implicit differentiation of the
    FOC produces ``c k`` (the slip treats d(ce)/dn as c e E'(n)). The sign
    behavior matches `dE_dn` because both denominators are positive, but
    magnitudes disagree except where ``e`` happens to equal ``k``. Nothing
    in this package consumes it.
    """
    e, numerator, curvature = _sensitivity_terms(n, E, params, link)
    return numerator / (link.k * curvature + cost.c * e)


def ese_limit(params: MarketParams, cost: CostModel, link: ScoreLink) -> Optimum:
    """Large-group limit of the optimal score.

    As ``n`` grows, ``n (1-e)^{n-1} -> 0`` for interior ``e`` and the FOC
    settles at ``e_inf = p(y_high - y_low) / c``, i.e.
    ``E_inf = (e_inf - b) / k`` clamped to [0, 100]. The objective value
    reported is the limiting objective
    ``e pYh - L(1+eps) + pYl (1-e) - c e^2/2`` at the clamped score. With
    ``k = 0`` the limit is E = 0 at the boundary, as for every group size.
    """
    if link.k == 0.0:
        score, at_boundary = 0.0, True
    else:
        e_inf = params.p * (params.y_high - params.y_low) / cost.c
        raw = (e_inf - link.b) / link.k
        score = min(max(raw, 0.0), 100.0)
        at_boundary = score != raw
    value = _profit(success_probability(score, link), 1.0,
                    params.loan * (1.0 + params.epsilon), params, cost)
    return Optimum(score=score, at_boundary=at_boundary, objective_value=float(value))
