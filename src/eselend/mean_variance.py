"""Mean-variance preferences for two-member groups.

A risk-averse member values a contract at ``E[P] - (gamma/2) Var[P] - C(e)``
where ``P`` is the repayment-stage profit (the four-outcome distribution of
`profit_distribution_pair`) and ``C`` the effort cost. Both moments admit
polynomial forms in ``e`` with ``A = pYh - w`` and ``B = pYh + pYl - 2w``:

``mean = e^2 A + e(1-e) B``
``var  = (e^2-e^4) A^2 + (e-2e^2+2e^3-e^4) B^2 - 2(e^3-e^4) A B``

`profit_moments_pair` checks both against the enumeration and raises
InvariantViolation if they disagree beyond floating-point noise.

The optimizer reads the pair outcome table instead, profits times ``s``
with ``o = w s`` owed: ``pYh s - o`` with probability ``e^2``, ``(pYh +
pYl) s - 2 o`` with ``e(1-e)``. A fixed ``w`` has ``s = 1``; the break-even
``w=None`` of every solver here has ``s = e(2-e)``, ``o = L(1+eps)``. One
builder turns the table into the polynomial ``N = s^2 U``, so the maximizer
on the score range is an endpoint or a real root of ``N' s - 2 N s'``.
`optimal_ese_mv_batch` unpacks its cells once, into one float array per
field, and hands them to the array core `_optimal_ese_mv_arrays`, which the
sweep subcommands call directly with one row per scenario repeated over
the gamma grid. The core finds the roots of a whole sweep at once
(companion-matrix eigenvalues), each distinct first-order-condition
polynomial once, so a cell's result does not depend on the other cells in
its batch. It ranks the candidates by ``N / s^2``, re-validates every
winner in one array pass through the moments and first-order condition
that `mv_utility` and `mv_foc` take one cell at a time, and returns the
winners as `Optima` arrays; `optimal_ese_mv` takes its one cell as an
`Optimum`. The sweeps' market calibration and fixed ``w`` are at the
bottom.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EvaluationError, InvariantViolation, _raise_first
from .model_core import (
    PROFIT_BOUND,
    CostModel,
    MarketParams,
    Moments,
    ScoreLink,
    _coverage,
    _repayment,
    _require_in,
    binding_repayment,
    success_probability,
)
from .optimizer import Optima, Optimum, _first, _snap_tolerance

__all__ = [
    "profit_moments_pair",
    "mv_utility",
    "mv_foc",
    "optimal_ese_mv",
    "optimal_ese_mv_batch",
    "slope_for_baseline",
    "DEFAULT_SWEEP_PARAMS",
    "DEFAULT_SWEEP_W",
]

_EPS = np.finfo(float).eps


def _check(w, ph, pl, gamma, c, principal=None, b=None):
    """Check a mean-variance problem, each argument a float or one value per
    cell, in the order every entry point reports: ``w`` (``None`` only with
    a principal) finite, then > 0; gamma finite, then >= 0; for the
    break-even ``w=None`` only, ``b > 0`` and a finite ``w`` at ``e = b``
    (its largest); last, the float range at that ``w`` or the fixed one,
    broadcast to the cells, naming ``w``, gamma, then c. Returns ``w``.

    ``M = max(pYh + pYl, 2w, 1)`` bounds ``A`` and ``B``; ``2w``, like the
    revenue in `MarketParams`, must stay within `PROFIT_BOUND`. The moments
    stay within a few times ``(1 + gamma) M^2 + c`` and the FOC coefficients
    within about 50 times it, so 1024 times it must be finite. ``gamma = c
    = 0`` checks the moments alone.
    """
    if w is not None:
        w = _repayment(w)
    elif principal is None:
        raise DomainError("w must be a number; optimal_ese_mv solves the break-even w=None")
    _raise_first(~np.isfinite(gamma), DomainError, "gamma must be finite, got {!r}", gamma)
    _raise_first(gamma < 0, DomainError, "gamma must be >= 0")
    overflow = "the mean-variance utility overflows the float range at "
    with np.errstate(over="ignore"):
        if w is None:
            _raise_first(b <= 0.0, DomainError, "endogenous repayment requires b > 0 so "
                         "the success probability is positive at every score")
            top = principal / _coverage(b, 2)
            _raise_first(~np.isfinite(top), DomainError, "w must be finite, got {!r}", top)
        else:
            top = np.broadcast_to(w, np.shape(gamma))
        m = np.maximum(np.maximum(ph + pl, 2.0 * top), 1.0)
        spread = 1024.0 * (1.0 + gamma) * m * m
        _raise_first(2.0 * top > PROFIT_BOUND, DomainError, overflow + "w={!r}", top)
        _raise_first(~np.isfinite(spread), DomainError, overflow + "gamma={!r}", gamma)
        _raise_first(~np.isfinite(spread + 1024.0 * c), DomainError,
                     overflow + "c={!r}", c)
    return w


def _var_poly(e, A, B):
    e2 = e * e
    e3 = e2 * e
    e4 = e2 * e2
    return (
        (e2 - e4) * A * A
        + (e - 2.0 * e2 + 2.0 * e3 - e4) * B * B
        - 2.0 * (e3 - e4) * A * B
    )


def _moments(e, w, ph, pl):
    """Mean and variance of a pair member's profit, cell by cell: the
    four-outcome table of `profit_distribution_pair`, variance taken around
    the mean, checked against the polynomials within 1e-10 of the moments
    plus 256 eps of the squared spreads (degenerate e near 0 or 1 leaves
    rounding dust). The first cell that disagrees raises InvariantViolation.
    """
    A, B = ph - w, ph + pl - 2.0 * w
    table = ((e * e, A), (e * (1.0 - e), B),
             ((1.0 - e) * e, 0.0), ((1.0 - e) * (1.0 - e), 0.0))
    mean = sum(P * X for P, X in table)
    var = sum(P * (X - mean) ** 2 for P, X in table)
    mean_poly, var_poly = e * e * A + e * (1.0 - e) * B, _var_poly(e, A, B)
    tol = (1e-10 * np.maximum(np.maximum(abs(mean), abs(var)), 1.0)
           + 256.0 * _EPS * np.maximum(np.maximum(A * A, B * B), 1.0))
    _raise_first((abs(mean - mean_poly) > tol) | (abs(var - var_poly) > tol),
                 InvariantViolation, "moment routes disagree: enumeration "
                 "({!r}, {!r}) vs polynomial ({!r}, {!r}) at e={!r}, w={!r}",
                 mean, var, mean_poly, var_poly, e, w)
    return mean, var


def _utility(e, w, ph, pl, gamma, c):
    """`mv_utility` at success probabilities ``e``, from `_moments`."""
    mean, var = _moments(e, w, ph, pl)
    return mean - 0.5 * gamma * var - 0.5 * c * e * e


def _foc(e, w, ph, pl, gamma, c, k):
    """`mv_foc` at success probabilities ``e``, unchecked."""
    A, B = ph - w, ph + pl - 2.0 * w
    e2 = e * e
    e3 = e2 * e
    dvar = ((2.0 * e - 4.0 * e3) * A * A + (1.0 - 4.0 * e + 6.0 * e2 - 4.0 * e3) * B * B
            - 2.0 * (3.0 * e2 - 4.0 * e3) * A * B)
    return k * (B - 2.0 * e * (pl - w) - c * e - 0.5 * gamma * dvar)


def profit_moments_pair(e: float, w: float, params: MarketParams) -> Moments:
    """Exact profit moments for a two-member group, computed two ways.

    Route one enumerates the four-outcome distribution; route two evaluates
    the polynomial expansions in ``e``. The routes must agree within
    floating-point tolerance or InvariantViolation is raised (that signals
    an implementation bug, never bad input). The enumeration values are
    returned. A ``w`` whose variance overflows the float range raises
    DomainError.
    """
    ph, pl = params.high_revenue, params.low_revenue
    w = _check(w, ph, pl, 0.0, 0.0)
    e = _require_in("e", float(e), 0.0, 1.0)
    mean, var = _moments(e, w, ph, pl)
    return Moments(mean=float(mean), variance=float(var))


def mv_utility(E: float, w: float, params: MarketParams, gamma, cost: CostModel,
               link: ScoreLink) -> float:
    """Mean-variance utility of a score: ``mean - (gamma/2) var - C(e)``.

    One score at a time, from the cross-checked moments of
    `profit_moments_pair`; `optimal_ese_mv_batch` re-validates its optima
    through the same moment enumeration, a whole sweep at once. `_check`
    checks the arguments in the optimizer's order: ``w``, then gamma, then
    the float range; the score comes last.
    """
    ph, pl, gamma = params.high_revenue, params.low_revenue, float(gamma)
    w = _check(w, ph, pl, gamma, cost.c)
    e = float(success_probability(E, link))
    return float(_utility(e, w, ph, pl, gamma, cost.c))


def mv_foc(E, w: float, params: MarketParams, gamma, cost: CostModel,
           link: ScoreLink):
    """Derivative of `mv_utility` with respect to the score.

    By the chain rule through ``e = kE + b``:

    ``k [ B - 2e(pYl - w) - c e
          - (gamma/2) ( (2e-4e^3) A^2 + (1-4e+6e^2-4e^3) B^2
                        - 2(3e^2-4e^3) A B ) ]``

    The ``A B`` term enters with a minus sign, matching the derivative of
    the variance polynomial (a plus sign here fails every finite-difference
    check against the utility). Identically zero when ``k = 0``; the
    arguments are checked as in `mv_utility`.
    """
    ph, pl, gamma = params.high_revenue, params.low_revenue, float(gamma)
    w = _check(w, ph, pl, gamma, cost.c)
    return _foc(success_probability(E, link), w, ph, pl, gamma, cost.c, link.k)


#: Coefficients per engine polynomial; the break-even root numerator has degree 9.
_WIDTH = 10


def _poly(*coefs):
    """A polynomial in ``e``: row j holds each cell's ``e^j`` coefficient,
    each coefficient a float or one value per cell."""
    out = np.zeros((_WIDTH, max(getattr(coef, "size", 1) for coef in coefs)))
    for j, coef in enumerate(coefs):
        out[j] = coef
    return out


def _terms(p):
    """Indices of the coefficients of ``p`` that are nonzero in some cell."""
    return np.logical_or.reduce(p, axis=1).nonzero()[0]


def _pmul(p, q):
    """Product of polynomials, truncated to `_WIDTH` coefficients (no
    product of the engine reaches beyond them), one pass per term of ``q``.
    Each has one column or one per cell, so the product is as wide as the
    one that is not a single column (an empty batch stays empty)."""
    out = np.zeros((_WIDTH, q.shape[1] if p.shape[1] == 1 else p.shape[1]))
    for j in _terms(q):
        out[j:] += p[:_WIDTH - j] * q[j]
    return out


def _pder(p):
    return np.concatenate([p[1:] * np.arange(1.0, _WIDTH)[:, None],
                           np.zeros_like(p[:1])])


def _peval(p, e):
    """The polynomial at points ``e``, a column per cell (Horner)."""
    out = 0.0
    for j in range(max(_terms(p), default=0), -1, -1):
        out = out * e + p[j]
    return out


def _outcome_table(ph, pl, principal, w):
    """The pair outcome table (module docstring) as polynomials in ``e``:
    ``s`` and rows ``(P, X)``, an outcome's probability and its profit times
    ``s``: ``pYh s - o`` and ``(pYh + pYl) s - 2 o``, ``o = w s`` owed. A
    fixed ``w`` has ``s = 1``; the break-even ``w=None`` has ``s = e(2-e)``
    and ``o = principal``."""
    s = _poly(0.0, 2.0, -1.0) if w is None else _poly(1.0)
    owed = _poly(principal) if w is None else w * s
    return s, ((_poly(0.0, 0.0, 1.0), ph * s - owed),
               (_poly(0.0, 1.0, -1.0), (ph + pl) * s - 2.0 * owed))


def _scaled_utility(e, s, rows, gamma, c, mul):
    """``N = s M - (gamma/2)(S - M^2) - (c/2) e^2 s^2 = s^2 U``, with
    ``M = sum P X`` and ``S = sum P X^2`` over the outcome table's rows;
    ``mul`` is `_pmul` on polynomials or `numpy.multiply` on values."""
    M = sum(mul(X, P) for P, X in rows)
    S = sum(mul(mul(X, X), P) for P, X in rows)
    es = mul(s, e)
    return mul(M, s) - 0.5 * gamma * (S - mul(M, M)) - 0.5 * c * mul(es, es)


def _utility_at(e, s, rows, gamma, c):
    """``U = N / s^2`` at points ``e``: the builder on the rows' values there,
    each profit ``X / s`` and ``s = 1``, so no ``s^2`` underflows."""
    s = _peval(s, e)
    rows = [(_peval(P, e), _peval(X, e) / s) for P, X in rows]
    return _scaled_utility(e, 1.0, rows, gamma, c, np.multiply)


def _real_roots(coefs):
    """Real parts of the roots of each row's polynomial, NaN-padded.

    Rows hold coefficients low order first. Each distinct row is solved
    once and its roots go back to every row equal to it. Rows are keyed by
    their bytes, so only bit-identical rows share a solve (a signed zero or
    one ulp keeps two rows apart), and a row's roots do not depend on the
    other rows. Zero low-order coefficients (roots at 0) are dropped, and so
    are top coefficients within ``eps`` of the row's largest, which moves
    the polynomial by at most that much on [0, 1]. Rows are grouped by the
    degree left and solved with batched companion-matrix eigenvalues (the
    method behind `numpy.roots`). Real parts of complex pairs are kept: a
    non-stationary candidate never beats the maximizer, and a real double
    root may round into a complex pair.
    """
    coefs = np.ascontiguousarray(coefs)
    keys = coefs.view(np.dtype((np.void, coefs.itemsize * coefs.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    coefs = coefs[first]
    mag = np.abs(coefs)
    significant = mag > _EPS * mag.max(axis=1, keepdims=True)
    hi = coefs.shape[1] - 1 - significant[:, ::-1].argmax(axis=1)
    lo = (coefs != 0.0).argmax(axis=1)
    degree = np.where(np.logical_or.reduce(significant, axis=1), hi - lo, 0)
    out = np.full((len(coefs), np.maximum.reduce(degree, initial=0)), np.nan)
    for d in sorted(set(degree[degree > 0].tolist())):
        rows = (degree == d).nonzero()[0]
        c = coefs[rows[:, None], lo[rows, None] + np.arange(d + 1)]
        companion = np.zeros((len(rows), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] = -c[:, :d] / c[:, d:]
        out[rows, :d] = np.linalg.eigvals(companion).real
    return out[inverse]


def optimal_ese_mv_batch(w, cells) -> Optima:
    """Mean-variance optimal scores of many cells, solved together.

    Each cell is a ``(params, gamma, cost, link)`` tuple. ``w`` is shared: a
    number is a fixed repayment and ``None`` the break-even one, as in
    `optimal_ese_mv`. The wrapper unpacks its cells once, into one array
    per field, and hands them to the array core `_optimal_ese_mv_arrays`,
    which does all that follows. One call of `_check` checks the shared
    ``w`` and then the cells as arrays, in its order (gamma, then the
    break-even ``w``, then the float range). Both modes build ``N = s^2 U``
    from the pair outcome table (the module docstring), a quartic for a
    fixed ``w`` and of degree 8 for the break-even ``w``. The polynomial
    does not depend on the link, so cells that differ only in ``(k, b)``
    share it, and each distinct polynomial is solved once; a cell's result
    does not depend on the other cells in the batch. The candidates are E =
    0, E = 100 and every real root of ``N' s - 2 N s'`` inside the open
    score range, mapped back through ``E = (e - b) / k``. They are ranked by
    ``N / s^2`` from the table's rows at each candidate, and ties go to the
    lower score. A root within `argmax_grid`'s snap tolerance of an endpoint
    becomes that endpoint, and ``at_boundary`` is set exactly when the
    optimum is an endpoint. With ``k = 0`` both endpoints tie, so the
    optimum is E = 0 at the boundary. Returns `Optima`, one entry per cell.

    One array pass re-validates every optimum apart from the engine: the
    `mv_utility` route, at ``w`` or the break-even ``L(1+eps)/(1-(1-e)^2)``,
    must match its utility within 1e-9 of the utility scale, and an interior
    fixed-``w`` optimum must leave a `mv_foc` residual below 1e-6 of that
    scale. An error about a cell carries the cell's index in ``cell``: the
    first failing check names its first failing cell.
    """
    ph, pl, principal, c, k, b, gamma = np.array(
        [(*_row(params, cost, link), gamma) for params, gamma, cost, link in cells],
        dtype=float).reshape(-1, 7).T
    return _optimal_ese_mv_arrays(w, ph, pl, principal, gamma, c, k, b)


def _row(params: MarketParams, cost: CostModel, link: ScoreLink) -> tuple:
    """A cell's entries but gamma, in `_optimal_ese_mv_arrays`'s order:
    ``(pYh, pYl, L(1+eps), c, k, b)``."""
    return (params.high_revenue, params.low_revenue, params.loan * (1.0 + params.epsilon),
            cost.c, link.k, link.b)


def _optimal_ese_mv_arrays(w, ph, pl, principal, gamma, c, k, b) -> Optima:
    """`optimal_ese_mv_batch` on cells given as float arrays, one entry per
    cell: revenues ``pYh`` and ``pYl``, the principal ``L(1+eps)``, gamma,
    the cost ``c`` and the link's ``k`` and ``b``. ``w`` is shared. Only
    `_check`'s checks run here, so every other entry must be as a checked
    `MarketParams`, `CostModel` or `ScoreLink` holds it."""
    w = _check(w, ph, pl, gamma, c, principal, b)
    s, table = _outcome_table(ph, pl, principal, w)
    # dU/de = (N' s - 2 N s') / s^3 with s > 0 on (0, 1]
    N = _scaled_utility(_poly(0.0, 1.0), s, table, gamma, c, _pmul)
    roots = _real_roots((_pmul(_pder(N), s) - 2.0 * _pmul(N, _pder(s))).T)

    # Candidates: E = 0 and E = 100, then each root inside the range as a score.
    kc, bc = k[:, None], b[:, None]
    inside = (roots > bc) & (roots < bc + 100.0 * kc)
    scores = np.full((len(b), roots.shape[1] + 2), np.nan)
    scores[:, 0] = 0.0
    scores[:, 1] = 100.0
    np.divide(roots - bc, kc, out=scores[:, 2:], where=inside)
    snap = _snap_tolerance(0.0, 100.0)
    scores[scores <= snap] = 0.0
    scores[scores >= 100.0 - snap] = 100.0
    scores.sort(axis=1)
    # k, b >= 0 and every score >= +0.0, so k E + b is never below zero: the
    # cap at 1 gives np.clip's bits without its Python wrapper.
    values = _utility_at(np.minimum(kc * scores + bc, 1.0).T, s, table, gamma, c).T
    values[np.isnan(scores)] = -np.inf
    best = values.argmax(axis=1)

    score, value = (x[np.arange(len(b)), best] for x in (scores, values))
    _raise_first(~np.isfinite(value), EvaluationError,
                 "objective is not finite at E={!r}", score)
    e = np.minimum(k * score + b, 1.0)
    check = _utility(e, principal / _coverage(e, 2) if w is None else w,
                     ph, pl, gamma, c)
    scale = np.maximum(np.maximum(abs(value), abs(check)), 1.0)
    _raise_first(abs(check - value) > 1e-9 * scale, InvariantViolation,
                 "optimizer objective {!r} disagrees with utility {!r} at E={!r}",
                 value, check, score)
    at_boundary = (score == 0.0) | (score == 100.0)
    if w is not None:
        residual = _foc(e, w, ph, pl, gamma, c, k)
        _raise_first(~at_boundary & (abs(residual) > 1e-6 * scale), InvariantViolation,
                     "interior optimum at E={!r} leaves FOC residual {!r}",
                     score, residual)
    return Optima(score, at_boundary, value)


def optimal_ese_mv(w, params: MarketParams, gamma, cost: CostModel,
                   link: ScoreLink) -> Optimum:
    """Score maximizing mean-variance utility over [0, 100]
    (`optimal_ese_mv_batch` on one cell, re-validated the same way).

    A number ``w`` is a fixed exogenous repayment. ``w=None`` substitutes
    the break-even repayment ``w(e) = L(1+eps) / (1 - (1-e)^2)`` before
    maximizing; it needs a positive success probability across the whole
    score range, i.e. ``b > 0``. The risk term is quartic in ``e``, so the
    utility need not be concave.
    """
    return _first(optimal_ese_mv_batch(w, [(params, gamma, cost, link)]))


# ----------------------------------------------------------------------
# the sweeps' market calibration, fixed repayment and score slope
# ----------------------------------------------------------------------

#: Market calibration used by the sweep subcommands and the property tests.
DEFAULT_SWEEP_PARAMS = MarketParams(
    p=1.0, y_high=1000.0, y_low=500.0, loan=100.0, epsilon=0.05, delta=0.9,
)

#: Break-even repayment for a pair at e = 0.5, held fixed across sweeps.
DEFAULT_SWEEP_W = binding_repayment(0.5, 2, DEFAULT_SWEEP_PARAMS)


def slope_for_baseline(b: float) -> float:
    """Score slope that makes e span [b, 1] as E spans [0, 100]."""
    return (1.0 - _require_in("b", b, 0, 1)) / 100.0
