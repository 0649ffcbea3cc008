"""Independent validation routes: exact enumeration and seeded simulation.

`enumerate_member_profit` turns the exact outcome distribution into moments
and is the gold standard. `simulate_member_profit_batch` draws group
outcomes with an explicitly specified counter-based generator so that
results are reproducible bit for bit across runs and machines;
`simulate_member_profit` is its one-cell call.

Random source
-------------
Each (trial, member) pair gets the 64-bit counter ``t * n + j`` and the
uniform draw is ``mix64(seed + (counter + 1) * 0x9E3779B97F4A7C15)`` mapped
to [0, 1) via the top 53 bits, where ``mix64`` is the splitmix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Every draw is a pure function of (seed, counter), and the counter does not
depend on e. So for one group size the simulator computes a single shared
stream, in blocks of about 65,536 draws laid out member-major, and compares
each block with every e of the batch. A draw's top 53 bits ``x`` stand for
``u = x * 2^-53``, and ``u < e`` holds exactly when ``x < ceil(e * 2^53)``,
so success is an integer compare. A member's profit takes one of n + 1
values, so for each e the simulator adds each block's outcomes into an
integer count per outcome. The counts are exact and do not depend on how
the trials are split, and the moments come from them as from an exact
distribution, with no running float sums to cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DomainError, _raise_first
from .mean_variance import Moments
from .model_core import (
    MarketParams,
    ProfitDistribution,
    _group_size,
    _repayment,
    _require_finite,
    _success_profits,
    profit_distribution_group,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "simulate_member_profit",
    "simulate_member_profit_batch",
    "enumerate_member_profit",
]

#: Draws per block of the shared stream; a block holds ``_BLOCK_DRAWS // n``
#: trials of all n members.
_BLOCK_DRAWS = 65_536

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SimConfig:
    """Trial count and reproducibility seed for the simulator."""

    trials: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if isinstance(self.trials, bool) or not isinstance(self.trials, int):
            raise DomainError("trials must be an integer")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise DomainError("seed must be an integer")


@dataclass(frozen=True)
class SimResult:
    """Empirical moments of one member's profit over the simulated trials."""

    empirical_mean: float
    empirical_variance: float
    std_error_mean: float
    trials: int
    seed: int

    def __post_init__(self):
        _require_finite("empirical_mean", self.empirical_mean)
        _require_finite("empirical_variance", self.empirical_variance)
        _require_finite("std_error_mean", self.std_error_mean)
        if self.empirical_variance < 0:
            raise DomainError("empirical_variance must be >= 0")


def _stream_base(seed: int, counter: int) -> np.uint64:
    """splitmix64 input for draw ``counter``: seed + (counter+1)*golden, mod 2^64."""
    return np.uint64((seed + (counter + 1) * _GOLDEN) & _U64_MASK)


def _draws53(base: np.uint64, offsets: np.ndarray, z: np.ndarray,
             tmp: np.ndarray) -> np.ndarray:
    """Top 53 bits of splitmix64 of ``base + offsets``, written into ``z``.

    ``tmp`` is scratch of the same shape; nothing else is allocated. Draw
    ``x`` stands for the uniform ``x * 2^-53``.
    """
    with np.errstate(over="ignore"):
        np.add(offsets, base, out=z)
        np.right_shift(z, np.uint64(30), out=tmp)
        z ^= tmp
        z *= _MIX_1
        np.right_shift(z, np.uint64(27), out=tmp)
        z ^= tmp
        z *= _MIX_2
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp
        z >>= np.uint64(11)
    return z


def simulate_member_profit_batch(es, group, ws, params: MarketParams,
                                 cfg: SimConfig = SimConfig()) -> list[SimResult]:
    """Monte Carlo moments of the tracked member's profit at many ``(e, w)``.

    ``group`` is the integer group size n. Each trial draws n independent
    success indicators (member 0 is the tracked borrower, counters run
    member-major as ``trial * n + member``).
    With ``k`` peer failures and own success the profit is
    ``p y_high - w - k (w - p y_low) / (n - k)``; own failure pays 0.
    Each cell counts how many trials give each of the n + 1 outcomes, and
    its mean and population variance are those of the `ProfitDistribution`
    with probabilities ``counts / trials``, as in `enumerate_member_profit`;
    ``std_error_mean = sqrt(variance / trials)``. Result ``i`` depends only
    on (es[i], n, ws[i], params, trials, seed): the counters do not depend
    on e, so every block of draws is computed once and compared with every
    cell. The cells are checked as arrays first: e in [0, 1], w finite and
    > 0, then the profits' bound. An error about a cell carries its index
    in ``cell``: the first failing check names its first failing cell.
    """
    n = _group_size(group)
    es, ws = np.fromiter(es, float), np.fromiter(ws, float)
    if len(es) != len(ws):
        raise DomainError("es and ws must have the same length")
    _raise_first(~((es >= 0.0) & (es <= 1.0)), DomainError, "e must lie in [0.0, 1.0]")
    # Entry c is the profit of code own * (peer successes + 1).
    tables = np.concatenate((np.zeros((len(ws), 1)),
                             _success_profits(n, _repayment(ws), params)[:, ::-1]), axis=1)
    if cfg.trials * n >= 2 ** 62:
        raise DomainError("trials * n too large for the 64-bit counter space")

    # x * 2^-53 < e holds exactly when x < ceil(e * 2^53).
    thresholds = [np.uint64(math.ceil(e * 2.0 ** 53)) for e in es]
    rows = max(1, _BLOCK_DRAWS // n)
    offsets = np.arange(rows, dtype=np.uint64) * np.uint64(n)
    offsets = (offsets + np.arange(n, dtype=np.uint64)[:, None]) * np.uint64(_GOLDEN)
    z, tmp = np.empty_like(offsets), np.empty_like(offsets)
    hit = np.empty(offsets.shape, dtype=bool)
    code_type = np.min_scalar_type(n)
    counts = np.zeros((len(es), n + 1), dtype=np.int64)
    for t in range(0, cfg.trials, rows):
        r = min(rows, cfg.trials - t)
        x = _draws53(_stream_base(cfg.seed, t * n), offsets[:, :r], z[:, :r], tmp[:, :r])
        for i, threshold in enumerate(thresholds):
            success = np.less(x, threshold, out=hit[:, :r])
            code = np.add.reduce(success[1:], axis=0, dtype=code_type)
            code += 1
            code *= success[0]
            counts[i] += np.bincount(code, minlength=n + 1)

    results = []
    for cell_counts, table in zip(counts, tables):
        dist = ProfitDistribution(cell_counts / cfg.trials, table)
        mean, variance = dist.mean(), dist.variance()
        results.append(SimResult(mean, variance, math.sqrt(variance / cfg.trials),
                                 cfg.trials, cfg.seed))
    return results


def simulate_member_profit(e: float, group, w: float, params: MarketParams,
                           cfg: SimConfig = SimConfig()) -> SimResult:
    """Monte Carlo moments of the tracked member's profit
    (`simulate_member_profit_batch` on one cell)."""
    return simulate_member_profit_batch([e], group, [w], params, cfg)[0]


def enumerate_member_profit(e: float, group, w: float, params: MarketParams) -> Moments:
    """Exact profit moments from the full outcome distribution."""
    dist = profit_distribution_group(e, group, w, params)
    return Moments(mean=float(dist.mean()), variance=float(dist.variance()))
