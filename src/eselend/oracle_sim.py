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
each block with every e of the batch, 64 cells per pass. A draw's top 53
bits ``x`` stand for ``u = x * 2^-53``, and ``u < e`` holds exactly when
``x < ceil(e * 2^53)``, so success is an integer compare. The simulator
runs in one process and walks the trials in fixed 65,536-trial chunks; for
each e it keeps each chunk's sum and sum of squares and reduces them in
chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DomainError, _cell
from .mean_variance import Moments
from .model_core import (
    MarketParams,
    _as_group,
    _require_finite,
    _require_in,
    profit_distribution_group,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "CHUNK_TRIALS",
    "simulate_member_profit",
    "simulate_member_profit_batch",
    "enumerate_member_profit",
]

#: Fixed partition width (in trials) for deterministic chunked accumulation.
CHUNK_TRIALS = 65_536

#: Draws per block of the shared stream; a block holds ``_BLOCK_DRAWS // n``
#: trials of all n members.
_BLOCK_DRAWS = 65_536

#: Cells compared with one pass over the stream. Each holds a code array of
#: one chunk, so this bounds that memory at 64 x 65,536 codes.
_SHARED_CELLS = 64

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

    Each trial draws n independent success indicators (member 0 is the
    tracked borrower, counters run member-major as ``trial * n + member``).
    With ``k`` peer failures and own success the profit is
    ``p y_high - w - k (w - p y_low) / (n - k)``; own failure pays 0.
    The variance is the population variance over trials and
    ``std_error_mean = sqrt(variance / trials)``. Result ``i`` depends only
    on (es[i], n, ws[i], params, trials, seed): the counters do not depend
    on e, so every block of draws is computed once and compared with up to
    ``_SHARED_CELLS`` cells. An error raised for a cell carries its index
    in ``cell``.
    """
    group = _as_group(group)
    n = int(group.n)
    es, ws = list(es), list(ws)
    if len(es) != len(ws):
        raise DomainError("es and ws must have the same length")
    for i, (e, w) in enumerate(zip(es, ws)):
        with _cell(i):
            _require_in("e", e, 0.0, 1.0)
            _require_finite("w", w)
            if w <= 0:
                raise DomainError("w must be > 0")
    if cfg.trials * n >= 2 ** 62:
        raise DomainError("trials * n too large for the 64-bit counter space")

    results = []
    for first in range(0, len(es), _SHARED_CELLS):
        cells = slice(first, first + _SHARED_CELLS)
        sums = _stream_sums(es[cells], n, ws[cells], params, cfg)
        for i, cell_sums in enumerate(sums, first):
            with _cell(i):
                results.append(_sim_result(*cell_sums, cfg))
    return results


def _stream_sums(es: list, n: int, ws: list, params: MarketParams,
                 cfg: SimConfig) -> list[tuple]:
    """Per-chunk sums and sums of squares, and the min and max, of each
    cell's profit, all from one pass over the shared draw stream."""
    ph, pl = params.high_revenue, params.low_revenue
    peer_ok = np.arange(n)
    k_fail = (n - 1) - peer_ok
    # x * 2^-53 < e holds exactly when x < ceil(e * 2^53).
    thresholds = [np.uint64(math.ceil(e * 2.0 ** 53)) for e in es]
    # Entry c is the profit of code own * (peer successes + 1).
    tables = [np.concatenate(([0.0], ph - w - k_fail * (w - pl) / (peer_ok + 1)))
              for w in ws]

    rows = max(1, _BLOCK_DRAWS // n)
    offsets = np.arange(rows, dtype=np.uint64) * np.uint64(n)
    offsets = (offsets + np.arange(n, dtype=np.uint64)[:, None]) * np.uint64(_GOLDEN)
    z, tmp = np.empty_like(offsets), np.empty_like(offsets)
    hit = np.empty(offsets.shape, dtype=bool)
    code_type = np.min_scalar_type(n)
    codes = np.empty((len(es), min(CHUNK_TRIALS, cfg.trials)), dtype=code_type)
    chunk_sums = [[] for _ in es]
    chunk_sqs = [[] for _ in es]
    lo = [math.inf] * len(es)
    hi = [-math.inf] * len(es)
    for start in range(0, cfg.trials, CHUNK_TRIALS):
        m = min(CHUNK_TRIALS, cfg.trials - start)
        for t in range(0, m, rows):
            r = min(rows, m - t)
            x = _draws53(_stream_base(cfg.seed, (start + t) * n),
                         offsets[:, :r], z[:, :r], tmp[:, :r])
            for i, threshold in enumerate(thresholds):
                success = np.less(x, threshold, out=hit[:, :r])
                code = np.add.reduce(success[1:], axis=0, dtype=code_type)
                code += 1
                np.multiply(success[0], code, out=codes[i, t:t + r])
        for i, table in enumerate(tables):
            profit = table.take(codes[i, :m])
            chunk_sums[i].append(float(profit.sum()))
            chunk_sqs[i].append(float((profit * profit).sum()))
            lo[i] = min(lo[i], float(profit.min()))
            hi[i] = max(hi[i], float(profit.max()))
    return list(zip(chunk_sums, chunk_sqs, lo, hi))


def _sim_result(chunk_sums: list[float], chunk_sqs: list[float], lo: float,
                hi: float, cfg: SimConfig) -> SimResult:
    """Moments from per-chunk sums, reduced in chunk order."""
    if lo == hi:
        # Every trial produced the same profit; report it exactly rather
        # than dividing a rounded running sum back down.
        return SimResult(lo, 0.0, 0.0, cfg.trials, cfg.seed)
    total = float(np.sum(np.asarray(chunk_sums)))
    total_sq = float(np.sum(np.asarray(chunk_sqs)))
    mean = total / cfg.trials
    variance = max(total_sq / cfg.trials - mean * mean, 0.0)
    std_error = math.sqrt(variance / cfg.trials)
    return SimResult(mean, variance, std_error, cfg.trials, cfg.seed)


def simulate_member_profit(e: float, group, w: float, params: MarketParams,
                           cfg: SimConfig = SimConfig()) -> SimResult:
    """Monte Carlo moments of the tracked member's profit
    (`simulate_member_profit_batch` on one cell)."""
    return simulate_member_profit_batch([e], group, [w], params, cfg)[0]


def enumerate_member_profit(e: float, group, w: float, params: MarketParams) -> Moments:
    """Exact profit moments from the full outcome distribution."""
    dist = profit_distribution_group(e, _as_group(group), w, params)
    return Moments(mean=float(dist.mean()), variance=float(dist.variance()))
