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
each block with every e of the batch. A draw's top 53 bits ``x = z >> 11``
stand for ``u = x * 2^-53``, and ``u < e`` holds exactly when
``x < ceil(e * 2^53)``, that is when the raw hash ``z`` lies below
``ceil(e * 2^53) * 2^11``. So success is one integer compare on the hash,
which is never shifted; at e = 1 the limit is 2^64 and every member
succeeds. A member's profit takes one of n + 1 values, so each trial has an
outcome code in [0, n] per e. One count per block serves several e: their
codes are packed as the base-(n + 1) digits of one integer, at most 4,096
values, and counted with one bincount. At the end each e's n + 1 counts are
the sums of the packed counts over the other digits. The counts are exact
and do not depend on how the trials are split or the cells packed, and the
moments come from them as from an exact distribution, with no running float
sums to cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DomainError
from .model_core import (
    MarketParams,
    Moments,
    ProfitDistribution,
    _group_size,
    _repayment,
    _require_finite,
    _require_in,
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

#: Most values of one count of packed outcome codes: a count packs as many
#: cells as fit, so long e lists and large n split into several counts.
_PACK_BINS = 4096

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


def _hash64(base: np.uint64, offsets: np.ndarray, z: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """splitmix64 of ``base + offsets``, all 64 bits, written into ``z``.

    ``tmp`` is scratch of the same shape; nothing else is allocated. The
    draw is the top 53 bits ``x = z >> 11``, which stand for ``x * 2^-53``.
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
    return z


def _below(z: np.ndarray, threshold: int, out: np.ndarray) -> np.ndarray:
    """``(z >> 11) < threshold`` for a threshold in [0, 2^53], written into
    ``out``: tested on the raw hash as ``z < threshold * 2^11``, which is
    always true at 2^53, the threshold of e = 1."""
    if threshold == 2 ** 53:
        out.fill(True)
        return out
    return np.less(z, np.uint64(threshold << 11), out=out)


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
    on e, so every block of draws is hashed once and compared with every
    cell, and several cells share one count per block, their outcome codes
    packed as the digits of one integer. The cells are checked as arrays
    first: e in [0, 1], w finite and > 0, then the profits' bound. An error
    about a cell carries its index in ``cell``: the first failing check
    names its first failing cell.
    """
    n = _group_size(group)
    es, ws = np.fromiter(es, float), np.fromiter(ws, float)
    if len(es) != len(ws):
        raise DomainError("es and ws must have the same length")
    _require_in("e", es, 0.0, 1.0)
    # Entry c is the profit of code own * (peer successes + 1).
    tables = np.concatenate((np.zeros((len(ws), 1)),
                             _success_profits(n, _repayment(ws), params)[:, ::-1]), axis=1)
    if cfg.trials * n >= 2 ** 62:
        raise DomainError("trials * n too large for the 64-bit counter space")
    if not len(es):
        return []

    # x * 2^-53 < e holds exactly when x < ceil(e * 2^53).
    thresholds = [math.ceil(e * 2.0 ** 53) for e in es]
    # Each count packs the codes of up to `width` cells, one base-(n + 1)
    # digit per cell, the group's first cell in the lowest digit.
    width = 1
    while (n + 1) ** (width + 1) <= _PACK_BINS:
        width += 1
    groups = [range(i, min(i + width, len(es))) for i in range(0, len(es), width)]
    cubes = [np.zeros((n + 1) ** len(cells), dtype=np.int64) for cells in groups]
    rows = max(1, _BLOCK_DRAWS // n)
    offsets = np.arange(rows, dtype=np.uint64) * np.uint64(n)
    offsets = (offsets + np.arange(n, dtype=np.uint64)[:, None]) * np.uint64(_GOLDEN)
    z, tmp = np.empty_like(offsets), np.empty_like(offsets)
    hit = np.empty(offsets.shape, dtype=bool)
    code = np.empty(rows, dtype=np.min_scalar_type(n))
    # Room for the packed codes and for their base n + 1.
    packed = np.empty(rows, dtype=np.min_scalar_type((n + 1) ** width))
    for t in range(0, cfg.trials, rows):
        r = min(rows, cfg.trials - t)
        hashed = _hash64(_stream_base(cfg.seed, t * n), offsets[:, :r], z[:, :r],
                         tmp[:, :r])
        digit, digits = code[:r], packed[:r]
        for cells, cube in zip(groups, cubes):
            digits.fill(0)
            for i in reversed(cells):
                # A trial's code is own * (own + peer successes), in [0, n].
                success = _below(hashed, thresholds[i], hit[:, :r]).view(np.uint8)
                np.add.reduce(success, axis=0, dtype=digit.dtype, out=digit)
                digit *= success[0]
                digits *= n + 1
                digits += digit
            cube += np.bincount(digits, minlength=len(cube))

    counts = np.empty((len(es), n + 1), dtype=np.int64)
    for cells, cube in zip(groups, cubes):
        # Axis j of the reversed cube is the digit of the group's cell j.
        cube = cube.reshape((n + 1,) * len(cells)).T
        for j, i in enumerate(cells):
            counts[i] = np.moveaxis(cube, j, 0).reshape(n + 1, -1).sum(axis=1)

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
