"""Independent validation routes: exact enumeration and seeded simulation.

`enumerate_member_profit` turns the exact outcome distribution into moments
and is the gold standard. `simulate_member_profit_batch` draws group
outcomes with an explicitly specified counter-based generator so that
results are reproducible bit for bit across runs and machines;
`simulate_member_profit` is its one-cell call.

Random source
-------------
A seed has one stream of draws. Draw ``c`` is
``mix64(seed + (c + 1) * 0x9E3779B97F4A7C15)`` mapped to [0, 1) via the
top 53 bits, where ``mix64`` is the splitmix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

For group size n, trial t, member j reads draw ``t * n + j``, so a size
reads the first ``n * trials`` draws of the stream, whatever other sizes
share the batch. Every draw is a pure function of (seed, counter), and the
counter depends on neither e nor the other sizes, so the simulator hashes
each draw once for all the cells that read it. The distinct sizes form
chains: in descending order, each size joins the first chain whose period,
the lcm of its sizes, stays at most ``_PERIOD_MAX``, or starts a chain of
its own. A chain of period P hashes the first ``max(n) * trials`` draws in
blocks of P rows by ``_BLOCK_DRAWS // P`` columns, draw ``c0 + P * r + j``
in row j of column r. As n divides P, a column holds P / n whole trials of
size n, trial k in rows ``n * k`` to ``n * k + n - 1``. Each block is
compared once with each distinct e, for all the sizes that read it there.

A draw's top 53 bits ``x = z >> 11`` stand for ``u = x * 2^-53``, and
``u < e`` holds exactly when ``x < ceil(e * 2^53)``, that is when the raw
hash ``z`` lies below ``ceil(e * 2^53) * 2^11``. So success is one integer
compare on the hash, which is never shifted; at e = 1 the limit is 2^64
and every member succeeds. A member's profit takes one of n + 1 values, so
each trial has an outcome code in [0, n] per e. One count per block serves
several e of one size, taken in order of e: their codes are packed as the
base-(n + 1) digits of one integer, at most 4,096 values, and counted with
one bincount. At the end each e's n + 1 counts are the sums of the packed
counts over the other digits. The counts are exact and do not depend on
how the trials are split, the sizes chained or the cells packed, and the
moments come from them as from an exact distribution, with no running
float sums to cancel.
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
    _check_profit_bound,
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

#: Draws per block of a chain's stream; a chain of period P hashes blocks of
#: P rows by ``_BLOCK_DRAWS // P`` columns.
_BLOCK_DRAWS = 65_536

#: Largest period, the lcm of the group sizes, of a chain with several
#: sizes; a size above it hashes its own chain.
_PERIOD_MAX = 128

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


def _chains(sizes) -> list[list]:
    """The distinct ``sizes`` as ``[period, sizes]`` chains, sizes in
    descending order: each size joins the first chain whose lcm stays at
    most ``_PERIOD_MAX``, or starts a chain of its own."""
    chains = []
    for n in sorted(set(sizes), reverse=True):
        for chain in chains:
            if math.lcm(chain[0], n) <= _PERIOD_MAX:
                chain[0] = math.lcm(chain[0], n)
                chain[1].append(n)
                break
        else:
            chains.append([n, [n]])
    return chains


def _pieces(n, full, tail, z, hit, code, packed):
    """Views of size n's trials in ``full`` whole columns of a block, then
    in the first ``tail`` rows of the next: the hashes ``z``, the ``hit``
    flags and their uint8 view as (trials, members, columns), the codes
    and packed codes as (trials, columns) from the front of ``code`` and
    ``packed``; and that front of ``packed``."""
    pieces, start = [], 0
    for rows, col, cols in ((len(z), 0, full), (tail, full, 1)):
        if not rows * cols:
            continue
        shape, stop = (rows // n, n, cols), start + rows // n * cols
        flags = hit[:rows, col:col + cols].reshape(shape)
        pieces.append((z[:rows, col:col + cols].reshape(shape), flags,
                       flags.view(np.uint8), code[start:stop].reshape(shape[::2]),
                       packed[start:stop].reshape(shape[::2])))
        start = stop
    return pieces, packed[:start]


def simulate_member_profit_batch(es, ns, ws, params: MarketParams,
                                 cfg: SimConfig = SimConfig()) -> list[SimResult]:
    """Monte Carlo moments of the tracked member's profit at many
    ``(e, n, w)``.

    ``es``, ``ns`` and ``ws`` hold one success probability, integer group
    size and repayment per cell. Each trial of size n draws n independent
    success indicators (member 0 is the tracked borrower, counters run
    member-major as ``trial * n + member``), so size n reads the first
    ``n * trials`` draws of the seed's one stream. With ``k`` peer failures
    and own success the profit is ``p y_high - w - k (w - p y_low) / (n - k)``;
    own failure pays 0. Each cell counts how many trials give each of the
    n + 1 outcomes, and its mean and population variance are those of the
    `ProfitDistribution` with probabilities ``counts / trials``, as in
    `enumerate_member_profit`; ``std_error_mean = sqrt(variance / trials)``.
    Result ``i`` depends only on (es[i], ns[i], ws[i], params, trials,
    seed): each chain of sizes (see the module docstring) hashes its largest
    size's draws once, block by block in P rows, size n reads trial k's
    members from rows ``n * k`` on of a column, each distinct e is tested
    once per block for every size that reads it, and several cells of one
    size share one count per block. The cells are checked first, each check
    over every cell: n an integer, n >= 1, e in [0, 1], w finite, w > 0,
    then the bound on the profits of the tables, built with one call per
    distinct size. An error about a cell carries its index in ``cell``: the
    first failing check names its first failing cell. The check that
    ``trials * max(ns)`` fits the counter space names no cell.
    """
    ns = _group_size(list(ns))
    by_size = {}  # the cells of each size, in cell order
    for i, n in enumerate(ns):
        by_size.setdefault(n, []).append(i)
    es, ws = np.fromiter(es, float), np.fromiter(ws, float)
    if not len(es) == len(ns) == len(ws):
        raise DomainError("es, ns and ws must have the same length")
    _require_in("e", es, 0.0, 1.0)
    ws = _repayment(ws)
    # One `_success_profits` call per size. Entry c of a cell's table is the
    # profit of code own * (peer successes + 1).
    tables, largest = [None] * len(ns), np.empty(len(ns))
    for n, cells in by_size.items():
        rows = _success_profits(n, ws[cells], params)
        largest[cells] = np.abs(rows).max(axis=-1)
        for i, row in zip(cells, rows):
            tables[i] = np.append(0.0, row[::-1])
    _check_profit_bound(largest, ws)
    if not ns:
        return []
    if cfg.trials * max(ns) >= 2 ** 62:
        raise DomainError("trials * n too large for the 64-bit counter space")

    # x * 2^-53 < e holds exactly when x < ceil(e * 2^53).
    thresholds = [math.ceil(e * 2.0 ** 53) for e in es]
    counts = [None] * len(ns)
    for period, sizes in _chains(ns):
        cols = max(1, _BLOCK_DRAWS // period)
        offsets = np.arange(cols, dtype=np.uint64) * np.uint64(period)
        offsets = (offsets + np.arange(period, dtype=np.uint64)[:, None]) * np.uint64(_GOLDEN)
        z, tmp = np.empty_like(offsets), np.empty_like(offsets)
        hit = np.empty(offsets.shape, dtype=bool)
        plans, readers = [], {}  # readers: threshold -> (n, first, cube) per cell
        for n in sizes:
            # Each count packs the codes of up to `width` cells of size n,
            # taken in order of threshold, one base-(n + 1) digit per cell,
            # the group's first cell in the highest digit.
            width = 1
            while (n + 1) ** (width + 1) <= _PACK_BINS:
                width += 1
            cells = sorted(by_size[n], key=thresholds.__getitem__)
            groups = [cells[i:i + width] for i in range(0, len(cells), width)]
            cubes = [np.zeros((n + 1) ** len(group), dtype=np.int64) for group in groups]
            for k, i in enumerate(cells):
                # A group is counted once its last cell has its digit.
                last = k % width == width - 1 or k == len(cells) - 1
                readers.setdefault(thresholds[i], []).append(
                    (n, k % width == 0, cubes[k // width] if last else None))
            code = np.empty(period // n * cols, dtype=np.min_scalar_type(n))
            # Room for the packed codes and for their base n + 1.
            packed = np.empty(code.size, dtype=np.min_scalar_type((n + 1) ** width))
            plans.append((n, groups, cubes, code, packed,
                          _pieces(n, cols, 0, z, hit, code, packed)))
        readers = sorted(readers.items())
        end = sizes[0] * cfg.trials
        for c0 in range(0, end, offsets.size):
            # The block holds `full` whole columns of the chain's draws and
            # the first `tail` rows of the next column.
            full, tail = divmod(min(end - c0, offsets.size), period)
            base = _stream_base(cfg.seed, c0)
            _hash64(base, offsets[:, :full], z[:, :full], tmp[:, :full])
            if tail:
                _hash64(base, offsets[:tail, full], z[:tail, full], tmp[:tail, full])
            views = {}  # the pieces and packed codes of each size that reads the block
            for n, groups, cubes, code, packed, whole in plans:
                # Size n reads the draws below n * trials.
                left = n * cfg.trials - c0
                if left <= 0:
                    break
                full, tail = divmod(min(left, offsets.size), period)
                views[n] = whole if full == cols else _pieces(n, full, tail, z, hit,
                                                              code, packed)
            for threshold, cells in readers:
                cells = [cell for cell in cells if cell[0] in views]
                # The largest size that reads the threshold in this block
                # reads every draw that the others do.
                for hashed, flags, *_ in views[cells[0][0]][0] if cells else ():
                    _below(hashed, threshold, flags)
                for n, first, cube in cells:
                    pieces, packed = views[n]
                    for hashed, flags, success, digit, digits in pieces:
                        # A trial's code is own * (own + peer successes).
                        np.add.reduce(success, axis=1, dtype=digit.dtype, out=digit)
                        digit *= success[:, 0]
                        if first:
                            digits[...] = digit
                        else:
                            digits *= n + 1
                            digits += digit
                    if cube is not None:
                        cube += np.bincount(packed, minlength=len(cube))
        for n, groups, cubes, *_ in plans:
            for group, cube in zip(groups, cubes):
                # Axis j of the cube is the digit of the group's cell j.
                cube = cube.reshape((n + 1,) * len(group))
                for j, i in enumerate(group):
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
    return simulate_member_profit_batch([e], [group], [w], params, cfg)[0]


def enumerate_member_profit(e: float, group, w: float, params: MarketParams) -> Moments:
    """Exact profit moments from the full outcome distribution."""
    dist = profit_distribution_group(e, group, w, params)
    return Moments(mean=float(dist.mean()), variance=float(dist.variance()))
