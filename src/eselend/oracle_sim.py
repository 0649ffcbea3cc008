"""Independent validation routes: exact enumeration and seeded simulation.

`enumerate_member_profit` turns the exact outcome distribution into moments
and is the gold standard. `simulate_member_profit` draws group outcomes
with an explicitly specified counter-based generator so that results are
reproducible bit for bit across runs and machines.

Random source
-------------
Each (trial, member) pair gets the 64-bit counter ``t * n + j`` and the
uniform draw is ``mix64(seed + (counter + 1) * 0x9E3779B97F4A7C15)`` mapped
to [0, 1) via the top 53 bits, where ``mix64`` is the splitmix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Every draw is a pure function of (seed, counter). The simulator runs in
one process and walks the trials in fixed 65,536-trial chunks; it keeps
each chunk's sum and sum of squares and reduces them in chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DomainError
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
    "enumerate_member_profit",
]

#: Fixed partition width (in trials) for deterministic chunked accumulation.
CHUNK_TRIALS = 65_536

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
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


def _uniform01(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 outputs for an array of counters, mapped to [0, 1)."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _U64_MASK) + (counters + np.uint64(1)) * _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX_1
        z ^= z >> np.uint64(27)
        z *= _MIX_2
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def simulate_member_profit(e: float, group, w: float, params: MarketParams,
                           cfg: SimConfig = SimConfig()) -> SimResult:
    """Monte Carlo moments of the tracked member's profit.

    Each trial draws n independent success indicators (member 0 is the
    tracked borrower, counters run member-major as ``trial * n + member``).
    With ``k`` peer failures and own success the profit is
    ``p y_high - w - k (w - p y_low) / (n - k)``; own failure pays 0.
    The variance is the population variance over trials and
    ``std_error_mean = sqrt(variance / trials)``. Output depends only on
    (e, n, w, params, trials, seed).
    """
    group = _as_group(group)
    n = group.n
    _require_in("e", e, 0.0, 1.0)
    _require_finite("w", w)
    if w <= 0:
        raise DomainError("w must be > 0")
    if cfg.trials * n >= 2 ** 62:
        raise DomainError("trials * n too large for the 64-bit counter space")

    ph, pl = params.high_revenue, params.low_revenue
    chunk_sums: list[float] = []
    chunk_sqs: list[float] = []
    lo = math.inf
    hi = -math.inf
    for start in range(0, cfg.trials, CHUNK_TRIALS):
        m = min(CHUNK_TRIALS, cfg.trials - start)
        counters = np.arange(start * n, (start + m) * n, dtype=np.uint64)
        success = _uniform01(cfg.seed, counters).reshape(m, n) < e
        peer_ok = success[:, 1:].sum(axis=1)
        k_fail = (n - 1) - peer_ok
        paid = ph - w - k_fail * (w - pl) / (peer_ok + 1)
        profit = np.where(success[:, 0], paid, 0.0)
        chunk_sums.append(float(profit.sum()))
        chunk_sqs.append(float((profit * profit).sum()))
        lo = min(lo, float(profit.min()))
        hi = max(hi, float(profit.max()))

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


def enumerate_member_profit(e: float, group, w: float, params: MarketParams) -> Moments:
    """Exact profit moments from the full outcome distribution."""
    dist = profit_distribution_group(e, _as_group(group), w, params)
    return Moments(mean=float(dist.mean()), variance=float(dist.variance()))
