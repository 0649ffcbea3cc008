"""Tests for the validation oracles: the exact enumeration route and the
counter-based Monte Carlo simulator.

The simulator documents its random source completely: draw t*n+j for
(trial t, member j) is the splitmix64 finalizer applied to
seed + (counter+1)*0x9E3779B97F4A7C15, mapped to [0, 1) by the top 53
bits, and each cell counts its trials per outcome and takes the moments of
the counted distribution. These tests rebuild that contract independently,
draw by draw in pure Python and trial by trial with a float-threshold
numpy oracle that counts outcomes, and require the shared-stream kernel to
match it bit for bit, then check the statistics against the exact
distribution.
"""

import math
import re
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eselend import (
    DomainError,
    MarketParams,
    ProfitDistribution,
    SimConfig,
    SimResult,
    enumerate_member_profit,
    profit_moments_pair,
    simulate_member_profit,
    simulate_member_profit_batch,
)
from eselend import oracle_sim
from eselend.model_core import PROFIT_BOUND
from eselend.oracle_sim import _BLOCK_DRAWS, _below, _hash64, _stream_base

BASE = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                    epsilon=0.05, delta=0.9)

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _ref_uniform(seed: int, counter: int) -> float:
    """Documented draw: splitmix64 of seed + (counter+1)*golden, top 53 bits."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return (z >> 11) * 2.0 ** -53


def _uniform01(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 outputs for an array of counters, mapped to [0, 1)."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + (counters + np.uint64(1)) * _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX_1
        z ^= z >> np.uint64(27)
        z *= _MIX_2
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _draws(seed: int, counters: np.ndarray) -> np.ndarray:
    """The kernel's 53-bit draws for arbitrary counters: the top 53 bits of
    its raw 64-bit hash."""
    z, tmp = np.empty_like(counters), np.empty_like(counters)
    return _hash64(_stream_base(seed, 0), counters * _GOLDEN, z, tmp) >> np.uint64(11)


def _ref_uniforms(seed, n, trials):
    """The documented uniforms of every (trial, member), as (m, n) arrays
    of at most 100,000 trials each."""
    for start in range(0, trials, 100_000):
        m = min(100_000, trials - start)
        counters = np.arange(start * n, (start + m) * n, dtype=np.uint64)
        yield _uniform01(seed, counters).reshape(m, n)


def _ref_outcomes(e, n, w, params, trials, seed, uniforms=None):
    """Rebuild of the documented draws, trial by trial with float
    thresholds: the count of each outcome code own * (peer successes + 1)
    and the profit each code pays (0 for codes that never occur).
    ``uniforms`` may hold the run's `_ref_uniforms`, computed once."""
    ph, pl = params.high_revenue, params.low_revenue
    counts, table = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1)
    for u in uniforms if uniforms is not None else _ref_uniforms(seed, n, trials):
        success = u < e
        peer_ok = success[:, 1:].sum(axis=1)
        k_fail = (n - 1) - peer_ok
        paid = ph - w - k_fail * (w - pl) / (peer_ok + 1)
        code = np.where(success[:, 0], peer_ok + 1, 0)
        table[code] = np.where(success[:, 0], paid, 0.0)
        counts += np.bincount(code, minlength=n + 1)
    return counts, table


def _ref_simulate(e, n, w, params, trials, seed, uniforms=None):
    """The documented moments: those of the distribution with
    probabilities counts / trials over the rebuilt outcomes."""
    counts, table = _ref_outcomes(e, n, w, params, trials, seed, uniforms)
    dist = ProfitDistribution(counts / trials, table)
    return dist.mean(), dist.variance()


# ----------------------------------------------------------------------
# random source
# ----------------------------------------------------------------------


class TestUniformStream:
    """The in-place kernel draws match the documented scalar recipe."""

    def test_matches_pure_python_reference(self):
        """Spot counters across the 64-bit range agree exactly, for the
        kernel's 53-bit integers and for the float oracle."""
        counters = np.array([0, 1, 2, 1000, 2 ** 31, 2 ** 53 + 17,
                             2 ** 64 - 1], dtype=np.uint64)
        for seed in (42, -1, 2 ** 64 + 5):
            want = [_ref_uniform(seed, int(c)) for c in counters]
            got = _draws(seed, counters)
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(got, np.array(want) * 2.0 ** 53)
            np.testing.assert_array_equal(_uniform01(seed, counters), want)

    def test_seed_changes_the_stream(self):
        """Different seeds give different draws for the same counters."""
        counters = np.arange(64, dtype=np.uint64)
        a = _draws(1, counters)
        b = _draws(2, counters)
        assert np.any(a != b)

    def test_outputs_in_unit_interval(self):
        """Draws are 53-bit integers, so x * 2^-53 lives in [0, 1)."""
        counters = np.arange(10_000, dtype=np.uint64)
        x = _draws(9, counters)
        assert np.all(x < np.uint64(2 ** 53))

    @pytest.mark.parametrize("threshold", [0, 1, 2 ** 52, 2 ** 53 - 1, 2 ** 53])
    def test_raw_hash_limit_at_its_edges(self, threshold):
        """The success test on the raw hash, z < threshold * 2^11, agrees
        with the test on the draw, (z >> 11) < threshold, on both sides of
        the limit; at threshold 2^53 (e = 1) every hash passes."""
        limit = threshold << 11
        zs = [z for z in (limit - 1, limit, 0, 2 ** 64 - 1) if 0 <= z < 2 ** 64]
        got = _below(np.array(zs, dtype=np.uint64), threshold,
                     np.empty(len(zs), dtype=bool))
        assert got.tolist() == [(z >> 11) < threshold for z in zs]
        if threshold == 2 ** 53:
            assert got.all()

    def test_roughly_uniform(self):
        """The first 100k draws have mean near 1/2 and spread near 1/12."""
        counters = np.arange(100_000, dtype=np.uint64)
        u = _draws(42, counters) * 2.0 ** -53
        np.testing.assert_allclose(u.mean(), 0.5, atol=0.005)
        np.testing.assert_allclose(u.var(), 1.0 / 12.0, atol=0.005)


# ----------------------------------------------------------------------
# simulator contract
# ----------------------------------------------------------------------


class TestSimulateContract:
    """Bitwise reproducibility and the documented accumulation layout."""

    def test_repeat_runs_identical(self):
        """The same configuration returns the same result object."""
        cfg = SimConfig(trials=50_000, seed=7)
        a = simulate_member_profit(0.4, 3, 140.0, BASE, cfg)
        b = simulate_member_profit(0.4, 3, 140.0, BASE, cfg)
        assert a == b

    def test_matches_documented_recipe_single_block(self):
        """A run inside one block of draws reproduces the rebuild exactly."""
        cfg = SimConfig(trials=10_000, seed=11)
        got = simulate_member_profit(0.55, 4, 160.0, BASE, cfg)
        mean, var = _ref_simulate(0.55, 4, 160.0, BASE, 10_000, 11)
        assert got.empirical_mean == mean
        assert got.empirical_variance == var

    def test_matches_documented_recipe_across_blocks(self):
        """A run spanning block boundaries (four full blocks of 32,768
        pairs plus a partial tail) still matches the rebuild bit for bit."""
        trials = 150_000
        cfg = SimConfig(trials=trials, seed=3)
        got = simulate_member_profit(0.3, 2, 150.0, BASE, cfg)
        mean, var = _ref_simulate(0.3, 2, 150.0, BASE, trials, 3)
        assert got.empirical_mean == mean
        assert got.empirical_variance == var
        assert got.trials == trials

    def test_moments_are_exact_for_the_counts(self):
        """The moments are within 4 ulps of the exact rational moments of
        the counted outcomes. At e = 1 - 2^-20 the 2,000,000 pair trials
        give the profits {0: 1, 850: 1,999,996, 1200: 3}, whose variance
        is 0.54499999. E[x^2] - mean^2 would subtract two numbers near
        722,500, one ulp of which is about a million ulps of that."""
        e, trials = 1.0 - 2.0 ** -20, 2_000_000
        got = simulate_member_profit(e, 2, 150.0, BASE,
                                     SimConfig(trials=trials, seed=42))
        counts, table = _ref_outcomes(e, 2, 150.0, BASE, trials, 42)
        assert dict(zip(table.tolist(), counts.tolist())) == {
            0.0: 1, 850.0: 1_999_996, 1200.0: 3}
        p = [Fraction(int(c), trials) for c in counts]
        x = [Fraction(v) for v in table.tolist()]
        mean = sum(pi * xi for pi, xi in zip(p, x))
        var = sum(pi * (xi - mean) ** 2 for pi, xi in zip(p, x))
        assert var == Fraction(54_499_999, 10 ** 8)
        for value, exact in ((got.empirical_mean, mean),
                             (got.empirical_variance, var)):
            assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    def test_single_trial(self):
        """trials=1 is legal and reports zero spread."""
        cfg = SimConfig(trials=1, seed=5)
        got = simulate_member_profit(0.5, 2, 150.0, BASE, cfg)
        assert got.empirical_variance == 0.0
        assert got.std_error_mean == 0.0

    def test_certain_success_is_exact(self):
        """e=1 makes every trial pay p*y_high - w = 850 exactly."""
        got = simulate_member_profit(1.0, 2, 150.0, BASE,
                                     SimConfig(trials=5_000, seed=42))
        assert got.empirical_mean == 850.0
        assert got.empirical_variance == 0.0
        assert got.std_error_mean == 0.0

    def test_certain_failure_is_exact(self):
        """e=0 never succeeds, so the profit is identically zero."""
        got = simulate_member_profit(0.0, 3, 150.0, BASE,
                                     SimConfig(trials=5_000, seed=42))
        assert got.empirical_mean == 0.0
        assert got.empirical_variance == 0.0

    def test_counter_space_guard(self):
        """trials * n that would overflow the counter budget is rejected
        before any work starts."""
        cfg = SimConfig(trials=2 ** 61, seed=1)
        with pytest.raises(DomainError):
            simulate_member_profit(0.5, 2, 150.0, BASE, cfg)

    def test_config_validation(self):
        """Zero trials, bool trials, and non-integer seeds are rejected."""
        with pytest.raises(DomainError):
            SimConfig(trials=0)
        with pytest.raises(DomainError):
            SimConfig(trials=True)
        with pytest.raises(DomainError):
            SimConfig(trials=1000, seed=1.5)
        with pytest.raises(DomainError):
            SimConfig(trials=1000, seed=False)

    def test_result_rejects_a_negative_variance(self):
        """A `SimResult` built with a variance below 0 is a domain error."""
        with pytest.raises(DomainError, match=r"^empirical_variance must be >= 0$"):
            SimResult(1.0, -1.0, 0.0, 10, 1)

    def test_input_validation(self):
        """Out-of-range e and nonpositive w are domain errors."""
        cfg = SimConfig(trials=100, seed=1)
        with pytest.raises(DomainError):
            simulate_member_profit(1.5, 2, 150.0, BASE, cfg)
        with pytest.raises(DomainError):
            simulate_member_profit(0.5, 2, 0.0, BASE, cfg)

    def test_overflowing_w_rejected_before_drawing(self):
        """A w whose outcome profits overflow is rejected by the same check
        as the enumeration's, naming w, with no floating-point warning on
        the way. w = 1e160 leaves every profit finite, but their squares
        would overflow the variance."""
        cfg = SimConfig(trials=1000, seed=1)
        for w, shown in ((1e308, r"1e\+308"), (1e160, r"1e\+160")):
            with pytest.raises(DomainError, match=f"float range at w={shown}"):
                simulate_member_profit(0.5, 3, w, BASE, cfg)
            with pytest.raises(DomainError, match=f"float range at w={shown}"):
                enumerate_member_profit(0.5, 3, w, BASE)


# ----------------------------------------------------------------------
# shared-stream batch
# ----------------------------------------------------------------------


def _trial_counts(n: int) -> list[int]:
    """Trial counts on both sides of block boundaries for size n, kept to
    at most 2^19 draws so the float oracle stays cheap."""
    rows = max(1, _BLOCK_DRAWS // n)
    counts = {1, 2, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1,
              3 * rows + 2, 4 * rows + 1}
    return sorted(t for t in counts if 1 <= t and t * n <= 2 ** 19)


#: Ways to spoil a cell's field, each caught by one of the batch's checks.
_SPOILS = [(field, value) for field, values in (
    ("n", (0, -3, 2.0, True, np.float64(3))),
    ("e", (-0.1, 1.5, math.nan)),
    ("w", (math.inf, math.nan, 0.0, -1.0, 1e308))) for value in values]


def _first_failure(es, ns, ws):
    """``(message, cell)`` of the batch's documented checks, each over every
    cell in this order: n an integer, n >= 1, e in [0, 1], w finite, w > 0,
    then every outcome profit within ``PROFIT_BOUND``; None if all pass."""
    def largest(n, w):
        return max(abs(BASE.high_revenue - w - k * (w - BASE.low_revenue) / (n - k))
                   for k in range(n))

    checks = (
        ("group size n must be an integer",
         lambda e, n, w: isinstance(n, bool) or not isinstance(n, (int, np.integer))),
        ("group size n must be >= 1", lambda e, n, w: n < 1),
        ("e must lie in [0.0, 1.0]", lambda e, n, w: not 0.0 <= e <= 1.0),
        ("w must be finite, got {!r}", lambda e, n, w: not math.isfinite(w)),
        ("w must be > 0", lambda e, n, w: w <= 0.0),
        ("the outcome profits overflow the float range at w={!r}",
         lambda e, n, w: not largest(n, w) <= PROFIT_BOUND))
    for message, bad in checks:
        for i, cell in enumerate(zip(es, ns, ws)):
            if bad(*cell):
                return message.format(ws[i]), i
    return None


class TestSimulateBatch:
    """One draw stream per seed, hashed once per chain of sizes and block,
    and compared once per block with each distinct e for every size of the
    chain that reads it."""

    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_float_oracle(self, data):
        """Every cell equals the trial-by-trial float-threshold oracle,
        for e at 0, 1, multiples of 2^-53 and exactly on a draw, sizes on
        both sides of the uint8 code limit, any 64-bit seed, and cells
        alone in a count, sharing one, or split across several."""
        n = data.draw(st.integers(1, 7) | st.integers(1, 300)
                      | st.sampled_from([255, 256, 257]), "n")
        trials = data.draw(st.sampled_from(_trial_counts(n)), "trials")
        seed = data.draw(st.integers(-2 ** 64, -1)
                         | st.integers(0, 2 ** 63 - 1)
                         | st.integers(2 ** 63, 2 ** 65), "seed")
        # A draw's own uniform, or the float just above or below it.
        on_draw = st.tuples(st.integers(0, trials * n - 1),
                            st.sampled_from([0.0, 1.0]), st.booleans()).map(
            lambda t: math.nextafter(_ref_uniform(seed, t[0]), t[1])
            if t[2] else _ref_uniform(seed, t[0]))
        e = (st.sampled_from([0.0, 1.0, 0.5, 1.0 - 2.0 ** -53, 2.0 ** -53])
             | st.integers(0, 2 ** 53).map(lambda k: k * 2.0 ** -53)
             | st.floats(0.0, 1.0)
             | on_draw)
        # Up to 16 cells at small n, with repeats: several cells share a
        # count, and long lists split across several counts.
        size = 16 if n <= 7 else 4
        es = data.draw(st.lists(e, min_size=1, max_size=size), "es")
        es = data.draw(st.permutations(es + data.draw(st.lists(
            st.sampled_from(es), max_size=size - len(es)), "repeats")), "order")
        ws = data.draw(st.lists(st.floats(1.0, 600.0), min_size=len(es),
                                max_size=len(es)), "ws")
        got = simulate_member_profit_batch(es, [n] * len(es), ws, BASE,
                                           SimConfig(trials=trials, seed=seed))
        uniforms = list(_ref_uniforms(seed, n, trials))
        for e, w, result in zip(es, ws, got):
            mean, var = _ref_simulate(e, n, w, BASE, trials, seed, uniforms)
            assert (result.empirical_mean, result.empirical_variance) == (mean, var)
            assert result == SimResult(mean, var, math.sqrt(var / trials),
                                       trials, seed)

    def test_matches_one_cell_calls(self):
        """A batch returns the same results as one call per cell, also
        over several blocks and for 129 cells."""
        es, ws = [0.3, 0.5, 0.8, 0.5], [140.0, 150.0, 160.0, 120.0]
        cfg = SimConfig(trials=66_535, seed=8)
        got = simulate_member_profit_batch(es, [4] * len(es), ws, BASE, cfg)
        assert got == [simulate_member_profit(e, 4, w, BASE, cfg)
                       for e, w in zip(es, ws)]
        es = [i / 128 for i in range(129)]
        ws = [100.0 + i for i in range(len(es))]
        cfg = SimConfig(trials=3000, seed=-8)
        got = simulate_member_profit_batch(es, [3] * len(es), ws, BASE, cfg)
        assert got == [simulate_member_profit(e, 3, w, BASE, cfg)
                       for e, w in zip(es, ws)]

    @given(data=st.data())
    @settings(max_examples=60)
    def test_mixed_sizes_match_one_stream_per_size(self, data):
        """A batch of several group sizes, in any cell order, equals one
        call per size, each hashing its own stream (``_PERIOD_MAX`` = 1):
        for size sets from 1..40, primes and sets whose lcm exceeds the
        bound included, trial counts on both sides of a block or column
        edge of any size, any 64-bit seed, and e drawn freely or from a
        pool of at most three that several sizes share."""
        primes = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
        sizes = sorted(data.draw(st.sets(st.integers(1, 40) | primes, min_size=1,
                                         max_size=6), "sizes"))
        # Trials where a size's last draw falls just before, on or just
        # after the end of a column or a block of its chain.
        edges = {1, 2}
        for period, chain in oracle_sim._chains(sizes):
            assert len(chain) == 1 or period <= oracle_sim._PERIOD_MAX
            for n in chain:
                assert period % n == 0
                for span in (period, max(1, _BLOCK_DRAWS // period) * period):
                    for k in (1, 2):
                        edges.update((k * span // n - 1, k * span // n,
                                      k * span // n + 1))
        trials = data.draw(st.sampled_from(sorted(
            t for t in edges if 1 <= t and t * max(sizes) <= 2 ** 21)), "trials")
        seed = data.draw(st.integers(-2 ** 64, 2 ** 64), "seed")
        e = (st.sampled_from([0.0, 1.0, 0.5, 1.0 - 2.0 ** -53, 2.0 ** -53])
             | st.floats(0.0, 1.0))
        if data.draw(st.booleans(), "shared"):
            # Every e from a pool of at most three: several sizes of a chain
            # read each threshold.
            e = st.sampled_from(data.draw(st.lists(e, min_size=1, max_size=3), "pool"))
        cells = data.draw(st.permutations([
            (data.draw(e, "e"), n, data.draw(st.floats(1.0, 600.0), "w"))
            for n in sizes for _ in range(data.draw(st.integers(1, 3), "cells"))]),
            "order")
        es, ns, ws = map(list, zip(*cells))
        cfg = SimConfig(trials=trials, seed=seed)
        got = simulate_member_profit_batch(es, ns, ws, BASE, cfg)
        with mock.patch.object(oracle_sim, "_PERIOD_MAX", 1):
            for n in sizes:
                mine = [i for i, size in enumerate(ns) if size == n]
                alone = simulate_member_profit_batch(
                    [es[i] for i in mine], [n] * len(mine), [ws[i] for i in mine],
                    BASE, cfg)
                assert [got[i] for i in mine] == alone

    def test_chains_keep_the_period_bound(self):
        """Sizes join the first chain whose lcm stays at most 128; a larger
        size hashes alone. Sizes 2..12 hash 12 + 11 + 7 draws a trial, not
        77."""
        assert oracle_sim._chains([2, 3, 10, 3]) == [[30, [10, 3, 2]]]
        assert oracle_sim._chains(range(2, 13)) == [
            [120, [12, 10, 8, 6, 5, 4, 3, 2]], [99, [11, 9]], [7, [7]]]
        assert oracle_sim._chains([7, 11, 13]) == [[91, [13, 7]], [11, [11]]]
        assert oracle_sim._chains([200, 7, 300]) == [[300, [300]], [200, [200]], [7, [7]]]

    @pytest.mark.parametrize("block_draws", [1, 7, 1000])
    @pytest.mark.parametrize("pack_bins", [1, 27, 4096])
    def test_results_do_not_depend_on_the_split(self, monkeypatch, block_draws,
                                                pack_bins):
        """Other block sizes, chain periods (down to one chain per size),
        and counts that pack fewer cells (down to one cell per count) give
        every cell of a batch of sizes 1, 3, 6 and 10 the same result as
        the default split."""
        es = [0.0, 0.3, 1.0, 0.5, 0.3, 2.0 ** -53, 0.8, 1.0 - 2.0 ** -53, 0.5]
        ws = [100.0 + 10 * i for i in range(len(es))]
        ns = [1, 3, 10, 6, 3, 10, 1, 6, 10]
        for trials in (2_001, 1_003, 401):
            cfg = SimConfig(trials=trials, seed=trials)
            want = simulate_member_profit_batch(es, ns, ws, BASE, cfg)
            for period_max in (1, 10, 128):
                with monkeypatch.context() as patch:
                    patch.setattr(oracle_sim, "_BLOCK_DRAWS", block_draws)
                    patch.setattr(oracle_sim, "_PACK_BINS", pack_bins)
                    patch.setattr(oracle_sim, "_PERIOD_MAX", period_max)
                    assert simulate_member_profit_batch(es, ns, ws, BASE, cfg) == want

    def test_outcome_tables_are_built_once_per_size(self, monkeypatch):
        """The default `simulate` grid, 3 e x sizes 2, 3 and 10, builds its
        nine outcome tables with one `_success_profits` call per size."""
        sizes = []
        real = oracle_sim._success_profits

        def counted(n, w, params):
            sizes.append(n)
            return real(n, w, params)

        monkeypatch.setattr(oracle_sim, "_success_profits", counted)
        cells = [(e, n) for e in (0.3, 0.5, 0.8) for n in (2, 3, 10)]
        simulate_member_profit_batch([e for e, _ in cells], [n for _, n in cells],
                                     [150.0] * len(cells), BASE,
                                     SimConfig(trials=64, seed=1))
        assert sorted(sizes) == [2, 3, 10]

    def test_empty_batch(self):
        """No cells, no results."""
        assert simulate_member_profit_batch([], [], [], BASE) == []

    def test_errors_carry_the_cell_index(self):
        """A bad cell raises with its index in ``cell``; the counter-space
        guard belongs to no cell."""
        cfg = SimConfig(trials=100, seed=1)
        for n, message in ((0, "must be >= 1"), (2.0, "must be an integer"),
                           (True, "must be an integer")):
            with pytest.raises(DomainError, match=message) as excinfo:
                simulate_member_profit_batch([0.5, 1.5, 0.5], [2, 3, n],
                                             [150.0] * 3, BASE, cfg)
            assert excinfo.value.cell == 2
        with pytest.raises(DomainError, match="e must lie") as excinfo:
            simulate_member_profit_batch([0.5, 1.5], [2, 3], [150.0, 150.0], BASE, cfg)
        assert excinfo.value.cell == 1
        with pytest.raises(DomainError, match="w must be > 0") as excinfo:
            simulate_member_profit_batch([0.5, 0.5, 0.5], [2, 3, 2], [150.0, 150.0, -1.0],
                                         BASE, cfg)
        assert excinfo.value.cell == 2
        es = [0.5] * 67
        with pytest.raises(DomainError, match="w must be finite") as excinfo:
            simulate_member_profit_batch(es, [2] * 67, [150.0] * 66 + [math.inf],
                                         BASE, cfg)
        assert excinfo.value.cell == 66
        # w = 1e308 overflows the profit of a failing peer to -inf. A lone
        # member's profit at w = 2^479 stays within the bound 2^480, and
        # one with two failing peers (about -3w) does not.
        with pytest.raises(DomainError,
                           match=r"float range at w=1e\+308") as excinfo:
            simulate_member_profit_batch(es, [3] * 67, [150.0] * 65 + [1e308, 150.0],
                                         BASE, cfg)
        assert excinfo.value.cell == 65
        with pytest.raises(DomainError,
                           match=re.escape(f"float range at w={2.0 ** 479!r}")) as excinfo:
            simulate_member_profit_batch([0.5] * 3, [1, 3, 3], [2.0 ** 479] * 3, BASE, cfg)
        assert excinfo.value.cell == 1
        # Sizes 2 and 3 each have a cell beyond the bound; size 2 comes
        # first, but size 3's bad cell is the batch's first.
        with pytest.raises(DomainError, match=r"float range at w=1e\+308") as excinfo:
            simulate_member_profit_batch([0.5] * 4, [2, 3, 3, 2],
                                         [150.0, 150.0, 1e308, 1e308], BASE, cfg)
        assert excinfo.value.cell == 2
        # 2^61 trials fit the counter space at n = 1, not at n = 2.
        with pytest.raises(DomainError, match="counter space") as excinfo:
            simulate_member_profit_batch([0.5, 0.5], [1, 2], [150.0, 150.0], BASE,
                                         SimConfig(trials=2 ** 61, seed=1))
        assert excinfo.value.cell is None
        for ns, ws in (([2, 2], [150.0]), ([2], [150.0, 150.0])):
            with pytest.raises(DomainError, match="same length"):
                simulate_member_profit_batch([0.5, 0.6], ns, ws, BASE, cfg)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_checks_run_in_the_documented_order(self, data):
        """1-12 valid cells with up to three fields spoiled from `_SPOILS`
        raise the error of the first failing check at its first failing
        cell, as `_first_failure` computes it: a cell below 1 before one
        that is not an integer names the latter."""
        cells = data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 4),
                                             st.floats(1.0, 1000.0)),
                                   min_size=1, max_size=12), "cells")
        fields = {"e": [e for e, _, _ in cells], "n": [n for _, n, _ in cells],
                  "w": [w for _, _, w in cells]}
        spoils = data.draw(st.lists(st.tuples(st.integers(0, len(cells) - 1),
                                              st.sampled_from(_SPOILS)), max_size=3), "spoils")
        for i, (field, value) in spoils:
            fields[field][i] = value
        es, ns, ws = fields["e"], fields["n"], fields["w"]
        cfg = SimConfig(trials=16, seed=1)
        want = _first_failure(es, ns, ws)
        if want is None:
            assert len(simulate_member_profit_batch(es, ns, ws, BASE, cfg)) == len(cells)
            return
        with pytest.raises(DomainError) as excinfo:
            simulate_member_profit_batch(es, ns, ws, BASE, cfg)
        assert type(excinfo.value) is DomainError
        assert (str(excinfo.value), excinfo.value.cell) == want

    def test_large_group_memory_is_bounded(self):
        """n = 1000 over 65,537 trials works block by block: a few seconds
        and at most 16 MB of numpy allocations, where drawing every trial
        at once would take about 0.5 GB per uint64 array."""
        cfg = SimConfig(trials=65_537, seed=3)
        tracemalloc.start()
        try:
            began = time.perf_counter()
            got = simulate_member_profit(0.5, 1000, 150.0, BASE, cfg)
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20
        assert elapsed < 10.0
        exact = enumerate_member_profit(0.5, 1000, 150.0, BASE)
        assert abs(got.empirical_mean - exact.mean) <= 4.0 * got.std_error_mean

    def test_long_e_list_memory_is_bounded(self):
        """500 cells sharing one stream, and 300 e each read by sizes 2, 3
        and 6 of one chain, hold n + 1 counts a cell, not a code per trial
        (that would be 500 x 65,536 bytes, about 31 MB) or flags per e."""
        cfg = SimConfig(trials=65_536, seed=4)
        for es, ns in (([i / 499 for i in range(500)], [2] * 500),
                       ([i / 299 for i in range(300) for _ in range(3)], [2, 3, 6] * 300)):
            tracemalloc.start()
            try:
                got = simulate_member_profit_batch(es, ns, [150.0] * len(es), BASE, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2 ** 20
            # e = 0 pays nothing, and e = 1 pays y_high - w at every size.
            k = len(set(ns))
            assert [r.empirical_mean for r in got[:k] + got[-k:]] == [0.0] * k + [850.0] * k


# ----------------------------------------------------------------------
# statistics against the exact distribution
# ----------------------------------------------------------------------


class TestSimulateStatistics:
    """Empirical moments agree with enumeration at the expected rate."""

    def test_pair_cell(self):
        """e=0.5, n=2, w=150 at 100k trials: the empirical mean lands
        within three standard errors of 512.5 and the variance within 2%
        of 277968.75 (deterministic given the fixed seed)."""
        cfg = SimConfig(trials=100_000, seed=42)
        got = simulate_member_profit(0.5, 2, 150.0, BASE, cfg)
        exact = enumerate_member_profit(0.5, 2, 150.0, BASE)
        np.testing.assert_allclose(exact.mean, 512.5, atol=1e-10)
        assert abs(got.empirical_mean - exact.mean) <= 3.0 * got.std_error_mean
        assert abs(got.empirical_variance / exact.variance - 1.0) < 0.02

    def test_reported_standard_error(self):
        """The reported standard error is sqrt(variance / trials)."""
        cfg = SimConfig(trials=20_000, seed=9)
        got = simulate_member_profit(0.6, 3, 140.0, BASE, cfg)
        np.testing.assert_allclose(
            got.std_error_mean,
            math.sqrt(got.empirical_variance / cfg.trials), rtol=1e-12)

    def test_three_member_cell(self):
        """e=0.5, n=3, w=150: empirical mean near the exact 556.25."""
        cfg = SimConfig(trials=100_000, seed=42)
        got = simulate_member_profit(0.5, 3, 150.0, BASE, cfg)
        exact = enumerate_member_profit(0.5, 3, 150.0, BASE)
        np.testing.assert_allclose(exact.mean, 556.25, atol=1e-10)
        assert abs(got.empirical_mean - exact.mean) <= 3.0 * got.std_error_mean


# ----------------------------------------------------------------------
# enumeration route
# ----------------------------------------------------------------------


class TestEnumerateMemberProfit:
    """Exact moments built from the outcome distribution."""

    def test_matches_pair_polynomials(self):
        """For n=2 the enumeration equals the polynomial pair moments."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            e = rng.uniform(0.0, 1.0)
            w = rng.uniform(10.0, 400.0)
            enum = enumerate_member_profit(e, 2, w, BASE)
            poly = profit_moments_pair(e, w, BASE)
            np.testing.assert_allclose(enum.mean, poly.mean,
                                       rtol=1e-12, atol=1e-12)
            scale = max(poly.variance, 1.0)
            np.testing.assert_allclose(enum.variance, poly.variance,
                                       rtol=1e-10, atol=1e-10 * scale)

    def test_degenerate_endpoint(self):
        """e=1 collapses to a point mass at p*y_high - w."""
        m = enumerate_member_profit(1.0, 5, 150.0, BASE)
        np.testing.assert_allclose(m.mean, 850.0, atol=1e-12)
        np.testing.assert_allclose(m.variance, 0.0, atol=1e-8)

    def test_three_member_mean(self):
        """The e=0.5, n=3, w=150 gross mean is 556.25."""
        m = enumerate_member_profit(0.5, 3, 150.0, BASE)
        np.testing.assert_allclose(m.mean, 556.25, atol=1e-10)
