"""Tests for the validation oracles: the exact enumeration route and the
counter-based Monte Carlo simulator.

The simulator documents its random source completely: draw t*n+j for
(trial t, member j) is the splitmix64 finalizer applied to
seed + (counter+1)*0x9E3779B97F4A7C15, mapped to [0, 1) by the top 53
bits, and trials accumulate in fixed 65,536-trial chunks. These tests
rebuild that contract independently, draw by draw in pure Python and
chunk by chunk with a float-threshold numpy oracle, and require the
shared-stream kernel to match it bit for bit, then check the statistics
against the exact distribution.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eselend import (
    DomainError,
    MarketParams,
    SimConfig,
    SimResult,
    enumerate_member_profit,
    profit_moments_pair,
    simulate_member_profit,
    simulate_member_profit_batch,
)
from eselend.oracle_sim import (
    _BLOCK_DRAWS,
    _SHARED_CELLS,
    CHUNK_TRIALS,
    _draws53,
    _stream_base,
)

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
    """The kernel's 53-bit draws for arbitrary counters."""
    z, tmp = np.empty_like(counters), np.empty_like(counters)
    return _draws53(_stream_base(seed, 0), counters * _GOLDEN, z, tmp)


def _ref_simulate(e, n, w, params, trials, seed):
    """Pure-Python rebuild of the documented simulation contract."""
    ph, pl = params.high_revenue, params.low_revenue
    chunk_sums, chunk_sqs = [], []
    lo, hi = math.inf, -math.inf
    for start in range(0, trials, CHUNK_TRIALS):
        m = min(CHUNK_TRIALS, trials - start)
        counters = np.arange(start * n, (start + m) * n, dtype=np.uint64)
        success = _uniform01(seed, counters).reshape(m, n) < e
        peer_ok = success[:, 1:].sum(axis=1)
        k_fail = (n - 1) - peer_ok
        paid = ph - w - k_fail * (w - pl) / (peer_ok + 1)
        profit = np.where(success[:, 0], paid, 0.0)
        chunk_sums.append(float(profit.sum()))
        chunk_sqs.append(float((profit * profit).sum()))
        lo = min(lo, float(profit.min()))
        hi = max(hi, float(profit.max()))
    if lo == hi:
        return lo, 0.0
    mean = float(np.sum(np.asarray(chunk_sums))) / trials
    var = max(float(np.sum(np.asarray(chunk_sqs))) / trials - mean * mean, 0.0)
    return mean, var


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

    def test_matches_documented_recipe_single_chunk(self):
        """A sub-chunk run reproduces the pure rebuild exactly."""
        cfg = SimConfig(trials=10_000, seed=11)
        got = simulate_member_profit(0.55, 4, 160.0, BASE, cfg)
        mean, var = _ref_simulate(0.55, 4, 160.0, BASE, 10_000, 11)
        assert got.empirical_mean == mean
        assert got.empirical_variance == var

    def test_matches_documented_recipe_across_chunks(self):
        """A run spanning chunk boundaries (two full chunks plus a partial
        tail) still matches the rebuild bit for bit."""
        trials = 2 * CHUNK_TRIALS + 18_928
        cfg = SimConfig(trials=trials, seed=3)
        got = simulate_member_profit(0.3, 2, 150.0, BASE, cfg)
        mean, var = _ref_simulate(0.3, 2, 150.0, BASE, trials, 3)
        assert got.empirical_mean == mean
        assert got.empirical_variance == var
        assert got.trials == trials

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

    def test_input_validation(self):
        """Out-of-range e and nonpositive w are domain errors."""
        cfg = SimConfig(trials=100, seed=1)
        with pytest.raises(DomainError):
            simulate_member_profit(1.5, 2, 150.0, BASE, cfg)
        with pytest.raises(DomainError):
            simulate_member_profit(0.5, 2, 0.0, BASE, cfg)


# ----------------------------------------------------------------------
# shared-stream batch
# ----------------------------------------------------------------------


def _trial_counts(n: int) -> list[int]:
    """Trial counts on both sides of block and chunk boundaries for size
    n, kept to at most 2^19 draws so the float oracle stays cheap."""
    rows = max(1, _BLOCK_DRAWS // n)
    counts = {1, 2, rows - 1, rows, rows + 1, 3 * rows + 2,
              CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1,
              2 * CHUNK_TRIALS + rows + 1}
    return sorted(t for t in counts if 1 <= t and t * n <= 2 ** 19)


class TestSimulateBatch:
    """One draw stream per (n, block), compared against every e."""

    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_float_oracle(self, data):
        """Every cell equals the chunk-by-chunk float-threshold oracle,
        for e at 0, 1, multiples of 2^-53 and exactly on a draw, sizes on
        both sides of the uint8 code limit, and any 64-bit seed."""
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
        es = data.draw(st.lists(e, min_size=1, max_size=4), "es")
        ws = data.draw(st.lists(st.floats(1.0, 600.0), min_size=len(es),
                                max_size=len(es)), "ws")
        got = simulate_member_profit_batch(es, n, ws, BASE,
                                           SimConfig(trials=trials, seed=seed))
        for e, w, result in zip(es, ws, got):
            mean, var = _ref_simulate(e, n, w, BASE, trials, seed)
            assert (result.empirical_mean, result.empirical_variance) == (mean, var)
            assert result == SimResult(mean, var, math.sqrt(var / trials),
                                       trials, seed)

    def test_matches_one_cell_calls(self):
        """A batch returns the same results as one call per cell, also
        when its cells take more than one pass over the stream."""
        es, ws = [0.3, 0.5, 0.8, 0.5], [140.0, 150.0, 160.0, 120.0]
        cfg = SimConfig(trials=CHUNK_TRIALS + 999, seed=8)
        got = simulate_member_profit_batch(es, 4, ws, BASE, cfg)
        assert got == [simulate_member_profit(e, 4, w, BASE, cfg)
                       for e, w in zip(es, ws)]
        es = [i / (2 * _SHARED_CELLS) for i in range(2 * _SHARED_CELLS + 1)]
        ws = [100.0 + i for i in range(len(es))]
        cfg = SimConfig(trials=3000, seed=-8)
        got = simulate_member_profit_batch(es, 3, ws, BASE, cfg)
        assert got == [simulate_member_profit(e, 3, w, BASE, cfg)
                       for e, w in zip(es, ws)]

    def test_empty_batch(self):
        """No cells, no results."""
        assert simulate_member_profit_batch([], 3, [], BASE) == []

    def test_errors_carry_the_cell_index(self):
        """A bad cell raises with its index in ``cell``; the counter-space
        guard belongs to no cell."""
        cfg = SimConfig(trials=100, seed=1)
        with pytest.raises(DomainError, match="e must lie") as excinfo:
            simulate_member_profit_batch([0.5, 1.5], 2, [150.0, 150.0], BASE, cfg)
        assert excinfo.value.cell == 1
        with pytest.raises(DomainError, match="w must be > 0") as excinfo:
            simulate_member_profit_batch([0.5, 0.5, 0.5], 2, [150.0, 150.0, -1.0],
                                         BASE, cfg)
        assert excinfo.value.cell == 2
        es = [0.5] * (_SHARED_CELLS + 3)
        with pytest.raises(DomainError, match="w must be finite") as excinfo:
            simulate_member_profit_batch(es, 2, [150.0] * (_SHARED_CELLS + 2)
                                         + [math.inf], BASE, cfg)
        assert excinfo.value.cell == _SHARED_CELLS + 2
        # w = 1e308 overflows the profit of a failing peer to -inf.
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match="empirical_mean must be finite") as excinfo:
            simulate_member_profit_batch(es, 3, [150.0] * (_SHARED_CELLS + 1)
                                         + [1e308, 150.0], BASE, cfg)
        assert excinfo.value.cell == _SHARED_CELLS + 1
        with pytest.raises(DomainError, match="counter space") as excinfo:
            simulate_member_profit_batch([0.5], 2, [150.0], BASE,
                                         SimConfig(trials=2 ** 61, seed=1))
        assert excinfo.value.cell is None
        with pytest.raises(DomainError, match="same length"):
            simulate_member_profit_batch([0.5, 0.6], 2, [150.0], BASE, cfg)

    def test_large_group_memory_is_bounded(self):
        """n = 1000 past one chunk works block by block: a few seconds and
        at most 16 MB of numpy allocations, where one n-wide chunk would
        take about 0.5 GB per uint64 array."""
        cfg = SimConfig(trials=CHUNK_TRIALS + 1, seed=3)
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
        """Cells share the stream in groups, so 500 cells hold the code
        arrays of at most _SHARED_CELLS of them (one per cell would be
        500 x 65,536 bytes, about 31 MB)."""
        es = [i / 499 for i in range(500)]
        cfg = SimConfig(trials=CHUNK_TRIALS, seed=4)
        tracemalloc.start()
        try:
            got = simulate_member_profit_batch(es, 2, [150.0] * 500, BASE, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20
        assert got[0].empirical_mean == 0.0
        assert got[-1].empirical_mean == 850.0


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
