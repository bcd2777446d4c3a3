"""Market lattice: golden-trace replay, market rows, and trace-view semantics."""

import numpy as np
import pytest

from repro.cloud.lattice import HISTORY_CAPACITY, MarketLattice
from repro.cloud.profiles import MarketProfile
from repro.cloud.provider import CloudProvider
from repro.sim.clock import HOUR
from tests import golden_markets


def _assert_matches_golden(run, markets):
    expected = golden_markets.load_fixture()[run]
    got = golden_markets.digest_markets(markets)
    assert sorted(got) == sorted(expected)
    for key, digests in expected.items():
        assert got[key] == digests, key


def test_vectorized_markets_bit_identical_to_scalar():
    # The golden digests were written by the deleted scalar stepper.
    run = "seed13-50h"
    spec = golden_markets.RUNS[run]
    _assert_matches_golden(run, golden_markets.provider_markets(spec))


def test_vectorized_warmup_bit_identical_to_scalar():
    # warmup_markets (dropped burn-in history) then 50 engine hours.
    run = "seed13-warmup30-50h"
    spec = golden_markets.RUNS[run]
    _assert_matches_golden(run, golden_markets.provider_markets(spec))


def test_lattice_replays_golden_seed11_three_week_run():
    # More steps than one noise block and one history chunk.
    run = "seed11-21d"
    spec = golden_markets.RUNS[run]
    _assert_matches_golden(run, golden_markets.provider_markets(spec))


def test_lattice_survives_noise_block_boundary():
    # A tiny prefetch block and history chunk force refills and flushes
    # every few steps; the series must not depend on either size.
    run = "seed5-block4-chunk3-25h"
    spec = golden_markets.RUNS[run]
    _assert_matches_golden(run, golden_markets.block_lattice_markets(spec))


def _one_market(seed=0):
    profile = MarketProfile(region="us-east-1", instance_type="m5.xlarge")
    lattice = MarketLattice([(profile, 1.0, np.random.default_rng(seed), 0.0)])
    return lattice, lattice.markets[0]


def test_markets_are_readable_from_construction():
    # The lattice builds its markets with their initial state, so no
    # observable can fail (and a getattr default never hides a failure).
    provider = CloudProvider(seed=3)
    for market in provider.lattice.markets:
        assert market.mean_price * 0.35 <= market.spot_price <= market.od_price
        assert getattr(market, "placement_score", None) is not None
        assert market.hazard_at(0.0) >= 0.0
        assert len(market.price_trace()) == 0


def test_force_frequency_writes_through_to_lattice():
    provider = CloudProvider(seed=3)
    market = next(iter(provider._markets.values()))
    market.force_frequency(3000.0)
    assert market.interruption_frequency == 3000.0


def test_lattice_requires_markets():
    with pytest.raises(ValueError):
        MarketLattice([])


def test_trace_returns_live_view_not_copy():
    provider = CloudProvider(seed=9)
    market = next(iter(provider._markets.values()))
    provider.engine.run_until(3 * HOUR)
    view = market.price_trace()
    assert view is market.price_trace()
    assert len(view) == 3
    provider.engine.run_until(5 * HOUR)
    # The view tracks later appends instead of freezing a copy.
    assert len(market.price_trace()) == 5


def test_trace_buffer_reads_like_tuple_list():
    lattice, market = _one_market()
    trace = market.price_trace()
    rows = []
    for step in range(HISTORY_CAPACITY + 1):
        # The last step crosses the history's growth boundary.
        lattice.step(float(step))
        rows.append((float(step), market.spot_price))
    assert len(trace) == len(rows)
    assert trace[0] == rows[0]
    assert trace[-1] == rows[-1]
    assert trace[1:] == rows[1:]
    assert list(trace) == rows
    assert trace == rows
    assert [time for time, _ in trace] == [time for time, _ in rows]
    with pytest.raises(IndexError):
        trace[len(rows)]


def test_trace_buffer_columns_and_equality():
    lattice, market = _one_market()
    lattice.step(0.0)
    lattice.step(1.0)
    trace = market.price_trace()
    assert trace.column(0).tolist() == [0.0, 1.0]
    assert trace.column(1).tolist() == [price for _, price in trace]
    assert market.metric_history is market.metric_history
    assert len(market.metric_history[-1]) == 3
    with pytest.raises(ValueError):
        trace.column(1)[0] = 9.9  # read-only view
    twin_lattice, twin = _one_market()  # same stream, same rows
    twin_lattice.step(0.0)
    twin_lattice.step(1.0)
    assert trace == twin.price_trace()
    twin_lattice.step(2.0)
    assert trace != twin.price_trace()
    lattice.clear_history()
    assert len(trace) == 0 and trace == []
