"""Market lattice: golden-trace replay, adoption, and TraceBuffer semantics."""

import numpy as np
import pytest

from repro.cloud.lattice import MarketLattice, TraceBuffer
from repro.cloud.market import SpotMarket
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


def test_adopting_an_adopted_market_raises():
    provider = CloudProvider(seed=3)
    provider.engine.run_until(5 * HOUR)
    markets = list(provider._markets.values())
    price = markets[0].spot_price
    with pytest.raises(ValueError, match="already adopted"):
        MarketLattice(markets)
    with pytest.raises(ValueError, match="already adopted"):
        MarketLattice(markets[:1])
    bare = SpotMarket(markets[0].profile, od_price=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="already adopted"):
        MarketLattice([bare, bare])  # one market, two slots
    # The refused adoption neither rewound the market nor took it over.
    assert markets[0].spot_price == price
    assert markets[0]._lattice is provider.lattice
    provider.engine.run_until(6 * HOUR)
    assert len(markets[0].price_trace()) == 6


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
    buffer = TraceBuffer(2, capacity=2)
    rows = [(0.0, 1.5), (1.0, 2.5), (2.0, 3.5)]
    for time, value in rows:
        # The third row crosses the growth boundary.
        buffer.extend_columns(np.array([time]), np.array([value]))
    assert len(buffer) == 3
    assert buffer[0] == rows[0]
    assert buffer[-1] == rows[-1]
    assert buffer[1:] == rows[1:]
    assert list(buffer) == rows
    assert buffer == rows
    assert [time for time, _ in buffer] == [0.0, 1.0, 2.0]
    with pytest.raises(IndexError):
        buffer[3]


def test_trace_buffer_columns_and_equality():
    buffer = TraceBuffer(2)
    buffer.extend_columns(np.array([0.0, 1.0]), np.array([5.0, 6.0]))
    assert buffer.column(1).tolist() == [5.0, 6.0]
    with pytest.raises(ValueError):
        buffer.column(1)[0] = 9.9  # read-only view
    with pytest.raises(ValueError):
        buffer.extend_columns(np.array([2.0]))  # wrong column count
    other = TraceBuffer(2)
    other.extend_columns(np.array([0.0]), np.array([5.0]))
    other.extend_columns(np.array([1.0]), np.array([6.0]))
    assert buffer == other
    other.extend_columns(np.array([2.0]), np.array([7.0]))
    assert buffer != other
    buffer.clear()
    assert len(buffer) == 0 and buffer == []
