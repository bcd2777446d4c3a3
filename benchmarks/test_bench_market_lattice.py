"""Benchmark: vectorized market lattice vs scalar market stepping.

Steps every calibrated market (the full 12-region x 4-type book) for a
few simulated weeks under both paths — ``vectorized_markets=False``
(one Python loop iteration, three scalar normal draws, and a tuple
append per market per hour) and the default
:class:`~repro.cloud.lattice.MarketLattice` fast path — and asserts:

* same-seed price traces are **bit-identical** between the paths, and
* the lattice is at least 3x faster at pure market stepping.
"""

from __future__ import annotations

import time

from repro.cloud.provider import CloudProvider
from repro.sim.clock import HOUR

#: Simulated market-stepping horizon.  Long enough that stepping (not
#: provider construction) dominates the wall time on both paths.
HOURS = 24 * 21

#: Required advantage of the vectorized path (ISSUE acceptance bar).
MIN_SPEEDUP = 3.0


def _run_markets(vectorized: bool) -> CloudProvider:
    provider = CloudProvider(seed=11, vectorized_markets=vectorized)
    provider.engine.run_until(HOURS * HOUR)
    provider.shutdown()
    return provider


def _timed_markets(vectorized: bool):
    start = time.perf_counter()
    provider = _run_markets(vectorized)
    return provider, time.perf_counter() - start


def test_market_lattice_stepping():
    scalar_provider, scalar_wall = _timed_markets(vectorized=False)
    vector_provider, vector_wall = _timed_markets(vectorized=True)
    speedup = scalar_wall / vector_wall

    # Bit-exact equivalence: every market's recorded price and metric
    # series must match the scalar reference sample for sample.
    for key, scalar_market in scalar_provider._markets.items():
        vector_market = vector_provider._markets[key]
        assert list(scalar_market.price_trace()) == list(vector_market.price_trace()), key
        assert list(scalar_market.metric_history) == list(vector_market.metric_history), key

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized market stepping only {speedup:.2f}x faster than scalar "
        f"(required {MIN_SPEEDUP:g}x): scalar {scalar_wall:.3f}s, "
        f"vectorized {vector_wall:.3f}s"
    )
