"""Golden market traces: the frozen output of the market stepper.

Spot price, Spot Placement Score and Interruption Frequency are stepped
in one place, :meth:`~repro.cloud.lattice.MarketLattice.step`.  The
committed fixture (``tests/data/golden_market_traces.json``) was written
by the per-market scalar stepper that preceded the lattice as the
reference path, immediately before that path was deleted;
``tests/test_lattice.py`` replays the same runs through the lattice and
compares every digest with ``==``.  Regenerating the fixture from the
current code defeats the gate; do it only when the market *model*
intentionally changes.

Each run records, per market (``"region/instance_type"``), SHA-256
digests over ``repr`` of the price-trace rows, the metric-history rows
and the final observables, plus the first and last rows of both series
in the clear, so a mismatch shows where the series part.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Mapping, Tuple

from repro.cloud.instances import default_instance_catalog
from repro.cloud.lattice import MarketLattice
from repro.cloud.market import SpotMarket
from repro.cloud.pricing import PriceBook
from repro.cloud.profiles import default_market_profiles
from repro.cloud.provider import CloudProvider
from repro.cloud.regions import default_region_catalog
from repro.sim.clock import HOUR
from repro.sim.rng import RandomStreams

FIXTURE_PATH = Path(__file__).parent / "data" / "golden_market_traces.json"

#: The pinned runs.  ``warmup`` is ``CloudProvider.warmup_markets``
#: steps before t=0; ``hours`` is the engine horizon after it.  The
#: last run is replayed through a lattice with a tiny prefetch block,
#: so it crosses many noise-refill boundaries.  Its key still names the
#: 3-step history chunk the lattice used to flush history in.
RUNS: Dict[str, dict] = {
    "seed13-50h": {"seed": 13, "warmup": 0, "hours": 50},
    "seed13-warmup30-50h": {"seed": 13, "warmup": 30, "hours": 50},
    "seed11-21d": {"seed": 11, "warmup": 0, "hours": 21 * 24},
    "seed5-block4-chunk3-25h": {
        "seed": 5,
        "warmup": 0,
        "hours": 25,
        "noise_block": 4,
    },
}

Markets = Mapping[Tuple[str, str], SpotMarket]


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def digest_markets(markets: Markets) -> Dict[str, dict]:
    """Per-market digests of every recorded series and the final state."""
    digests = {}
    for (region, instance_type), market in markets.items():
        prices = list(market.price_trace())
        metrics = list(market.metric_history)
        final = (
            market.spot_price,
            market.placement_score,
            market.interruption_frequency,
            market.stability_score,
        )
        digests[f"{region}/{instance_type}"] = {
            "price_trace": _sha(prices),
            "metric_history": _sha(metrics),
            "final": _sha(final),
            "first": [list(prices[0]), list(metrics[0])],
            "last": [list(prices[-1]), list(metrics[-1])],
        }
    return digests


def provider_markets(spec: dict, make_provider: Callable = CloudProvider) -> Markets:
    """Run a provider with no workloads through *spec*; return its markets."""
    provider = make_provider(seed=spec["seed"])
    if spec["warmup"]:
        provider.warmup_markets(spec["warmup"])
    provider.engine.run_until(spec["hours"] * HOUR)
    return provider._markets


def block_lattice_markets(spec: dict) -> Markets:
    """Build the provider's markets through a lattice with *spec*'s
    ``noise_block`` and step them by hand.

    Same profiles, prices and named streams as ``CloudProvider``, so the
    series must equal :func:`provider_markets` for the same seed.
    """
    regions, instances = default_region_catalog(), default_instance_catalog()
    price_book = PriceBook(regions, instances)
    streams = RandomStreams(spec["seed"])
    lattice = MarketLattice(
        [
            (
                profile,
                price_book.od_price(profile.region, profile.instance_type),
                streams.get(f"market:{profile.region}:{profile.instance_type}"),
                0.0,
            )
            for profile in default_market_profiles(regions, instances)
        ],
        noise_block=spec["noise_block"],
    )
    markets = {(market.region, market.instance_type): market for market in lattice.markets}
    probe = lattice.markets[0]
    for hour in range(1, spec["hours"] + 1):
        lattice.step(hour * HOUR)
        if hour % 5 == 0:
            list(probe.price_trace())  # a mid-run read must not perturb the run
    return markets


def record(make_provider: Callable = CloudProvider) -> Dict[str, dict]:
    """Digest every run in :data:`RUNS` through ``CloudProvider`` runs."""
    return {
        name: digest_markets(provider_markets(spec, make_provider))
        for name, spec in RUNS.items()
    }


def load_fixture() -> Dict[str, dict]:
    """Read the committed golden digests."""
    return json.loads(FIXTURE_PATH.read_text())


def write_fixture(digests: Dict[str, dict]) -> None:
    """Write *digests* as the golden fixture, one line per market."""
    runs = []
    for run, markets in sorted(digests.items()):
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(markets.items())
        )
        runs.append(f" {json.dumps(run)}: {{\n{rows}\n }}")
    FIXTURE_PATH.write_text("{\n" + ",\n".join(runs) + "\n}\n")
