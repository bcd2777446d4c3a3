"""Golden market-observatory output: anomalies, bus events, series, tables.

The committed fixture (``tests/data/golden_observatory.json``) pins what
:class:`~repro.obs.observatory.MarketObservatory` produced for four
runs before its read path was rewritten over the market lattice's
per-step lists.  ``tests/test_observatory_golden.py`` replays the runs
and compares every digest with ``==``; regenerate the fixture only
when the observatory's *model* (fields, windows, thresholds)
intentionally changes.

Each run records SHA-256 digests of:

* the anomaly list, every field, floats as ``repr``;
* the ``market.anomaly`` bus events (``to_dict``, JSON);
* ``TimeSeriesStore.points()`` (JSON with sorted keys);
* the ``render_market_tables`` text over all six sampled fields;

plus ``samples_taken`` and the anomaly count in the clear.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

from repro.cloud.profiles import default_market_profiles
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.obs import EventType, Telemetry, TimeSeriesStore
from repro.obs.export import render_market_tables
from repro.sim.clock import DAY
from repro.strategies import SingleRegionPolicy
from repro.workloads import synthetic_workload

FIXTURE_PATH = Path(__file__).parent / "data" / "golden_observatory.json"

#: Every field the observatory samples, in table order.
FIELDS = (
    "spot_price",
    "placement_score",
    "interruption_frequency",
    "hazard_per_hour",
    "utilization",
    "fulfillment_factor",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def markets_week() -> CloudProvider:
    """Seed 10, one simulated week of markets under the observatory."""
    provider = CloudProvider(seed=10, observatory=True)
    provider.engine.run_until(7 * DAY)
    return provider


def compacting_rings() -> CloudProvider:
    """Seed 3, six days into 32-bucket rings (several compactions)."""
    telemetry = Telemetry(timeseries=TimeSeriesStore(capacity=32))
    provider = CloudProvider(seed=3, telemetry=telemetry, observatory=True)
    provider.engine.run_until(6 * DAY)
    return provider


def fleet_run(profiles=None) -> CloudProvider:
    """The single-region fleet of ``tests/test_report_fold.py``."""
    provider = CloudProvider(seed=10, profiles=profiles, observatory=True)
    provider.warmup_markets(24)
    controller = FleetController(
        provider,
        SingleRegionPolicy(instance_type="m5.xlarge"),
        SpotVerseConfig(instance_type="m5.xlarge"),
    )
    controller.run(
        [synthetic_workload(f"wl-{i}", duration_hours=6.0, n_segments=6) for i in range(6)],
        max_hours=48.0,
    )
    return provider


def metered_fleet_run() -> CloudProvider:
    """:func:`fleet_run` with every m5.xlarge pool capped at 8 instances.

    The default profiles are unmetered, so utilization only moves off
    zero (and fulfillment off one, and pressure into the hazard) when a
    pool has a finite capacity.
    """
    profiles = default_market_profiles()
    metered = {
        (profile.region, profile.instance_type): {"capacity": 8}
        for profile in profiles
        if profile.instance_type == "m5.xlarge"
    }
    return fleet_run(profiles.with_overrides(metered))


RUNS: Dict[str, Callable[[], CloudProvider]] = {
    "seed10-markets-7d": markets_week,
    "seed3-capacity32-6d": compacting_rings,
    "seed10-fleet": fleet_run,
    "seed10-metered-fleet": metered_fleet_run,
}


def digest_provider(provider: CloudProvider) -> Dict[str, object]:
    """Digest everything the provider's observatory produced."""
    observatory = provider.observatory
    store = provider.telemetry.timeseries
    anomalies = [
        (a.time, a.kind, a.region, a.instance_type, a.field, a.value, a.zscore)
        for a in observatory.anomalies
    ]
    events = provider.telemetry.bus.events(EventType.MARKET_ANOMALY)
    points = [json.dumps(point, sort_keys=True) for point in store.points()]
    tables = render_market_tables(store, events=events, fields=FIELDS)
    return {
        "anomalies": _sha(repr(anomalies)),
        "anomaly_count": len(anomalies),
        "bus_events": _sha(json.dumps([event.to_dict() for event in events], sort_keys=True)),
        "points": _sha("\n".join(points)),
        "samples_taken": observatory.samples_taken,
        "tables": _sha(tables),
    }


def record() -> Dict[str, Dict[str, object]]:
    """Digest every run in :data:`RUNS`."""
    digests = {}
    for name, build in RUNS.items():
        provider = build()
        digests[name] = digest_provider(provider)
        provider.shutdown()
    return digests


def load_fixture() -> Dict[str, Dict[str, object]]:
    """Read the committed golden digests."""
    return json.loads(FIXTURE_PATH.read_text())


def write_fixture(digests: Dict[str, Dict[str, object]]) -> None:
    """Write *digests* as the golden fixture."""
    FIXTURE_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
