"""Spot price traces and the Figure 2 diversity statistics.

Figure 2 plots per-(region, AZ) spot prices over ~30 elapsed days for
four representative instance types.  :func:`generate_price_traces`
replays the calibrated markets at hourly resolution and expands each
region's series into its three AZ variants; :func:`trace_statistics`
summarises the diversity the figure visualises (per-market mean and
coefficient of variation, cross-region spread).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.instances import InstanceTypeCatalog, default_instance_catalog
from repro.cloud.lattice import MarketLattice
from repro.cloud.market import AZ_PRICE_SKEWS, SpotMarket
from repro.cloud.pricing import PriceBook
from repro.cloud.profiles import MarketProfileBook, default_market_profiles
from repro.cloud.regions import RegionCatalog, default_region_catalog
from repro.sim.clock import DAY, HOUR
from repro.sim.rng import RandomStreams


@dataclass
class PriceTrace:
    """One AZ-level hourly price series.

    Attributes:
        region: Region name.
        az: Availability-zone name.
        instance_type: Instance type name.
        times: Elapsed seconds per sample.
        prices: USD/hour per sample.
    """

    region: str
    az: str
    instance_type: str
    times: List[float]
    prices: List[float]

    def mean(self) -> float:
        """Mean price over the trace."""
        return float(np.mean(self.prices))

    def coefficient_of_variation(self) -> float:
        """Relative dispersion (std / mean), the fluctuation measure."""
        mean = self.mean()
        if mean == 0:
            return 0.0
        return float(np.std(self.prices) / mean)

    def to_csv(self) -> str:
        """Serialise the trace to CSV (time_s, price_usd_hour)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["time_s", "price_usd_hour"])
        for time, price in zip(self.times, self.prices):
            writer.writerow([f"{time:.0f}", f"{price:.6f}"])
        return buffer.getvalue()

    @classmethod
    def from_csv(
        cls, text: str, region: str, az: str, instance_type: str
    ) -> "PriceTrace":
        """Parse a trace serialised by :meth:`to_csv`."""
        reader = csv.reader(io.StringIO(text))
        next(reader)  # header
        times, prices = [], []
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            prices.append(float(row[1]))
        return cls(region=region, az=az, instance_type=instance_type, times=times, prices=prices)


def generate_price_traces(
    instance_types: Sequence[str],
    days: int = 30,
    regions: Optional[RegionCatalog] = None,
    instances: Optional[InstanceTypeCatalog] = None,
    profiles: Optional[MarketProfileBook] = None,
    seed: int = 0,
) -> List[PriceTrace]:
    """Generate hourly AZ-level traces for *instance_types* over *days*."""
    regions = regions or default_region_catalog()
    instances = instances or default_instance_catalog()
    profiles = profiles or default_market_profiles(regions, instances)
    price_book = PriceBook(regions, instances)
    streams = RandomStreams(seed)
    steps = int(days * DAY / HOUR)

    # One MarketLattice builds every market and advances them together
    # at its hourly step interval (each market draws from its own named
    # stream).
    specs = []
    market_meta = []
    for itype_name in instance_types:
        instances.get(itype_name)  # validate
        for region in regions:
            profile = profiles.get(region.name, itype_name)
            if not profile.available:
                continue
            specs.append(
                (
                    profile,
                    price_book.od_price(region.name, itype_name),
                    streams.get(f"trace:{region.name}:{itype_name}"),
                    0.0,
                )
            )
            market_meta.append((itype_name, region))
    markets: List[SpotMarket] = []
    if specs:
        lattice = MarketLattice(specs)
        lattice.warmup(steps, start_time=0.0)
        markets = lattice.markets

    traces: List[PriceTrace] = []
    for market, (itype_name, region) in zip(markets, market_meta):
        times = [time for time, _ in market.price_trace()]
        region_prices = [price for _, price in market.price_trace()]
        for az_index, zone in enumerate(region.zones):
            skew = AZ_PRICE_SKEWS[az_index % len(AZ_PRICE_SKEWS)]
            traces.append(
                PriceTrace(
                    region=region.name,
                    az=zone.name,
                    instance_type=itype_name,
                    times=list(times),
                    prices=[price * skew for price in region_prices],
                )
            )
    return traces


def trace_statistics(traces: Sequence[PriceTrace]) -> Dict[str, Dict[str, float]]:
    """Summarise Figure 2's diversity per instance type.

    Returns, per type: the cheapest and dearest market means, the
    cross-market spread ratio (max mean / min mean), and the average
    within-market coefficient of variation.
    """
    by_type: Dict[str, List[PriceTrace]] = {}
    for trace in traces:
        by_type.setdefault(trace.instance_type, []).append(trace)
    stats: Dict[str, Dict[str, float]] = {}
    for itype, group in by_type.items():
        means = [trace.mean() for trace in group]
        stats[itype] = {
            "markets": float(len(group)),
            "min_mean_price": float(min(means)),
            "max_mean_price": float(max(means)),
            "spread_ratio": float(max(means) / min(means)),
            "mean_cv": float(np.mean([trace.coefficient_of_variation() for trace in group])),
        }
    return stats
