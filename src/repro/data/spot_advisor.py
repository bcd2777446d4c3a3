"""Synthetic AWS Spot Instance Advisor dataset.

The Advisor publishes, per (region, instance type): vCPU, memory,
savings over on-demand, and the bucketed *Interruption Frequency*.
This generator replays a provider's calibrated market dynamics into a
daily-sampled six-month dataset with the same schema, which the
Figure 4 analysis (heatmap and Stability Score trajectories) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.instances import InstanceTypeCatalog, default_instance_catalog
from repro.cloud.lattice import MarketLattice
from repro.cloud.market import SpotMarket
from repro.cloud.pricing import PriceBook
from repro.cloud.profiles import (
    MarketProfileBook,
    default_market_profiles,
    stability_score_from_frequency,
)
from repro.cloud.regions import RegionCatalog, default_region_catalog
from repro.errors import CloudError
from repro.sim.clock import DAY
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class AdvisorRecord:
    """One Advisor row on one day.

    Attributes:
        day: Elapsed day index from the collection start.
        region: Region name.
        instance_type: Instance type name.
        vcpus: Advertised vCPU count.
        memory_gib: Advertised memory.
        savings_pct: Percent saved versus on-demand at that day's price.
        interruption_freq_pct: Interruption Frequency metric (percent).
        stability_score: 1-3 bucket derived from the frequency.
    """

    day: int
    region: str
    instance_type: str
    vcpus: int
    memory_gib: float
    savings_pct: float
    interruption_freq_pct: float
    stability_score: int


class SpotAdvisorDataset:
    """Daily Advisor records over a collection window."""

    def __init__(self, records: Sequence[AdvisorRecord], days: int) -> None:
        self._records = list(records)
        self.days = days
        self._by_key: Dict[Tuple[str, str], List[AdvisorRecord]] = {}
        for record in self._records:
            self._by_key.setdefault((record.region, record.instance_type), []).append(record)
        for series in self._by_key.values():
            series.sort(key=lambda record: record.day)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[AdvisorRecord]:
        """All records, unordered."""
        return list(self._records)

    def series(self, region: str, instance_type: str) -> List[AdvisorRecord]:
        """Daily series for one (region, type), ordered by day.

        Raises:
            CloudError: If the pair was not collected.
        """
        series = self._by_key.get((region, instance_type))
        if series is None:
            raise CloudError(
                f"advisor dataset has no series for {instance_type!r} in {region!r}"
            )
        return list(series)

    def regions(self) -> List[str]:
        """Regions present in the dataset, sorted."""
        return sorted({region for region, _ in self._by_key})

    def frequency_heatmap(self, instance_type: str) -> Dict[str, List[float]]:
        """Figure 4a input: per-region daily Interruption Frequency."""
        heatmap: Dict[str, List[float]] = {}
        for (region, itype), series in self._by_key.items():
            if itype == instance_type:
                heatmap[region] = [record.interruption_freq_pct for record in series]
        return heatmap

    def mean_stability_by_region(self, instance_type: str, day: int) -> Dict[str, int]:
        """Per-region Stability Score bucket on a given day."""
        scores: Dict[str, int] = {}
        for (region, itype), series in self._by_key.items():
            if itype != instance_type:
                continue
            record = min(series, key=lambda r: abs(r.day - day))
            scores[region] = record.stability_score
        return scores

    def average_stability_series(self, instance_type: str) -> List[float]:
        """Figure 4b input: cross-region mean Stability Score per day.

        The paper averages each instance type's per-region score over
        the collection window; we report the cross-region mean for each
        elapsed day.
        """
        by_day: Dict[int, List[int]] = {}
        for (region, itype), series in self._by_key.items():
            if itype != instance_type:
                continue
            for record in series:
                by_day.setdefault(record.day, []).append(record.stability_score)
        return [
            sum(scores) / len(scores) for day, scores in sorted(by_day.items()) if scores
        ]


def daily_markets(
    stream_prefix: str,
    days: int,
    instance_types: Optional[Sequence[str]],
    regions: Optional[RegionCatalog],
    instances: Optional[InstanceTypeCatalog],
    profiles: Optional[MarketProfileBook],
    seed: int,
) -> List[SpotMarket]:
    """Build and step the markets behind a daily-sampled dataset.

    One market per available (region, type) profile — only
    *instance_types* when given — each on its own stream
    ``"{stream_prefix}:{region}:{type}"``, in profile order.  A single
    :class:`~repro.cloud.lattice.MarketLattice` builds them and steps
    them all once a day at ``day * DAY`` for *days* days, so every
    market's traces hold one row per day.
    """
    regions = regions or default_region_catalog()
    instances = instances or default_instance_catalog()
    profiles = profiles or default_market_profiles(regions, instances)
    wanted = set(instance_types) if instance_types is not None else None
    price_book = PriceBook(regions, instances)
    streams = RandomStreams(seed)
    specs = [
        (
            profile,
            price_book.od_price(profile.region, profile.instance_type),
            streams.get(f"{stream_prefix}:{profile.region}:{profile.instance_type}"),
            0.0,
        )
        for profile in profiles
        if profile.available and (wanted is None or profile.instance_type in wanted)
    ]
    if not specs:
        return []
    lattice = MarketLattice(specs)
    for day in range(days):
        lattice.step(day * DAY)
    return lattice.markets


def generate_advisor_dataset(
    days: int = 180,
    instance_types: Optional[Sequence[str]] = None,
    regions: Optional[RegionCatalog] = None,
    instances: Optional[InstanceTypeCatalog] = None,
    profiles: Optional[MarketProfileBook] = None,
    seed: int = 0,
) -> SpotAdvisorDataset:
    """Generate a *days*-long Advisor dataset from calibrated markets.

    Each (region, type) market is stepped daily; unavailable markets
    (e.g. p3 in excluded regions) are skipped, matching the paper's
    note about p3 region exclusions.
    """
    instances = instances or default_instance_catalog()
    markets = daily_markets(
        "advisor", days, instance_types, regions, instances, profiles, seed
    )

    records: List[AdvisorRecord] = []
    for market in markets:
        profile = market.profile
        itype = instances.get(profile.instance_type)
        od_price = market.od_price
        prices = market.price_trace().column(1)
        freqs = market.metric_history.column(2)
        for day in range(days):
            price = float(prices[day])
            freq = float(freqs[day])
            records.append(
                AdvisorRecord(
                    day=day,
                    region=profile.region,
                    instance_type=profile.instance_type,
                    vcpus=itype.vcpus,
                    memory_gib=itype.memory_gib,
                    savings_pct=round(100.0 * (1.0 - price / od_price), 2),
                    interruption_freq_pct=round(freq, 2),
                    stability_score=stability_score_from_frequency(freq),
                )
            )
    return SpotAdvisorDataset(records, days=days)
