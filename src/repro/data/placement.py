"""Synthetic Spot Placement Score dataset.

AWS's Spot Placement Score predicts, on a 1-10 scale, how likely a
spot request is to succeed in a region.  The paper tracks six-month
per-region trajectories (Figure 4c) and feeds the current score into
Algorithm 1.  This generator mirrors
:mod:`repro.data.spot_advisor` for the placement observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.instances import InstanceTypeCatalog
from repro.cloud.profiles import MarketProfileBook
from repro.cloud.regions import RegionCatalog
from repro.data.spot_advisor import daily_markets
from repro.errors import CloudError


@dataclass(frozen=True)
class PlacementRecord:
    """One placement-score observation.

    Attributes:
        day: Elapsed day index from the collection start.
        region: Region name.
        instance_type: Instance type name.
        score: Spot Placement Score (continuous 1-10; AWS reports the
            rounded integer, available via :attr:`reported_score`).
    """

    day: int
    region: str
    instance_type: str
    score: float

    @property
    def reported_score(self) -> int:
        """The integer score AWS would report."""
        return int(round(self.score))


class PlacementScoreDataset:
    """Daily placement-score records over a collection window."""

    def __init__(self, records: Sequence[PlacementRecord], days: int) -> None:
        self._records = list(records)
        self.days = days
        self._by_key: Dict[Tuple[str, str], List[PlacementRecord]] = {}
        for record in self._records:
            self._by_key.setdefault((record.region, record.instance_type), []).append(record)
        for series in self._by_key.values():
            series.sort(key=lambda record: record.day)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[PlacementRecord]:
        """All records, unordered."""
        return list(self._records)

    def pairs(self) -> List[Tuple[str, str]]:
        """All (region, instance_type) pairs present, sorted."""
        return sorted(self._by_key)

    def series(self, region: str, instance_type: str) -> List[PlacementRecord]:
        """Daily series for one (region, type), ordered by day."""
        series = self._by_key.get((region, instance_type))
        if series is None:
            raise CloudError(
                f"placement dataset has no series for {instance_type!r} in {region!r}"
            )
        return list(series)

    def regions(self) -> List[str]:
        """Regions present in the dataset, sorted."""
        return sorted({region for region, _ in self._by_key})

    def average_score_series(self, instance_type: str) -> List[float]:
        """Figure 4c input: cross-region mean score per elapsed day."""
        by_day: Dict[int, List[float]] = {}
        for (region, itype), series in self._by_key.items():
            if itype != instance_type:
                continue
            for record in series:
                by_day.setdefault(record.day, []).append(record.score)
        return [sum(scores) / len(scores) for day, scores in sorted(by_day.items())]

    def regional_spread(self, instance_type: str) -> float:
        """Max minus min of per-region mean scores.

        The paper observes c5/m5 fluctuating across regions while p3 is
        consistent; this statistic quantifies that contrast.
        """
        means: List[float] = []
        for (region, itype), series in self._by_key.items():
            if itype != instance_type or not series:
                continue
            means.append(sum(record.score for record in series) / len(series))
        if not means:
            raise CloudError(f"no placement series for {instance_type!r}")
        return max(means) - min(means)


def generate_placement_dataset(
    days: int = 180,
    instance_types: Optional[Sequence[str]] = None,
    regions: Optional[RegionCatalog] = None,
    instances: Optional[InstanceTypeCatalog] = None,
    profiles: Optional[MarketProfileBook] = None,
    seed: int = 0,
) -> PlacementScoreDataset:
    """Generate a *days*-long placement-score dataset."""
    markets = daily_markets(
        "placement", days, instance_types, regions, instances, profiles, seed
    )

    records: List[PlacementRecord] = []
    for market in markets:
        profile = market.profile
        scores = market.metric_history.column(1)
        for day in range(days):
            records.append(
                PlacementRecord(
                    day=day,
                    region=profile.region,
                    instance_type=profile.instance_type,
                    score=round(float(scores[day]), 3),
                )
            )
    return PlacementScoreDataset(records, days=days)
