"""The on-demand price book.

On-demand prices are deterministic: the instance type's ``us-east-1``
list price times the region's catalog multiplier.  They are the
ceiling of each market's spot price, which follows a discretised
mean-reverting (Ornstein-Uhlenbeck) process around ``spot_fraction *
od_price`` stepped by :class:`~repro.cloud.lattice.MarketLattice` —
the post-2017 AWS regime the paper describes: smooth,
supply/demand-driven drift rather than auction spikes.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.cloud.instances import InstanceTypeCatalog, default_instance_catalog
from repro.cloud.regions import RegionCatalog, default_region_catalog


class PriceBook:
    """Deterministic on-demand prices for every (region, type) pair."""

    def __init__(
        self,
        regions: Optional[RegionCatalog] = None,
        instances: Optional[InstanceTypeCatalog] = None,
    ) -> None:
        self._regions = regions or default_region_catalog()
        self._instances = instances or default_instance_catalog()
        # Catalogs are immutable, so the price of a pair never changes;
        # memoizing keeps od_price off the profile (it sits on the
        # per-instance billing and Monitor collect hot paths).
        self._od_cache: dict = {}

    @property
    def regions(self) -> RegionCatalog:
        """The region catalog the book prices against."""
        return self._regions

    @property
    def instances(self) -> InstanceTypeCatalog:
        """The instance-type catalog the book prices against."""
        return self._instances

    def od_price(self, region: str, instance_type: str) -> float:
        """Return the on-demand USD/hour for *instance_type* in *region*."""
        key = (region, instance_type)
        price = self._od_cache.get(key)
        if price is None:
            region_obj = self._regions.get(region)
            itype = self._instances.get(instance_type)
            price = round(itype.base_od_price * region_obj.od_price_multiplier, 6)
            self._od_cache[key] = price
        return price

    def cheapest_od_region(self, instance_type: str) -> Tuple[str, float]:
        """Return ``(region, price)`` of the cheapest on-demand offering."""
        best_region, best_price = "", math.inf
        for region in self._regions:
            price = self.od_price(region.name, instance_type)
            if price < best_price:
                best_region, best_price = region.name, price
        return best_region, best_price
