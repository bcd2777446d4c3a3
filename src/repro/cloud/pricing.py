"""On-demand price book and the spot price stochastic process.

On-demand prices are deterministic: the instance type's ``us-east-1``
list price times the region's catalog multiplier.  Spot prices follow a
discretised mean-reverting (Ornstein-Uhlenbeck) process around
``spot_fraction * od_price``, which reproduces the post-2017 AWS regime
the paper describes: smooth, supply/demand-driven drift rather than
auction spikes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cloud.instances import InstanceTypeCatalog, default_instance_catalog
from repro.cloud.lattice import TraceBuffer
from repro.cloud.profiles import MarketProfile
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


class SpotPriceProcess:
    """Discretised mean-reverting spot price for one market.

    The process is stepped at a fixed interval (default one hour) by the
    owning :class:`~repro.cloud.market.SpotMarket`:

    ``p[t+1] = p[t] + kappa * (mean - p[t]) + sigma * mean * N(0, 1)``

    clamped to ``[0.35 * mean, od_price]`` — spot never exceeds the
    on-demand price under the post-2017 policy, and never collapses to
    zero.

    Args:
        profile: The market's calibration regime.
        od_price: Regional on-demand price (the spot ceiling).
        rng: Dedicated random stream for this market's price noise.
        kappa: Mean-reversion strength per step.
    """

    def __init__(
        self,
        profile: MarketProfile,
        od_price: float,
        rng: np.random.Generator,
        kappa: float = 0.15,
    ) -> None:
        self._profile = profile
        self._od_price = od_price
        self._rng = rng
        self._kappa = kappa
        self._mean = profile.spot_fraction * od_price
        self._floor = 0.35 * self._mean
        # Start at the long-run mean plus one step of noise so traces
        # do not all begin on their mean.
        self._price = self._clamp(self._mean * (1.0 + profile.spot_volatility * rng.standard_normal()))
        #: ``(time, price)`` history in a chunked columnar buffer.
        self.history = TraceBuffer(2)
        # Set when the owning market is adopted by a MarketLattice; the
        # current price then lives in the lattice's contiguous arrays.
        self._lattice = None
        self._lattice_index = -1

    def _attach_lattice(self, lattice, index: int) -> None:
        self._lattice = lattice
        self._lattice_index = index

    def _detach_lattice(self) -> None:
        self._lattice = None
        self._lattice_index = -1

    @property
    def mean(self) -> float:
        """Long-run mean spot price (USD/hour)."""
        return self._mean

    @property
    def current(self) -> float:
        """Current spot price (USD/hour).

        An adopted market's price is its slot of the lattice's
        published price list; a scalar one's is its attribute.
        """
        lattice = self._lattice
        if lattice is not None:
            return lattice.prices[self._lattice_index]
        return self._price

    def _clamp(self, price: float) -> float:
        return min(max(price, self._floor), self._od_price)

    def step(self, now: float) -> float:
        """Advance the process one interval; returns the new price."""
        noise = self._profile.spot_volatility * self._mean * float(self._rng.standard_normal())
        drift = self._kappa * (self._mean - self._price)
        self._price = self._clamp(self._price + drift + noise)
        self.history.append((now, self._price))
        return self._price

    def trace(self) -> Sequence[Tuple[float, float]]:
        """Return the recorded ``(time, price)`` history.

        A cheap read-only view over the chunked buffer — no per-call
        copy.  Rows read as ``(time, price)`` tuples; snapshot with
        ``list(...)`` to hold them across further steps.
        """
        if self._lattice is not None:
            self._lattice.flush()
        return self.history
