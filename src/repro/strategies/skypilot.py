"""A SkyPilot-style cost-first multi-region broker.

SkyPilot (Yang et al., NSDI'23) automates "the search for the least
expensive resources" across regions and relaunches interrupted jobs.
Its placement signal is *price*: it does not weigh interruption
frequency or placement scores — the contrast the paper's Table 4
comparison is built on.  This policy models that behaviour faithfully:

* initial placement: the cheapest spot region by *catalog* price
  (SkyPilot's optimizer consults a price catalog refreshed out-of-band,
  not live ticks);
* on interruption: re-run the same cheapest-price search, with no
  reliability signal and no exclusion of the lost region — so the
  broker typically relaunches right back into the market that just
  reclaimed it.

Because the cheapest markets are the crowded, high-interruption ones,
the broker keeps steering into preemption — which is how the paper
explains SkyPilot's interruption counts and costs landing close to the
plain single-region baseline (Table 4 vs Figure 7).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.policy import Placement, PlacementPolicy, PolicyContext, PurchasingOption
from repro.errors import NoFeasibleRegionError
from repro.workloads.base import Workload


class SkyPilotPolicy(PlacementPolicy):
    """Cheapest-current-spot placement, price-only.

    Args:
        instance_type: Instance type being brokered.
    """

    name = "skypilot"

    def __init__(self, instance_type: str = "m5.xlarge") -> None:
        self._instance_type = instance_type

    def _cheapest_region(self, ctx: PolicyContext) -> str:
        markets = ctx.provider.markets_for_type(self._instance_type)
        if not markets:
            raise NoFeasibleRegionError(
                f"no spot market offers {self._instance_type!r}"
            )
        # Catalog (long-run) price, as SkyPilot's optimizer sees it.
        best = min(
            markets, key=lambda market: (market.mean_price, market.region)
        )
        return best.region

    def initial_placements(
        self, workloads: Sequence[Workload], ctx: PolicyContext
    ) -> List[Placement]:
        region = self._cheapest_region(ctx)
        return [Placement(region=region, option=PurchasingOption.SPOT) for _ in workloads]

    def migration_placement(
        self, workload: Workload, interrupted_region: str, ctx: PolicyContext
    ) -> Placement:
        # Price-only reasoning: the lost region is usually still the
        # cheapest, so the job relaunches right where it was reclaimed.
        return Placement(region=self._cheapest_region(ctx), option=PurchasingOption.SPOT)
