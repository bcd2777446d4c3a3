"""The SpotVerse facade: Monitor + Optimizer + Controller, wired.

This is the library's headline entry point::

    provider = CloudProvider(seed=42)
    spotverse = SpotVerse(provider, SpotVerseConfig(instance_type="m5.xlarge"))
    result = spotverse.run([standard_general_workload(f"w{i}") for i in range(40)])
    print(result.summary())
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.policy import Placement, PolicyContext
from repro.core.result import FleetResult
from repro.core.scoring import RegionMetrics
from repro.workloads.base import Workload


class SpotVerse:
    """The assembled SpotVerse middleware.

    Args:
        provider: The cloud to manage.
        config: Control-plane configuration (threshold, region budget,
            instance type, ...).

    The markets pre-roll 48 steps before the control plane starts, so
    prices and scores are off their calibrated means the way a live
    market would be.
    """

    def __init__(self, provider: CloudProvider, config: Optional[SpotVerseConfig] = None) -> None:
        # Deferred: repro.strategies imports repro.core, which imports this module.
        from repro.strategies import build_strategy

        self.provider = provider
        provider.warmup_markets(48)
        self.config, self.monitor, self.optimizer = build_strategy(
            "spotverse", provider, config or SpotVerseConfig()
        )
        # Section 4: build the customized Galaxy AMI once and propagate
        # it to every region, so relaunches boot straight into Galaxy.
        # Propagation is setup work done before the experiment clock
        # starts, hence instant.
        self.galaxy_image = provider.ami.register_image(
            "spotverse-galaxy",
            region=self.config.results_region,
            description="Galaxy + admin API key + sra-toolkit + Planemo",
        )
        provider.ami.propagate_everywhere(self.galaxy_image.image_id, instant=True)
        self.controller = FleetController(
            provider,
            self.optimizer,
            self.config,
            monitor=self.monitor,
            image_id=self.galaxy_image.image_id,
        )

    def run(self, workloads: Sequence[Workload], max_hours: float = 120.0) -> FleetResult:
        """Run a fleet to completion under Algorithm 1."""
        return self.controller.run(workloads, max_hours=max_hours)

    # ------------------------------------------------------------------
    # Advisory views (the "strategic recommendations" of Section 3.2)
    # ------------------------------------------------------------------
    def recommended_regions(self) -> List[RegionMetrics]:
        """Current top-R qualifying regions, cheapest first."""
        ctx = PolicyContext(
            provider=self.provider,
            monitor=self.monitor,
            rng=self.provider.engine.streams.get("spotverse:advice"),
        )
        return self.optimizer.top_regions(ctx)

    def recommends_on_demand(self) -> bool:
        """Whether SpotVerse would currently steer to on-demand."""
        return not self.recommended_regions()

    def recommendation(self) -> Placement:
        """The single placement SpotVerse would pick for a new workload."""
        ctx = PolicyContext(
            provider=self.provider,
            monitor=self.monitor,
            rng=self.provider.engine.streams.get("spotverse:advice"),
        )
        placements = self.optimizer.initial_placements(
            [_PROBE_WORKLOAD], ctx
        )
        return placements[0]


# A one-segment probe used only to ask the optimizer for a placement.
from repro.workloads.base import WorkloadKind  # noqa: E402

_PROBE_WORKLOAD = Workload(
    workload_id="probe",
    kind=WorkloadKind.STANDARD,
    segment_durations=(1.0,),
    description="placement probe",
)
