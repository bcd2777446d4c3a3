"""Footprint-pressure study: fleet size vs. a finite capacity pool.

An extension experiment the capacity model enables: concentrate
growing fleets into one market whose spare capacity is finite.  As the
fleet's share of the pool grows, (a) its own reclaim hazard rises
(you become the reclaim target) and (b) spot requests stop fulfilling
— which is exactly the failure mode multi-region distribution buys out
of, and a mechanistic reading of why the paper's Figure 9 spread
helps beyond simple diversification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.config import SpotVerseConfig
from repro.experiments.harness import ArmResult, ArmSpec, indexed_workload_factory, run_arm
from repro.experiments.reporting import fmt_hours, render_table
from repro.strategies import STRATEGIES
from repro.workloads.base import synthetic_workload

#: The region whose pool is metered in this study.
STUDY_REGION = "eu-west-1"
#: Spare capacity of the metered pool (instances).
POOL_CAPACITY = 60

#: Profile overrides giving the study region a finite, bursty pool.
FOOTPRINT_OVERRIDES = {
    (STUDY_REGION, "m5.xlarge"): {"capacity": POOL_CAPACITY},
}


@dataclass
class FootprintStudyResult:
    """Footprint study output.

    Attributes:
        concentrated: Fleet-size -> result with everything in the
            metered pool.
        distributed: Fleet-size -> result under SpotVerse's spread.
    """

    concentrated: Dict[int, ArmResult]
    distributed: Dict[int, ArmResult]

    def interruptions_per_workload(self, arm: Dict[int, ArmResult]) -> Dict[int, float]:
        """Normalized interruption rate per fleet size."""
        return {
            size: result.fleet.total_interruptions / size
            for size, result in arm.items()
        }

    def render(self) -> str:
        """Text report of the footprint scaling grid."""
        rows = []
        for size in sorted(self.concentrated):
            single = self.concentrated[size].fleet
            spread = self.distributed[size].fleet
            rows.append(
                [
                    size,
                    f"{single.total_interruptions / size:.2f}",
                    fmt_hours(single.makespan_hours),
                    f"{single.n_complete}/{size}",
                    f"{spread.total_interruptions / size:.2f}",
                    fmt_hours(spread.makespan_hours),
                    f"{spread.n_complete}/{size}",
                ]
            )
        return render_table(
            [
                "fleet size",
                "conc. ints/wl",
                "conc. time",
                "conc. done",
                "spread ints/wl",
                "spread time",
                "spread done",
            ],
            rows,
            title=f"Footprint study — one {POOL_CAPACITY}-slot pool "
            f"({STUDY_REGION}) vs SpotVerse's spread",
        )


def run_footprint_study(
    fleet_sizes: Sequence[int] = (20, 50, 80),
    duration_hours: float = 6.0,
    seed: int = 7,
) -> FootprintStudyResult:
    """Run concentrated-vs-spread arms across fleet sizes."""
    concentrated: Dict[int, ArmResult] = {}
    distributed: Dict[int, ArmResult] = {}
    factory = indexed_workload_factory(
        synthetic_workload, "w-{:03d}", duration_hours=duration_hours
    )
    for size in fleet_sizes:
        concentrated[size] = run_arm(
            ArmSpec(
                name=f"concentrated-{size}",
                strategy=STRATEGIES["single-region"],
                config=SpotVerseConfig(instance_type="m5.xlarge", start_region=STUDY_REGION),
                workload_factory=factory,
                n_workloads=size,
                seed=seed,
                max_hours=96,
                profile_overrides=FOOTPRINT_OVERRIDES,
            )
        )
        distributed[size] = run_arm(
            ArmSpec(
                name=f"distributed-{size}",
                strategy=STRATEGIES["spotverse"],
                config=SpotVerseConfig(instance_type="m5.xlarge"),
                workload_factory=factory,
                n_workloads=size,
                seed=seed,
                max_hours=96,
                profile_overrides=FOOTPRINT_OVERRIDES,
            )
        )
    return FootprintStudyResult(concentrated=concentrated, distributed=distributed)
