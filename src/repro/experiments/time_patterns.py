"""Interruption time-pattern study (the paper's Section 7 plan).

"We plan to investigate how resource usage impacts spot instance
interruptions depending on the day or time ... as we have observed
differences in these patterns during our experiments."  This driver
runs a long observation fleet in one region and quantifies the
pattern: interruptions cluster in specific hours (reclaim bursts and
the diurnal demand swing) rather than arriving uniformly — exactly the
structure the predictive optimizer can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import SpotVerseConfig
from repro.experiments.harness import ArmResult, ArmSpec, indexed_workload_factory, run_arm
from repro.experiments.reporting import render_table
from repro.experiments.timeline import interruption_concentration, interruptions_by_hour
from repro.strategies import STRATEGIES
from repro.workloads.base import WorkloadKind, synthetic_workload


@dataclass
class TimePatternResult:
    """Time-pattern study output.

    Attributes:
        arm: The observation fleet's raw result.
        by_hour: Interruption counts per simulation hour.
        concentration: Fraction of interruptions in the busiest 25 %
            of hours (1.0 = fully clustered, ~0.25 = uniform).
    """

    arm: ArmResult
    by_hour: Dict[int, int]
    concentration: float

    def busiest_hours(self, n: int = 5) -> List[int]:
        """The *n* hours with the most interruptions."""
        ranked = sorted(self.by_hour.items(), key=lambda kv: (-kv[1], kv[0]))
        return [hour for hour, _ in ranked[:n]]

    def render(self) -> str:
        """Text report: the hourly histogram plus summary lines."""
        rows = [
            [hour, count, "#" * min(count, 40)]
            for hour, count in sorted(self.by_hour.items())
            if count > 0
        ]
        table = render_table(
            ["hour", "interruptions", ""],
            rows,
            title="Section 7 study — interruptions by hour (single region observation fleet)",
        )
        return (
            f"{table}\n\n"
            f"total interruptions : {self.arm.fleet.total_interruptions}\n"
            f"concentration       : {self.concentration:.2f} "
            f"(busiest 25% of hours; uniform would be ~0.25)\n"
            f"busiest hours       : {self.busiest_hours()}"
        )


def run_time_pattern_study(
    n_workloads: int = 30,
    region: str = "ca-central-1",
    observation_hours: float = 30.0,
    seed: int = 7,
) -> TimePatternResult:
    """Observe interruption timing with a checkpointing probe fleet.

    Checkpoint workloads keep instances continuously exposed in the
    target region for the whole window (standard ones would migrate
    their exposure around through restarts), giving a clean sample of
    the market's reclaim timing.
    """
    arm = run_arm(
        ArmSpec(
            name="observation",
            strategy=STRATEGIES["single-region"],
            config=SpotVerseConfig(instance_type="m5.xlarge", start_region=region),
            workload_factory=indexed_workload_factory(
                synthetic_workload,
                "probe-{:02d}",
                duration_hours=observation_hours * 0.9,
                n_segments=40,
                kind=WorkloadKind.CHECKPOINT,
            ),
            n_workloads=n_workloads,
            seed=seed,
            max_hours=observation_hours * 3,
        )
    )
    return TimePatternResult(
        arm=arm,
        by_hour=interruptions_by_hour(arm.fleet),
        concentration=interruption_concentration(arm.fleet),
    )
