"""Table 4: SpotVerse vs SkyPilot.

Section 5.2.5's comparison: 40 standard general workloads of 10-11
hours, both frameworks configured to relaunch automatically on
interruption.  SkyPilot chases catalog prices; SpotVerse runs full
Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import SpotVerseConfig
from repro.experiments.harness import (
    ArmResult,
    ArmSpec,
    indexed_workload_factory,
    run_arms,
)
from repro.experiments.reporting import fmt_hours, fmt_money, render_table
from repro.strategies import STRATEGIES
from repro.workloads.qiime import standard_general_workload

#: Table 4 of the paper.
PAPER_REFERENCE = {
    "spotverse": {"interruptions": 42, "cost": 36.73, "hours": 12.3},
    "skypilot": {"interruptions": 129, "cost": 74.76, "hours": 30.9},
}


@dataclass
class SkyPilotComparisonResult:
    """Table 4 reproduction output."""

    arms: Dict[str, ArmResult]

    @property
    def spotverse(self):
        """SpotVerse's fleet result."""
        return self.arms["spotverse"].fleet

    @property
    def skypilot(self):
        """SkyPilot's fleet result."""
        return self.arms["skypilot"].fleet

    def cost_reduction_pct(self) -> float:
        """SpotVerse's cost reduction vs SkyPilot (paper: 51 %)."""
        return 100.0 * (1.0 - self.spotverse.total_cost / self.skypilot.total_cost)

    def time_reduction_pct(self) -> float:
        """SpotVerse's completion-time reduction vs SkyPilot (paper: 60 %)."""
        return 100.0 * (1.0 - self.spotverse.makespan_hours / self.skypilot.makespan_hours)

    def render(self) -> str:
        """Text report mirroring Table 4."""
        rows = []
        for name in ("spotverse", "skypilot"):
            fleet = self.arms[name].fleet
            paper = PAPER_REFERENCE[name]
            rows.append(
                [
                    name,
                    fleet.total_interruptions,
                    paper["interruptions"],
                    fmt_money(fleet.total_cost),
                    fmt_money(paper["cost"]),
                    fmt_hours(fleet.makespan_hours),
                    fmt_hours(paper["hours"]),
                ]
            )
        table = render_table(
            ["framework", "ints", "paper", "cost", "paper", "time", "paper"],
            rows,
            title="Table 4 — SpotVerse vs SkyPilot (40 x standard general workload)",
        )
        return (
            f"{table}\n\ncost reduction: {self.cost_reduction_pct():.0f}% "
            f"(paper 51%), time reduction: {self.time_reduction_pct():.0f}% (paper 60%)"
        )


def run_skypilot_comparison(
    n_workloads: int = 40,
    seed: int = 7,
    duration_hours: float = 10.5,
    jobs: Optional[int] = None,
) -> SkyPilotComparisonResult:
    """Run both Table 4 arms."""
    factory = indexed_workload_factory(
        standard_general_workload, "w-{:02d}", duration_hours=duration_hours
    )
    specs = [
        ArmSpec(
            name="spotverse",
            strategy=STRATEGIES["spotverse"],
            config=SpotVerseConfig(instance_type="m5.xlarge"),
            workload_factory=factory,
            n_workloads=n_workloads,
            seed=seed,
        ),
        ArmSpec(
            name="skypilot",
            strategy=STRATEGIES["skypilot"],
            config=SpotVerseConfig(instance_type="m5.xlarge"),
            workload_factory=factory,
            n_workloads=n_workloads,
            seed=seed,
        ),
    ]
    return SkyPilotComparisonResult(arms=run_arms(specs, jobs=jobs))
