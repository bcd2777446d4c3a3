"""Figure 7: SpotVerse vs single-region for standard and checkpoint workloads.

Section 5.2.1's setup: 40 parallel Galaxy workloads on m5.xlarge, all
starting in ca-central-1 (SpotVerse's initial-distribution step is
disabled for a fair comparison; it is evaluated separately in Fig. 9).
Three strategies for the standard workload — single-region, SpotVerse,
on-demand — and two for the checkpoint workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import SpotVerseConfig
from repro.experiments.harness import (
    ArmResult,
    ArmSpec,
    indexed_workload_factory,
    run_arms,
)
from repro.experiments.reporting import fmt_hours, fmt_money, render_table
from repro.strategies import STRATEGIES
from repro.workloads.genome_reconstruction import genome_reconstruction_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload

#: Paper reference numbers (Figures 7a-7d and surrounding text).
PAPER_REFERENCE = {
    "standard-single": {"interruptions": 114, "hours": 33.0, "cost": 73.92},
    "standard-spotverse": {"interruptions": 69, "hours": 14.0, "cost": 41.46},
    "standard-on-demand": {"interruptions": 0, "hours": 10.5, "cost": 77.81},
    "checkpoint-single": {"interruptions": 136, "hours": 15.46, "cost": 29.64},
    "checkpoint-spotverse": {"interruptions": 81, "hours": 11.75, "cost": 26.26},
}

START_REGION = "ca-central-1"


@dataclass
class WorkloadComparisonResult:
    """Figure 7 reproduction output."""

    arms: Dict[str, ArmResult]

    def cumulative_interruptions(self, arm: str) -> List[Tuple[float, int]]:
        """Figure 7a/7d series for one arm."""
        return self.arms[arm].fleet.cumulative_interruptions()

    def completion_curve(self, arm: str) -> List[Tuple[float, int]]:
        """Figure 7b series for one arm."""
        return self.arms[arm].fleet.completion_curve()

    def interruption_distribution(self, arm: str) -> Dict[str, int]:
        """Figure 7c series for one arm."""
        return self.arms[arm].fleet.interruptions_by_region()

    def render(self) -> str:
        """Text report: measured vs paper for every arm."""
        rows = []
        for name in sorted(self.arms):
            fleet = self.arms[name].fleet
            paper = PAPER_REFERENCE[name]
            rows.append(
                [
                    name,
                    fleet.total_interruptions,
                    paper["interruptions"],
                    fmt_hours(fleet.makespan_hours),
                    fmt_hours(paper["hours"]),
                    fmt_money(fleet.total_cost),
                    fmt_money(paper["cost"]),
                    f"{fleet.n_complete}/{len(fleet.records)}",
                ]
            )
        table = render_table(
            [
                "arm",
                "ints",
                "paper",
                "time",
                "paper",
                "cost",
                "paper",
                "complete",
            ],
            rows,
            title="Figure 7 — SpotVerse vs single-region vs on-demand "
            "(40 workloads, m5.xlarge, start ca-central-1)",
        )
        dist = self.interruption_distribution("standard-spotverse")
        dist_text = ", ".join(f"{region}={count}" for region, count in sorted(dist.items()))
        return f"{table}\n\nFig 7c (spotverse interruption regions): {dist_text}"


def run_workload_comparison(
    n_workloads: int = 40,
    seed: int = 7,
    duration_hours: float = 10.5,
    jobs: Optional[int] = None,
) -> WorkloadComparisonResult:
    """Run all five Figure 7 arms."""
    spotverse_config = SpotVerseConfig(
        instance_type="m5.xlarge",
        initial_distribution=False,
        start_region=START_REGION,
    )
    single_config = SpotVerseConfig(instance_type="m5.xlarge", start_region=START_REGION)
    baseline_config = SpotVerseConfig(instance_type="m5.xlarge")
    standard = indexed_workload_factory(
        genome_reconstruction_workload, "std-{:02d}", duration_hours=duration_hours
    )
    checkpoint = indexed_workload_factory(
        ngs_preprocessing_workload, "ckp-{:02d}", duration_hours=duration_hours
    )

    specs = [
        ArmSpec(
            name="standard-single",
            strategy=STRATEGIES["single-region"],
            config=single_config,
            workload_factory=standard,
            n_workloads=n_workloads,
            seed=seed,
        ),
        ArmSpec(
            name="standard-spotverse",
            strategy=STRATEGIES["spotverse"],
            config=spotverse_config,
            workload_factory=standard,
            n_workloads=n_workloads,
            seed=seed,
        ),
        ArmSpec(
            name="standard-on-demand",
            strategy=STRATEGIES["on-demand"],
            config=baseline_config,
            workload_factory=standard,
            n_workloads=n_workloads,
            seed=seed,
        ),
        ArmSpec(
            name="checkpoint-single",
            strategy=STRATEGIES["single-region"],
            config=single_config,
            workload_factory=checkpoint,
            n_workloads=n_workloads,
            seed=seed,
        ),
        ArmSpec(
            name="checkpoint-spotverse",
            strategy=STRATEGIES["spotverse"],
            config=spotverse_config,
            workload_factory=checkpoint,
            n_workloads=n_workloads,
            seed=seed,
        ),
    ]
    return WorkloadComparisonResult(arms=run_arms(specs, jobs=jobs))
