"""Figure 9: impact of the initial workload distribution strategy.

Compares SpotVerse *without* its initial round-robin spread (the
Section 5.2.1 configuration: everything starts in one region and only
migrates on interruption) against the full Algorithm 1 (spread over
the top-R regions from the start), for both workload kinds.

The paper reports, for the standard workload, interruptions dropping
~32 % (69 -> 42) with up to 12 % shorter completion and 11 % lower
cost.
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
from repro.experiments.reporting import fmt_hours, fmt_money, fmt_pct, pct_change, render_table
from repro.strategies import STRATEGIES
from repro.workloads.genome_reconstruction import genome_reconstruction_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload

PAPER_REFERENCE = {
    "standard": {"int_delta_pct": -32.0, "time_delta_pct": -12.0, "cost_delta_pct": -11.0},
    "checkpoint": {"int_delta_pct": -20.0, "time_delta_pct": -12.0, "cost_delta_pct": -11.0},
}

START_REGION = "ca-central-1"


@dataclass
class InitialDistributionResult:
    """Figure 9 reproduction output."""

    arms: Dict[str, ArmResult]
    deltas: Dict[str, Dict[str, float]]

    def render(self) -> str:
        """Text report: concentrated-start vs distributed-start."""
        rows = []
        for kind in ("standard", "checkpoint"):
            concentrated = self.arms[f"{kind}-concentrated"].fleet
            distributed = self.arms[f"{kind}-distributed"].fleet
            measured = self.deltas[kind]
            paper = PAPER_REFERENCE[kind]
            rows.append(
                [
                    kind,
                    f"{concentrated.total_interruptions}->{distributed.total_interruptions}",
                    fmt_pct(measured["int_delta_pct"]),
                    fmt_pct(paper["int_delta_pct"]),
                    f"{fmt_hours(concentrated.makespan_hours)}->"
                    f"{fmt_hours(distributed.makespan_hours)}",
                    fmt_pct(measured["time_delta_pct"]),
                    f"{fmt_money(concentrated.total_cost)}->"
                    f"{fmt_money(distributed.total_cost)}",
                    fmt_pct(measured["cost_delta_pct"]),
                ]
            )
        return render_table(
            [
                "workload",
                "interruptions",
                "d ints",
                "paper",
                "completion",
                "d time",
                "cost",
                "d cost",
            ],
            rows,
            title="Figure 9 — initial distribution strategy "
            "(concentrated start vs Algorithm 1 round-robin spread)",
        )


def run_initial_distribution_experiment(
    n_workloads: int = 40,
    seed: int = 7,
    duration_hours: float = 10.5,
    jobs: Optional[int] = None,
) -> InitialDistributionResult:
    """Run the four Figure 9 arms."""
    concentrated_config = SpotVerseConfig(
        instance_type="m5.xlarge",
        initial_distribution=False,
        start_region=START_REGION,
    )
    distributed_config = SpotVerseConfig(instance_type="m5.xlarge")
    factories = {
        "standard": indexed_workload_factory(
            genome_reconstruction_workload, "std-{:02d}", duration_hours=duration_hours
        ),
        "checkpoint": indexed_workload_factory(
            ngs_preprocessing_workload, "ckp-{:02d}", duration_hours=duration_hours
        ),
    }
    specs = []
    for kind, factory in factories.items():
        specs.append(
            ArmSpec(
                name=f"{kind}-concentrated",
                strategy=STRATEGIES["spotverse"],
                config=concentrated_config,
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
            )
        )
        specs.append(
            ArmSpec(
                name=f"{kind}-distributed",
                strategy=STRATEGIES["spotverse"],
                config=distributed_config,
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
            )
        )
    arms = run_arms(specs, jobs=jobs)
    deltas: Dict[str, Dict[str, float]] = {}
    for kind in factories:
        concentrated = arms[f"{kind}-concentrated"].fleet
        distributed = arms[f"{kind}-distributed"].fleet
        deltas[kind] = {
            "int_delta_pct": pct_change(
                concentrated.total_interruptions, distributed.total_interruptions
            ),
            "time_delta_pct": pct_change(
                concentrated.makespan_hours, distributed.makespan_hours
            ),
            "cost_delta_pct": pct_change(concentrated.total_cost, distributed.total_cost),
        }
    return InitialDistributionResult(arms=arms, deltas=deltas)
