"""Figure 3: the motivational single- vs multi-region experiment.

Section 2.2's setup: 42 m5.xlarge workloads, baseline pinned to
ca-central-1 (cheapest for the type), naive multi-region spreading
round-robin over {ap-northeast-3, ca-central-1, eu-north-1} with
random failover among them.  Run for both workload categories
(standard Genome Reconstruction, checkpoint NGS preprocessing).
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

#: Paper reference numbers (Section 2.2).
PAPER_REFERENCE = {
    "standard": {"cost_delta_pct": -5.67, "time_delta_pct": -30.49, "int_delta_pct": -13.2},
    "checkpoint": {"cost_delta_pct": -9.43, "time_delta_pct": -6.63, "int_delta_pct": -41.6},
}


@dataclass
class MotivationResult:
    """Figure 3 reproduction output.

    Attributes:
        arms: Raw arm results keyed ``{kind}-{strategy}``.
        deltas: Measured multi-vs-single percentage deltas per kind.
    """

    arms: Dict[str, ArmResult]
    deltas: Dict[str, Dict[str, float]]

    def render(self) -> str:
        """Text report with measured vs paper deltas."""
        rows = []
        for kind in ("standard", "checkpoint"):
            single = self.arms[f"{kind}-single"].fleet
            multi = self.arms[f"{kind}-multi"].fleet
            measured = self.deltas[kind]
            paper = PAPER_REFERENCE[kind]
            rows.append(
                [
                    kind,
                    f"{single.total_interruptions}->{multi.total_interruptions}",
                    fmt_pct(measured["int_delta_pct"]),
                    fmt_pct(paper["int_delta_pct"]),
                    f"{fmt_hours(single.makespan_hours)}->{fmt_hours(multi.makespan_hours)}",
                    fmt_pct(measured["time_delta_pct"]),
                    fmt_pct(paper["time_delta_pct"]),
                    f"{fmt_money(single.total_cost)}->{fmt_money(multi.total_cost)}",
                    fmt_pct(measured["cost_delta_pct"]),
                    fmt_pct(paper["cost_delta_pct"]),
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
                "paper",
                "cost",
                "d cost",
                "paper",
            ],
            rows,
            title="Figure 3 — single vs naive multi-region (42 workloads, m5.xlarge)",
        )


def run_motivation_experiment(
    n_workloads: int = 42,
    seed: int = 7,
    duration_hours: float = 10.5,
    jobs: Optional[int] = None,
    live_dir: Optional[str] = None,
    flight_dir: Optional[str] = None,
    trim_bus: bool = False,
) -> MotivationResult:
    """Run the four arms of the motivational experiment.

    ``live_dir`` / ``flight_dir`` / ``trim_bus`` thread straight onto
    each :class:`ArmSpec` — the streaming-overhead benchmark uses them
    to run fig3 with the live observability plane on.
    """
    config = SpotVerseConfig(instance_type="m5.xlarge")
    single_config = SpotVerseConfig(instance_type="m5.xlarge", start_region="ca-central-1")
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
                name=f"{kind}-single",
                strategy=STRATEGIES["single-region"],
                config=single_config,
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
                live_dir=live_dir,
                flight_dir=flight_dir,
                trim_bus=trim_bus,
            )
        )
        specs.append(
            ArmSpec(
                name=f"{kind}-multi",
                strategy=STRATEGIES["naive-multi-region"],
                config=config,
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
                live_dir=live_dir,
                flight_dir=flight_dir,
                trim_bus=trim_bus,
            )
        )
    arms = run_arms(specs, jobs=jobs)
    deltas: Dict[str, Dict[str, float]] = {}
    for kind in factories:
        single = arms[f"{kind}-single"].fleet
        multi = arms[f"{kind}-multi"].fleet
        deltas[kind] = {
            "cost_delta_pct": pct_change(single.total_cost, multi.total_cost),
            "time_delta_pct": pct_change(single.makespan_hours, multi.makespan_hours),
            "int_delta_pct": pct_change(
                single.total_interruptions, multi.total_interruptions
            ),
        }
    return MotivationResult(arms=arms, deltas=deltas)
