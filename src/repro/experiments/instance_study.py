"""Figure 8 and Table 1: instance types, sizes, and baseline regions.

For each of the five instance specifications in Table 1, the baseline
region is *computed* from the price book (cheapest mean spot price for
the type — the paper's "chosen for their cost-effectiveness on the
experiment date"), then single-region-in-baseline is compared against
SpotVerse starting from that same region, on the standard general
workload with 40 instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.provider import CloudProvider
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

#: Table 1 of the paper: instance type -> cheapest (baseline) region.
TABLE1_BASELINES: Dict[str, str] = {
    "m5.large": "us-west-2",
    "m5.xlarge": "ca-central-1",
    "m5.2xlarge": "ap-northeast-3",
    "r5.2xlarge": "ca-central-1",
    "c5.2xlarge": "eu-north-1",
}

#: Paper highlights (Section 5.2.2): interruption counts per arm.
PAPER_REFERENCE = {
    "r5.2xlarge": {"single_ints": 215, "spotverse_ints": 92},
    "m5.large": {"single_ints": 137, "spotverse_ints": 40},
}


@dataclass
class InstanceStudyResult:
    """Figure 8 + Table 1 reproduction output.

    Attributes:
        computed_baselines: Cheapest mean-spot region per type, from
            the price book (should equal Table 1).
        arms: Results keyed ``{type}-{strategy}``.
    """

    computed_baselines: Dict[str, str]
    arms: Dict[str, ArmResult]

    def table1_matches(self) -> bool:
        """Whether every computed baseline equals the paper's Table 1."""
        return self.computed_baselines == TABLE1_BASELINES

    def render(self) -> str:
        """Text report: Table 1 plus the per-type comparison."""
        table1_rows = [
            [itype, self.computed_baselines[itype], TABLE1_BASELINES[itype]]
            for itype in TABLE1_BASELINES
        ]
        parts = [
            render_table(
                ["instance type", "computed baseline", "paper Table 1"],
                table1_rows,
                title="Table 1 — baseline (cheapest spot) regions",
            )
        ]
        rows = []
        for itype in TABLE1_BASELINES:
            single = self.arms[f"{itype}-single"].fleet
            spotverse = self.arms[f"{itype}-spotverse"].fleet
            rows.append(
                [
                    itype,
                    single.total_interruptions,
                    spotverse.total_interruptions,
                    fmt_hours(single.makespan_hours),
                    fmt_hours(spotverse.makespan_hours),
                    fmt_money(single.total_cost),
                    fmt_money(spotverse.total_cost),
                ]
            )
        parts.append(
            render_table(
                [
                    "type",
                    "single ints",
                    "SV ints",
                    "single time",
                    "SV time",
                    "single cost",
                    "SV cost",
                ],
                rows,
                title="Figure 8 — instance types and sizes (40 x standard general workload)",
            )
        )
        return "\n\n".join(parts)


def compute_baselines(seed: int = 7) -> Dict[str, str]:
    """Compute the cheapest mean-spot region per Table 1 type."""
    provider = CloudProvider(seed=seed)
    return {
        itype: provider.cheapest_mean_spot_region(itype)[0] for itype in TABLE1_BASELINES
    }


def run_instance_study(
    n_workloads: int = 40,
    seed: int = 7,
    duration_hours: float = 10.5,
    jobs: Optional[int] = None,
) -> InstanceStudyResult:
    """Run single-region vs SpotVerse for every Table 1 specification."""
    computed = compute_baselines(seed=seed)
    specs: List[ArmSpec] = []
    for itype, baseline_region in computed.items():
        factory = indexed_workload_factory(
            standard_general_workload,
            itype + "-{:02d}",
            duration_hours=duration_hours,
        )
        specs.append(
            ArmSpec(
                name=f"{itype}-single",
                strategy=STRATEGIES["single-region"],
                config=SpotVerseConfig(instance_type=itype, start_region=baseline_region),
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
            )
        )
        specs.append(
            ArmSpec(
                name=f"{itype}-spotverse",
                strategy=STRATEGIES["spotverse"],
                config=SpotVerseConfig(
                    instance_type=itype,
                    initial_distribution=False,
                    start_region=baseline_region,
                ),
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
            )
        )
    return InstanceStudyResult(computed_baselines=computed, arms=run_arms(specs, jobs=jobs))
