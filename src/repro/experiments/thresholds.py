"""Figure 10 and Tables 2-3: threshold-based allocation.

Section 5.2.4's sweep: thresholds {4, 5, 6} x durations {5, 10, 20}
hours, m5.xlarge, standard general workload, with costs normalized to
the cheapest on-demand deployment of the same duration.  Markets use
the threshold-experiment collection date
(:data:`~repro.cloud.profiles.THRESHOLD_EPOCH_OVERRIDES`), on which
the cheap tier undercuts everyone — reproducing Table 3's region sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cloud.profiles import THRESHOLD_EPOCH_OVERRIDES, default_market_profiles
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.policy import PolicyContext
from repro.experiments.harness import ArmResult, ArmSpec, indexed_workload_factory, run_arm
from repro.experiments.reporting import render_table
from repro.strategies import STRATEGIES
from repro.workloads.qiime import standard_general_workload

#: Table 2 of the paper.
THRESHOLDS = (4, 5, 6)
DURATIONS_HOURS = (5, 10, 20)

#: Table 3 of the paper: threshold -> selected regions.
TABLE3_REGIONS: Dict[int, Tuple[str, ...]] = {
    6: ("us-west-1", "ap-northeast-3", "eu-west-1", "eu-north-1"),
    5: ("ap-southeast-1", "eu-west-3", "ca-central-1", "eu-west-2"),
    4: ("us-east-1", "us-east-2", "ap-southeast-2", "us-west-2"),
}


@dataclass
class ThresholdStudyResult:
    """Figure 10 + Tables 2-3 reproduction output.

    Attributes:
        selected_regions: Regions Algorithm 1 selects per threshold on
            the experiment date (compare with Table 3).
        normalized_cost: ``(threshold, duration)`` -> spot cost divided
            by the same-duration cheapest on-demand cost (< 1 = saving).
        arms: Raw arm results keyed ``t{threshold}-d{duration}``.
        od_cost: Duration -> on-demand normalization denominator.
    """

    selected_regions: Dict[int, Tuple[str, ...]]
    normalized_cost: Dict[Tuple[int, int], float]
    arms: Dict[str, ArmResult]
    od_cost: Dict[int, float]

    def table3_matches(self) -> bool:
        """Whether each threshold's selected set equals Table 3."""
        return all(
            set(self.selected_regions[threshold]) == set(TABLE3_REGIONS[threshold])
            for threshold in THRESHOLDS
        )

    def render(self) -> str:
        """Text report: Table 3 check plus the Figure 10 grid."""
        region_rows = [
            [
                threshold,
                ", ".join(sorted(self.selected_regions[threshold])),
                ", ".join(sorted(TABLE3_REGIONS[threshold])),
            ]
            for threshold in THRESHOLDS
        ]
        parts = [
            render_table(
                ["threshold", "selected (measured)", "paper Table 3"],
                region_rows,
                title="Table 3 — regions selected per threshold",
            )
        ]
        grid_rows = []
        for threshold in THRESHOLDS:
            row: List[object] = [threshold]
            for duration in DURATIONS_HOURS:
                row.append(f"{self.normalized_cost[(threshold, duration)]:.2f}")
            grid_rows.append(row)
        parts.append(
            render_table(
                ["threshold \\ duration"] + [f"{d}h" for d in DURATIONS_HOURS],
                grid_rows,
                title="Figure 10 — cost normalized to cheapest on-demand "
                "(<1 saves, >1 costs more)",
            )
        )
        return "\n\n".join(parts)


def selected_regions_for_threshold(threshold: float, seed: int = 3) -> Tuple[str, ...]:
    """Compute Algorithm 1's top-R region set on the experiment date."""
    profiles = default_market_profiles().with_overrides(THRESHOLD_EPOCH_OVERRIDES)
    provider = CloudProvider(seed=seed, profiles=profiles)
    provider.warmup_markets(48)
    config = SpotVerseConfig(instance_type="m5.xlarge", score_threshold=threshold)
    monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
    monitor.collect()
    optimizer = SpotVerseOptimizer(monitor, config)
    ctx = PolicyContext(
        provider=provider, monitor=monitor, rng=provider.engine.streams.get("study")
    )
    return tuple(metric.region for metric in optimizer.top_regions(ctx))


def run_threshold_study(
    n_workloads: int = 40, seed: int = 3, max_hours: float = 400.0
) -> ThresholdStudyResult:
    """Run the full threshold x duration sweep plus OD normalizers."""
    arms: Dict[str, ArmResult] = {}
    od_cost: Dict[int, float] = {}
    normalized: Dict[Tuple[int, int], float] = {}

    for duration in DURATIONS_HOURS:
        factory = indexed_workload_factory(
            standard_general_workload, "w-{:02d}", duration_hours=duration
        )
        od_arm = run_arm(
            ArmSpec(
                name=f"od-d{duration}",
                strategy=STRATEGIES["on-demand"],
                config=SpotVerseConfig(instance_type="m5.xlarge"),
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
                profile_overrides=THRESHOLD_EPOCH_OVERRIDES,
            )
        )
        arms[od_arm.name] = od_arm
        od_cost[duration] = od_arm.fleet.total_cost

        for threshold in THRESHOLDS:
            arm = run_arm(
                ArmSpec(
                    name=f"t{threshold}-d{duration}",
                    strategy=STRATEGIES["spotverse"],
                    config=SpotVerseConfig(
                        instance_type="m5.xlarge", score_threshold=float(threshold)
                    ),
                    workload_factory=factory,
                    n_workloads=n_workloads,
                    seed=seed,
                    max_hours=max_hours,
                    profile_overrides=THRESHOLD_EPOCH_OVERRIDES,
                )
            )
            arms[arm.name] = arm
            normalized[(threshold, duration)] = arm.fleet.total_cost / od_cost[duration]

    selected = {
        threshold: selected_regions_for_threshold(threshold, seed=seed)
        for threshold in THRESHOLDS
    }
    return ThresholdStudyResult(
        selected_regions=selected,
        normalized_cost=normalized,
        arms=arms,
        od_cost=od_cost,
    )
