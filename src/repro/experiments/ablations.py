"""Ablations of SpotVerse's design choices (DESIGN.md checklist).

* **Migration randomness** — Algorithm 1 migrates to a *random* region
  among the top R; the ablation always picks the cheapest, herding all
  migrants into one market.
* **On-demand fallback** — with an unsatisfiable threshold, Algorithm 1
  falls back to on-demand; the ablation disables the fallback and must
  fail.
* **Checkpoint granularity** — how segment count trades rework against
  checkpoint overhead under an interruption-heavy single region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import SpotVerseConfig
from repro.core.prediction import PredictiveOptimizer
from repro.experiments.harness import (
    ArmResult,
    ArmSpec,
    indexed_workload_factory,
    run_arm,
    run_arms,
)
from repro.experiments.reporting import fmt_hours, fmt_money, render_table
from repro.strategies import STRATEGIES, Strategy
from repro.strategies.deadline import DEFAULT_DEADLINE_FACTOR
from repro.workloads.genome_reconstruction import genome_reconstruction_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload


def _predictive(config, monitor):
    return PredictiveOptimizer(monitor, config)


#: Section 7's predictive optimizer: an ablation arm, not a roster strategy.
PREDICTIVE = Strategy(_predictive, reads_monitor=True)


@dataclass
class MigrationAblationResult:
    """Random vs cheapest migration under the Figure 7 configuration."""

    arms: Dict[str, ArmResult]

    def render(self) -> str:
        """Text report comparing the two migration rules."""
        rows = []
        for name in ("random-migration", "cheapest-migration"):
            fleet = self.arms[name].fleet
            regions = fleet.regions_used()
            spread = len([r for r, n in regions.items() if n > 0])
            rows.append(
                [
                    name,
                    fleet.total_interruptions,
                    fmt_hours(fleet.makespan_hours),
                    fmt_money(fleet.total_cost),
                    spread,
                ]
            )
        return render_table(
            ["policy", "ints", "time", "cost", "regions used"],
            rows,
            title="Ablation — random vs always-cheapest migration target",
        )


def run_migration_ablation(n_workloads: int = 40, seed: int = 7) -> MigrationAblationResult:
    """Run the migration-randomness ablation."""
    config = SpotVerseConfig(
        instance_type="m5.xlarge",
        initial_distribution=False,
        start_region="ca-central-1",
    )
    factory = indexed_workload_factory(genome_reconstruction_workload, "w-{:02d}")
    specs = [
        ArmSpec(
            name="random-migration",
            strategy=STRATEGIES["spotverse"],
            config=config,
            workload_factory=factory,
            n_workloads=n_workloads,
            seed=seed,
        ),
        ArmSpec(
            name="cheapest-migration",
            strategy=STRATEGIES["cheapest-migration"],
            config=config,
            workload_factory=factory,
            n_workloads=n_workloads,
            seed=seed,
        ),
    ]
    return MigrationAblationResult(arms=run_arms(specs))


@dataclass
class FallbackAblationResult:
    """On-demand fallback under an unsatisfiable threshold."""

    with_fallback: ArmResult

    def render(self) -> str:
        """Text report of the forced-fallback fleet."""
        fleet = self.with_fallback.fleet
        return render_table(
            ["metric", "value"],
            [
                ["on-demand share", f"{100 * fleet.on_demand_share():.0f}%"],
                ["interruptions", fleet.total_interruptions],
                ["completion", fmt_hours(fleet.makespan_hours)],
                ["cost", fmt_money(fleet.total_cost)],
            ],
            title="Ablation — threshold 9 forces the on-demand fallback",
        )


def run_fallback_ablation(n_workloads: int = 10, seed: int = 7) -> FallbackAblationResult:
    """Run SpotVerse with a threshold no region can meet."""
    arm = run_arm(
        ArmSpec(
            name="fallback",
            strategy=STRATEGIES["spotverse"],
            config=SpotVerseConfig(instance_type="m5.xlarge", score_threshold=9.0),
            workload_factory=indexed_workload_factory(genome_reconstruction_workload, "w-{:02d}"),
            n_workloads=n_workloads,
            seed=seed,
        )
    )
    return FallbackAblationResult(with_fallback=arm)



@dataclass
class CheckpointBackendResult:
    """S3 vs EFS checkpoint artifacts (Section 7 future work)."""

    arms: Dict[str, ArmResult]

    def render(self) -> str:
        """Text report comparing the two artifact backends."""
        rows = []
        for name in ("s3", "efs"):
            fleet = self.arms[name].fleet
            provider = self.arms[name].provider
            breakdown = provider.ledger.by_category()
            rows.append(
                [
                    name,
                    fleet.total_interruptions,
                    fmt_hours(fleet.makespan_hours),
                    fmt_money(fleet.total_cost),
                    f"${breakdown.get('s3-storage', 0.0):.4f}",
                    f"${breakdown.get('s3-transfer', 0.0):.4f}",
                ]
            )
        return render_table(
            ["backend", "ints", "time", "cost", "storage", "transfer/replication"],
            rows,
            title="Ablation — checkpoint artifact backend (S3 upload vs regional EFS)",
        )


def run_checkpoint_backend_ablation(
    n_workloads: int = 20, seed: int = 7
) -> CheckpointBackendResult:
    """Run the checkpoint fleet under both artifact backends."""
    arms: Dict[str, ArmResult] = {}
    for backend in ("s3", "efs"):
        arms[backend] = run_arm(
            ArmSpec(
                name=backend,
                strategy=STRATEGIES["single-region"],
                config=SpotVerseConfig(
                    instance_type="m5.xlarge",
                    start_region="ca-central-1",
                    checkpoint_backend=backend,
                ),
                workload_factory=indexed_workload_factory(ngs_preprocessing_workload, "w-{:02d}"),
                n_workloads=n_workloads,
                seed=seed,
            )
        )
    return CheckpointBackendResult(arms=arms)


@dataclass
class PredictivePolicyResult:
    """Standard Algorithm 1 vs the predictive (Section 7) variant."""

    arms: Dict[str, ArmResult]

    def render(self) -> str:
        """Text report comparing standard and predictive ranking."""
        rows = []
        for name in ("spotverse", "spotverse-predictive"):
            fleet = self.arms[name].fleet
            rows.append(
                [
                    name,
                    fleet.total_interruptions,
                    fmt_hours(fleet.makespan_hours),
                    fmt_money(fleet.total_cost),
                ]
            )
        return render_table(
            ["policy", "ints", "time", "cost"],
            rows,
            title="Ablation — Algorithm 1 vs predicted-effective-cost ranking",
        )


def run_predictive_policy_ablation(
    n_workloads: int = 40, seed: int = 7
) -> PredictivePolicyResult:
    """Compare standard and predictive optimizers on the Fig. 7 setup."""
    config = SpotVerseConfig(
        instance_type="m5.xlarge",
        initial_distribution=False,
        start_region="ca-central-1",
    )
    factory = indexed_workload_factory(genome_reconstruction_workload, "w-{:02d}")
    arms: Dict[str, ArmResult] = {}
    for name, strategy in [
        ("spotverse", STRATEGIES["spotverse"]),
        ("spotverse-predictive", PREDICTIVE),
    ]:
        arms[name] = run_arm(
            ArmSpec(
                name=name,
                strategy=strategy,
                config=config,
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
            )
        )
    return PredictivePolicyResult(arms=arms)


@dataclass
class DeadlinePolicyResult:
    """Algorithm 1 vs deadline-aware escalation (the "optimal mix")."""

    arms: Dict[str, ArmResult]
    deadline_hours: float

    def tail_violations(self, name: str) -> int:
        """Workloads finishing past the deadline under one arm."""
        fleet = self.arms[name].fleet
        return sum(
            1
            for record in fleet.records
            if record.elapsed is not None
            and record.elapsed > self.deadline_hours * 3600.0
        )

    def render(self) -> str:
        """Text report comparing deadline compliance and cost."""
        rows = []
        for name in ("spotverse", "spotverse-deadline"):
            fleet = self.arms[name].fleet
            rows.append(
                [
                    name,
                    fleet.total_interruptions,
                    fmt_hours(fleet.makespan_hours),
                    fmt_money(fleet.total_cost),
                    self.tail_violations(name),
                    f"{100 * fleet.on_demand_share():.0f}%",
                ]
            )
        return render_table(
            ["policy", "ints", "time", "cost", "deadline misses", "OD share"],
            rows,
            title=f"Ablation — deadline-aware escalation "
            f"(deadline {self.deadline_hours:g} h per workload)",
        )


def run_deadline_policy_ablation(
    n_workloads: int = 40,
    seed: int = 7,
    duration_hours: float = 10.5,
) -> DeadlinePolicyResult:
    """Compare plain Algorithm 1 with deadline escalation (Fig. 7 setup)."""
    config = SpotVerseConfig(
        instance_type="m5.xlarge",
        initial_distribution=False,
        start_region="ca-central-1",
    )
    factory = indexed_workload_factory(
        genome_reconstruction_workload, "w-{:02d}", duration_hours=duration_hours
    )
    arms: Dict[str, ArmResult] = {}
    for name, strategy in [
        ("spotverse", STRATEGIES["spotverse"]),
        ("spotverse-deadline", STRATEGIES["deadline"]),
    ]:
        arms[name] = run_arm(
            ArmSpec(
                name=name,
                strategy=strategy,
                config=config,
                workload_factory=factory,
                n_workloads=n_workloads,
                seed=seed,
            )
        )
    return DeadlinePolicyResult(
        arms=arms, deadline_hours=DEFAULT_DEADLINE_FACTOR * duration_hours
    )


@dataclass
class CheckpointGranularityResult:
    """Cost/time vs segment count for the checkpoint workload."""

    arms: Dict[int, ArmResult]

    def render(self) -> str:
        """Text report of the granularity sweep."""
        rows = []
        for segments in sorted(self.arms):
            fleet = self.arms[segments].fleet
            rows.append(
                [
                    segments,
                    fleet.total_interruptions,
                    fmt_hours(fleet.makespan_hours),
                    fmt_money(fleet.total_cost),
                ]
            )
        return render_table(
            ["segments", "ints", "time", "cost"],
            rows,
            title="Ablation — checkpoint granularity under single-region ca-central-1",
        )


def run_checkpoint_granularity(
    segment_counts: List[int] = (1, 5, 20, 80),
    n_workloads: int = 20,
    seed: int = 7,
) -> CheckpointGranularityResult:
    """Sweep checkpoint granularity under a flaky single region."""
    arms: Dict[int, ArmResult] = {}
    for segments in segment_counts:
        arms[segments] = run_arm(
            ArmSpec(
                name=f"segments-{segments}",
                strategy=STRATEGIES["single-region"],
                config=SpotVerseConfig(instance_type="m5.xlarge", start_region="ca-central-1"),
                workload_factory=indexed_workload_factory(
                    ngs_preprocessing_workload, "w-{:02d}", n_segments=segments
                ),
                n_workloads=n_workloads,
                seed=seed,
            )
        )
    return CheckpointGranularityResult(arms=arms)
