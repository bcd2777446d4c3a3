"""Ablation benches for the design choices DESIGN.md calls out.

* Migration randomness: random-among-top-R vs always-cheapest
  (herding) — both must complete; the report quantifies the spread.
* On-demand fallback: an unsatisfiable threshold routes the whole
  fleet to on-demand, with zero interruptions; disabling the fallback
  raises :class:`~repro.errors.NoFeasibleRegionError`.
* Checkpoint granularity: finer segmentation monotonically reduces
  completion time and cost under a flaky single region.
"""

import pytest

from repro.experiments.ablations import (
    run_checkpoint_backend_ablation,
    run_checkpoint_granularity,
    run_deadline_policy_ablation,
    run_fallback_ablation,
    run_migration_ablation,
    run_predictive_policy_ablation,
)


def test_ablation_migration_randomness():
    result = run_migration_ablation(n_workloads=40, seed=7)
    print()
    print(result.render())
    random_arm = result.arms["random-migration"].fleet
    cheapest_arm = result.arms["cheapest-migration"].fleet
    assert random_arm.all_complete and cheapest_arm.all_complete
    # Herding into the single cheapest region must not *beat* the
    # random spread on interruptions (correlated bursts hit herds).
    assert random_arm.total_interruptions <= cheapest_arm.total_interruptions + 5
    # Cheapest migration concentrates attempts: its busiest migration
    # target absorbs at least as many attempts as random's busiest.
    def busiest_non_start(fleet):
        regions = {
            region: count
            for region, count in fleet.regions_used().items()
            if region != "ca-central-1"
        }
        return max(regions.values()) if regions else 0

    assert busiest_non_start(cheapest_arm) >= busiest_non_start(random_arm)


def test_ablation_on_demand_fallback():
    result = run_fallback_ablation(n_workloads=10, seed=7)
    print()
    print(result.render())
    fleet = result.with_fallback.fleet
    assert fleet.all_complete
    assert fleet.on_demand_share() == 1.0
    assert fleet.total_interruptions == 0


def test_ablation_checkpoint_backend():
    result = run_checkpoint_backend_ablation(n_workloads=20, seed=7)
    print()
    print(result.render())
    s3 = result.arms["s3"].fleet
    efs = result.arms["efs"].fleet
    # Same market randomness -> identical schedule outcomes; only the
    # storage cost structure differs.
    assert s3.total_interruptions == efs.total_interruptions
    assert s3.makespan_hours == pytest.approx(efs.makespan_hours, rel=0.01)
    # EFS artifacts landed on regional file systems, not in S3.
    assert result.arms["efs"].provider.efs.file_systems()
    efs_checkpoint_keys = result.arms["efs"].provider.s3.list_objects(
        "spotverse-results", prefix="checkpoints/"
    )
    assert efs_checkpoint_keys == []
    # Cost difference is bounded by the storage-price gap (small here).
    assert abs(s3.total_cost - efs.total_cost) < 0.15


def test_ablation_predictive_policy():
    result = run_predictive_policy_ablation(n_workloads=40, seed=7)
    print()
    print(result.render())
    standard = result.arms["spotverse"].fleet
    predictive = result.arms["spotverse-predictive"].fleet
    assert standard.all_complete and predictive.all_complete
    # Prediction must not do materially worse than Algorithm 1 on any
    # headline metric (it usually does slightly better).
    assert predictive.total_interruptions <= standard.total_interruptions + 5
    assert predictive.total_cost <= standard.total_cost * 1.1
    assert predictive.makespan_hours <= standard.makespan_hours * 1.15


def test_ablation_deadline_policy():
    result = run_deadline_policy_ablation(n_workloads=40, seed=7)
    print()
    print(result.render())
    plain = result.arms["spotverse"].fleet
    deadline = result.arms["spotverse-deadline"].fleet
    assert plain.all_complete and deadline.all_complete
    # Escalation buys deadline compliance and a shorter tail...
    assert result.tail_violations("spotverse-deadline") <= result.tail_violations(
        "spotverse"
    )
    assert deadline.makespan_hours < plain.makespan_hours
    # ...paid for with some on-demand capacity.
    assert deadline.on_demand_share() > 0
    assert deadline.total_cost < 1.35 * plain.total_cost


def test_ablation_checkpoint_granularity():
    result = run_checkpoint_granularity(
        segment_counts=[1, 5, 20, 80], n_workloads=20, seed=7
    )
    print()
    print(result.render())
    costs = {segments: arm.fleet.total_cost for segments, arm in result.arms.items()}
    times = {segments: arm.fleet.makespan_hours for segments, arm in result.arms.items()}
    # One segment == restart semantics: strictly worse than 20.
    assert costs[1] > costs[20]
    assert times[1] > times[20]
    # Diminishing returns, but no regression at 80 segments.
    assert costs[80] <= costs[5]
