"""Small-size smoke tests for the remaining experiment drivers.

Full-size runs with shape assertions live in ``benchmarks/``; these
reduced runs keep the drivers themselves under unit-test coverage.
Each driver call also pins a digest of every arm's
:class:`~repro.core.result.FleetResult`, so a refactor of the harness
or the strategy roster cannot shift a single number unnoticed.
"""

import hashlib

from repro.experiments.ablations import (
    run_checkpoint_backend_ablation,
    run_checkpoint_granularity,
    run_fallback_ablation,
    run_migration_ablation,
    run_predictive_policy_ablation,
)
from repro.experiments.footprint import run_footprint_study
from repro.experiments.motivation import run_motivation_experiment
from repro.experiments.report_all import ALL_EXPERIMENTS
from repro.experiments.time_patterns import run_time_pattern_study


def _fleet_digest(*arm_maps):
    """Hash every arm's fleet: costs, end time and each record's trail."""
    rows = []
    for name, arm in (item for arms in arm_maps for item in arms.items()):
        fleet = arm.fleet
        rows.append(
            (
                name,
                fleet.strategy,
                fleet.total_cost,
                fleet.instance_cost,
                fleet.overhead_cost,
                fleet.ended_at,
                [
                    (
                        record.completed_at,
                        record.cost,
                        record.attempts,
                        record.regions,
                        record.interruptions,
                    )
                    for record in fleet.records
                ],
            )
        )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class TestDriversSmall:
    def test_motivation_small(self):
        result = run_motivation_experiment(n_workloads=6, seed=7, duration_hours=4.0)
        assert result.render()
        assert set(result.deltas) == {"standard", "checkpoint"}
        assert _fleet_digest(result.arms) == "a3bc485c5790a23b"

    def test_migration_ablation_small(self):
        result = run_migration_ablation(n_workloads=6, seed=7)
        assert result.render()
        assert set(result.arms) == {"random-migration", "cheapest-migration"}
        assert _fleet_digest(result.arms) == "b06de1bd71aad7d8"

    def test_fallback_ablation_small(self):
        result = run_fallback_ablation(n_workloads=3, seed=7)
        assert result.with_fallback.fleet.on_demand_share() == 1.0
        assert (
            _fleet_digest({"fallback": result.with_fallback})
            == "b53bc650fa84b8c5"
        )

    def test_checkpoint_granularity_small(self):
        result = run_checkpoint_granularity(segment_counts=[1, 10], n_workloads=5, seed=7)
        assert set(result.arms) == {1, 10}
        assert _fleet_digest(result.arms) == "5c16973d29c023f1"

    def test_checkpoint_backend_small(self):
        result = run_checkpoint_backend_ablation(n_workloads=5, seed=7)
        assert set(result.arms) == {"s3", "efs"}
        assert _fleet_digest(result.arms) == "560284c525be0828"

    def test_predictive_ablation_small(self):
        result = run_predictive_policy_ablation(n_workloads=5, seed=7)
        assert result.arms["spotverse-predictive"].fleet.all_complete
        assert _fleet_digest(result.arms) == "df32c225a89bae54"

    def test_footprint_small(self):
        result = run_footprint_study(fleet_sizes=(5, 15), duration_hours=3.0, seed=7)
        assert set(result.concentrated) == {5, 15}
        rates = result.interruptions_per_workload(result.concentrated)
        assert all(rate >= 0 for rate in rates.values())
        assert _fleet_digest(result.concentrated, result.distributed) == "2bd251a8a8edf000"

    def test_time_patterns_small(self):
        result = run_time_pattern_study(
            n_workloads=10, observation_hours=12.0, seed=7
        )
        assert result.render()
        assert sum(result.by_hour.values()) == result.arm.fleet.total_interruptions
        assert _fleet_digest({"arm": result.arm}) == "e02ae266081e76d9"


class TestReportAllRegistry:
    def test_experiment_ids_unique(self):
        ids = [experiment_id for experiment_id, _, _ in ALL_EXPERIMENTS]
        assert len(set(ids)) == len(ids)

    def test_every_paper_artifact_covered(self):
        ids = {experiment_id for experiment_id, _, _ in ALL_EXPERIMENTS}
        for required in (
            "fig2", "fig3", "fig4", "fig7", "fig8+table1", "fig9",
            "fig10+tables2-3", "table4",
        ):
            assert required in ids, f"missing paper artifact {required}"

    def test_runners_are_callable(self):
        for _, title, runner in ALL_EXPERIMENTS:
            assert callable(runner)
            assert title
