"""End-to-end integration scenarios combining multiple features."""

import pytest

from repro.cloud.provider import CloudProvider
from repro.core import FleetController, SpotVerseConfig
from repro.core.monitor import Monitor
from repro.core.prediction import PredictiveOptimizer
from repro.workloads import (
    genome_reconstruction_workload,
    ngs_preprocessing_workload,
    standard_general_workload,
    synthetic_workload,
)
from tests.fleets import spotverse_controller


class TestMixedFleet:
    def test_standard_and_checkpoint_together(self):
        """One fleet mixing restart and resume semantics completes, and
        the checkpoint half suffers less elapsed time per workload."""
        provider = CloudProvider(seed=31)
        config = SpotVerseConfig(
            instance_type="m5.xlarge",
            initial_distribution=False,
            start_region="ca-central-1",
        )
        controller = spotverse_controller(provider, config)
        fleet = [
            genome_reconstruction_workload(f"std-{i}", duration_hours=8.0)
            for i in range(6)
        ] + [
            ngs_preprocessing_workload(f"ckp-{i}", duration_hours=8.0)
            for i in range(6)
        ]
        result = controller.run(fleet, max_hours=96)
        assert result.all_complete
        std_elapsed = [
            record.elapsed for record in result.records if record.workload_id.startswith("std")
        ]
        ckp_elapsed = [
            record.elapsed for record in result.records if record.workload_id.startswith("ckp")
        ]
        assert sum(ckp_elapsed) / len(ckp_elapsed) <= sum(std_elapsed) / len(std_elapsed)

    def test_all_three_paper_workloads(self):
        provider = CloudProvider(seed=32)
        controller = spotverse_controller(provider, SpotVerseConfig(instance_type="m5.xlarge"))
        fleet = [
            standard_general_workload("qiime", duration_hours=5.0),
            genome_reconstruction_workload("genome", duration_hours=5.0),
            ngs_preprocessing_workload("ngs", duration_hours=5.0),
        ]
        result = controller.run(fleet, max_hours=72)
        assert result.all_complete


class TestPreferredRegions:
    def test_fleet_respects_region_allow_list(self):
        provider = CloudProvider(seed=33)
        config = SpotVerseConfig(
            instance_type="m5.xlarge",
            preferred_regions=["eu-west-1", "eu-north-1", "eu-west-2"],
            score_threshold=6.0,
        )
        controller = spotverse_controller(provider, config)
        fleet = [synthetic_workload(f"w{i}", duration_hours=6.0) for i in range(8)]
        result = controller.run(fleet, max_hours=72)
        assert result.all_complete
        used = set(result.regions_used())
        assert used <= {"eu-west-1", "eu-north-1", "eu-west-2"}


class TestFeatureCombination:
    def test_predictive_policy_with_efs_backend(self):
        """The two Section 7 extensions compose."""
        provider = CloudProvider(seed=34)
        provider.warmup_markets(24)
        config = SpotVerseConfig(
            instance_type="m5.xlarge",
            initial_distribution=False,
            start_region="ca-central-1",
            checkpoint_backend="efs",
        )
        monitor = Monitor(provider, ["m5.xlarge"])
        policy = PredictiveOptimizer(monitor, config)
        controller = FleetController(provider, policy, config, monitor=monitor)
        fleet = [ngs_preprocessing_workload(f"w{i}", duration_hours=6.0) for i in range(8)]
        result = controller.run(fleet, max_hours=72)
        assert result.all_complete
        if result.total_interruptions:
            # Checkpoint artifacts went to EFS, not S3.
            assert provider.efs.file_systems()
            assert (
                provider.s3.list_objects("spotverse-results", prefix="checkpoints/")
                == []
            )

    def test_metric_degraded_mode_end_to_end(self):
        """Azure-like stability-only scoring still runs whole fleets."""
        provider = CloudProvider(seed=35)
        config = SpotVerseConfig(
            instance_type="m5.xlarge",
            use_placement_score=False,
            score_threshold=3.0,
        )
        controller = spotverse_controller(provider, config)
        fleet = [synthetic_workload(f"w{i}", duration_hours=4.0) for i in range(6)]
        result = controller.run(fleet, max_hours=48)
        assert result.all_complete
        launch_regions = {record.regions[0] for record in result.records}
        assert launch_regions <= {
            "us-west-1", "ap-northeast-3", "eu-west-1", "eu-north-1",
        }

    def test_sequential_fleets_on_one_provider(self):
        """A long-lived SpotVerse deployment runs fleet after fleet."""
        provider = CloudProvider(seed=36)
        controller = spotverse_controller(provider, SpotVerseConfig(instance_type="m5.xlarge"))
        first = controller.run(
            [synthetic_workload(f"a{i}", duration_hours=2.0) for i in range(4)],
            max_hours=24,
        )
        assert first.all_complete
        second = controller.run(
            [synthetic_workload(f"b{i}", duration_hours=2.0) for i in range(4)],
            max_hours=24,
        )
        assert second.all_complete
        # Cost keeps accumulating on the shared ledger; the second
        # result's total covers both fleets (documented behaviour of a
        # shared provider).
        assert second.total_cost >= first.total_cost
        # Reusing a workload id across fleets on one controller is a
        # caller error and is rejected.
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            controller.run([synthetic_workload("a0", duration_hours=1.0)])
