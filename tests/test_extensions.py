"""Tests for the Section 7 future-work extensions: EFS, the
interruption predictor, and metric-availability degradation."""

import math

import pytest

from repro.cloud.provider import CloudProvider
from repro.cloud.services.ec2 import InstanceLifecycle
from repro.cloud.services.efs import DEFAULT_REPLICATION_LAG, EFS_STORAGE_PRICE_GB_MONTH
from repro.core.config import SpotVerseConfig
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.policy import PolicyContext, PurchasingOption
from repro.core.prediction import InterruptionPredictor, PredictiveOptimizer
from repro.core.scoring import RegionMetrics
from repro.errors import ServiceError
from repro.sim.clock import HOUR
from repro.workloads.base import synthetic_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload


@pytest.fixture()
def provider():
    p = CloudProvider(seed=8)
    p.warmup_markets(24)
    return p


class TestEFS:
    def test_write_read_in_region(self, provider):
        fs = provider.efs.create_file_system("us-east-1")
        provider.efs.write_file(fs.fs_id, "a/b", b"state", source_region="us-east-1")
        file = provider.efs.read_file(fs.fs_id, "a/b", reader_region="us-east-1")
        assert file.body == b"state"
        assert provider.efs.list_files(fs.fs_id, prefix="a/") == ["a/b"]

    def test_cross_region_write_rejected(self, provider):
        fs = provider.efs.create_file_system("us-east-1")
        with pytest.raises(ServiceError):
            provider.efs.write_file(fs.fs_id, "x", b"", source_region="eu-west-1")

    def test_replica_visibility_after_lag(self, provider):
        fs = provider.efs.create_file_system("us-east-1")
        provider.efs.create_replica(fs.fs_id, "eu-west-1")
        provider.efs.write_file(fs.fs_id, "ckpt", b"v1", source_region="us-east-1")
        # Not visible before the replication lag...
        with pytest.raises(ServiceError):
            provider.efs.read_file(fs.fs_id, "ckpt", reader_region="eu-west-1")
        provider.engine.run_until(provider.engine.now + DEFAULT_REPLICATION_LAG + 1)
        assert provider.efs.read_file(fs.fs_id, "ckpt", reader_region="eu-west-1").body == b"v1"

    def test_unmounted_region_read_rejected(self, provider):
        fs = provider.efs.create_file_system("us-east-1")
        with pytest.raises(ServiceError):
            provider.efs.read_file(fs.fs_id, "x", reader_region="ap-southeast-1")

    def test_replica_constraints(self, provider):
        fs = provider.efs.create_file_system("us-east-1")
        with pytest.raises(ServiceError):
            provider.efs.create_replica(fs.fs_id, "us-east-1")
        provider.efs.create_replica(fs.fs_id, "eu-west-1")
        with pytest.raises(ServiceError):
            provider.efs.create_replica(fs.fs_id, "eu-west-2")

    def test_storage_and_replication_billing(self, provider):
        fs = provider.efs.create_file_system("us-east-1")
        provider.efs.create_replica(fs.fs_id, "eu-west-1")
        before = provider.ledger.total()
        provider.efs.write_file(
            fs.fs_id, "big", b"x", source_region="us-east-1",
            logical_bytes=1024 ** 3,  # bill one logical GB
        )
        charged = provider.ledger.total() - before
        expected_storage = EFS_STORAGE_PRICE_GB_MONTH / 30.0
        assert charged == pytest.approx(expected_storage + 0.02, rel=0.01)

    def test_write_duration_fits_notice_window(self, provider):
        # 1 GB within the two-minute notice: the property the paper
        # wants from EFS.
        assert provider.efs.write_duration(1024 ** 3) < 120


class TestInterruptionPredictor:
    def region_metrics(self, region, freq=8.0, spot=0.07):
        return RegionMetrics(
            region=region,
            instance_type="m5.xlarge",
            spot_price=spot,
            od_price=0.192,
            placement_score=3.4,
            interruption_frequency=freq,
        )

    def test_prior_only_without_observations(self, provider):
        predictor = InterruptionPredictor(provider, "m5.xlarge", prior_weight_hours=30)
        hazard = predictor.predicted_hazard(self.region_metrics("eu-west-2", freq=10.0))
        assert hazard == pytest.approx(10.0 * 0.007)

    def test_observations_pull_estimate_up(self, provider):
        predictor = InterruptionPredictor(provider, "m5.xlarge", prior_weight_hours=10)
        metrics = self.region_metrics("ca-central-1", freq=10.0)
        prior = predictor.predicted_hazard(metrics)
        # Fabricate a brutal observed history: 5 interruptions over a
        # few instance-hours.
        for _ in range(5):
            instance = provider.ec2._launch(
                "ca-central-1", "m5.xlarge", InstanceLifecycle.SPOT, tag="t"
            )
            provider.engine.run_until(provider.engine.now + 0.5 * HOUR)
            provider.ec2.interruption_log.append(
                (provider.engine.now, instance.instance_id, "ca-central-1", "t")
            )
            provider.ec2.terminate_instances([instance.instance_id])
        posterior = predictor.predicted_hazard(metrics)
        assert posterior > 2 * prior

    def test_exposure_counts_only_matching_type_and_lifecycle(self, provider):
        predictor = InterruptionPredictor(provider, "m5.xlarge")
        provider.ec2.run_on_demand("eu-west-1", "m5.xlarge")  # on-demand: excluded
        provider.ec2._launch("eu-west-1", "c5.2xlarge", InstanceLifecycle.SPOT, "t")
        provider.engine.run_until(provider.engine.now + HOUR)
        assert predictor.observed_exposure_hours("eu-west-1") == 0.0

    def test_rework_multiplier_shapes(self):
        rm = InterruptionPredictor.rework_multiplier
        assert rm(0.0, 10, False) == 1.0
        assert rm(0.1, 10, False) > rm(0.05, 10, False) > 1.0
        assert rm(0.1, 20, False) > rm(0.1, 10, False)
        # Checkpoint semantics pay far less for the same hazard.
        assert rm(0.1, 10, True) < rm(0.1, 10, False)
        assert math.isinf(rm(10.0, 10, False))

    def test_effective_price_orders_by_risk(self, provider):
        predictor = InterruptionPredictor(provider, "m5.xlarge")
        cheap_flaky = self.region_metrics("us-east-1", freq=25.0, spot=0.05)
        dear_stable = self.region_metrics("eu-west-1", freq=2.0, spot=0.07)
        assert predictor.effective_price(cheap_flaky, 10.5, False) > (
            predictor.effective_price(dear_stable, 10.5, False)
        )


class TestPredictiveOptimizer:
    def make(self, provider, **config_kwargs):
        config = SpotVerseConfig(instance_type="m5.xlarge", **config_kwargs)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        monitor.collect()
        ctx = PolicyContext(
            provider=provider, monitor=monitor, rng=provider.engine.streams.get("t")
        )
        return PredictiveOptimizer(monitor, config), ctx

    def test_migration_is_deterministic_best(self, provider):
        optimizer, ctx = self.make(provider)
        workload = synthetic_workload("w")
        picks = {
            optimizer.migration_placement(workload, "ca-central-1", ctx).region
            for _ in range(10)
        }
        assert len(picks) == 1

    def test_initial_spread_still_round_robin(self, provider):
        optimizer, ctx = self.make(provider)
        placements = optimizer.initial_placements(
            [synthetic_workload(f"w{i}") for i in range(8)], ctx
        )
        assert len({p.region for p in placements}) == 4

    def test_checkpoint_horizon_changes_little(self, provider):
        optimizer, ctx = self.make(provider)
        workload = ngs_preprocessing_workload("w")
        placement = optimizer.migration_placement(workload, "ca-central-1", ctx)
        assert placement.option is PurchasingOption.SPOT

    def test_fleet_runs_end_to_end(self):
        from repro.core.controller import FleetController

        provider = CloudProvider(seed=8)
        provider.warmup_markets(24)
        config = SpotVerseConfig(instance_type="m5.xlarge")
        monitor = Monitor(provider, ["m5.xlarge"])
        policy = PredictiveOptimizer(monitor, config)
        controller = FleetController(provider, policy, config, monitor=monitor)
        result = controller.run(
            [synthetic_workload(f"w{i}", duration_hours=4.0) for i in range(6)],
            max_hours=48,
        )
        assert result.all_complete
        assert result.strategy == "spotverse-predictive"


class TestMetricAvailability:
    def make(self, provider, **config_kwargs):
        config = SpotVerseConfig(instance_type="m5.xlarge", **config_kwargs)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        monitor.collect()
        ctx = PolicyContext(
            provider=provider, monitor=monitor, rng=provider.engine.streams.get("t")
        )
        return SpotVerseOptimizer(monitor, config), ctx

    def test_stability_only_mode_prefers_stable_regions(self, provider):
        # Azure-like: no placement score; threshold 3 = "stability 3".
        optimizer, ctx = self.make(
            provider, use_placement_score=False, score_threshold=3.0
        )
        top = optimizer.top_regions(ctx)
        assert top, "stable regions must qualify on stability alone"
        assert {m.region for m in top} <= {
            "us-west-1", "ap-northeast-3", "eu-west-1", "eu-north-1",
        }

    def test_placement_only_mode(self, provider):
        optimizer, ctx = self.make(
            provider, use_stability_score=False, score_threshold=4.0
        )
        top = optimizer.top_regions(ctx)
        assert top
        for metrics in top:
            assert metrics.placement_score >= 4.0

    def test_no_metrics_means_price_only(self, provider):
        # GCP-like: neither metric; threshold 0 admits everyone.
        optimizer, ctx = self.make(
            provider,
            use_placement_score=False,
            use_stability_score=False,
            score_threshold=0.0,
        )
        top = optimizer.top_regions(ctx)
        assert len(top) == 4
        prices = [m.spot_price for m in top]
        assert prices == sorted(prices)

    def test_no_metrics_positive_threshold_falls_back(self, provider):
        optimizer, ctx = self.make(
            provider,
            use_placement_score=False,
            use_stability_score=False,
            score_threshold=1.0,
        )
        placements = optimizer.initial_placements([synthetic_workload("w")], ctx)
        assert placements[0].option is PurchasingOption.ON_DEMAND
