"""Tests for standing up SpotVerse from the roster and the end-to-end happy path."""


from repro.cloud.provider import CloudProvider
from repro.core import PolicyContext, SpotVerseConfig
from repro.core.policy import PurchasingOption
from repro.strategies import build_strategy
from repro.workloads import ngs_preprocessing_workload, synthetic_workload
from tests.fleets import spotverse_controller


def advisor(provider, config=None):
    """The SpotVerse optimizer and an advisory context on *provider*."""
    provider.warmup_markets(48)
    _, monitor, optimizer = build_strategy(
        "spotverse", provider, config or SpotVerseConfig()
    )
    ctx = PolicyContext(
        provider=provider,
        monitor=monitor,
        rng=provider.engine.streams.get("spotverse:advice"),
    )
    return optimizer, ctx


class TestSpotVerseFacade:
    def test_run_small_fleet(self):
        provider = CloudProvider(seed=42)
        controller = spotverse_controller(provider, SpotVerseConfig(instance_type="m5.xlarge"))
        result = controller.run(
            [synthetic_workload(f"w{i}", duration_hours=4.0) for i in range(6)]
        )
        assert result.all_complete
        assert result.strategy == "spotverse"
        assert result.total_cost > 0

    def test_recommended_regions_are_stable_tier(self):
        optimizer, ctx = advisor(CloudProvider(seed=42))
        recommended = optimizer.top_regions(ctx)
        assert 1 <= len(recommended) <= 4
        assert {m.region for m in recommended} <= {
            "us-west-1",
            "ap-northeast-3",
            "eu-west-1",
            "eu-north-1",
        }
        assert optimizer.top_regions(ctx)  # not steering to on-demand

    def test_recommendation_single_placement(self):
        optimizer, ctx = advisor(CloudProvider(seed=42))
        [placement] = optimizer.initial_placements([synthetic_workload("probe")], ctx)
        assert placement.option is PurchasingOption.SPOT

    def test_high_threshold_recommends_on_demand(self):
        optimizer, ctx = advisor(CloudProvider(seed=42), SpotVerseConfig(score_threshold=9.0))
        assert not optimizer.top_regions(ctx)
        [placement] = optimizer.initial_placements([synthetic_workload("probe")], ctx)
        assert placement.option is PurchasingOption.ON_DEMAND

    def test_checkpoint_fleet_end_to_end(self):
        provider = CloudProvider(seed=9)
        config = SpotVerseConfig(
            instance_type="m5.xlarge",
            initial_distribution=False,
            start_region="ca-central-1",
        )
        controller = spotverse_controller(provider, config)
        fleet = [
            ngs_preprocessing_workload(f"w{i}", duration_hours=6.0) for i in range(6)
        ]
        result = controller.run(fleet)
        assert result.all_complete
        # Checkpoints for interrupted workloads are durable in DynamoDB.
        for record in result.records:
            item = provider.dynamodb.get_item("spotverse-checkpoints", record.workload_id)
            assert item is not None
            assert item["completed_segments"] == 20

    def test_package_level_exports(self):
        import repro

        assert repro.SpotVerseConfig is SpotVerseConfig
        assert repro.__version__

    def test_deterministic_given_seed(self):
        def run_once():
            provider = CloudProvider(seed=123)
            controller = spotverse_controller(provider, SpotVerseConfig())
            fleet = [synthetic_workload(f"w{i}", duration_hours=4.0) for i in range(4)]
            result = controller.run(fleet)
            return (
                result.total_interruptions,
                result.makespan,
                round(result.total_cost, 6),
            )

        assert run_once() == run_once()
