"""Unit tests for scoring, the Monitor, and SpotVerse configuration."""

import pytest

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.monitor import METRICS_TABLE, Monitor
from repro.core.scoring import RegionMetrics, cheapest_first, combined_score, qualifying_regions
from repro.errors import CloudError, ReproError
from repro.sim.clock import HOUR, MINUTE


def metrics(region, spot=0.05, placement=4.0, freq=3.0):
    return RegionMetrics(
        region=region,
        instance_type="m5.xlarge",
        spot_price=spot,
        od_price=0.192,
        placement_score=placement,
        interruption_frequency=freq,
    )


class TestScoring:
    def test_combined_score_buckets(self):
        assert combined_score(4.0, 3.0) == 7.0  # stability 3
        assert combined_score(4.0, 10.0) == 6.0  # stability 2
        assert combined_score(4.0, 25.0) == 5.0  # stability 1

    def test_region_metrics_properties(self):
        m = metrics("r", spot=0.048, placement=3.5, freq=8.0)
        assert m.stability_score == 2
        assert m.combined_score == 5.5
        assert m.savings_fraction == pytest.approx(1 - 0.048 / 0.192)

    def test_zero_od_price_guard(self):
        m = RegionMetrics("r", "t", 0.1, 0.0, 3.0, 3.0)
        assert m.savings_fraction == 0.0

    def test_qualifying_regions_filter(self):
        pool = [metrics("a", placement=4.5), metrics("b", placement=2.0)]
        survivors = qualifying_regions(pool, threshold=6.0)
        assert [m.region for m in survivors] == ["a"]

    def test_cheapest_first_deterministic_ties(self):
        pool = [metrics("b", spot=0.05), metrics("a", spot=0.05), metrics("c", spot=0.04)]
        assert [m.region for m in cheapest_first(pool)] == ["c", "a", "b"]


class TestMonitor:
    def test_collect_writes_all_regions(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        written = monitor.collect()
        assert written == 12
        assert provider.dynamodb.item_count(METRICS_TABLE) == 12

    def test_snapshot_round_trips_market_state(self):
        provider = CloudProvider(seed=2)
        provider.warmup_markets(24)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        monitor.collect()
        snapshot = monitor.snapshot("m5.xlarge")
        assert len(snapshot) == 12
        by_region = {m.region: m for m in snapshot}
        market = provider.market("eu-west-1", "m5.xlarge")
        assert by_region["eu-west-1"].spot_price == pytest.approx(market.spot_price)
        assert by_region["eu-west-1"].placement_score == pytest.approx(
            market.placement_score
        )

    def test_snapshot_without_collection_raises(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        with pytest.raises(CloudError):
            monitor.snapshot("c5.2xlarge")

    def test_deployed_monitor_collects_periodically(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], collect_interval=5 * MINUTE)
        assert monitor.collections == 1  # primed at deploy time
        provider.engine.run_until(HOUR)
        assert monitor.collections == 1 + 12

    def test_deploy_stages_spotinfo_in_s3(self):
        provider = CloudProvider(seed=2)
        Monitor(provider, ["m5.xlarge"])
        assert provider.s3.head_object("spotverse-tools", "spotinfo")
        assert provider.s3.head_object("spotverse-tools", "collector.py")

    def test_snapshot_staleness_ages_across_collect_cycles(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        monitor.collect()
        assert monitor.staleness("m5.xlarge") == 0.0
        # No collection while the clock advances: every row ages.
        provider.engine.run_until(3 * HOUR)
        assert monitor.staleness("m5.xlarge") == pytest.approx(3 * HOUR)
        for m in monitor.snapshot("m5.xlarge"):
            assert m.collected_at == 0.0
            assert m.age(provider.engine.now) == pytest.approx(3 * HOUR)
        # A fresh collect re-stamps collected_at and resets staleness.
        monitor.collect()
        assert monitor.staleness("m5.xlarge") == 0.0
        for m in monitor.snapshot("m5.xlarge"):
            assert m.collected_at == pytest.approx(3 * HOUR)

    def test_deployed_monitor_staleness_bounded_by_interval(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], collect_interval=5 * MINUTE)
        provider.engine.run_until(HOUR + 2 * MINUTE)
        # The schedule keeps the snapshot fresher than one interval.
        assert 0.0 <= monitor.staleness("m5.xlarge") <= 5 * MINUTE

    def test_region_metrics_lookup(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        monitor.collect()
        assert monitor.region_metrics("m5.xlarge", "us-east-1").region == "us-east-1"
        with pytest.raises(CloudError):
            monitor.region_metrics("m5.xlarge", "atlantis-1")

    def test_needs_instance_types(self):
        provider = CloudProvider(seed=2)
        with pytest.raises(CloudError):
            Monitor(provider, [], deploy=False)

    def test_watch_frequency_alarm_fires_on_flaky_region(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        alerts = []
        # The cheap tier's advisor frequency (~17 %) sits below this
        # threshold; force the market over it and collect.
        monitor.watch_frequency(
            "m5.xlarge", "us-east-1", alerts.append, threshold_pct=10.0
        )
        monitor.collect()
        assert alerts and alerts[0] > 10.0
        # Stable regions never trip the paper's >20 % rule.
        stable_alerts = []
        monitor.watch_frequency(
            "m5.xlarge", "eu-west-1", stable_alerts.append, threshold_pct=20.0
        )
        monitor.collect()
        assert stable_alerts == []

    def test_watch_frequency_fires_once_per_ok_to_alarm_crossing(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        alerts = []
        monitor.watch_frequency(
            "m5.xlarge", "us-east-1", alerts.append, threshold_pct=20.0
        )
        dimensions = {"region": "us-east-1", "instance_type": "m5.xlarge"}

        def publish(value):
            provider.cloudwatch.put_metric_data(
                "SpotVerse", "interruption_frequency", value, dimensions=dimensions
            )

        publish(5.0)  # OK
        assert alerts == []
        publish(25.0)  # OK -> ALARM: fires with the breaching value
        assert alerts == [25.0]
        publish(30.0)  # still ALARM: must not re-fire
        publish(40.0)
        assert alerts == [25.0]
        publish(10.0)  # ALARM -> OK resets the alarm silently
        assert alerts == [25.0]
        publish(21.0)  # second OK -> ALARM crossing fires again, once
        assert alerts == [25.0, 21.0]

    def test_watch_frequency_ignores_other_dimensions(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        alerts = []
        monitor.watch_frequency(
            "m5.xlarge", "us-east-1", alerts.append, threshold_pct=20.0
        )
        # Breaching data for a different region/type must not trip it.
        provider.cloudwatch.put_metric_data(
            "SpotVerse",
            "interruption_frequency",
            99.0,
            dimensions={"region": "eu-west-1", "instance_type": "m5.xlarge"},
        )
        provider.cloudwatch.put_metric_data(
            "SpotVerse",
            "interruption_frequency",
            99.0,
            dimensions={"region": "us-east-1", "instance_type": "c5.xlarge"},
        )
        assert alerts == []

    def test_collector_publishes_frequency_metric(self):
        provider = CloudProvider(seed=2)
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        monitor.collect()
        value = provider.cloudwatch.get_metric_statistics(
            "SpotVerse",
            "interruption_frequency",
            dimensions={"region": "ca-central-1", "instance_type": "m5.xlarge"},
            statistic="Last",
        )
        market = provider.market("ca-central-1", "m5.xlarge")
        assert value == pytest.approx(market.interruption_frequency)

    def test_regions_collected_counts_each_type_alone(self):
        provider = CloudProvider(seed=2)
        types = ["m5.xlarge", "c5.2xlarge"]
        monitor = Monitor(provider, types, deploy=False)
        written = monitor.collect()
        counts = {itype: len(provider.markets_for_type(itype)) for itype in types}
        assert written == sum(counts.values())
        for itype in types:
            assert provider.cloudwatch.metric_series(
                "SpotVerse", "regions_collected", dimensions={"instance_type": itype}
            ) == [(0.0, float(counts[itype]))]


class TestConfig:
    def test_defaults_reasonable(self):
        config = SpotVerseConfig()
        assert config.instance_type == "m5.xlarge"
        assert config.score_threshold == 6.0
        assert config.max_regions == 4
        assert config.initial_distribution

    def test_validation(self):
        with pytest.raises(ReproError):
            SpotVerseConfig(max_regions=0)
        with pytest.raises(ReproError):
            SpotVerseConfig(boot_delay=-1)
        with pytest.raises(ReproError):
            SpotVerseConfig(sweep_interval=0)
        with pytest.raises(ReproError):
            SpotVerseConfig(collect_interval=0)
        with pytest.raises(ReproError):
            SpotVerseConfig(preferred_regions=[])

    def test_frozen(self):
        config = SpotVerseConfig()
        with pytest.raises(AttributeError):
            config.max_regions = 9
