"""Tests for the experiment harness, reporting, and (small) drivers."""

import pytest

from repro.core.config import SpotVerseConfig
from repro.experiments.harness import ArmSpec, mean_over_seeds, run_arm, run_arms
from repro.experiments.reporting import (
    fmt_hours,
    fmt_money,
    fmt_pct,
    pct_change,
    render_table,
)
from repro.strategies import STRATEGIES
from repro.workloads import synthetic_workload


def od_spec(name="od", n=3, seed=1):
    return ArmSpec(
        name=name,
        strategy=STRATEGIES["on-demand"],
        config=SpotVerseConfig(instance_type="m5.xlarge"),
        workload_factory=lambda i: synthetic_workload(f"w{i}", duration_hours=2.0),
        n_workloads=n,
        seed=seed,
        max_hours=24,
    )


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["alpha", 1.5], ["b", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]

    def test_numeric_right_alignment(self):
        text = render_table(["val"], [["1.5"], ["22.25"]])
        lines = text.splitlines()
        # Numeric cells are right-aligned within the column width.
        assert lines[2] == "  1.5"
        assert lines[3] == "22.25"

    def test_pct_change(self):
        assert pct_change(100, 50) == -50.0
        assert pct_change(0, 50) == 0.0

    def test_formatters(self):
        assert fmt_money(3.14159) == "$3.14"
        assert fmt_hours(2.5) == "2.5h"
        assert fmt_pct(-12.34) == "-12.3%"


class TestHarness:
    def test_run_arm_produces_complete_fleet(self):
        result = run_arm(od_spec())
        assert result.fleet.all_complete
        assert result.name == "od"
        assert result.provider is not None

    def test_run_arms_keys_by_name(self):
        results = run_arms([od_spec("a"), od_spec("b")])
        assert set(results) == {"a", "b"}

    def test_run_arms_rejects_duplicates(self):
        with pytest.raises(ValueError):
            run_arms([od_spec("same"), od_spec("same")])

    def test_same_seed_same_outcome(self):
        first = run_arm(od_spec(seed=5)).fleet
        second = run_arm(od_spec(seed=5)).fleet
        assert first.total_cost == pytest.approx(second.total_cost)
        assert first.makespan == second.makespan

    def test_mean_over_seeds(self):
        interruptions, hours, cost = mean_over_seeds(od_spec(), seeds=[1, 2])
        assert interruptions == 0
        assert hours > 2.0
        assert cost > 0

    def test_spotverse_roster_arm(self):
        spec = ArmSpec(
            name="sv",
            strategy=STRATEGIES["spotverse"],
            config=SpotVerseConfig(instance_type="m5.xlarge"),
            workload_factory=lambda i: synthetic_workload(f"w{i}", duration_hours=2.0),
            n_workloads=2,
            seed=3,
            max_hours=24,
        )
        result = run_arm(spec)
        assert result.fleet.all_complete
        assert result.fleet.strategy == "spotverse"

    def test_profile_overrides_respected(self):
        from repro.cloud.profiles import THRESHOLD_EPOCH_OVERRIDES

        spec = od_spec()
        spec.profile_overrides = THRESHOLD_EPOCH_OVERRIDES
        result = run_arm(spec)
        market = result.provider.market("us-east-1", "m5.xlarge")
        assert market.profile.spot_fraction == pytest.approx(0.26)


class TestSmallDrivers:
    """Reduced-size smoke runs of the figure drivers (the full-size
    versions live in benchmarks/)."""

    def test_price_diversity_small(self):
        from repro.experiments import run_price_diversity

        result = run_price_diversity(days=2)
        assert result.render()
        assert result.stats["m5.2xlarge"]["markets"] == 36

    def test_metrics_analysis_small(self):
        from repro.experiments import run_metrics_analysis

        result = run_metrics_analysis(days=10)
        assert result.render()
        assert len(result.stability_series["m5.2xlarge"]) == 10

    def test_workload_comparison_small(self):
        from repro.experiments import run_workload_comparison

        result = run_workload_comparison(n_workloads=4, seed=7)
        assert result.render()
        assert len(result.arms) == 5
        on_demand = result.arms["standard-on-demand"].fleet
        assert on_demand.total_interruptions == 0

    def test_skypilot_comparison_small(self):
        from repro.experiments import run_skypilot_comparison

        result = run_skypilot_comparison(n_workloads=4, seed=7)
        assert result.render()
        assert result.skypilot.all_complete

    def test_initial_distribution_small(self):
        from repro.experiments import run_initial_distribution_experiment

        result = run_initial_distribution_experiment(n_workloads=4, seed=7)
        assert result.render()
        distributed = result.arms["standard-distributed"].fleet
        assert {record.regions[0] for record in distributed.records} <= {
            "us-west-1",
            "ap-northeast-3",
            "eu-west-1",
            "eu-north-1",
        }

    def test_threshold_region_selection(self):
        from repro.experiments.thresholds import TABLE3_REGIONS, selected_regions_for_threshold

        for threshold in (4, 5, 6):
            assert set(selected_regions_for_threshold(threshold)) == set(
                TABLE3_REGIONS[threshold]
            )

    def test_instance_study_baselines(self):
        from repro.experiments.instance_study import TABLE1_BASELINES, compute_baselines

        assert compute_baselines() == TABLE1_BASELINES
