"""Fast calibration-regression tests.

The full paper-shape assertions run in ``benchmarks/``; these reduced
fleets (~12 workloads) protect the calibration from accidental edits
when only ``pytest tests/`` runs.  They assert *orderings*, never
absolute values, so they are robust to small retunes while still
catching anything that flips a paper conclusion.
"""

import pytest

from repro.cloud.profiles import THRESHOLD_EPOCH_OVERRIDES
from repro.core.config import SpotVerseConfig
from repro.experiments.harness import ArmSpec, run_arm, run_arms
from repro.strategies import STRATEGIES
from repro.workloads import genome_reconstruction_workload, synthetic_workload

N = 12
SEED = 7


def spec(name, strategy, config=None, factory=None, overrides=None):
    return ArmSpec(
        name=name,
        strategy=STRATEGIES[strategy],
        config=config or SpotVerseConfig(instance_type="m5.xlarge"),
        workload_factory=factory
        or (lambda i: genome_reconstruction_workload(f"w{i:02d}", duration_hours=8.0)),
        n_workloads=N,
        seed=SEED,
        max_hours=150,
        profile_overrides=overrides,
    )


@pytest.fixture(scope="module")
def core_arms():
    spotverse_config = SpotVerseConfig(
        instance_type="m5.xlarge",
        initial_distribution=False,
        start_region="ca-central-1",
    )
    return run_arms(
        [
            spec(
                "single",
                "single-region",
                config=SpotVerseConfig(instance_type="m5.xlarge", start_region="ca-central-1"),
            ),
            spec("spotverse", "spotverse", config=spotverse_config),
            spec("on-demand", "on-demand"),
        ]
    )


class TestCoreOrdering:
    def test_everyone_completes(self, core_arms):
        for arm in core_arms.values():
            assert arm.fleet.all_complete, arm.name

    def test_interruption_ordering(self, core_arms):
        assert core_arms["on-demand"].fleet.total_interruptions == 0
        assert (
            core_arms["spotverse"].fleet.total_interruptions
            < core_arms["single"].fleet.total_interruptions
        )

    def test_cost_ordering(self, core_arms):
        spotverse = core_arms["spotverse"].fleet.total_cost
        single = core_arms["single"].fleet.total_cost
        on_demand = core_arms["on-demand"].fleet.total_cost
        assert spotverse < single < on_demand

    def test_time_ordering(self, core_arms):
        assert (
            core_arms["on-demand"].fleet.makespan
            < core_arms["spotverse"].fleet.makespan
            < core_arms["single"].fleet.makespan
        )


class TestSkyPilotShape:
    def test_skypilot_tracks_cheapest_market(self):
        arm = run_arm(
            spec(
                "skypilot",
                "skypilot",
                factory=lambda i: synthetic_workload(f"w{i}", duration_hours=8.0),
            )
        )
        regions = arm.fleet.regions_used()
        assert max(regions, key=regions.get) == "ca-central-1"


class TestThresholdShape:
    def test_threshold_4_worse_than_6_at_long_duration(self):
        def factory(i):
            return synthetic_workload(f"w{i}", duration_hours=16.0)

        arms = run_arms(
            [
                spec(
                    f"t{threshold}",
                    "spotverse",
                    config=SpotVerseConfig(
                        instance_type="m5.xlarge", score_threshold=float(threshold)
                    ),
                    factory=factory,
                    overrides=THRESHOLD_EPOCH_OVERRIDES,
                )
                for threshold in (4, 6)
            ]
        )
        assert arms["t4"].fleet.total_cost > arms["t6"].fleet.total_cost
        assert (
            arms["t4"].fleet.total_interruptions
            > arms["t6"].fleet.total_interruptions
        )
