"""Tests for the fleet lifeline renderer."""


from repro.core.result import FleetResult, WorkloadRecord
from repro.experiments.gantt import render_lifelines
from repro.sim.clock import HOUR
from repro.workloads.base import WorkloadKind


def make_result():
    records = [
        WorkloadRecord(
            "alpha",
            WorkloadKind.STANDARD,
            submitted_at=0.0,
            completed_at=4 * HOUR,
            regions=["r-one"],
            attempt_starts=[0.0],
            attempts=1,
        ),
        WorkloadRecord(
            "beta",
            WorkloadKind.STANDARD,
            submitted_at=0.0,
            completed_at=7 * HOUR,
            interruptions=[(2 * HOUR, "r-one")],
            regions=["r-one", "r-two"],
            attempt_starts=[0.0, 2.5 * HOUR],
            attempts=2,
        ),
    ]
    return FleetResult(
        strategy="t",
        records=records,
        total_cost=1.0,
        instance_cost=1.0,
        overhead_cost=0.0,
        ended_at=8 * HOUR,
    )


class TestLifelines:
    def test_basic_rendering(self):
        text = render_lifelines(make_result(), bin_hours=1.0)
        lines = text.splitlines()
        assert "a=r-one" in lines[1] and "b=r-two" in lines[1]
        alpha = next(line for line in lines if line.startswith("alpha"))
        beta = next(line for line in lines if line.startswith("beta"))
        # alpha ran in r-one then completed at hour 4.
        assert "aaaa*" in alpha
        # beta migrated: letters for both regions appear, star at 7h.
        row = beta.split("|", 1)[1]
        assert "a" in row and "b" in row and "*" in row
        assert row.index("a") < row.index("b")

    def test_waiting_gap_shown_as_dots(self):
        result = make_result()
        # beta waited between interruption (2 h) and reattach (2.5 h);
        # with 0.25 h bins the gap appears as '.' columns.
        text = render_lifelines(result, bin_hours=0.25)
        beta = next(
            line for line in text.splitlines() if line.startswith("beta")
        ).split("|", 1)[1]
        assert "." in beta[: int(3 * 4)]

    def test_width_limit_widens_bins(self):
        text = render_lifelines(make_result(), bin_hours=0.01, width_limit=40)
        rows = [line for line in text.splitlines() if "|" in line]
        longest_bins = max(len(line.split("|", 1)[1]) for line in rows)
        assert longest_bins <= 41  # width_limit + 1 columns

    def test_truncation_notice(self):
        result = make_result()
        text = render_lifelines(result, max_workloads=1)
        assert "1 more workloads" in text

    def test_empty_fleet(self):
        empty = FleetResult(
            strategy="t", records=[], total_cost=0, instance_cost=0,
            overhead_cost=0, ended_at=0,
        )
        assert render_lifelines(empty) == "(empty fleet)"

    def test_real_fleet_renders(self):
        from repro.cloud.provider import CloudProvider
        from repro.core import SpotVerseConfig
        from repro.workloads import synthetic_workload
        from tests.fleets import spotverse_controller

        provider = CloudProvider(seed=7)
        controller = spotverse_controller(
            provider,
            SpotVerseConfig(initial_distribution=False, start_region="ca-central-1"),
        )
        result = controller.run(
            [synthetic_workload(f"w{i}", duration_hours=6.0) for i in range(6)],
            max_hours=48,
        )
        text = render_lifelines(result)
        rows = [line for line in text.splitlines() if "|" in line]
        assert len(rows) == 6
        assert all("*" in row for row in rows)  # every workload completed