"""Section 7 time-pattern bench: interruptions cluster by hour.

The paper observes that interruption rates differ by day and time and
proposes studying them; our market model makes the pattern explicit —
reclaim bursts and the diurnal swing concentrate interruptions into a
minority of hours, which is the signal a predictive allocator exploits.
"""

from repro.experiments.time_patterns import run_time_pattern_study


def test_time_pattern_study():
    result = run_time_pattern_study(
        n_workloads=30, region="ca-central-1", observation_hours=30.0, seed=7
    )
    print()
    print(result.render())

    fleet = result.arm.fleet
    assert fleet.total_interruptions >= 20, "the probe fleet must observe enough events"

    # Clustered, not uniform: the busiest quarter of hours carries far
    # more than a quarter of the interruptions.
    assert result.concentration > 0.5

    # The busiest hours repeat with the market's burst period (~6 h):
    # consecutive busiest hours should not all be adjacent.
    busiest = sorted(result.busiest_hours(4))
    spans = [b - a for a, b in zip(busiest, busiest[1:])]
    assert max(spans) >= 4, f"bursts should recur hours apart, got hours {busiest}"
