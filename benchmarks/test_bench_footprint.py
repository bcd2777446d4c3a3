"""Footprint-pressure bench: fleet size vs. a finite capacity pool.

Extension study on the capacity model: a fleet concentrated in one
60-slot pool degrades superlinearly as it grows (its own footprint
raises the reclaim hazard and exhausts fulfillment capacity), while
SpotVerse's multi-region spread stays flat — a mechanistic complement
to the paper's Figure 9.
"""

from repro.experiments.footprint import POOL_CAPACITY, run_footprint_study


def test_footprint_study():
    result = run_footprint_study(fleet_sizes=(20, 50, 80), seed=7)
    print()
    print(result.render())

    concentrated = result.interruptions_per_workload(result.concentrated)
    # Pressure: the per-workload interruption rate grows with footprint.
    assert concentrated[80] > concentrated[20]

    # Oversubscription (80 > 60 slots) stretches the concentrated
    # fleet's completion well past the spread fleet's.
    conc_80 = result.concentrated[80].fleet
    spread_80 = result.distributed[80].fleet
    assert 80 > POOL_CAPACITY
    assert conc_80.makespan_hours > 1.3 * spread_80.makespan_hours

    # Everyone still completes (the sweep keeps retrying as slots free).
    for arm in list(result.concentrated.values()) + list(result.distributed.values()):
        assert arm.fleet.all_complete, arm.name
