"""Figure 3 bench: motivational single vs naive multi-region experiment.

Shape claims from Section 2.2: for both workload categories, the naive
multi-region spread reduces interruptions, completion time, and cost
relative to the single cheapest region (paper: -13.2 % / -30.5 % /
-5.7 % for standard; -41.6 % / -6.6 % / -9.4 % for checkpoint).
Exact magnitudes differ on our substrate; directions must hold, with
cost allowed a small tolerance for the checkpoint workload where the
paper's own effect is under 10 %.
"""

from repro.experiments.motivation import run_motivation_experiment


def test_fig3_motivation():
    result = run_motivation_experiment(n_workloads=42, seed=7)
    print()
    print(result.render())

    standard = result.deltas["standard"]
    assert standard["int_delta_pct"] < -10, "multi-region must cut standard interruptions"
    assert standard["time_delta_pct"] < -10, "multi-region must cut standard completion time"
    assert standard["cost_delta_pct"] < 0, "multi-region must cut standard cost"

    checkpoint = result.deltas["checkpoint"]
    assert checkpoint["int_delta_pct"] < -10, "multi-region must cut checkpoint interruptions"
    assert checkpoint["time_delta_pct"] < 0, "multi-region must cut checkpoint completion time"
    assert checkpoint["cost_delta_pct"] < 5, "checkpoint cost must not regress materially"

    for arm in result.arms.values():
        assert arm.fleet.all_complete, f"arm {arm.name} left workloads unfinished"
