"""Figure 9 bench: the initial workload distribution strategy.

Shape claims from Section 5.2.3: spreading the fleet over the top-R
recommended regions at launch (versus starting everything in one
region and migrating only on interruption) significantly reduces
interruptions for both workload kinds (paper: -32 % for standard) and
reduces completion time and cost (paper: up to -12 % and -11 %).
"""

from repro.experiments.initial_distribution import run_initial_distribution_experiment


def test_fig9_initial_distribution():
    result = run_initial_distribution_experiment(n_workloads=40, seed=7)
    print()
    print(result.render())

    for kind in ("standard", "checkpoint"):
        deltas = result.deltas[kind]
        assert deltas["int_delta_pct"] < -20, f"{kind}: spread must cut interruptions"
        assert deltas["time_delta_pct"] < 5, f"{kind}: spread must not slow completion"
        assert deltas["cost_delta_pct"] < 5, f"{kind}: spread must not raise cost"

    standard = result.deltas["standard"]
    assert standard["cost_delta_pct"] < 0, "standard workload must get cheaper"

    # The distributed arms actually used several launch regions.
    distributed = result.arms["standard-distributed"].fleet
    launch_regions = {record.regions[0] for record in distributed.records}
    assert len(launch_regions) == 4, "Algorithm 1 spreads over the top-4 regions"

    concentrated = result.arms["standard-concentrated"].fleet
    assert {record.regions[0] for record in concentrated.records} == {"ca-central-1"}
