"""Figure 7 bench: SpotVerse vs single-region vs on-demand.

Shape claims from Section 5.2.1:
* standard workload — SpotVerse cuts interruptions (paper -39 %),
  completion time (paper 33 h -> 14 h) and cost (paper $73.92 ->
  $41.46) versus single-region; on-demand is the most expensive but
  fastest; single-region spot stays under on-demand cost;
* checkpoint workload — SpotVerse cuts interruptions (~40 %) and does
  not materially regress cost; completion stays close;
* the interruption distribution (7c): single-region concentrates all
  interruptions in ca-central-1, SpotVerse spreads them over regions.
"""

from repro.experiments.workload_comparison import run_workload_comparison


def test_fig7_workload_comparison():
    result = run_workload_comparison(n_workloads=40, seed=7)
    print()
    print(result.render())

    single = result.arms["standard-single"].fleet
    spotverse = result.arms["standard-spotverse"].fleet
    on_demand = result.arms["standard-on-demand"].fleet

    # Everyone finishes.
    for arm in result.arms.values():
        assert arm.fleet.all_complete, f"{arm.name} left workloads unfinished"

    # Interruptions: SV well below single-region; OD has none.
    assert spotverse.total_interruptions < 0.75 * single.total_interruptions
    assert on_demand.total_interruptions == 0

    # Completion time: OD fastest, SV beats single-region.
    assert on_demand.makespan_hours < spotverse.makespan_hours
    assert spotverse.makespan_hours < 0.8 * single.makespan_hours

    # Cost ordering: SV < single-region < on-demand.
    assert spotverse.total_cost < 0.9 * single.total_cost
    assert single.total_cost < on_demand.total_cost

    # 7c: the single-region arm concentrates interruptions in
    # ca-central-1; SpotVerse spreads attempts across regions.
    assert set(single.interruptions_by_region()) == {"ca-central-1"}
    assert len(spotverse.regions_used()) >= 3

    # Checkpoint workload: interruption reduction holds; cost is within
    # a modest band (the paper's own effect is ~11 %).
    ckpt_single = result.arms["checkpoint-single"].fleet
    ckpt_spotverse = result.arms["checkpoint-spotverse"].fleet
    assert ckpt_spotverse.total_interruptions < 0.9 * ckpt_single.total_interruptions
    assert ckpt_spotverse.total_cost < 1.15 * ckpt_single.total_cost
    assert ckpt_spotverse.makespan_hours < 1.1 * ckpt_single.makespan_hours

    # Checkpoint workloads resume rather than restart: they finish far
    # sooner than the standard ones under the same market.
    assert ckpt_single.makespan_hours < 0.5 * single.makespan_hours

    # Cumulative interruption series are monotone and end at the totals.
    series = result.cumulative_interruptions("standard-spotverse")
    assert series[-1][1] == spotverse.total_interruptions
    assert all(b[1] == a[1] + 1 for a, b in zip(series, series[1:]))
