"""Figure 8 + Table 1 bench: instance types, sizes, baseline regions.

Shape claims from Section 5.2.2:
* Table 1 — the cheapest spot region per type emerges from the price
  book exactly as the paper lists it;
* r5.2xlarge (baseline ca-central-1, the paper's worst case, stability
  1) shows the most dramatic interruption reduction under SpotVerse
  (paper: 215 -> 92) with far shorter completion;
* m5.large (baseline us-west-2, stability 1) shows a strong reduction
  too (paper: 137 -> 40);
* types whose cheapest region is already stable (m5.2xlarge in
  ap-northeast-3, c5.2xlarge in eu-north-1) see little change — and
  c5.2xlarge's savings come against on-demand (paper: 52 %).
"""

from repro.experiments.instance_study import run_instance_study


def test_fig8_instance_study():
    result = run_instance_study(n_workloads=40, seed=7)
    print()
    print(result.render())

    assert result.table1_matches(), (
        f"computed baselines {result.computed_baselines} != paper Table 1"
    )

    def fleet(name):
        return result.arms[name].fleet

    # Flaky-baseline types: big interruption reductions.
    for itype in ("m5.large", "m5.xlarge", "r5.2xlarge"):
        single = fleet(f"{itype}-single")
        spotverse = fleet(f"{itype}-spotverse")
        assert spotverse.total_interruptions < 0.6 * single.total_interruptions, itype
        assert spotverse.makespan_hours < single.makespan_hours, itype

    # r5.2xlarge is the most dramatic case (paper Section 5.2.2).
    r5_single = fleet("r5.2xlarge-single")
    r5_spotverse = fleet("r5.2xlarge-spotverse")
    assert r5_spotverse.total_interruptions < 0.35 * r5_single.total_interruptions
    assert r5_spotverse.total_cost < 0.65 * r5_single.total_cost
    assert r5_spotverse.all_complete

    # Stable-baseline types change little: interruption counts stay low
    # for both strategies.
    for itype in ("m5.2xlarge", "c5.2xlarge"):
        assert fleet(f"{itype}-single").total_interruptions <= 15, itype
        assert fleet(f"{itype}-spotverse").total_interruptions <= 15, itype

    # c5.2xlarge: large savings against on-demand (paper: 52 %).
    c5 = fleet("c5.2xlarge-spotverse")
    od_price = result.arms["c5.2xlarge-spotverse"].provider.price_book.cheapest_od_region(
        "c5.2xlarge"
    )[1]
    od_cost = od_price * 10.5 * 40
    assert c5.total_cost < 0.6 * od_cost
