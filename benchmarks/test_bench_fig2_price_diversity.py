"""Figure 2 bench: spot price diversity across types and regions.

Shape claims checked against the paper's Figure 2:
* every instance type trades in many (region, AZ) markets;
* cross-market mean prices spread by a substantial factor (the figure
  shows multi-x gaps between the cheapest and dearest markets);
* prices fluctuate within each market (non-trivial coefficient of
  variation) — the volatility the multi-region strategy exploits.
"""

from repro.experiments.price_diversity import FIGURE2_TYPES, run_price_diversity


def test_fig2_price_diversity():
    result = run_price_diversity(days=30, seed=0)
    print()
    print(result.render())

    for itype in FIGURE2_TYPES:
        stats = result.stats[itype]
        expected_markets = 24 if itype == "p3.2xlarge" else 36
        assert stats["markets"] == expected_markets
        assert stats["spread_ratio"] > 1.5, f"{itype}: too little regional spread"
        assert 0.01 < stats["mean_cv"] < 0.5, f"{itype}: implausible fluctuation"

    # p3 is excluded from four regions (the paper's availability note).
    p3_regions = {trace.region for trace in result.traces_for("p3.2xlarge")}
    assert "ca-central-1" not in p3_regions

    # Traces are hourly over the window, per AZ.
    trace = result.traces_for("m5.2xlarge")[0]
    assert len(trace.prices) == 30 * 24
