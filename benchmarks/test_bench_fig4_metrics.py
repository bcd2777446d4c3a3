"""Figure 4 bench: Interruption Frequency and Spot Placement Score.

Shape claims:
* 4a — the m5.2xlarge heatmap shows clear regional separation: the
  stable tier lives in the <5 % band, the cheap tier above it;
* 4b — six-month average Stability Scores sit between 1 and 3 and vary
  over time;
* 4c — c5/m5 placement scores vary across regions while p3's are
  consistent (the paper's explicit contrast).
"""

import numpy as np

from repro.experiments.metrics_analysis import FIGURE4_TYPES, run_metrics_analysis


def test_fig4_metrics():
    result = run_metrics_analysis(days=180, seed=0)
    print()
    print(result.render())

    bands = result.heatmap_band_counts()
    # Stable-tier regions live in the lightest band...
    for region in ("us-west-1", "ap-northeast-3", "eu-west-1"):
        assert bands[region]["<5%"] > 150, f"{region} should be mostly <5%"
    # ...while the cheap tier is mostly in the mid/dark bands.
    for region in ("us-east-1", "us-east-2", "us-west-2"):
        assert bands[region]["<5%"] < 20, f"{region} should rarely dip under 5%"
    # The darkest band (>20%) appears in the heatmap, as in the paper.
    assert bands["ap-southeast-2"][">20%"] > 90

    for itype in FIGURE4_TYPES:
        stability = result.stability_series[itype]
        assert len(stability) == 180
        assert all(1.0 <= value <= 3.0 for value in stability)
        placement = result.placement_series[itype]
        assert all(1.0 <= value <= 10.0 for value in placement)

    # The paper's 4c contrast: p3's placement score is consistent
    # across regions; c5/m5 fluctuate regionally.
    assert result.placement_spread["p3.2xlarge"] < 0.5
    assert result.placement_spread["c5.2xlarge"] > 1.0
    assert result.placement_spread["m5.2xlarge"] > 1.0

    # Scores drift over time (the trajectories are not flat lines).
    for itype in ("c5.2xlarge", "m5.2xlarge"):
        assert np.std(result.placement_series[itype]) > 0.005
