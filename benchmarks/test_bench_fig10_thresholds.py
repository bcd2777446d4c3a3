"""Figure 10 + Tables 2-3 bench: threshold-based allocation.

Shape claims from Section 5.2.4:
* Table 3 — the region set Algorithm 1 selects per threshold matches
  the paper exactly on the threshold-study collection date;
* thresholds 5 and 6 save versus on-demand at every duration (paper:
  up to 65 %);
* threshold 4 (price-only) crosses above on-demand at 20 h (paper: up
  to +36 %), the paper's headline warning against chasing price;
* savings shrink as duration grows for every threshold.
"""

from repro.experiments.thresholds import DURATIONS_HOURS, THRESHOLDS, run_threshold_study


def test_fig10_threshold_study():
    result = run_threshold_study(n_workloads=40, seed=3)
    print()
    print(result.render())

    assert result.table3_matches(), (
        f"selected {result.selected_regions} != paper Table 3"
    )

    grid = result.normalized_cost

    # Thresholds 5 and 6 save at every duration.
    for threshold in (5, 6):
        for duration in DURATIONS_HOURS:
            assert grid[(threshold, duration)] < 1.0, (threshold, duration)

    # Threshold 4 saves at short durations but loses to on-demand at
    # 20 h — the paper's crossover.
    assert grid[(4, 5)] < 1.0
    assert grid[(4, 20)] > 1.0

    # Savings shrink with duration for every threshold.
    for threshold in THRESHOLDS:
        costs = [grid[(threshold, duration)] for duration in DURATIONS_HOURS]
        assert costs[0] < costs[-1], f"threshold {threshold}: no duration penalty"

    # Best savings are substantial (paper: up to 65 %).
    best = min(grid.values())
    assert best < 0.55, f"best normalized cost {best:.2f} should be a deep saving"
