"""Summary statistics and regression verdicts shared by run.py and compare.py.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the default
"exclusive" method) so spreads read the same here as in any other tool
that summarises these result files.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

#: Reported and compared like the BENCHMARK.json end-to-end metrics but
#: kept out of that file, whose metrics must never read 0: the share of
#: attempted lifecycles that failed (plus failed checks).  Any increase
#: is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of *values* (a single value is its own quartiles)."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(v) for v in statistics.quantiles(values, n=4)]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's runs."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def iqr_frac(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    """Classify *new* against *base* for one metric.

    Returns ``"better"``, ``"worse"``, ``"within"`` (medians differ by at
    most *bound*, a share of the base median) or ``"unresolved"`` (either
    side's quartile spread is wider than the bound, so a difference of
    the bound's size cannot be told from noise).  A wide spread still
    reads ``"better"`` when every new run beats every base run.  With a
    zero base median, any move in the bad direction is ``"worse"``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    if max(iqr_frac(base), iqr_frac(new)) > bound:
        beats = all(sign * (n - b) < 0 for n in new for b in base)
        return "better" if beats else "unresolved"
    change = sign * (new_median - base_median)  # > 0 means worse
    if base_median == 0:
        if change > 0:
            return "worse"
        return "better" if change < 0 else "within"
    rel = change / abs(base_median)
    if rel > bound:
        return "worse"
    if rel < -bound:
        return "better"
    return "within"
