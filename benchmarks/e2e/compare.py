"""Compare two result sets written by ``run.py --out``.

    python benchmarks/e2e/compare.py BASE.json NEW.json

A result set holds one or more measurements per workload
(``run.py --rounds K``), each the median over its runs.  For every
(end-to-end metric, workload) pair present in both files this prints
the median and quartiles of each side's measurements, the change of the
medians and a verdict: ``within`` the metric's bound from
BENCHMARK.json, ``worse``, ``better``, or ``unresolved`` when either
side's quartile spread is wider than the bound.  With fewer than
``MIN_MEASUREMENTS`` measurements a side has no spread to judge, so its
verdicts are ``unresolved`` unless both sides read identically.  It
also says whether the simulated outcomes of shared inputs are
bit-identical.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from stats import FAILED_FRAC, summarize, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIN_MEASUREMENTS = 3


def metric_values(measurements: List[Dict[str, Any]], name: str) -> List[float]:
    """One value per measurement: its median (failed_frac: its aggregate)."""
    if name == FAILED_FRAC["name"]:
        return [m["failed"] / max(1, m["attempted"]) for m in measurements]
    return [m["summary"][name]["median"] for m in measurements]


def judge(base: List[float], new: List[float], better: str, bound: float) -> str:
    """:func:`stats.verdict`, or ``unresolved`` while a side is too small."""
    if len(set(base) | set(new)) == 1:
        return "within"
    if min(len(base), len(new)) < MIN_MEASUREMENTS:
        return "unresolved"
    return verdict(base, new, better, bound)


def compare(base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both result sets."""
    rows = []
    metrics = list(spec["end_to_end"]) + [FAILED_FRAC]
    for workload, base_measurements in base["workloads"].items():
        new_measurements = new["workloads"].get(workload)
        if not new_measurements:
            continue
        for metric in metrics:
            a = metric_values(base_measurements, metric["name"])
            b = metric_values(new_measurements, metric["name"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "base": summarize(a),
                    "new": summarize(b),
                    "verdict": judge(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def outcome_identity(base: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, str]:
    """Per workload: ``identical``, ``differs`` or ``no shared inputs``.

    Runs are matched by input seed; outcomes are identical when every
    shared seed has the same digest on both sides.
    """

    def digests(measurements: List[Dict[str, Any]]) -> Dict[int, str]:
        return {run["seed"]: run["digest"] for m in measurements for run in m["runs"]}

    identity = {}
    for workload, base_measurements in base["workloads"].items():
        if workload not in new["workloads"]:
            continue
        a = digests(base_measurements)
        b = digests(new["workloads"][workload])
        shared = sorted(set(a) & set(b))
        if not shared:
            identity[workload] = "no shared inputs"
        elif all(a[seed] == b[seed] for seed in shared):
            identity[workload] = f"identical ({len(shared)} inputs)"
        else:
            identity[workload] = "differs"
    return identity


def render(rows: List[Dict[str, Any]], identity: Dict[str, str]) -> str:
    lines = [
        f"{'workload':<15s} {'metric':<17s} {'unit':<8s} {'base median [q1, q3] n':>38s} "
        f"{'new median [q1, q3] n':>38s} {'change':>8s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        base, new = row["base"], row["new"]
        if base["median"]:
            change = f"{100 * (new['median'] - base['median']) / abs(base['median']):+.1f}%"
        else:
            change = "+0" if new["median"] == base["median"] else "n/a"
        lines.append(
            f"{row['workload']:<15s} {row['metric']:<17s} {row['unit']:<8s} "
            f"{base['median']:>12.6g} [{base['q1']:>9.5g}, {base['q3']:>9.5g}] {base['n']:>2d} "
            f"{new['median']:>12.6g} [{new['q1']:>9.5g}, {new['q3']:>9.5g}] {new['n']:>2d} "
            f"{change:>8s} {row['bound']:>6g}  {row['verdict']}"
        )
    for workload, state in identity.items():
        lines.append(f"simulated outcome of {workload}: {state}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, spec)
    print(render(rows, outcome_identity(base, new)))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
