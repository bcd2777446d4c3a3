"""Run one workload once in this process and print its measurements.

    python benchmarks/e2e/child.py WORKLOAD SEED TRACE WORKDIR

``run.py`` starts one child per measured run, so every run gets a fresh
interpreter and its own peak RSS.  TRACE=1 installs the span timers of
:mod:`instrument` and adds the per-layer ledger to the output.  WORKDIR
holds files the workload writes (the chaos live stream and flight
recorder) and is deleted on exit.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def measure(name: str, seed: int, trace: bool, workdir: str, scale: float = 1.0) -> Dict[str, Any]:
    """Run workload *name* once and return its measurements."""
    import workloads
    from instrument import Probe, Tracer

    probe = Tracer() if trace else Probe()
    out = workloads.Outcome()
    error = ""
    with probe:
        started = perf_counter()
        try:
            workloads.WORKLOADS[name](out, seed, scale, workdir)
        except Exception:  # noqa: BLE001 - a crashed run is counted, not fatal
            error = traceback.format_exc()
        wall = perf_counter() - started
    out.checks["no_exception"] = not error
    setup_s = probe.provider_s + out.input_s
    harness_s = probe.harness_s() if trace else 0.0
    run_s = wall - setup_s - out.checks_s - harness_s
    failed_checks = sum(1 for passed in out.checks.values() if not passed)
    failed = (out.lifecycles - out.completed) + out.violations + failed_checks
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "lifecycles": out.lifecycles,
        "completed": out.completed,
        "violations": out.violations,
        "checks": out.checks,
        "failed": failed,
        "error": error,
        "digest": out.digest,
        "wall_s": wall,
        "checks_s": out.checks_s,
        "harness_s": harness_s,
        "sim_hours": probe.sim_hours,
        "metrics": {
            "setup_s": setup_s,
            "run_s": run_s,
            "lifecycles_per_s": out.completed / run_s,
            "sim_hours_per_s": probe.sim_hours / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_frac": failed / max(1, out.lifecycles),
            "sim_cost_usd": out.sim_cost_usd,
            "sim_makespan_h": out.sim_makespan_h,
        },
    }
    if trace:
        result["ledger"] = probe.ledger(run_s, out.lifecycles)
    return result


def main(argv) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, trace, workdir = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        result = measure(name, seed, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
