"""Sweep engine seeds through the chaos-recovery campaign and tally the failures.

    PYTHONPATH=src python benchmarks/chaos_kill_sweep.py [--per-kind 200]

Runs ``run_campaign("spotverse", chaos_campaign(), seed=s)`` for every
engine seed ``s`` in ``range(CHAOS_SEED_RANGE)`` (0-63) over
:func:`kill_fleet` (``--per-kind`` synthetic plus as many NGS checkpoint
workloads, 12 h and 12 segments each) under the benchmark's campaign:
``default_campaign()`` plus controller kills at 1.5 h + 2 h * k.

It prints one line per seed that raised or failed an invariant, then
the seeds that raised ``ThrottlingError`` (a state-store read exhausted
its in-place retries) and the seeds that failed ``single-completion``
or ``stream-valid``.  It exits 1 when any seed raised or failed one of
those two invariants.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402

from repro.chaos.runner import run_campaign  # noqa: E402
from repro.errors import ThrottlingError  # noqa: E402
from repro.workloads.base import synthetic_workload  # noqa: E402
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload  # noqa: E402

#: Invariants a kill must never break.
GATED = ("single-completion", "stream-valid")


def kill_fleet(per_kind: int) -> list:
    """The chaos-recovery fleet: *per_kind* synthetic and NGS checkpoint workloads."""
    fleet = [
        synthetic_workload(f"std-{i:03d}", duration_hours=12.0, n_segments=12)
        for i in range(per_kind)
    ]
    fleet += [
        ngs_preprocessing_workload(f"ckpt-{i:03d}", duration_hours=12.0, n_segments=12)
        for i in range(per_kind)
    ]
    return fleet


def run_seed(seed: int, per_kind: int) -> Tuple[int, str, List[str]]:
    """``(seed, error, failed invariant names)``.

    *error* is ``""`` when the run finished, ``"ThrottlingError"`` when
    a store read stayed throttled, and the traceback of any other
    exception.
    """
    try:
        outcome = run_campaign(
            "spotverse", workloads.chaos_campaign(), seed=seed, workloads=kill_fleet(per_kind)
        )
    except ThrottlingError:
        return seed, "ThrottlingError", []
    except Exception:  # noqa: BLE001 - reported and fails the sweep
        return seed, traceback.format_exc(), []
    failed = [inv["name"] for inv in outcome.scorecard["invariants"] if not inv["passed"]]
    return seed, "", failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--per-kind", type=int, default=workloads.CHAOS_WORKLOADS_PER_KIND)
    args = parser.parse_args(argv)
    seeds = range(workloads.CHAOS_SEED_RANGE)
    results = [run_seed(seed, args.per_kind) for seed in seeds]
    throttled, gated, other = [], [], []
    for seed, error, failed in results:
        if error == "ThrottlingError":
            print(f"seed {seed}: ThrottlingError")
            throttled.append(seed)
        elif error:
            print(f"seed {seed}:\n{error}")
            other.append(seed)
        elif failed:
            print(f"seed {seed}: failed {', '.join(failed)}")
            if any(name in GATED for name in failed):
                gated.append(seed)
    print(f"{args.per_kind} per kind, seeds 0-{seeds[-1]}:")
    print(f"  ThrottlingError seeds ({len(throttled)}): {throttled}")
    print(f"  {' / '.join(GATED)} failures ({len(gated)}): {gated}")
    if other:
        print(f"  other exceptions ({len(other)}): {other}")
    return 1 if throttled or gated or other else 0


if __name__ == "__main__":
    sys.exit(main())
