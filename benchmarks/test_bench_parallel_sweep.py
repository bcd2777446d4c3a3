"""Benchmark: serial vs process-pool execution of independent arms.

Runs the same four-arm sweep (four seeds of a small single-region
fleet) through ``run_arms`` serially and with ``jobs=4``, asserting the
pool returns fleet results **identical** to the serial path — arms are
share-nothing, so fan-out must not change a single number.

The speedup assertion is hardware-adaptive: machines with at least
four CPUs must deliver near-linear speedup, while low-core runners —
where ``run_arms_parallel`` caps pool workers at the core count and
degrades to serial execution — must come in close to 1.0x (paying
fork/pickle overhead to time-slice arms on one core used to measure
~0.35x "speedup" and fail this check).  Both classes verify
result equality.

Each leg is the **best of five** timed runs after one untimed warm-up
of each leg, as in the profiler bench: the arms are small, so a single
shot on a busy 2-core host is dominated by the first pool start-up and
scheduler noise.
"""

from __future__ import annotations

import os
import time

from repro.core.config import SpotVerseConfig
from repro.experiments.harness import (
    ArmSpec,
    indexed_workload_factory,
    run_arms,
)
from repro.strategies import STRATEGIES
from repro.workloads.genome_reconstruction import genome_reconstruction_workload

ARMS = 4
JOBS = 4

#: Minimum parallel speedup demanded when the hardware can deliver it
#: (4 workers on >= 4 cores; "near-linear" with scheduling slack).
MIN_SPEEDUP = 2.0

#: Minimum "speedup" on hosts with fewer cores than JOBS, where the
#: harness degrades to the serial path: the second (serial) measurement
#: must land near 1.0x, with slack for timer noise on shared runners.
MIN_FALLBACK_SPEEDUP = 0.65

TIMED_RUNS = 5


def _specs():
    config = SpotVerseConfig(instance_type="m5.xlarge", start_region="ca-central-1")
    return [
        ArmSpec(
            name=f"seed-{seed}",
            strategy=STRATEGIES["single-region"],
            config=config,
            workload_factory=indexed_workload_factory(
                genome_reconstruction_workload, "w-{:02d}", duration_hours=6.0
            ),
            n_workloads=8,
            seed=seed,
            max_hours=40.0,
        )
        for seed in range(ARMS)
    ]


def _best_of(n, jobs):
    """Run the sweep *n* times; return (best wall, last results)."""
    best = float("inf")
    results = None
    for _ in range(n):
        start = time.perf_counter()
        results = run_arms(_specs(), jobs=jobs)
        best = min(best, time.perf_counter() - start)
    return best, results


def test_parallel_arm_sweep():
    _best_of(1, jobs=1)  # warm-up
    _best_of(1, jobs=JOBS)  # warm-up
    serial_wall, serial = _best_of(TIMED_RUNS, jobs=1)
    parallel_wall, parallel = _best_of(TIMED_RUNS, jobs=JOBS)
    speedup = serial_wall / parallel_wall

    assert list(parallel) == list(serial)
    for name, serial_arm in serial.items():
        serial_fleet = serial_arm.fleet
        parallel_fleet = parallel[name].fleet
        assert parallel_fleet.total_cost == serial_fleet.total_cost, name
        assert parallel_fleet.total_interruptions == serial_fleet.total_interruptions, name
        assert parallel_fleet.makespan_hours == serial_fleet.makespan_hours, name

    if (os.cpu_count() or 1) >= JOBS:
        assert speedup >= MIN_SPEEDUP, (
            f"4-arm sweep on {os.cpu_count()} CPUs only "
            f"{speedup:.2f}x faster with {JOBS} workers "
            f"(required {MIN_SPEEDUP:g}x)"
        )
    else:
        assert speedup >= MIN_FALLBACK_SPEEDUP, (
            f"low-core serial fallback ran {speedup:.2f}x vs "
            f"serial on {os.cpu_count()} CPU(s) — the pool is being used where "
            f"it cannot pay off (required {MIN_FALLBACK_SPEEDUP:g}x)"
        )
