"""Streaming-export overhead bench: live plane on vs. off for fig3.

Runs the motivation experiment twice with the same seed: once plain
(no live observability) and once with the full live plane attached —
segmented JSONL export, windowed aggregation, SLO scoring, flight
recorder, and bus trimming.  The wall-time ratio must stay under
:data:`MAX_OVERHEAD_X`, so a hot-path regression in the exporter fails
the bench.

Each leg is the **best of two** timed runs after a shared untimed
warm-up, for the same reason as the profiler bench: a single-shot
ratio on a busy 1-core runner swings enough to false-positive.

Both legs run serial (``jobs=1``) so each arm's
:class:`~repro.obs.live.LivePlane` survives into the result, letting
the bench assert the memory contract directly: with ``trim_bus`` on,
the bus never holds more than one trim interval of events, so
telemetry memory is O(window), not O(run).  The two modes must also
produce identical experiment deltas — streaming observation is
read-only and must never perturb virtual time, RNG streams, or event
order.
"""

from __future__ import annotations

import time

from repro.experiments.motivation import run_motivation_experiment

N_WORKLOADS = 42
SEED = 7
TIMED_RUNS = 2

#: Hard ceiling on streaming/plain wall ratio.  Per-event cost is one
#: JSON serialisation plus a few dict updates; anything past this
#: means the live plane grew a hot-path regression.  The ceiling is a
#: *ratio*, so it moved when the ISSUE-8 engine rework shrank the
#: denominator ~2.4x: the exporter's absolute per-run cost is
#: unchanged (~0.3s here), but it is now a larger share of a much
#: faster plain run (~1.8x measured).  Serialising the exporter's
#: payloads lazily is the obvious next win if this band gets tight.
MAX_OVERHEAD_X = 2.5


def _best_of(n, **kwargs):
    """Run the experiment *n* times; return (best wall, last result)."""
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = run_motivation_experiment(
            n_workloads=N_WORKLOADS, seed=SEED, jobs=1, **kwargs
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def test_streaming_overhead(tmp_path):
    run_motivation_experiment(n_workloads=N_WORKLOADS, seed=SEED, jobs=1)  # warm-up
    plain_wall, plain = _best_of(TIMED_RUNS)
    streaming_wall, streaming = _best_of(
        TIMED_RUNS,
        live_dir=str(tmp_path / "stream"),
        flight_dir=str(tmp_path / "blackbox"),
        trim_bus=True,
    )
    overhead = streaming_wall / plain_wall

    assert streaming.deltas == plain.deltas, (
        "live export perturbed the experiment: streaming and plain runs "
        "of the same seed disagree"
    )

    # The memory contract: with trimming on, the bus never held more
    # than one trim interval of events at a time, for every arm.  Short
    # arms (fewer events than one interval) legitimately never trim, so
    # trimming itself is asserted in aggregate.
    for name, arm in streaming.arms.items():
        plane = arm.live_plane
        assert plane is not None, f"arm {name} ran without its live plane"
        assert plane.peak_bus_events <= plane.trim_every, (
            f"arm {name} bus peaked at {plane.peak_bus_events} events "
            f"(trim interval {plane.trim_every})"
        )
    assert any(arm.live_plane.trims > 0 for arm in streaming.arms.values()), (
        "no arm ever trimmed its bus — the memory bound was never exercised"
    )

    assert overhead <= MAX_OVERHEAD_X, (
        f"live export costs {overhead:.2f}x the plain "
        f"run (allowed {MAX_OVERHEAD_X:g}x)"
    )
