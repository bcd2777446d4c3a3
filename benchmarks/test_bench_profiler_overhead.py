"""Profiler-overhead bench: instrumented vs. plain fig3 scenario.

Runs the motivation experiment with the same seed with no engine
tracer (the production fast path) and with a
:class:`~repro.obs.profiler.HotPathProfiler` attached to every engine
the experiment builds.  The ratio of the two wall times must stay
under :data:`MAX_OVERHEAD_X`.

Each leg is the **best of two** timed runs after a shared untimed
warm-up — a single-shot ratio on a busy 1-core runner can swing 2x
from scheduler noise and allocator state left by earlier benchmarks,
which is exactly the false-positive this bound must not produce.

The two modes must also produce identical experiment deltas —
profiling is read-only and must never perturb virtual time, RNG
streams, or event order.
"""

from __future__ import annotations

import time

from repro.experiments.motivation import run_motivation_experiment
from repro.obs.profiler import attach_profiler
from repro.sim.engine import SimulationEngine

N_WORKLOADS = 42
SEED = 7
TIMED_RUNS = 2

#: Hard ceiling on instrumented/plain wall ratio.  Per-event tracing
#: costs two ``perf_counter`` calls and one record append; anything
#: past this means the instrumentation grew a hot-path regression.
MAX_OVERHEAD_X = 1.5


def _best_of(n):
    """Run the experiment *n* times; return (best wall, last result)."""
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = run_motivation_experiment(n_workloads=N_WORKLOADS, seed=SEED)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_profiler_overhead(monkeypatch):
    run_motivation_experiment(n_workloads=N_WORKLOADS, seed=SEED)  # warm-up
    plain_wall, plain = _best_of(TIMED_RUNS)

    plain_init = SimulationEngine.__init__

    def profiled_init(self, *args, **kwargs):
        plain_init(self, *args, **kwargs)
        attach_profiler(self)

    monkeypatch.setattr(SimulationEngine, "__init__", profiled_init)
    instrumented_wall, instrumented = _best_of(TIMED_RUNS)
    overhead = instrumented_wall / plain_wall

    assert instrumented.deltas == plain.deltas, (
        "tracing perturbed the experiment: instrumented and plain runs of "
        "the same seed disagree"
    )
    assert overhead <= MAX_OVERHEAD_X, (
        f"engine tracing costs {overhead:.2f}x the plain "
        f"run (allowed {MAX_OVERHEAD_X:g}x)"
    )
