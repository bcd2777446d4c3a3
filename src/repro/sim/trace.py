"""Labeled, filterable engine instrumentation with a wall-clock profiler.

Replaces the old informal ``trace_log`` list of ``(time, label)``
tuples: with a tracer attached (``SimulationEngine(tracer=...)`` or
``engine.tracer = ...``), the engine hands every fired callback to an
:class:`EngineTracer`, which records the virtual timestamp, the event
label, and the *wall-clock* seconds the callback took.  The records are
filterable (``tracer.filter(prefix="ec2:")``); the profile of where
simulation wall time goes is
:class:`~repro.obs.profiler.HotPathProfile`, built from them.

Wall timings never feed back into the simulation, so determinism of
virtual time is untouched.

This module lives in ``sim`` (which imports nothing from the rest of
the library) and is re-exported from ``repro.obs.spans`` next to the
workload span tooling.
"""

from __future__ import annotations

import time as _time
from typing import List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One fired engine callback."""

    time: float  # virtual timestamp
    label: str  # scheduling label ("" when unlabeled)
    wall: float  # wall-clock seconds spent in the callback
    scheduled: int = 0  # events the callback pushed onto the heap


class RunWindow(NamedTuple):
    """One ``run_until`` / ``run_until_idle`` invocation."""

    wall: float  # wall-clock seconds the loop ran
    fired: int  # callbacks executed inside the loop


def default_group(label: str) -> str:
    """Collapse per-entity labels into families.

    ``"ec2:fulfill:sir-000007"`` profiles as ``"ec2:fulfill"``;
    ``"exec:wl-003:seg2"`` as ``"exec"`` (the middle component is a
    workload id); single-component labels pass through.
    """
    if not label:
        return "<unlabeled>"
    parts = label.split(":")
    if len(parts) == 1:
        return parts[0]
    if parts[0] == "exec":
        return parts[0]
    return ":".join(parts[:2])


class EngineTracer:
    """Trace sink for :class:`~repro.sim.engine.SimulationEngine`."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self.runs: List[RunWindow] = []
        self._wall_first: Optional[float] = None
        self._wall_last: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording (called by the engine's hot loop)
    # ------------------------------------------------------------------
    def record(self, time: float, label: str, wall: float, scheduled: int = 0) -> None:
        """Append one fired callback."""
        now = _time.perf_counter()
        if self._wall_first is None:
            self._wall_first = now - wall
        self._wall_last = now
        self.records.append(TraceRecord(time, label, wall, scheduled))

    def note_run(self, wall: float, fired: int) -> None:
        """Record one engine run window (a ``run_until*`` invocation)."""
        self.runs.append(RunWindow(wall, fired))

    # ------------------------------------------------------------------
    # Filterable trace
    # ------------------------------------------------------------------
    def filter(
        self,
        prefix: str = "",
        contains: str = "",
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records whose label matches and whose time is in [start, end]."""
        return [
            record
            for record in self.records
            if record.label.startswith(prefix)
            and contains in record.label
            and record.time >= start
            and (end is None or record.time <= end)
        ]

    def labels(self) -> List[str]:
        """Distinct raw labels seen, sorted."""
        return sorted({record.label for record in self.records})

    def as_tuples(self) -> List[tuple]:
        """The legacy ``(time, label)`` view of the trace."""
        return [(record.time, record.label) for record in self.records]

    @property
    def wall_elapsed(self) -> float:
        """Wall seconds from the first recorded callback to the last."""
        if self._wall_first is None or self._wall_last is None:
            return 0.0
        return self._wall_last - self._wall_first

    def clear(self) -> None:
        """Drop all records and reset the wall window."""
        self.records.clear()
        self.runs.clear()
        self._wall_first = None
        self._wall_last = None
