"""Engine hot-path profiler: wall time, event counts, and heap churn.

The :class:`~repro.sim.engine.SimulationEngine` already records a
:class:`~repro.sim.trace.TraceRecord` per fired callback when a tracer
is attached — virtual timestamp, scheduling label, wall-clock seconds,
and the number of events the callback pushed onto the heap.  This
module turns that raw trace into an attributed profile:

* per label *group* (``"ec2:fulfill:sir-000007"`` profiles as
  ``"ec2:fulfill"``), and
* per owning *subsystem* — capacity, interruption, lifecycle, monitor,
  market, chaos — so the report answers "where does the per-event
  control-plane cost go?" directly.

:class:`HotPathProfiler` is a drop-in :class:`EngineTracer` for live
attachment (``engine.tracer = HotPathProfiler()``); the aggregation
itself lives in :class:`HotPathProfile`, which also round-trips through
a JSON payload so benchmarks can commit profile artifacts
(``PROFILE_<name>.json``) and ``spotverse obs profile --from-profile``
can render them later.

Profiling is strictly read-only: wall timings and push counts never
feed back into virtual time, RNG streams, or event order, and with no
tracer attached the engine's fast path is untouched — runs are
bit-identical to un-instrumented builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.sim.trace import EngineTracer, TraceRecord, default_group

#: The owning subsystems a label can be attributed to, in report order.
SUBSYSTEMS = (
    "capacity",
    "interruption",
    "lifecycle",
    "monitor",
    "market",
    "chaos",
    "other",
)

#: CloudWatch rules are shared infrastructure; attribute each rule to
#: the subsystem that registered it.
_CLOUDWATCH_RULES = {
    "spotverse-open-request-sweep": "capacity",
    "spotverse-collect-metrics": "monitor",
}

_HEAD_SUBSYSTEM = {
    "markets": "market",
    "market": "market",
    "chaos": "chaos",
    "capacity": "capacity",
    "spot": "capacity",
    "eventbridge": "interruption",
    "sfn": "interruption",
    "lambda": "interruption",
    "exec": "lifecycle",
    "galaxy": "lifecycle",
    "checkpoint": "lifecycle",
    "efs": "lifecycle",
    "s3": "lifecycle",
    "monitor": "monitor",
}


def subsystem_for(label: str) -> str:
    """Map a raw engine label to its owning subsystem."""
    if not label:
        return "other"
    head, _, rest = label.partition(":")
    mapped = _HEAD_SUBSYSTEM.get(head)
    if mapped is not None:
        return mapped
    if head == "ec2":
        # Fulfillment serves capacity acquisition; the hazard sweep and
        # reclaim timers belong to the interruption path.
        if rest.startswith("fulfill"):
            return "capacity"
        return "interruption"
    if head == "cloudwatch":
        rule = rest.partition(":")[0]
        return _CLOUDWATCH_RULES.get(rule, "monitor")
    return "other"


@dataclass
class ProfileEntry:
    """Aggregate profile for one label group."""

    group: str
    subsystem: str
    count: int = 0
    wall_total: float = 0.0
    scheduled_total: int = 0

    @property
    def wall_mean(self) -> float:
        """Mean wall seconds per callback (0.0 when empty)."""
        return self.wall_total / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "group": self.group,
            "subsystem": self.subsystem,
            "count": self.count,
            "wall_total": round(self.wall_total, 6),
            "scheduled_total": self.scheduled_total,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ProfileEntry":
        return cls(
            group=payload["group"],
            subsystem=payload.get("subsystem", "other"),
            count=int(payload.get("count", 0)),
            wall_total=float(payload.get("wall_total", 0.0)),
            scheduled_total=int(payload.get("scheduled_total", 0)),
        )


class HotPathProfile:
    """An attributed engine profile (label groups x subsystems).

    Build one from a live tracer (:meth:`from_tracer`), a pile of raw
    records (:meth:`from_records`), or a committed benchmark artifact
    (:meth:`from_payload`).  Profiles from several engines merge
    additively (:meth:`merge`), which is how multi-arm benchmarks
    produce a single fleet-wide artifact.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, ProfileEntry] = {}
        self.fired_events = 0
        self.wall_elapsed = 0.0
        self.engines = 0
        self.runs = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_record(self, record: TraceRecord) -> None:
        """Fold one raw trace record into the profile."""
        group = default_group(record.label)
        entry = self._entries.get(group)
        if entry is None:
            entry = self._entries[group] = ProfileEntry(
                group=group, subsystem=subsystem_for(record.label)
            )
        entry.count += 1
        entry.wall_total += record.wall
        entry.scheduled_total += record.scheduled
        self.fired_events += 1

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "HotPathProfile":
        profile = cls()
        for record in records:
            profile.add_record(record)
        return profile

    @classmethod
    def from_tracer(cls, tracer: EngineTracer) -> "HotPathProfile":
        profile = cls.from_records(tracer.records)
        profile.wall_elapsed = tracer.wall_elapsed
        profile.engines = 1
        profile.runs = len(tracer.runs)
        return profile

    @classmethod
    def from_tracers(cls, tracers: Iterable[Optional[EngineTracer]]) -> "HotPathProfile":
        """Merge the profiles of several engines (``None`` entries skipped)."""
        return cls().merge(
            cls.from_tracer(tracer) for tracer in tracers if tracer is not None
        )

    def merge(self, others: Iterable["HotPathProfile"]) -> "HotPathProfile":
        """Fold *others* into this profile (returns self for chaining)."""
        for other in others:
            for entry in other._entries.values():
                mine = self._entries.get(entry.group)
                if mine is None:
                    mine = self._entries[entry.group] = ProfileEntry(
                        group=entry.group, subsystem=entry.subsystem
                    )
                mine.count += entry.count
                mine.wall_total += entry.wall_total
                mine.scheduled_total += entry.scheduled_total
            self.fired_events += other.fired_events
            self.wall_elapsed += other.wall_elapsed
            self.engines += other.engines
            self.runs += other.runs
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def entries(self) -> List[ProfileEntry]:
        """All label groups, hottest (by wall time) first."""
        return sorted(
            self._entries.values(),
            key=lambda entry: (-entry.wall_total, entry.group),
        )

    def top(self, n: int = 5) -> List[ProfileEntry]:
        """The *n* hottest label groups."""
        return self.entries()[:n]

    def by_subsystem(self) -> Dict[str, ProfileEntry]:
        """Wall/count/churn rolled up per owning subsystem."""
        rollup: Dict[str, ProfileEntry] = {}
        for entry in self._entries.values():
            agg = rollup.get(entry.subsystem)
            if agg is None:
                agg = rollup[entry.subsystem] = ProfileEntry(
                    group=entry.subsystem, subsystem=entry.subsystem
                )
            agg.count += entry.count
            agg.wall_total += entry.wall_total
            agg.scheduled_total += entry.scheduled_total
        return rollup

    @property
    def wall_total(self) -> float:
        """Wall seconds spent inside callbacks (excludes loop overhead)."""
        return sum(entry.wall_total for entry in self._entries.values())

    def events_per_second(self) -> float:
        """Fired callbacks per wall second over the profiled window."""
        if self.wall_elapsed <= 0.0:
            return 0.0
        return self.fired_events / self.wall_elapsed

    # ------------------------------------------------------------------
    # Rendering + artifact round-trip
    # ------------------------------------------------------------------
    def report(self, top: int = 10) -> str:
        """Human-readable hot-path report: subsystems, then hottest groups."""
        lines = [
            f"fired events      : {self.fired_events}",
            f"engines profiled  : {self.engines}",
            f"events/sec (wall) : {self.events_per_second():,.0f}",
        ]
        wall_total = self.wall_total
        rollup = sorted(
            self.by_subsystem().values(),
            key=lambda entry: (-entry.wall_total, entry.group),
        )
        if rollup:
            lines.append("")
            lines.append(
                f"{'subsystem':<14s} {'events':>9s} {'wall ms':>10s} {'share':>6s} {'sched':>9s}"
            )
            for entry in rollup:
                share = entry.wall_total / wall_total if wall_total > 0 else 0.0
                lines.append(
                    f"{entry.group:<14s} {entry.count:>9d} "
                    f"{entry.wall_total * 1e3:>10.2f} {share:>5.0%} "
                    f"{entry.scheduled_total:>9d}"
                )
        hottest = self.top(top)
        if hottest:
            lines.append("")
            lines.append(
                f"{'hot label group':<26s} {'subsystem':<13s} {'count':>8s} "
                f"{'wall ms':>10s} {'mean us':>8s} {'sched':>8s}"
            )
            for entry in hottest:
                lines.append(
                    f"{entry.group:<26s} {entry.subsystem:<13s} {entry.count:>8d} "
                    f"{entry.wall_total * 1e3:>10.2f} {entry.wall_mean * 1e6:>8.1f} "
                    f"{entry.scheduled_total:>8d}"
                )
        return "\n".join(lines)

    def to_payload(self) -> Dict:
        """JSON-serialisable artifact (``PROFILE_<name>.json`` shape)."""
        return {
            "fired_events": self.fired_events,
            "engines": self.engines,
            "runs": self.runs,
            "wall_elapsed": round(self.wall_elapsed, 4),
            "events_per_second": round(self.events_per_second(), 1),
            "entries": [entry.to_dict() for entry in self.entries()],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "HotPathProfile":
        profile = cls()
        for raw in payload.get("entries", []):
            entry = ProfileEntry.from_dict(raw)
            profile._entries[entry.group] = entry
        profile.fired_events = int(payload.get("fired_events", 0))
        profile.engines = int(payload.get("engines", 0))
        profile.runs = int(payload.get("runs", 0))
        profile.wall_elapsed = float(payload.get("wall_elapsed", 0.0))
        return profile


class HotPathProfiler(EngineTracer):
    """A live engine tracer whose records feed a :class:`HotPathProfile`.

    Install with ``engine.tracer = HotPathProfiler()`` (or
    :func:`attach_profiler`); call :meth:`profile` after the run.
    """

    def profile(self) -> HotPathProfile:
        """Aggregate everything recorded so far."""
        return HotPathProfile.from_tracer(self)


def attach_profiler(engine) -> HotPathProfiler:
    """Attach a fresh :class:`HotPathProfiler` to *engine* and return it."""
    profiler = HotPathProfiler()
    engine.tracer = profiler
    return profiler
