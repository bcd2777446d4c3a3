"""The live observability plane: streaming export + in-flight rollups.

Everything in :mod:`repro.obs` up to here is post-hoc: telemetry is
buffered in memory for the whole run and rendered or exported at the
end.  This module is the streaming half the ROADMAP's long-running
service mode needs — bounded-memory views that are correct *while the
simulation is still running*:

* :class:`SegmentWriter` — rotating, size-capped JSONL segment files
  plus a ``manifest.json`` rewritten atomically on every rotation, so
  a tailer (``spotverse obs watch``) always sees a consistent list of
  sealed segments and one growing tail.
* :class:`LiveExporter` — a reducer that streams each event through
  :func:`~repro.obs.export.stream_lines` and appends the metrics
  snapshot + time-series points on close, making the concatenated
  segments byte-identical to a post-hoc
  :func:`~repro.obs.export.write_jsonl` of the same bundle.
* :class:`FleetRollup` — the SpotInstanceManager-style live fleet
  report (workloads by status, live instances by market and purchasing
  option) plus every run total the reports print, folded
  incrementally from the event stream.
* :class:`WindowAggregator` — tumbling sim-time windows of event/
  interruption/reacquire/fault rates feeding the dashboard's rate
  table, with a bounded window history.
* :class:`FleetView` — the one fold every fleet view shares: the
  rollup, the windows, the latency watcher, and the
  :class:`~repro.obs.slo.SLOBudget` error budget.  ``obs watch``
  (:class:`~repro.obs.watch.WatchState`) and the run report fold a
  saved stream through it; the live plane folds the bus through it.
* :class:`LivePlane` — the one bus subscriber of an observed run: a
  :class:`FleetView` that also feeds the flight recorder, the exporter
  and the invariant monitor, and optionally bounds telemetry memory:
  with ``trim_bus=True`` it clears the bus after every export flush,
  so a perpetual run's memory is bounded by the segment/window caps
  instead of the run length.

Everything here is opt-in, read-only, and emits nothing back onto the
bus, so enabling the plane cannot change a run's decisions, costs, or
event stream (the streaming-overhead benchmark enforces both the
read-only property and the wall-clock cost).
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EventBus, EventType, TelemetryEvent
from repro.obs.export import ANOMALY_CORRELATION_WINDOW, stream_lines
from repro.obs.slo import LatencyWatcher, SLOBudget, SLOResult, SLOSpec, default_slo_spec
from repro.sim.clock import HOUR

#: Manifest schema tag; bump on incompatible layout changes.
STREAM_FORMAT = "spotverse-stream/1"

#: Default cap on one segment file before rotation.
DEFAULT_SEGMENT_BYTES = 1_000_000

#: Buffered lines before a write hits the active segment file.
DEFAULT_FLUSH_LINES = 64

#: Bus length at which a trimming plane clears the bus.
DEFAULT_TRIM_EVERY = 512


# ----------------------------------------------------------------------
# Segmented JSONL writing
# ----------------------------------------------------------------------
class SegmentWriter:
    """Rotating, size-capped JSONL segments with an atomic manifest.

    Lines are buffered and flushed in batches (``flush_lines``); when
    the active segment crosses ``max_segment_bytes`` it is sealed,
    recorded in ``manifest.json`` (written via rename so readers never
    see a half-written manifest), and a new segment starts.  The
    manifest lists sealed segments in write order plus the active
    tail's name, and carries ``complete: true`` only after
    :meth:`close` — which is how a follower knows the stream ended.
    """

    def __init__(
        self,
        directory: str,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        flush_lines: int = DEFAULT_FLUSH_LINES,
    ) -> None:
        self.directory = directory
        self.max_segment_bytes = max(1, int(max_segment_bytes))
        self.flush_lines = max(1, int(flush_lines))
        os.makedirs(directory, exist_ok=True)
        self.total_lines = 0
        self._segments: List[Dict[str, Any]] = []
        self._buffer: List[str] = []
        self._active_index = 0
        self._active_lines = 0
        self._active_bytes = 0
        self._active_handle = None
        self._closed = False
        self._write_manifest(complete=False)

    def _active_name(self) -> str:
        return f"segment-{self._active_index:06d}.jsonl"

    def write_line(self, line: str) -> None:
        """Queue one JSONL line (no trailing newline) for the stream."""
        self._buffer.append(line)
        if len(self._buffer) >= self.flush_lines:
            self.flush()

    def flush(self) -> None:
        """Write buffered lines to the active segment; rotate if full."""
        if not self._buffer:
            return
        if self._active_handle is None:
            self._active_handle = open(
                os.path.join(self.directory, self._active_name()), "w"
            )
        payload = "\n".join(self._buffer) + "\n"
        self._active_handle.write(payload)
        self._active_handle.flush()
        self._active_lines += len(self._buffer)
        self._active_bytes += len(payload.encode("utf-8"))
        self.total_lines += len(self._buffer)
        self._buffer.clear()
        if self._active_bytes >= self.max_segment_bytes:
            self._rotate()

    def _rotate(self) -> None:
        """Seal the active segment and start a fresh one."""
        if self._active_handle is not None:
            self._active_handle.close()
            self._active_handle = None
        if self._active_lines:
            self._segments.append(
                {
                    "name": self._active_name(),
                    "lines": self._active_lines,
                    "bytes": self._active_bytes,
                }
            )
            self._active_index += 1
            self._active_lines = 0
            self._active_bytes = 0
        self._write_manifest(complete=False)

    def _write_manifest(self, complete: bool) -> None:
        manifest = {
            "format": STREAM_FORMAT,
            "complete": complete,
            "segments": list(self._segments),
            "active": self._active_name() if not complete else None,
            "total_lines": self.total_lines,
        }
        path = os.path.join(self.directory, "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def close(self) -> None:
        """Flush, seal the tail, and mark the manifest complete."""
        if self._closed:
            return
        self.flush()
        self._rotate()
        self._write_manifest(complete=True)
        self._closed = True


# ----------------------------------------------------------------------
# Streaming JSONL export
# ----------------------------------------------------------------------
class LiveExporter:
    """Streams a telemetry bundle's events into segmented JSONL files.

    Each event handed to :meth:`observe` is serialised through the same
    :func:`~repro.obs.export.stream_lines` path the batch exporter
    uses; :meth:`close` appends the final metrics snapshot and
    time-series points.  Concatenating the segments of a closed stream
    therefore reproduces :func:`~repro.obs.export.write_jsonl` of the
    same bundle byte-for-byte (the round-trip equality test enforces
    this), which is why every existing offline tool keeps working on
    segmented streams.
    """

    def __init__(
        self,
        telemetry,
        directory: str,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        flush_lines: int = DEFAULT_FLUSH_LINES,
    ) -> None:
        self.telemetry = telemetry
        self.writer = SegmentWriter(
            directory, max_segment_bytes=max_segment_bytes, flush_lines=flush_lines
        )
        self._closed = False

    def observe(self, event: TelemetryEvent) -> None:
        """Serialise one event onto the stream."""
        self.writer.write_line(stream_lines((event,))[0])

    def close(self) -> None:
        """Append metrics + series tails and seal the stream."""
        if self._closed:
            return
        self._closed = True
        store = getattr(self.telemetry, "timeseries", None)
        points = store.points() if store is not None else ()
        for line in stream_lines((), self.telemetry.metrics.collect(), points):
            self.writer.write_line(line)
        self.writer.close()


# ----------------------------------------------------------------------
# Live fleet rollup
# ----------------------------------------------------------------------
def _bump(counts: Dict[str, int], key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


def _counted(etype: EventType) -> property:
    """Read-only count of *etype* events from the owner's ``counts``."""
    return property(lambda self: self.counts.get(etype, 0))


#: Workload status implied by each lifecycle event type.
_STATUS_TRANSITIONS = {
    EventType.WORKLOAD_SUBMITTED: "pending",
    EventType.INSTANCE_ATTACHED: "placed",
    EventType.WORKLOAD_RUNNING: "running",
    EventType.INTERRUPTION_WARNING: "interrupted",
    EventType.MIGRATION_STARTED: "migrating",
    EventType.MIGRATION_COMPLETED: "running",
    EventType.WORKLOAD_DONE: "done",
}


class FleetRollup:
    """Incremental fleet state: the live view operators actually watch.

    The shape follows the SpotInstanceManager report the related repos
    emit — ``by_status`` / ``by_market`` / ``by_option`` rollups — but
    folded from the event stream alone, so it works identically over a
    live bus subscription or a saved stream replay.  It also keeps the
    run totals the run report and the chaos scorecard print, each
    bounded by a workload, region or kind count, never the event count.
    """

    interruptions = _counted(EventType.INTERRUPTION_WARNING)
    reacquires = _counted(EventType.MIGRATION_COMPLETED)
    fallbacks = _counted(EventType.FALLBACK_ON_DEMAND)
    checkpoints = _counted(EventType.CHECKPOINT_SAVED)

    def __init__(self) -> None:
        self.workload_status: Dict[str, str] = {}
        self.counts: Dict[EventType, int] = {}
        self.interruptions_by_region: Dict[str, int] = {}
        self.faults_by_kind: Dict[str, int] = {}
        self.anomaly_kinds: Dict[str, int] = {}
        #: Warnings with a same-region anomaly in the report's window.
        self.linked_interruptions = 0
        #: Migrations started by missed-interruption reconciliation.
        self.reconciled = 0
        #: ``migration.completed`` latencies summed (missing counts 0).
        self.migration_latency_sum = 0.0
        self._last_anomaly: Dict[str, float] = {}
        self._unlinked: Dict[str, Tuple[float, int]] = {}
        self._live_instances: Dict[str, Tuple[str, str]] = {}
        self._workload_instance: Dict[str, str] = {}
        self._tenant_of: Dict[str, str] = {}
        self._strategy_of: Dict[str, str] = {}
        self.throttled_by_tenant: Dict[str, int] = {}

    def observe(self, event: TelemetryEvent) -> None:
        """Fold one event into the rollup."""
        etype = event.type
        counts = self.counts
        counts[etype] = counts.get(etype, 0) + 1
        status = _STATUS_TRANSITIONS.get(etype)
        if status is not None and event.workload_id:
            self.workload_status[event.workload_id] = status
        if etype is EventType.INSTANCE_ATTACHED:
            if event.instance_id:
                self._live_instances[event.instance_id] = (
                    event.region or "?",
                    event.option or "?",
                )
                if event.workload_id:
                    self._workload_instance[event.workload_id] = event.instance_id
        elif etype in (EventType.INSTANCE_RECLAIMED, EventType.CAPACITY_DISCARDED):
            self._live_instances.pop(event.instance_id, None)
        elif etype is EventType.WORKLOAD_DONE:
            instance_id = self._workload_instance.pop(event.workload_id, None)
            if instance_id is not None:
                self._live_instances.pop(instance_id, None)
        elif etype is EventType.INTERRUPTION_WARNING:
            _bump(self.interruptions_by_region, event.region or "?")
            self._link_interruption(event.region, event.time)
        elif etype is EventType.MARKET_ANOMALY:
            _bump(self.anomaly_kinds, str(event.attrs.get("kind", "?")))
            self._last_anomaly[event.region] = event.time
            pending = self._unlinked.pop(event.region, None)
            if pending is not None and pending[0] == event.time:
                self.linked_interruptions += pending[1]
        elif etype is EventType.CHAOS_FAULT_INJECTED:
            _bump(self.faults_by_kind, str(event.attrs.get("kind", "?")))
        elif etype is EventType.MIGRATION_STARTED:
            if event.attrs.get("reconciled"):
                self.reconciled += 1
        elif etype is EventType.MIGRATION_COMPLETED:
            self.migration_latency_sum += float(event.attrs.get("latency", 0.0))
        elif etype is EventType.TENANT_ADMITTED:
            tenant_id = str(event.attrs.get("tenant_id", ""))
            if event.workload_id and tenant_id:
                self._tenant_of[event.workload_id] = tenant_id
                policy = str(event.attrs.get("policy", ""))
                if policy:
                    self._strategy_of[event.workload_id] = policy
        elif etype is EventType.TENANT_THROTTLED:
            tenant_id = str(event.attrs.get("tenant_id", ""))
            if tenant_id:
                _bump(self.throttled_by_tenant, tenant_id)

    def _link_interruption(self, region: str, time: float) -> None:
        """Link a warning to the region's latest anomaly, or park it.

        Sim time never decreases, so only the latest anomaly can be in
        the window; a parked warning still links to a same-region
        anomaly at the same sim time but a later seq.
        """
        last = self._last_anomaly.get(region)
        if last is not None and 0.0 <= time - last <= ANOMALY_CORRELATION_WINDOW:
            self.linked_interruptions += 1
            return
        pending = self._unlinked.get(region)
        count = pending[1] if pending is not None and pending[0] == time else 0
        self._unlinked[region] = (time, count + 1)

    def count(self, etype: EventType) -> int:
        """Events of *etype* seen so far."""
        return self.counts.get(etype, 0)

    def chaos_tally(self) -> Dict[str, Any]:
        """Fault-injection and client-resilience totals."""
        return {
            "windows": self.count(EventType.CHAOS_WINDOW_OPENED),
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "retries": self.count(EventType.RESILIENCE_RETRY),
            "dead_letters": self.count(EventType.RESILIENCE_DEAD_LETTER),
            "checkpoint_fallbacks": self.count(EventType.CHECKPOINT_FALLBACK),
            "reconciled_interruptions": self.reconciled,
        }

    # -- views ----------------------------------------------------------
    def by_status(self) -> Dict[str, int]:
        """Workload count per status, sorted by status name."""
        counts: Dict[str, int] = {}
        for status in self.workload_status.values():
            counts[status] = counts.get(status, 0) + 1
        return dict(sorted(counts.items()))

    def by_market(self) -> Dict[str, int]:
        """Live instance count per region, sorted by region."""
        counts: Dict[str, int] = {}
        for region, _ in self._live_instances.values():
            counts[region] = counts.get(region, 0) + 1
        return dict(sorted(counts.items()))

    def by_option(self) -> Dict[str, int]:
        """Live instance count per purchasing option, sorted."""
        counts: Dict[str, int] = {}
        for _, option in self._live_instances.values():
            counts[option] = counts.get(option, 0) + 1
        return dict(sorted(counts.items()))

    def by_tenant(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant workload status counts, sorted by tenant id.

        Empty on single-plane runs (no ``tenant.admitted`` events) —
        consumers gate their tenant sections on that.
        """
        counts: Dict[str, Dict[str, int]] = {}
        for workload_id, tenant_id in self._tenant_of.items():
            status = self.workload_status.get(workload_id, "pending")
            row = counts.setdefault(tenant_id, {})
            row[status] = row.get(status, 0) + 1
        return {
            tenant_id: dict(sorted(row.items()))
            for tenant_id, row in sorted(counts.items())
        }

    def by_strategy(self) -> Dict[str, int]:
        """Workload count per tenant policy label, sorted by label."""
        counts: Dict[str, int] = {}
        for label in self._strategy_of.values():
            counts[label] = counts.get(label, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def has_tenants(self) -> bool:
        """Whether any tenancy events were observed."""
        return bool(self._tenant_of or self.throttled_by_tenant)

    @property
    def live_instances(self) -> int:
        """Instances currently attached and not reclaimed/released."""
        return len(self._live_instances)

    @property
    def total(self) -> int:
        """Workloads seen so far."""
        return len(self.workload_status)

    @property
    def done(self) -> int:
        """Workloads in the terminal state."""
        return sum(1 for status in self.workload_status.values() if status == "done")


# ----------------------------------------------------------------------
# Tumbling windows
# ----------------------------------------------------------------------
@dataclass
class WindowStats:
    """Aggregates of one tumbling sim-time window ``[start, end)``."""

    start: float
    end: float
    events: int = 0
    counts: Dict[EventType, int] = field(default_factory=dict)

    submitted = _counted(EventType.WORKLOAD_SUBMITTED)
    done = _counted(EventType.WORKLOAD_DONE)
    interruptions = _counted(EventType.INTERRUPTION_WARNING)
    reacquires = _counted(EventType.MIGRATION_COMPLETED)
    faults = _counted(EventType.CHAOS_FAULT_INJECTED)
    dead_letters = _counted(EventType.RESILIENCE_DEAD_LETTER)
    anomalies = _counted(EventType.MARKET_ANOMALY)

    @property
    def events_per_hour(self) -> float:
        """Event rate of the window, in events per sim-hour."""
        span = self.end - self.start
        return self.events / (span / HOUR) if span > 0 else 0.0


class WindowAggregator:
    """Tumbling sim-time windows of fleet activity rates.

    Windows are aligned to multiples of ``window_seconds``; the bus's
    non-decreasing time guarantee means windows close in order.  Only
    the last ``max_windows`` are retained, so the aggregator's memory
    is O(window count), never O(run length).
    """

    def __init__(self, window_seconds: float = HOUR, max_windows: int = 48) -> None:
        self.window_seconds = float(window_seconds)
        self.windows: Deque[WindowStats] = deque(maxlen=max(1, int(max_windows)))
        self.current: Optional[WindowStats] = None

    def observe(self, event: TelemetryEvent) -> None:
        """Fold one event into its tumbling window."""
        start = (event.time // self.window_seconds) * self.window_seconds
        window = self.current
        if window is None or start >= window.end:
            window = WindowStats(start=start, end=start + self.window_seconds)
            self.windows.append(window)
            self.current = window
        window.events += 1
        counts = window.counts
        counts[event.type] = counts.get(event.type, 0) + 1

    def recent(self, count: int = 6) -> List[WindowStats]:
        """The last *count* windows, oldest first."""
        return list(self.windows)[-count:]


# ----------------------------------------------------------------------
# The shared fold
# ----------------------------------------------------------------------
class FleetView:
    """Rollup, windows, latency and SLO budget, folded from one stream.

    The live plane, the ``obs watch`` dashboard and the run report all
    answer "what is the fleet doing and is it within its SLOs" with
    this one fold, so a live view and a replay of its stream agree.

    Args:
        window_seconds: Tumbling window width for the rate table.
        max_windows: Retained window history.
        slo_spec: SLO objectives tracked (default fleet spec).
    """

    def __init__(
        self,
        window_seconds: float = HOUR,
        max_windows: int = 48,
        slo_spec: Optional[SLOSpec] = None,
    ) -> None:
        self.rollup = FleetRollup()
        self.windows = WindowAggregator(window_seconds, max_windows=max_windows)
        self.latency = LatencyWatcher()
        self.slo_spec = slo_spec if slo_spec is not None else default_slo_spec()
        self.budget = SLOBudget(self.slo_spec)

    def fold(self, event: TelemetryEvent) -> Sequence[SLOResult]:
        """Fold one event; returns the SLO targets it tipped into breach."""
        self.rollup.observe(event)
        self.windows.observe(event)
        sample = self.latency.observe(event)
        if sample is None:
            return ()
        return self.budget.observe(*sample)

    def slo_results(self) -> List[SLOResult]:
        """Current per-target verdicts."""
        return self.budget.results()


# ----------------------------------------------------------------------
# The live plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOBreach:
    """One edge-triggered SLO transition from passing to failing."""

    time: float
    metric: str
    compliance: float
    objective: float


class LivePlane(FleetView):
    """The one bus subscriber of an observed run.

    Each event goes, in this order (which fixes ``BLACKBOX_*``
    numbering and ring contents), to the recorder, the exporter, this
    :class:`FleetView` fold, the invariant monitor and the optional bus
    trim.  SLO breaches and invariant violations snapshot the recorder.
    Call :meth:`close` from a ``finally``: a run that raises still gets
    a sealed stream and a run-end snapshot.

    Args:
        telemetry: The provider's :class:`~repro.obs.Telemetry` bundle.
        directory: When given, stream events into segmented JSONL files
            there via a :class:`LiveExporter`.
        window_seconds: Tumbling window width for the rate table.
        max_windows: Retained window history.
        slo_spec: SLO objectives tracked online (default fleet spec).
        max_segment_bytes: Segment rotation cap for the exporter.
        flush_lines: Exporter write batch size.
        trim_bus: When true, clear the bus whenever it holds
            ``trim_every`` events (after the exporter has serialised
            them), bounding telemetry memory by the caps instead of the
            run length.  Leave off when anything post-hoc (reports,
            ``write_jsonl``) still needs the full stream.
        trim_every: Bus length that triggers a trim.
        recorder: Optional :class:`~repro.obs.flight.FlightRecorder`.
        monitor: Optional
            :class:`~repro.chaos.invariants.OnlineInvariantMonitor`.
    """

    def __init__(
        self,
        telemetry,
        directory: Optional[str] = None,
        window_seconds: float = HOUR,
        max_windows: int = 48,
        slo_spec: Optional[SLOSpec] = None,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        flush_lines: int = DEFAULT_FLUSH_LINES,
        trim_bus: bool = False,
        trim_every: int = DEFAULT_TRIM_EVERY,
        recorder=None,
        monitor=None,
    ) -> None:
        super().__init__(window_seconds, max_windows=max_windows, slo_spec=slo_spec)
        self.telemetry = telemetry
        self.exporter = (
            LiveExporter(
                telemetry,
                directory,
                max_segment_bytes=max_segment_bytes,
                flush_lines=flush_lines,
            )
            if directory is not None
            else None
        )
        self.recorder = recorder
        self.monitor = monitor
        self.trim_bus = trim_bus
        self.trim_every = max(1, int(trim_every))
        self.peak_bus_events = 0
        self.trims = 0
        self.breaches: List[SLOBreach] = []
        self._closed = False
        self._unsubscribe = telemetry.bus.subscribe(self.observe)

    def observe(self, event: TelemetryEvent) -> None:
        """Hand one bus event to every consumer, in delivery order."""
        recorder = self.recorder
        if recorder is not None:
            recorder.observe(event)
        if self.exporter is not None:
            self.exporter.observe(event)
        for result in self.fold(event):
            breach = SLOBreach(
                time=event.time,
                metric=result.target.metric,
                compliance=result.compliance,
                objective=result.target.objective,
            )
            self.breaches.append(breach)
            if recorder is not None:
                recorder.on_slo_breach(breach)
        if self.monitor is not None:
            for violation in self.monitor.observe(event):
                if recorder is not None:
                    recorder.on_invariant_violation(violation)
        if self.trim_bus:
            bus: EventBus = self.telemetry.bus
            length = len(bus)
            if length > self.peak_bus_events:
                self.peak_bus_events = length
            if length >= self.trim_every:
                if self.exporter is not None:
                    self.exporter.writer.flush()
                bus.clear()
                self.trims += 1

    def close(self) -> None:
        """Unsubscribe, seal the stream, snapshot the run end (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._unsubscribe()
        if self.exporter is not None:
            self.exporter.close()
        if self.recorder is not None:
            self.recorder.snapshot_final()


__all__ = [
    "DEFAULT_FLUSH_LINES",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_TRIM_EVERY",
    "FleetRollup",
    "FleetView",
    "LiveExporter",
    "LivePlane",
    "SLOBreach",
    "STREAM_FORMAT",
    "SegmentWriter",
    "WindowAggregator",
    "WindowStats",
]
