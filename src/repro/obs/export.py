"""Telemetry exporters: JSONL event streams and run reports.

One line-oriented format, several consumers:

* :func:`write_jsonl` persists a run — every bus event, a final
  metrics snapshot, and (when the bundle's time-series store holds
  market samples) every downsampled series bucket — as one JSON object
  per line, tagged ``"kind": "event"`` / ``"metric"`` / ``"point"``.
* :class:`TelemetryStream` is the offline view: it loads all three
  record kinds back and rebuilds the derived structures (decision log,
  time-series store) so ``spotverse obs explain`` / ``obs markets``
  work from the file alone.
* :class:`RunReport` renders the per-run summary (cost by region and
  purchasing option, interruption/migration tables, the Algorithm-1
  decisions section, per-workload span Gantt rows) either live from a
  :class:`~repro.obs.Telemetry` bundle or offline from a previously
  written JSONL file, so a run stays inspectable long after its
  provider is gone.

:func:`validate_stream` is the ordering/causality checker the
integration tests (and sceptical humans) run over a stream.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.events import EventType, TelemetryEvent
from repro.obs.metrics import Sample
from repro.obs.provenance import DecisionRecord, decisions_from_events
from repro.obs.slo import series_stats
from repro.obs.spans import WorkloadSpanTree, build_spans
from repro.obs.timeseries import TimeSeriesStore
from repro.sim.clock import HOUR

if TYPE_CHECKING:
    from repro.obs.live import FleetView

#: Gantt glyph per phase name.
PHASE_GLYPHS = {"request": ".", "boot": ":", "run": "=", "migrating": "x"}

#: Sparkline glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: An interruption this close after a same-region market anomaly is
#: counted as correlated in the report (two market steps).
ANOMALY_CORRELATION_WINDOW = 2 * HOUR


# ----------------------------------------------------------------------
# JSONL round trip
# ----------------------------------------------------------------------
def stream_lines(
    events: Iterable[TelemetryEvent],
    samples: Iterable[Sample] = (),
    points: Iterable[Dict[str, object]] = (),
) -> List[str]:
    """Serialise events, metric samples, then series points as JSONL."""
    lines = []
    for event in events:
        record = {"kind": "event"}
        record.update(event.to_dict())
        lines.append(json.dumps(record, sort_keys=True))
    for sample in samples:
        record = sample.to_dict()
        # The sample's own kind (counter/gauge/histogram) moves aside so
        # the line tag can distinguish event lines from metric lines.
        record["metric_kind"] = record.pop("kind")
        record["kind"] = "metric"
        lines.append(json.dumps(record, sort_keys=True))
    for point in points:
        record = {"kind": "point"}
        record.update(point)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def write_jsonl(path: str, telemetry) -> int:
    """Write a telemetry bundle's events + metrics + series to *path*.

    Returns the number of lines written.
    """
    store = getattr(telemetry, "timeseries", None)
    points = store.points() if store is not None else ()
    lines = stream_lines(list(telemetry.bus), telemetry.metrics.collect(), points)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


@dataclass
class TelemetryStream:
    """Everything a saved JSONL stream holds, plus derived views.

    ``truncated`` is set when the final line of the (last) file was cut
    mid-record — a live writer caught between ``write`` and ``flush``.
    The partial tail is skipped rather than raised, so tailing a
    growing stream never trips over the writer.
    """

    events: List[TelemetryEvent] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    points: List[Dict[str, object]] = field(default_factory=list)
    truncated: bool = False

    @classmethod
    def load(cls, path: str) -> "TelemetryStream":
        """Parse a stream written by :func:`write_jsonl` or a live
        segmented stream directory (see :mod:`repro.obs.live`).

        *path* may be a single JSONL file, a segment directory holding
        ``segment-*.jsonl`` files (plus an optional ``manifest.json``),
        or the manifest file itself.

        Raises:
            ReproError: On a malformed line, with the path and line
                number of the damage.  A partial *final* line with no
                trailing newline (live writer mid-record) is tolerated:
                it is skipped and :attr:`truncated` is set instead.
        """
        stream = cls()
        if os.path.basename(path) == "manifest.json":
            path = os.path.dirname(path) or "."
        if os.path.isdir(path):
            for segment in segment_files(path):
                stream._parse_file(segment)
        else:
            stream._parse_file(path)
        return stream

    def _parse_file(self, path: str) -> None:
        """Parse one JSONL file into this stream, tolerating a cut tail."""
        with open(path) as handle:
            raw = handle.read()
        complete_tail = raw.endswith("\n")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        last_index = len(lines) - 1
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                kind = record.pop("kind", "event")
                if kind == "event":
                    self.events.append(TelemetryEvent.from_dict(record))
                elif kind == "metric":
                    self.samples.append(
                        Sample(
                            name=record["name"],
                            kind=record.get("metric_kind", "counter"),
                            labels=tuple(sorted(record.get("labels", {}).items())),
                            value=float(record["value"]),
                            count=record.get("count"),
                        )
                    )
                elif kind == "point":
                    if not isinstance(record.get("name"), str):
                        raise ValueError("point has no string name")
                    if not isinstance(record.get("labels", {}), dict):
                        raise ValueError("point labels are not an object")
                    record["value"] = float(record["value"])
                    record["time"] = float(record["time"])
                    self.points.append(record)
                # Unknown kinds: skip (forward compatibility).
            except (ValueError, KeyError, TypeError) as exc:
                if index == last_index and not complete_tail:
                    self.truncated = True
                    return
                raise ReproError(
                    f"{path}:{index + 1}: not a telemetry stream line ({exc})"
                ) from exc

    @property
    def empty(self) -> bool:
        """True when the stream holds no records at all."""
        return not (self.events or self.samples or self.points)

    @property
    def last_time(self) -> float:
        """Sim time of the last event (0.0 when there are none)."""
        return self.events[-1].time if self.events else 0.0

    def decisions(self) -> List[DecisionRecord]:
        """The Algorithm-1 decision log carried in the event stream."""
        return decisions_from_events(self.events)

    def timeseries(self) -> TimeSeriesStore:
        """Rebuild the market time-series store from the point records."""
        return TimeSeriesStore.from_points(self.points)


def read_manifest(directory: str) -> Optional[Tuple[List[str], bool]]:
    """``(segment names in write order, complete)`` from a stream's manifest.

    Returns ``None`` while the directory has no ``manifest.json`` yet.

    Raises:
        ReproError: The manifest exists but is not a stream manifest.
            The live exporter replaces it atomically, so a damaged one
            never heals.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        return None
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if not isinstance(manifest, dict):
            raise ValueError("not a JSON object")
        names = [segment["name"] for segment in manifest.get("segments", ())]
        if manifest.get("active"):
            names.append(manifest["active"])
        if not all(isinstance(name, str) for name in names):
            raise ValueError("segment names are not strings")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ReproError(f"{manifest_path}: not a stream manifest ({exc})") from exc
    return names, bool(manifest.get("complete"))


def segment_files(directory: str) -> List[str]:
    """The JSONL files of a segmented stream directory, in write order.

    Prefers the ``manifest.json`` the live exporter maintains (sealed
    segments in rotation order, then the active tail); falls back to a
    sorted glob of ``segment-*.jsonl`` when no manifest exists yet.
    """
    manifest = read_manifest(directory)
    if manifest is not None:
        names = manifest[0]
    else:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith("segment-") and name.endswith(".jsonl")
        )
    if not names:
        raise ReproError(f"{directory}: no stream segments found")
    return [
        os.path.join(directory, name)
        for name in names
        if os.path.exists(os.path.join(directory, name))
    ]


# ----------------------------------------------------------------------
# Stream validation (ordering + causality guarantees)
# ----------------------------------------------------------------------
class StreamValidator:
    """Incremental ordering/causality checker over a telemetry stream.

    Feed events in emission order via :meth:`observe`; each call
    returns the problems *that event* introduced (usually none), while
    :attr:`problems` accumulates everything seen so far.  Folding a
    full stream through one validator produces exactly the list the
    batch :func:`validate_stream` returns — the online invariant
    monitor and the post-run scorecard share this object, which is what
    keeps their verdicts bit-identical.
    """

    def __init__(self) -> None:
        self.problems: List[str] = []
        self._last_seq = -1
        self._last_time = float("-inf")
        self._requested: set = set()
        self._warnings: Dict[str, int] = defaultdict(int)
        self._migration_starts: Dict[str, int] = defaultdict(int)
        self._migration_completes: Dict[str, int] = defaultdict(int)
        self._done: set = set()

    def observe(self, event: TelemetryEvent) -> List[str]:
        """Check one event; returns newly detected problems."""
        new: List[str] = []
        if event.seq <= self._last_seq:
            new.append(f"seq not increasing at seq={event.seq}")
        self._last_seq = event.seq
        if event.time < self._last_time:
            new.append(f"time went backwards at seq={event.seq}")
        self._last_time = event.time

        wid = event.workload_id
        if wid and wid in self._done:
            new.append(
                f"{event.type.value} for {wid!r} after workload.done (seq={event.seq})"
            )
        if event.type is EventType.SPOT_REQUESTED:
            self._requested.add(event.request_id)
        elif event.type is EventType.SPOT_FULFILLED:
            if event.request_id not in self._requested:
                new.append(
                    f"fulfillment of unknown request {event.request_id!r} (seq={event.seq})"
                )
        elif event.type is EventType.INTERRUPTION_WARNING:
            self._warnings[wid] += 1
        elif event.type is EventType.MIGRATION_STARTED:
            self._migration_starts[wid] += 1
            if self._migration_starts[wid] > self._warnings[wid]:
                new.append(
                    f"migration.started without a prior interruption warning "
                    f"for {wid!r} (seq={event.seq})"
                )
        elif event.type is EventType.MIGRATION_COMPLETED:
            self._migration_completes[wid] += 1
            if self._migration_completes[wid] > self._migration_starts[wid]:
                new.append(
                    f"migration.completed without a prior migration.started "
                    f"for {wid!r} (seq={event.seq})"
                )
        elif event.type is EventType.WORKLOAD_DONE:
            self._done.add(wid)
        self.problems.extend(new)
        return new


def validate_stream(events: Sequence[TelemetryEvent]) -> List[str]:
    """Check a stream's ordering and per-workload causality.

    Returns a list of human-readable problems (empty = valid):

    * ``seq`` strictly increasing and ``time`` non-decreasing;
    * a fulfillment references an earlier request with the same id;
    * migrations start only after an interruption warning, complete
      only after a start;
    * nothing happens to a workload after its ``workload.done``.

    This is the batch fold over :class:`StreamValidator`.
    """
    validator = StreamValidator()
    for event in events:
        validator.observe(event)
    return validator.problems


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Minimal aligned table (obs may not import experiments.reporting)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_gantt(
    trees: Dict[str, WorkloadSpanTree], width: int = 64, end_time: Optional[float] = None
) -> str:
    """ASCII Gantt: one row per workload, one glyph per phase bucket.

    Legend: ``.`` waiting for capacity, ``:`` booting, ``=`` running,
    ``x`` migrating after an interruption.
    """
    if not trees:
        return "(no workload spans)"
    start = min(tree.root.start for tree in trees.values())
    ends = [tree.root.end for tree in trees.values() if tree.root.end is not None]
    horizon = end_time if end_time is not None else (max(ends) if ends else start + 1.0)
    span_all = max(horizon - start, 1e-9)
    scale = width / span_all
    rows = []
    for wid in sorted(trees):
        tree = trees[wid]
        cells = [" "] * width
        for phase in tree.phases:
            glyph = PHASE_GLYPHS.get(phase.name, "?")
            phase_end = phase.end if phase.end is not None else horizon
            lo = int((phase.start - start) * scale)
            hi = max(lo + 1, int((phase_end - start) * scale))
            for index in range(lo, min(hi, width)):
                cells[index] = glyph
        suffix = (
            f"{tree.n_interruptions} intr" if tree.n_interruptions else ""
        )
        status = "" if tree.root.end is not None else "  [unfinished]"
        rows.append(f"{wid:<12s} |{''.join(cells)}| {suffix}{status}".rstrip())
    header = (
        f"t=0 is {start:.0f}s, full width is {span_all / 3600.0:.2f}h "
        f"(. request, : boot, = run, x migrating)"
    )
    return "\n".join([header] + rows)


def _busiest_first(counts: Dict[str, int]) -> List[Tuple[str, int]]:
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


class RunReport:
    """Per-run summary assembled from an event stream + metric samples.

    Every stream count and table reads the one :attr:`fleet_view` fold.
    """

    def __init__(self, events: List[TelemetryEvent], samples: List[Sample]) -> None:
        self.events = events
        self.samples = samples
        self.spans = build_spans(events)
        self.decisions = decisions_from_events(events)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_telemetry(cls, telemetry) -> "RunReport":
        """Build from a live :class:`~repro.obs.Telemetry` bundle."""
        return cls(list(telemetry.bus), telemetry.metrics.collect())

    # -- views ----------------------------------------------------------
    def fallback_reasons(self) -> List[Tuple[str, int]]:
        """``(reason, count)`` over fallback decisions, busiest first."""
        counts: Dict[str, int] = defaultdict(int)
        for decision in self.decisions:
            if decision.is_fallback:
                counts[decision.fallback_reason] += 1
        return _busiest_first(counts)

    def margin_distribution(self) -> Tuple[int, int, float, float, float]:
        """``(passed, failed, min, mean, max)`` over every region verdict."""
        margins = [
            evaluation.margin
            for decision in self.decisions
            for evaluation in decision.evaluations
        ]
        passed = sum(
            1
            for decision in self.decisions
            for evaluation in decision.evaluations
            if evaluation.passed
        )
        if not margins:
            return (0, 0, 0.0, 0.0, 0.0)
        return (
            passed,
            len(margins) - passed,
            min(margins),
            sum(margins) / len(margins),
            max(margins),
        )

    def anomaly_counts(self) -> List[Tuple[str, int]]:
        """``(kind, count)`` of market anomalies seen during the run."""
        return _busiest_first(self.fleet_view.rollup.anomaly_kinds)

    def anomaly_interruption_correlation(self) -> Tuple[int, int]:
        """``(correlated, total)`` interruption warnings.

        An interruption is *correlated* when the same region raised a
        ``market.anomaly`` within :data:`ANOMALY_CORRELATION_WINDOW`
        seconds before it (or at the same sim time) — the
        turbulence/reclaim linkage the observatory exists to surface.
        """
        rollup = self.fleet_view.rollup
        return rollup.linked_interruptions, rollup.interruptions

    def cost_rows(self) -> List[Tuple[str, str, float]]:
        """``(region, purchasing_option, usd)`` rows from the cost metric."""
        rows = []
        for sample in self.samples:
            if sample.name != "cost_accrued_usd":
                continue
            labels = dict(sample.labels)
            rows.append(
                (labels.get("region", "?"), labels.get("purchasing_option", "?"), sample.value)
            )
        rows.sort()
        return rows

    def interruption_rows(self) -> List[Tuple[str, int]]:
        """``(region, count)`` interruption rows, busiest first."""
        return _busiest_first(self.fleet_view.rollup.interruptions_by_region)

    def chaos_stats(self) -> Optional[Dict[str, object]]:
        """Fault-injection + resilience accounting, or None without chaos.

        Gated on chaos/resilience events being present in the stream so
        zero-fault run reports render byte-identically to pre-chaos
        builds.
        """
        tally = self.fleet_view.rollup.chaos_tally()
        gate = ("windows", "faults_by_kind", "retries", "dead_letters", "checkpoint_fallbacks")
        return tally if any(tally[key] for key in gate) else None

    @cached_property
    def fleet_view(self) -> "FleetView":
        """The stream folded through the :class:`~repro.obs.live.FleetView`
        the live plane and ``obs watch`` share; every stream table of
        the report reads from it."""
        from repro.obs.live import FleetView

        view = FleetView()
        for event in self.events:
            view.fold(event)
        return view

    def tenant_stats(self) -> Optional[Dict[str, object]]:
        """Multi-tenant rollups, or None on single-plane runs.

        Read from :attr:`fleet_view`, so the report's ``by_tenant`` /
        ``by_strategy`` tables match what ``obs watch`` showed.  Gated
        on tenancy events being present so pre-tenancy run reports
        render byte-identically.
        """
        rollup = self.fleet_view.rollup
        registered = rollup.count(EventType.TENANT_REGISTERED)
        if not (rollup.has_tenants or registered):
            return None
        return {
            "tenants": registered,
            "throttled": rollup.count(EventType.TENANT_THROTTLED),
            "by_tenant": rollup.by_tenant(),
            "by_strategy": rollup.by_strategy(),
            "by_status": rollup.by_status(),
            "by_market": rollup.by_market(),
            "throttled_by_tenant": dict(sorted(rollup.throttled_by_tenant.items())),
        }

    def latency_stats(self) -> Dict[str, Dict[str, float]]:
        """count/p50/p95/max per latency family (empty families omitted)."""
        return {
            name: series_stats(values)
            for name, values in self.fleet_view.latency.series.items()
            if values
        }

    def resilience_rows(self) -> List[Tuple[str, int, int]]:
        """``(scope, retries, dead_letters)`` from the resilience counters.

        Derived from the first-class ``resilience_retries_total`` /
        ``resilience_dead_letters_total`` metric samples, so offline
        reports see the same per-scope breakdown a live bundle does.
        """
        retries: Dict[str, int] = defaultdict(int)
        dead: Dict[str, int] = defaultdict(int)
        for sample in self.samples:
            scope = dict(sample.labels).get("scope", "?")
            if sample.name == "resilience_retries_total":
                retries[scope] += int(sample.value)
            elif sample.name == "resilience_dead_letters_total":
                dead[scope] += int(sample.value)
        scopes = sorted(set(retries) | set(dead))
        return [(scope, retries.get(scope, 0), dead.get(scope, 0)) for scope in scopes]

    def migration_stats(self) -> Tuple[int, int, float]:
        """``(started, completed, mean latency seconds)``.

        A completion without a ``latency`` attr counts as 0 s here
        (the SLO latency family skips it instead).
        """
        rollup = self.fleet_view.rollup
        completed = rollup.count(EventType.MIGRATION_COMPLETED)
        mean = rollup.migration_latency_sum / completed if completed else 0.0
        return rollup.count(EventType.MIGRATION_STARTED), completed, mean

    # -- rendering ------------------------------------------------------
    def render(self, gantt_width: int = 64) -> str:
        """The full multi-section run report."""
        lines: List[str] = []
        count = self.fleet_view.rollup.count
        first = self.events[0].time if self.events else 0.0
        last = self.events[-1].time if self.events else 0.0
        submitted = count(EventType.WORKLOAD_SUBMITTED)
        finished = count(EventType.WORKLOAD_DONE)
        lines.append(
            f"events              : {len(self.events)} "
            f"(t={first:.0f}s .. t={last:.0f}s)"
        )
        lines.append(f"workloads           : {finished}/{submitted} complete")
        lines.append(
            f"spot requests       : {count(EventType.SPOT_REQUESTED)} filed, "
            f"{count(EventType.SPOT_FULFILLED)} fulfilled, "
            f"{count(EventType.SPOT_REQUEST_CANCELLED)} cancelled"
        )
        started, completed, mean_latency = self.migration_stats()
        lines.append(
            f"interruptions       : {count(EventType.INTERRUPTION_WARNING)} "
            f"(migrations {completed}/{started} complete, "
            f"mean latency {mean_latency / 60.0:.1f} min)"
        )
        lines.append(
            f"on-demand fallbacks : {count(EventType.FALLBACK_ON_DEMAND)}"
        )
        checkpoints = count(EventType.CHECKPOINT_SAVED)
        restores = count(EventType.CHECKPOINT_RESTORED)
        if checkpoints or restores:
            lines.append(
                f"checkpoints         : {checkpoints} saved, {restores} restored"
            )

        cost_rows = self.cost_rows()
        if cost_rows:
            total = sum(value for _, _, value in cost_rows)
            lines.append("")
            lines.append(f"instance cost by region / purchasing option (total ${total:.2f}):")
            lines.append(
                _table(
                    ["region", "option", "usd"],
                    [
                        [region, option, f"{value:.2f}"]
                        for region, option, value in cost_rows
                    ],
                )
            )

        interruption_rows = self.interruption_rows()
        if interruption_rows:
            lines.append("")
            lines.append("interruptions by region:")
            lines.append(
                _table(
                    ["region", "count"],
                    [[region, str(count)] for region, count in interruption_rows],
                )
            )

        latencies = self.latency_stats()
        if latencies:
            lines.append("")
            lines.append("service latency (sim time):")
            lines.append(
                _table(
                    ["metric", "samples", "p50", "p95", "max"],
                    [
                        [
                            name,
                            str(int(stats["count"])),
                            f"{stats['p50'] / 60.0:.1f}m",
                            f"{stats['p95'] / 60.0:.1f}m",
                            f"{stats['max'] / 60.0:.1f}m",
                        ]
                        for name, stats in latencies.items()
                    ],
                )
            )

        resilience_rows = self.resilience_rows()
        if resilience_rows:
            lines.append("")
            lines.append("resilience by scope:")
            lines.append(
                _table(
                    ["scope", "retries", "dead letters"],
                    [
                        [scope, str(retries), str(dead)]
                        for scope, retries, dead in resilience_rows
                    ],
                )
            )

        chaos = self.chaos_stats()
        if chaos is not None:
            lines.append("")
            lines.append("chaos / resilience:")
            lines.append(
                f"  fault windows     : {chaos['windows']} opened, "
                f"{sum(chaos['faults_by_kind'].values())} faults injected"
            )
            for kind, count in chaos["faults_by_kind"].items():
                lines.append(f"    {kind:<24s} {count}")
            lines.append(
                f"  client resilience : {chaos['retries']} retries, "
                f"{chaos['dead_letters']} dead letters, "
                f"{chaos['checkpoint_fallbacks']} checkpoint fallbacks, "
                f"{chaos['reconciled_interruptions']} reconciled interruptions"
            )

        tenants = self.tenant_stats()
        if tenants is not None:
            lines.append("")
            lines.append(
                f"tenants ({tenants['tenants']} registered, "
                f"{tenants['throttled']} throttled submissions):"
            )
            rows = []
            for tenant_id, statuses in tenants["by_tenant"].items():
                rows.append(
                    [
                        tenant_id,
                        str(sum(statuses.values())),
                        str(statuses.get("done", 0)),
                        str(tenants["throttled_by_tenant"].get(tenant_id, 0)),
                    ]
                )
            if rows:
                lines.append(_table(["tenant", "workloads", "done", "throttled"], rows))
            if tenants["by_strategy"]:
                lines.append(
                    "  strategies: "
                    + "  ".join(
                        f"{label}={count}"
                        for label, count in tenants["by_strategy"].items()
                    )
                )

        if self.decisions:
            lines.append("")
            lines.append(self._render_decisions())

        if self.spans:
            lines.append("")
            lines.append("workload span timeline:")
            lines.append(render_gantt(self.spans, width=gantt_width))
        return "\n".join(lines)

    def _render_decisions(self) -> str:
        """The Algorithm-1 decisions section."""
        initial = sum(1 for decision in self.decisions if decision.kind == "initial")
        migration = len(self.decisions) - initial
        fallbacks = self.fallback_reasons()
        passed, failed, lo, mean, hi = self.margin_distribution()
        lines = [
            "algorithm-1 decisions:",
            f"  rounds            : {len(self.decisions)} "
            f"({initial} initial, {migration} migration)",
            f"  threshold verdicts: {passed} passed, {failed} failed "
            f"(margin min {lo:+.1f}, mean {mean:+.1f}, max {hi:+.1f})",
        ]
        if fallbacks:
            for reason, count in fallbacks:
                lines.append(f"  on-demand fallback: {count} x {reason!r}")
        else:
            lines.append("  on-demand fallback: none")
        anomaly_counts = self.anomaly_counts()
        if anomaly_counts:
            kinds = ", ".join(f"{count} {kind}" for kind, count in anomaly_counts)
            correlated, total = self.anomaly_interruption_correlation()
            lines.append(f"  market anomalies  : {kinds}")
            if total:
                lines.append(
                    f"  anomaly linkage   : {correlated}/{total} interruptions within "
                    f"{ANOMALY_CORRELATION_WINDOW / HOUR:.0f}h of a same-region anomaly"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Market tables (the `spotverse obs markets` view)
# ----------------------------------------------------------------------
def render_sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render *values* as a fixed-width unicode sparkline.

    Values are bucketed to *width* columns (mean per column) and scaled
    to the series' own min..max; a flat series renders mid-glyphs.
    """
    if not values:
        return ""
    if len(values) > width:
        # Mean-pool into `width` columns.
        pooled = []
        step = len(values) / width
        for column in range(width):
            lo = int(column * step)
            hi = max(lo + 1, int((column + 1) * step))
            chunk = values[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        values = pooled
    low, high = min(values), max(values)
    span = high - low
    glyphs = []
    for value in values:
        if span <= 0:
            index = len(SPARK_GLYPHS) // 2
        else:
            index = int((value - low) / span * (len(SPARK_GLYPHS) - 1))
        glyphs.append(SPARK_GLYPHS[index])
    return "".join(glyphs)


def render_market_tables(
    store: TimeSeriesStore,
    events: Sequence[TelemetryEvent] = (),
    fields: Sequence[str] = ("spot_price", "placement_score", "hazard_per_hour"),
    width: int = 32,
    instance_type: Optional[str] = None,
) -> str:
    """Per-region sparkline tables with anomaly annotations.

    One table per *field* present in *store*, one row per (region,
    instance type) series (optionally restricted to *instance_type*):
    latest value, min..max of the retained range, a sparkline over the
    full (downsampled) history, and how many ``market.anomaly`` events
    the region raised.
    """
    anomaly_counts: Dict[str, int] = defaultdict(int)
    for event in events:
        if event.type is EventType.MARKET_ANOMALY:
            anomaly_counts[event.region] += 1
    wanted = {"instance_type": instance_type} if instance_type else {}
    blocks: List[str] = []
    for field_name in fields:
        series_list = store.series_for(field_name, **wanted)
        if not series_list:
            continue
        rows = []
        for label_key, series in series_list:
            labels = dict(label_key)
            region = labels.get("region", "?")
            values = series.values()
            latest = series.latest()
            anomalies = anomaly_counts.get(region, 0)
            rows.append(
                [
                    region,
                    labels.get("instance_type", "?"),
                    f"{latest.value:.4g}" if latest else "-",
                    f"{min(values):.4g}..{max(values):.4g}" if values else "-",
                    render_sparkline(values, width=width),
                    str(anomalies) if anomalies else "",
                ]
            )
        first, last = series_list[0][1].span()
        blocks.append(
            f"{field_name} (t={first / HOUR:.0f}h..t={last / HOUR:.0f}h, "
            f"{series_list[0][1].n_samples} samples/series):\n"
            + _table(
                ["region", "type", "latest", "range", "trend", "anomalies"], rows
            )
        )
    if not blocks:
        return "(no market series recorded)"
    return "\n\n".join(blocks)


__all__ = [
    "ANOMALY_CORRELATION_WINDOW",
    "PHASE_GLYPHS",
    "SPARK_GLYPHS",
    "RunReport",
    "StreamValidator",
    "TelemetryStream",
    "read_manifest",
    "render_gantt",
    "render_market_tables",
    "render_sparkline",
    "segment_files",
    "stream_lines",
    "validate_stream",
    "write_jsonl",
]
