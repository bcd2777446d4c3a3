"""The ``spotverse obs watch`` dashboard: live fleet state as text.

A :class:`WatchState` folds a telemetry event stream — a finished
JSONL file, a growing segmented stream, or a live bus — through the
same :class:`~repro.obs.live.FleetView` the live plane is (rollup,
windows, latency, SLO budget), plus a
:class:`~repro.obs.export.StreamValidator` and a bounded anomaly/
violation feed.  :func:`render_dashboard` turns one state into the
refreshing terminal screen: fleet rollup tables, window rates, SLO
status, and the feed's most recent entries.

Because everything derives from the event stream alone, the dashboard
renders identically over a live run and a replayed archive of it —
the property every other ``obs`` view already has.

Layering note: this module sits in ``obs`` and must not import
``chaos``; the violation feed therefore watches the *event types*
chaos and resilience emit (fault injections, dead letters, checkpoint
fallbacks) plus the obs-local stream validator and SLO watch, not the
chaos package's invariant objects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional

from repro.obs.events import EventType, TelemetryEvent
from repro.obs.export import StreamValidator, TelemetryStream
from repro.obs.live import FleetView
from repro.obs.slo import SLOSpec
from repro.sim.clock import HOUR

#: Feed entries retained (the dashboard shows the newest few).
DEFAULT_MAX_FEED = 64


@dataclass(frozen=True)
class FeedEntry:
    """One line of the anomaly/violation feed."""

    time: float
    kind: str  # "anomaly" | "fault" | "dead-letter" | "fallback" | "stream" | "slo" | "throttled"
    text: str


class WatchState(FleetView):
    """Incremental dashboard state folded from an event stream."""

    def __init__(
        self,
        window_seconds: float = HOUR,
        max_windows: int = 48,
        slo_spec: Optional[SLOSpec] = None,
        max_feed: int = DEFAULT_MAX_FEED,
    ) -> None:
        super().__init__(window_seconds, max_windows=max_windows, slo_spec=slo_spec)
        self.validator = StreamValidator()
        self.feed: Deque[FeedEntry] = deque(maxlen=max(1, int(max_feed)))
        self.events = 0
        self.last_time = 0.0
        self.truncated = False
        self.complete = False

    def observe(self, event: TelemetryEvent) -> None:
        """Fold one event into every view and the feed."""
        self.events += 1
        self.last_time = event.time
        for result in self.fold(event):
            target = result.target
            self.feed.append(
                FeedEntry(
                    event.time,
                    "slo",
                    f"{target.metric} breached: compliance {result.compliance:.1%} "
                    f"< objective {target.objective:.0%}",
                )
            )
        for problem in self.validator.observe(event):
            self.feed.append(FeedEntry(event.time, "stream", problem))
        if event.type is EventType.MARKET_ANOMALY:
            self.feed.append(
                FeedEntry(
                    event.time,
                    "anomaly",
                    f"{event.attrs.get('kind', '?')} in {event.region} "
                    f"({event.attrs.get('field', '?')}={event.attrs.get('value', 0):.4g})",
                )
            )
        elif event.type is EventType.CHAOS_FAULT_INJECTED:
            self.feed.append(
                FeedEntry(
                    event.time,
                    "fault",
                    f"{event.attrs.get('kind', '?')}"
                    + (f" in {event.region}" if event.region else ""),
                )
            )
        elif event.type is EventType.RESILIENCE_DEAD_LETTER:
            self.feed.append(
                FeedEntry(
                    event.time,
                    "dead-letter",
                    f"{event.attrs.get('scope', '?')}: "
                    f"{event.attrs.get('detail', event.workload_id or '?')}",
                )
            )
        elif event.type is EventType.CHECKPOINT_FALLBACK:
            self.feed.append(
                FeedEntry(
                    event.time,
                    "fallback",
                    f"{event.workload_id}: checkpoint fell back to "
                    f"{event.attrs.get('to_segments', '?')} segments",
                )
            )
        elif event.type is EventType.TENANT_THROTTLED:
            self.feed.append(
                FeedEntry(
                    event.time,
                    "throttled",
                    f"{event.attrs.get('tenant_id', '?')}: rejected "
                    f"{event.workload_id or '?'} "
                    f"(queued {event.attrs.get('queued', '?')}"
                    f"/{event.attrs.get('limit', '?')})",
                )
            )

    def observe_all(self, events: Iterable[TelemetryEvent]) -> "WatchState":
        """Fold a whole event sequence; returns self for chaining."""
        for event in events:
            self.observe(event)
        return self

    @classmethod
    def from_stream(
        cls,
        stream: TelemetryStream,
        window_seconds: float = HOUR,
        slo_spec: Optional[SLOSpec] = None,
    ) -> "WatchState":
        """Build a state from a loaded :class:`TelemetryStream`."""
        state = cls(window_seconds=window_seconds, slo_spec=slo_spec)
        state.observe_all(stream.events)
        state.truncated = stream.truncated
        return state


def _format_time(seconds: float) -> str:
    return f"t={seconds / HOUR:.1f}h"


def _counts_line(counts) -> str:
    if not counts:
        return "(none)"
    return "  ".join(f"{name}={count}" for name, count in counts.items())


def render_dashboard(
    state: WatchState,
    source: str = "",
    show_windows: int = 6,
    show_feed: int = 8,
) -> str:
    """Render one :class:`WatchState` snapshot as the dashboard screen."""
    rollup = state.rollup
    status_bits = [
        _format_time(state.last_time),
        f"{state.events} events",
        f"workloads {rollup.done}/{rollup.total} done",
        f"{rollup.live_instances} instances live",
    ]
    if state.complete:
        status_bits.append("stream complete")
    if state.truncated:
        status_bits.append("tail truncated (writer mid-record)")
    lines = [
        "spotverse obs watch" + (f" — {source}" if source else ""),
        "  " + " · ".join(status_bits),
        "",
        f"fleet status : {_counts_line(rollup.by_status())}",
        f"markets      : {_counts_line(rollup.by_market())}",
        f"options      : {_counts_line(rollup.by_option())}",
        f"activity     : {rollup.interruptions} interruptions, "
        f"{rollup.reacquires} reacquires, {rollup.fallbacks} od-fallbacks, "
        f"{rollup.checkpoints} checkpoints",
    ]
    if rollup.has_tenants:
        # Top tenants by fleet share; single-plane runs never reach
        # here, so pre-tenancy dashboards render byte-identically.
        by_tenant = rollup.by_tenant()
        top = sorted(
            by_tenant.items(),
            key=lambda pair: (-sum(pair[1].values()), pair[0]),
        )[:8]
        tenant_bits = []
        for tenant_id, statuses in top:
            total = sum(statuses.values())
            done = statuses.get("done", 0)
            bit = f"{tenant_id}={done}/{total}"
            throttled = rollup.throttled_by_tenant.get(tenant_id, 0)
            if throttled:
                bit += f"(!{throttled})"
            tenant_bits.append(bit)
        overflow = len(by_tenant) - len(top)
        if overflow > 0:
            tenant_bits.append(f"+{overflow} more")
        lines.append(f"tenants      : {'  '.join(tenant_bits) or '(none)'}")
        strategies = rollup.by_strategy()
        if strategies:
            lines.append(f"strategies   : {_counts_line(strategies)}")
    lines.append("")

    windows = state.windows.recent(show_windows)
    hours = state.windows.window_seconds / HOUR
    lines.append(f"windows (last {len(windows)}, {hours:g}h tumbling):")
    if windows:
        lines.append(
            f"  {'start':>8s} {'events':>7s} {'ev/h':>8s} {'submit':>6s} "
            f"{'done':>5s} {'intr':>5s} {'reacq':>5s} {'fault':>5s} "
            f"{'dlq':>4s} {'anom':>4s}"
        )
        for window in windows:
            lines.append(
                f"  {window.start / HOUR:>7.1f}h {window.events:>7d} "
                f"{window.events_per_hour:>8.1f} {window.submitted:>6d} "
                f"{window.done:>5d} {window.interruptions:>5d} "
                f"{window.reacquires:>5d} {window.faults:>5d} "
                f"{window.dead_letters:>4d} {window.anomalies:>4d}"
            )
    else:
        lines.append("  (no events yet)")
    lines.append("")

    lines.append(f"SLO ({state.slo_spec.name}):")
    for result in state.slo_results():
        mark = "PASS" if result.passed else "FAIL"
        lines.append(
            f"  [{mark}] {result.target.metric:<36s} "
            f"compliance {result.compliance:>6.1%} "
            f"({result.samples} samples, objective {result.target.objective:.0%})"
        )
    lines.append("")

    feed = list(state.feed)[-show_feed:]
    lines.append(f"feed (last {len(feed)} of {len(state.feed)}):")
    if feed:
        for entry in feed:
            lines.append(
                f"  [{_format_time(entry.time):>9s}] {entry.kind:<11s} {entry.text}"
            )
    else:
        lines.append("  (quiet)")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_MAX_FEED",
    "FeedEntry",
    "WatchState",
    "render_dashboard",
]
