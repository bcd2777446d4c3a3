"""Flight recorder: a bounded black box for post-incident forensics.

Aviation flight recorders keep only the last N minutes — enough to
reconstruct the incident without retaining the whole flight.  The
:class:`FlightRecorder` does the same for a run: a ring buffer of the
last ``capacity`` telemetry events (plus, at snapshot time, the
current metrics and any recent trace hops) that stays O(capacity) no
matter how long the run is.  When something goes wrong — a chaos
invariant breach, an SLO breach, a resilience dead-letter, or an
unhandled engine exception — :meth:`trigger` freezes the ring into a
self-contained ``BLACKBOX_*.json`` artifact carrying everything needed
to diagnose the failure without re-running the sim.

The recorder is a plain reducer: the :class:`~repro.obs.live.LivePlane`
feeds it every bus event through :meth:`FlightRecorder.observe` (a
resilience dead-letter triggers a snapshot there), it never subscribes
or emits, and it serialises events lazily (only at trigger time), so
an armed-but-untriggered recorder costs one deque append per event.
Only the snapshots actually written to disk (and the run-end one) are
built at all; later triggers keep a one-line summary.  Each ring event
is converted to its dict once and rendered to JSON once, and both are
reused by every snapshot it appears in.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.obs.events import EventType, TelemetryEvent

#: Artifact schema tag; bump on incompatible layout changes.
BLACKBOX_FORMAT = "spotverse-blackbox/1"

#: Default ring capacity (events retained before a trigger).
DEFAULT_CAPACITY = 512

#: Default cap on artifacts written per recorder (a flapping invariant
#: must not fill the disk or the heap; triggers past the cap are still
#: counted, as summaries).
DEFAULT_MAX_ARTIFACTS = 8

#: Trace hops included in a snapshot when a tracer is attached.
MAX_SNAPSHOT_HOPS = 64


def _slug(text: str) -> str:
    """Filesystem-safe lowercase slug for artifact names."""
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-") or "trigger"


class FlightRecorder:
    """Ring buffer of recent telemetry, snapshotted on trigger.

    Args:
        telemetry: The provider's :class:`~repro.obs.Telemetry` bundle.
        capacity: Events retained in the ring.
        directory: Where ``BLACKBOX_*.json`` artifacts land; ``None``
            keeps snapshots in-memory only (:attr:`triggers`).
        max_artifacts: Full-snapshot cap; later triggers are recorded
            in :attr:`triggers` as ``reason``/``detail``/``time``/``attrs``
            summaries and not written.
    """

    def __init__(
        self,
        telemetry,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[str] = None,
        max_artifacts: int = DEFAULT_MAX_ARTIFACTS,
    ) -> None:
        self.telemetry = telemetry
        self.capacity = max(1, int(capacity))
        self.directory = directory
        self.max_artifacts = max(0, int(max_artifacts))
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self.ring: Deque[TelemetryEvent] = deque(maxlen=self.capacity)
        #: One entry per trigger, in order: the full payload for the
        #: first ``max_artifacts`` and the run-end snapshot, a summary
        #: for the rest.  Kept payloads are read-only: snapshots whose
        #: rings overlap share the same event dicts.
        self.triggers: List[Dict[str, Any]] = []
        self.artifacts: List[str] = []
        self._context: Dict[str, Callable[[], Any]] = {}
        self._seq = 0
        #: ``to_dict`` form of each event in the last snapshotted ring,
        #: by ``seq`` (so at most ``capacity`` entries).
        self._dicts: Dict[int, Dict[str, Any]] = {}
        #: Artifact rendering of each event in the last written ring,
        #: by ``seq`` (so at most ``capacity`` entries).
        self._rendered: Dict[int, str] = {}

    def observe(self, event: TelemetryEvent) -> None:
        """Ring one event; a resilience dead-letter triggers a snapshot."""
        self.ring.append(event)
        if event.type is EventType.RESILIENCE_DEAD_LETTER:
            self.trigger(
                "dead-letter",
                detail=(
                    f"{event.attrs.get('scope', '?')}: "
                    f"{event.attrs.get('detail', event.workload_id or '?')}"
                ),
                seq=event.seq,
            )

    # ------------------------------------------------------------------
    # Context providers and trigger sources
    # ------------------------------------------------------------------
    def add_context(self, name: str, provider: Callable[[], Any]) -> None:
        """Register a callable whose result is embedded in snapshots.

        Providers run at trigger time and must return something
        JSON-serialisable (e.g. the fleet store's state counts).  A
        provider that raises is recorded as an error string rather
        than aborting the snapshot — the black box must never be the
        thing that crashes the run.
        """
        self._context[name] = provider

    def on_invariant_violation(self, violation) -> None:
        """Trigger hook for the online invariant monitor."""
        self.trigger(
            "invariant-breach",
            detail=f"{violation.name}: {violation.detail}",
            invariant=violation.name,
            seq=violation.seq,
        )

    def on_slo_breach(self, breach) -> None:
        """Trigger hook for the live plane's edge-triggered SLO watch."""
        self.trigger(
            "slo-breach",
            detail=(
                f"{breach.metric}: compliance {breach.compliance:.4f} "
                f"< objective {breach.objective:.4f}"
            ),
            metric=breach.metric,
        )

    def guard_engine(self, engine) -> None:
        """Snapshot on any unhandled exception escaping an engine event."""

        def _hook(exc: BaseException, event) -> None:
            self.trigger(
                "engine-exception",
                detail=f"{type(exc).__name__}: {exc}",
                label=getattr(event, "label", ""),
            )

        engine.error_hook = _hook

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def _events(self) -> List[Dict[str, Any]]:
        """The ring as ``to_dict`` forms, converting each event once.

        An event still in the ring at the next snapshot reuses its
        dict, so overlapping snapshots share those dicts.
        """
        kept = self._dicts
        dicts: Dict[int, Dict[str, Any]] = {}
        events = []
        for event in self.ring:
            record = kept.get(event.seq)
            if record is None:
                record = event.to_dict()
            dicts[event.seq] = record
            events.append(record)
        self._dicts = dicts
        return events

    def _payload(self, reason: str, detail: str, attrs: Dict[str, Any]) -> Dict[str, Any]:
        tracer = getattr(self.telemetry, "tracer", None)
        payload: Dict[str, Any] = {
            "format": BLACKBOX_FORMAT,
            "reason": reason,
            "detail": detail,
            "time": self.telemetry.bus.now(),
            "attrs": attrs,
            "events": self._events(),
            "metrics": [sample.to_dict() for sample in self.telemetry.metrics.collect()],
            "hops": (
                [hop.to_dict() for hop in tracer.hops[-MAX_SNAPSHOT_HOPS:]]
                if tracer is not None
                else []
            ),
            "context": {},
        }
        for name in sorted(self._context):
            try:
                payload["context"][name] = self._context[name]()
            except Exception as exc:  # noqa: BLE001 - forensics must not crash the run
                payload["context"][name] = f"<context error: {exc}>"
        return payload

    def _write(self, name: str, payload: Dict[str, Any]) -> str:
        """Write *payload* as ``json.dump(..., indent=2, sort_keys=True)`` does.

        The document is assembled key by key so the ``events`` list can
        reuse the rendering of every event a previous artifact already
        wrote; an event sits at nesting depth 2, hence its 4-space
        re-indent.  JSON strings never hold a raw newline, so indenting
        by line is exact.
        """
        rendered: Dict[int, str] = {}
        texts = []
        for event in payload["events"]:
            seq = event["seq"]
            text = self._rendered.get(seq)
            if text is None:
                text = json.dumps(event, indent=2, sort_keys=True).replace("\n", "\n    ")
            rendered[seq] = text
            texts.append(text)
        self._rendered = rendered
        parts = []
        for key in sorted(payload):
            if key == "events":
                value = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
            else:
                value = json.dumps(payload[key], indent=2, sort_keys=True).replace("\n", "\n  ")
            parts.append(f"  {json.dumps(key)}: {value}")
        path = os.path.join(self.directory, name)
        with open(path, "w") as handle:
            handle.write("{\n" + ",\n".join(parts) + "\n}\n")
        self.artifacts.append(path)
        return path

    def trigger(self, reason: str, detail: str = "", **attrs: Any) -> Dict[str, Any]:
        """Freeze the ring into a snapshot payload (and maybe a file).

        Past ``max_artifacts`` no payload is built: the returned (and
        kept) entry is the ``reason``/``detail``/``time``/``attrs``
        summary.
        """
        if self._seq < self.max_artifacts:
            entry = self._payload(reason, detail, attrs)
            self.triggers.append(entry)
            if self.directory is not None:
                self._write(f"BLACKBOX_{self._seq:03d}_{_slug(reason)}.json", entry)
        else:
            entry = {
                "reason": reason,
                "detail": detail,
                "time": self.telemetry.bus.now(),
                "attrs": attrs,
            }
            self.triggers.append(entry)
        self._seq += 1
        return entry

    def snapshot_final(self) -> Optional[str]:
        """Write an unconditional run-end snapshot, outside the cap.

        Returns the artifact path (``None`` without a directory).  CI
        uploads this even from clean runs, so the blackbox pipeline is
        exercised every build rather than only on failures.
        """
        payload = self._payload("run-end", "final snapshot at run end", {})
        self.triggers.append(payload)
        if self.directory is None:
            return None
        return self._write("BLACKBOX_final.json", payload)


__all__ = [
    "BLACKBOX_FORMAT",
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_ARTIFACTS",
    "FlightRecorder",
]
