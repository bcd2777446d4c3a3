"""Algorithm-1 decision provenance: the audit trail behind placements.

After a run, the event stream says *what* happened — requests,
interruptions, migrations, fallbacks.  This module records *why*: at
every Algorithm-1 evaluation the Optimizer captures a
:class:`DecisionRecord` — the full region-metrics snapshot it scored,
each region's combined score and threshold verdict (pass/fail plus
margin), the surviving candidate set (cheapest first), which candidate
was chosen (and, on migration, the random draw's index and the
excluded interrupted region), or the on-demand fallback with its
reason when nothing cleared the threshold.

Records live in a :class:`DecisionLog` on the telemetry bundle and are
*also* published as ``decision.evaluated`` events whose attrs embed
the whole record, so a saved JSONL stream is a self-contained audit:
:func:`decisions_from_events` rebuilds the log offline and
:func:`render_explanation` renders a workload's causal chain
(decision → placement → interruption → migration decision → ...)
from the stream alone — what ``spotverse obs explain`` shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.events import EventBus, EventType, TelemetryEvent

#: The one fallback reason Algorithm 1 can produce (Section 5.2.4).
FALLBACK_BELOW_THRESHOLD = "no region cleared threshold"


@dataclass(frozen=True)
class RegionEvaluation:
    """One region's verdict inside a scoring round.

    Attributes:
        region: Region evaluated.
        spot_price: Spot price the Optimizer saw (USD/hour).
        od_price: On-demand price the Optimizer saw (USD/hour).
        placement_score: Spot Placement Score component (1-10).
        stability_score: Stability Score component (1-3).
        score: Effective combined score under the configured metric
            availability (may omit components; see the Optimizer).
        threshold: Algorithm 1's ``T`` at evaluation time.
        passed: Whether ``score >= threshold``.
        margin: ``score - threshold`` (negative when failed).
        collected_at: Sim time the Monitor collected the metrics —
            the decision may act on stale data, and this records how
            stale.
    """

    region: str
    spot_price: float
    od_price: float
    placement_score: float
    stability_score: int
    score: float
    threshold: float
    passed: bool
    margin: float
    collected_at: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "region": self.region,
            "spot_price": self.spot_price,
            "od_price": self.od_price,
            "placement_score": self.placement_score,
            "stability_score": self.stability_score,
            "score": self.score,
            "threshold": self.threshold,
            "passed": self.passed,
            "margin": self.margin,
            "collected_at": self.collected_at,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "RegionEvaluation":
        """Rebuild from :meth:`to_dict` form."""
        return cls(
            region=str(record["region"]),
            spot_price=float(record["spot_price"]),
            od_price=float(record["od_price"]),
            placement_score=float(record["placement_score"]),
            stability_score=int(record["stability_score"]),
            score=float(record["score"]),
            threshold=float(record["threshold"]),
            passed=bool(record["passed"]),
            margin=float(record["margin"]),
            collected_at=float(record.get("collected_at", 0.0)),
        )


@dataclass
class DecisionRecord:
    """One Algorithm-1 evaluation, end to end.

    Attributes:
        decision_id: Log-wide monotonic id.
        time: Sim time of the evaluation.
        kind: ``"initial"`` (fleet launch) or ``"migration"``.
        workload_ids: Workloads the decision placed (the whole fleet
            for initial rounds, one workload for migrations).
        threshold: Algorithm 1's ``T``.
        max_regions: Algorithm 1's ``R``.
        evaluations: Verdict per region *seen* (the excluded
            interrupted region, when any, appears here too — it was
            observed, just barred from candidacy).
        excluded_region: Interrupted region removed from candidacy
            ("" for initial decisions).
        candidates: Qualifying top-R regions, cheapest first — the set
            the choice was made from.
        chosen_region: Region the placement landed in.
        chosen_option: ``"spot"`` or ``"on-demand"``.
        fallback_reason: "" when spot was placed; the reason string
            when the decision fell back to on-demand.
        draw_index: Index into *candidates* of the migration random
            draw (None for initial/fallback decisions).
        steps: DAG-aware placement only: ``{workload id: step label}``
            for the stage workloads this decision placed (empty for
            whole-workload decisions).
        ready_set_size: How many ready steps the batched Algorithm-1
            round scored together (None for whole-workload decisions).
        tenant_id: Multi-tenant placement only: the tenant the batch
            was admitted for, or a comma-joined sorted list when one
            round placed several tenants ("" for single-tenant runs).
        batch_size: How many admitted workloads the tenancy round
            placed off this one region-scoring pass (None outside the
            multi-tenant control plane).
    """

    decision_id: int
    time: float
    kind: str
    workload_ids: Tuple[str, ...]
    threshold: float
    max_regions: int
    evaluations: List[RegionEvaluation] = field(default_factory=list)
    excluded_region: str = ""
    candidates: Tuple[str, ...] = ()
    chosen_region: str = ""
    chosen_option: str = "spot"
    fallback_reason: str = ""
    draw_index: Optional[int] = None
    steps: Dict[str, str] = field(default_factory=dict)
    ready_set_size: Optional[int] = None
    tenant_id: str = ""
    batch_size: Optional[int] = None

    @property
    def n_passed(self) -> int:
        """Regions that cleared the threshold."""
        return sum(1 for evaluation in self.evaluations if evaluation.passed)

    @property
    def is_fallback(self) -> bool:
        """Whether the decision resolved to on-demand."""
        return bool(self.fallback_reason)

    def evaluation_for(self, region: str) -> Optional[RegionEvaluation]:
        """The verdict for *region*, if it was seen."""
        for evaluation in self.evaluations:
            if evaluation.region == region:
                return evaluation
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (embedded in event attrs)."""
        record = {
            "decision_id": self.decision_id,
            "time": self.time,
            "kind": self.kind,
            "workload_ids": list(self.workload_ids),
            "threshold": self.threshold,
            "max_regions": self.max_regions,
            "evaluations": [evaluation.to_dict() for evaluation in self.evaluations],
            "excluded_region": self.excluded_region,
            "candidates": list(self.candidates),
            "chosen_region": self.chosen_region,
            "chosen_option": self.chosen_option,
            "fallback_reason": self.fallback_reason,
            "draw_index": self.draw_index,
        }
        # Step fields appear only on DAG-aware decisions so pre-DAG
        # stream consumers (and whole-workload runs) see unchanged dicts.
        if self.steps:
            record["steps"] = dict(self.steps)
        if self.ready_set_size is not None:
            record["ready_set_size"] = self.ready_set_size
        # Tenancy fields appear only on batched multi-tenant decisions
        # so single-tenant streams stay byte-identical to older builds.
        if self.tenant_id:
            record["tenant_id"] = self.tenant_id
        if self.batch_size is not None:
            record["batch_size"] = self.batch_size
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "DecisionRecord":
        """Rebuild from :meth:`to_dict` form."""
        return cls(
            decision_id=int(record["decision_id"]),
            time=float(record["time"]),
            kind=str(record["kind"]),
            workload_ids=tuple(record.get("workload_ids", ())),
            threshold=float(record["threshold"]),
            max_regions=int(record["max_regions"]),
            evaluations=[
                RegionEvaluation.from_dict(evaluation)
                for evaluation in record.get("evaluations", ())
            ],
            excluded_region=str(record.get("excluded_region", "")),
            candidates=tuple(record.get("candidates", ())),
            chosen_region=str(record.get("chosen_region", "")),
            chosen_option=str(record.get("chosen_option", "spot")),
            fallback_reason=str(record.get("fallback_reason", "")),
            draw_index=record.get("draw_index"),
            steps=dict(record.get("steps", {})),
            ready_set_size=record.get("ready_set_size"),
            tenant_id=str(record.get("tenant_id", "")),
            batch_size=record.get("batch_size"),
        )

    def summary(self) -> str:
        """One-line human description (used by reports and explain)."""
        verdict = f"{self.n_passed}/{len(self.evaluations)} regions >= T={self.threshold:g}"
        if self.is_fallback:
            choice = (
                f"fallback ON-DEMAND in {self.chosen_region} ({self.fallback_reason})"
            )
        elif self.draw_index is not None:
            choice = (
                f"drew #{self.draw_index} of [{', '.join(self.candidates)}] "
                f"-> {self.chosen_region}"
            )
        elif not self.chosen_region:
            choice = f"round-robin over [{', '.join(self.candidates)}]"
        else:
            choice = f"candidates [{', '.join(self.candidates)}] -> {self.chosen_region}"
        excluded = f"; excluded {self.excluded_region}" if self.excluded_region else ""
        step = ""
        if self.steps:
            labels = ", ".join(self.steps[wid] for wid in self.workload_ids if wid in self.steps)
            ready = (
                f" (ready-set {self.ready_set_size})"
                if self.ready_set_size is not None
                else ""
            )
            step = f"; steps [{labels}]{ready}"
        return f"{verdict}{excluded}; {choice}{step}"


class DecisionLog:
    """Append-only decision audit trail, mirrored onto the event bus.

    Args:
        bus: Bus to publish ``decision.evaluated`` events on (and whose
            clock stamps records); omit for a silent offline log.
        max_records: Optional ring cap on retained records.  Unbounded
            by default (the historical behavior, right for hour-scale
            runs); fleet-scale drivers cap the log so million-lifecycle
            runs keep bounded memory.  ``decision_id`` keeps counting
            across drops and :attr:`decisions_dropped` says how many
            records the ring evicted — mirroring the live plane's
            ``trim_bus`` accounting.
    """

    def __init__(
        self, bus: Optional[EventBus] = None, max_records: Optional[int] = None
    ) -> None:
        self.bus = bus
        self._records: List[DecisionRecord] = []
        self._step_resolver: Optional[Callable[[str], Optional[str]]] = None
        self._tenant_resolver: Optional[Callable[[str], Optional[str]]] = None
        self._next_id = 0
        self.max_records = max_records
        self.decisions_dropped = 0

    def cap(self, max_records: Optional[int]) -> None:
        """Install (or lift, with ``None``) the retention ring cap."""
        self.max_records = max_records
        self._trim()

    def _trim(self) -> None:
        if self.max_records is None or self.max_records <= 0:
            return
        overflow = len(self._records) - self.max_records
        if overflow > 0:
            del self._records[:overflow]
            self.decisions_dropped += overflow

    def set_step_resolver(self, resolver: Optional[Callable[[str], Optional[str]]]) -> None:
        """Install the DAG coordinator's ``workload id -> step label`` map.

        When set, every decision whose workload ids resolve gets its
        step fields filled automatically — including migration
        decisions made deep inside the interruption path, which never
        sees the DAG.  Ids the resolver does not know (plain
        workloads) are annotated with nothing, keeping whole-workload
        records byte-identical to pre-DAG builds.
        """
        self._step_resolver = resolver

    def set_tenant_resolver(
        self, resolver: Optional[Callable[[str], Optional[str]]]
    ) -> None:
        """Install the tenancy layer's ``workload id -> tenant id`` map.

        When set, every decision whose workload ids resolve gets its
        ``tenant_id`` / ``batch_size`` fields filled automatically —
        the same pattern as :meth:`set_step_resolver`.  Ids the
        resolver does not know keep their records unchanged.
        """
        self._tenant_resolver = resolver

    def record(
        self,
        kind: str,
        workload_ids: Sequence[str],
        threshold: float,
        max_regions: int,
        evaluations: Sequence[RegionEvaluation],
        candidates: Sequence[str],
        chosen_region: str,
        chosen_option: str = "spot",
        excluded_region: str = "",
        fallback_reason: str = "",
        draw_index: Optional[int] = None,
    ) -> DecisionRecord:
        """Append one decision; publishes its event when a bus is bound."""
        steps: Dict[str, str] = {}
        if self._step_resolver is not None:
            for workload_id in workload_ids:
                label = self._step_resolver(workload_id)
                if label is not None:
                    steps[workload_id] = label
        tenants: List[str] = []
        if self._tenant_resolver is not None:
            for workload_id in workload_ids:
                tenant = self._tenant_resolver(workload_id)
                if tenant is not None and tenant not in tenants:
                    tenants.append(tenant)
        record = DecisionRecord(
            decision_id=self._next_id,
            time=self.bus.now() if self.bus is not None else 0.0,
            kind=kind,
            workload_ids=tuple(workload_ids),
            threshold=threshold,
            max_regions=max_regions,
            evaluations=list(evaluations),
            excluded_region=excluded_region,
            candidates=tuple(candidates),
            chosen_region=chosen_region,
            chosen_option=chosen_option,
            fallback_reason=fallback_reason,
            draw_index=draw_index,
            steps=steps,
            ready_set_size=len(workload_ids) if steps else None,
            tenant_id=",".join(sorted(tenants)),
            batch_size=len(workload_ids) if tenants else None,
        )
        self._next_id += 1
        self._records.append(record)
        self._trim()
        if self.bus is not None:
            self.bus.emit(
                EventType.DECISION_EVALUATED,
                workload_id=workload_ids[0] if len(workload_ids) == 1 else "",
                region=chosen_region,
                option=chosen_option,
                decision=record.to_dict(),
            )
        return record

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def records(self, kind: Optional[str] = None) -> List[DecisionRecord]:
        """All decisions in order (optionally of one kind)."""
        if kind is None:
            return list(self._records)
        return [record for record in self._records if record.kind == kind]

    def fallbacks(self) -> List[DecisionRecord]:
        """Decisions that resolved to on-demand."""
        return [record for record in self._records if record.is_fallback]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)


def decisions_from_events(events: Sequence[TelemetryEvent]) -> List[DecisionRecord]:
    """Rebuild the decision log from a (possibly reloaded) event stream."""
    return [
        DecisionRecord.from_dict(event.attrs["decision"])
        for event in events
        if event.type is EventType.DECISION_EVALUATED and "decision" in event.attrs
    ]


# ----------------------------------------------------------------------
# The causal chain renderer behind `spotverse obs explain`
# ----------------------------------------------------------------------
def _fmt_time(seconds: float) -> str:
    return f"t={seconds / 3600.0:9.2f}h"


def explanation_lines(
    events: Sequence[TelemetryEvent], workload_id: str
) -> List[str]:
    """The causal chain for one workload (or one DAG), as lines.

    *workload_id* may be a DAG id: stage workloads of a compiled DAG
    carry ids of the form ``<dag id>:<step label>``, so a DAG-id query
    prefix-matches every stage's events (plus the fleet-level
    ``dag.submitted`` / ``dag.done`` markers) and renders the whole
    per-step placement chain.  Exact workload ids behave as before.

    Raises:
        ReproError: If the stream never mentions *workload_id*.
    """

    def matches(candidate: str) -> bool:
        return candidate == workload_id or candidate.startswith(workload_id + ":")

    chain: List[str] = []
    seen = False
    for event in events:
        decision = None
        if event.type is EventType.DECISION_EVALUATED:
            payload = event.attrs.get("decision")
            if not payload or not any(
                matches(wid) for wid in payload.get("workload_ids", ())
            ):
                continue
            decision = DecisionRecord.from_dict(payload)
        elif event.type in (EventType.DAG_SUBMITTED, EventType.DAG_DONE):
            if event.attrs.get("dag_id") != workload_id:
                continue
        elif not matches(event.workload_id):
            continue
        seen = True
        stamp = _fmt_time(event.time)
        if decision is not None:
            chain.append(
                f"{stamp}  decision #{decision.decision_id} ({decision.kind}): "
                f"{decision.summary()}"
            )
            continue
        where = f" region={event.region}" if event.region else ""
        extras = ""
        if event.type is EventType.MIGRATION_COMPLETED:
            latency = float(event.attrs.get("latency", 0.0))
            extras = f" latency={latency / 60.0:.1f}min"
        elif event.type is EventType.FALLBACK_ON_DEMAND:
            reason = event.attrs.get("reason", "")
            if reason:
                extras = f" reason={reason!r}"
        elif event.type is EventType.INSTANCE_ATTACHED and event.option:
            extras = f" option={event.option}"
        elif event.type is EventType.DAG_STEP_RELEASED:
            steps = ", ".join(event.attrs.get("steps", ()))
            deps = event.attrs.get("deps", ())
            ready = event.attrs.get("ready_set")
            extras = f" steps=[{steps}]"
            if deps:
                extras += f" after=[{', '.join(deps)}]"
            if ready is not None:
                extras += f" ready-set={ready}"
        elif event.type in (EventType.DAG_SUBMITTED, EventType.DAG_DONE):
            extras = (
                f" dag={event.attrs.get('dag_id', '')}"
                f" stages={event.attrs.get('stages', '?')}"
            )
        label = (
            f"{event.type.value}[{event.workload_id}]"
            if event.workload_id and event.workload_id != workload_id
            else event.type.value
        )
        chain.append(f"{stamp}  {label}{where}{extras}")
    if not seen:
        known = sorted(
            {event.workload_id for event in events if event.workload_id}
        )
        raise ReproError(
            f"workload {workload_id!r} never appears in the stream"
            + (f" (known workloads: {', '.join(known)})" if known else "")
        )
    return chain


def render_explanation(events: Sequence[TelemetryEvent], workload_id: str) -> str:
    """Render the causal chain for *workload_id* as one block of text."""
    lines = explanation_lines(events, workload_id)
    interruptions = sum(
        1
        for event in events
        if (
            event.workload_id == workload_id
            or event.workload_id.startswith(workload_id + ":")
        )
        and event.type is EventType.INTERRUPTION_WARNING
    )
    header = (
        f"causal chain for {workload_id} "
        f"({len(lines)} links, {interruptions} interruption(s)):"
    )
    return "\n".join([header] + [f"  {line}" for line in lines])


__all__ = [
    "FALLBACK_BELOW_THRESHOLD",
    "DecisionLog",
    "DecisionRecord",
    "RegionEvaluation",
    "decisions_from_events",
    "explanation_lines",
    "render_explanation",
]
