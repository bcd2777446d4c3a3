"""Resilience invariants — online during the run, folded after it.

Each invariant is a small stateful check object with two faces:

* :meth:`InvariantCheck.observe` — fed every telemetry event as it
  arrives; returns any *new* problem strings the event just proved,
  which is what lets the live plane surface a violation at the
  sim-time it happens instead of minutes later at teardown;
* :meth:`InvariantCheck.finalize` — the post-run verdict over the
  provider/store/result state, returning the complete problem list.

:func:`check_invariants` is now literally a fold of the event stream
through a fresh :class:`OnlineInvariantMonitor` followed by
``finalize`` — the same objects, the same order, the same strings —
so the post-run scorecard is bit-identical to the pre-refactor
implementation whether or not anything watched the run live.

:func:`build_scorecard` folds the verdicts together with the
fault/retry/dead-letter tally the run's
:class:`~repro.obs.live.FleetRollup` kept into a plain
JSON-serialisable dict — the replayable artifact ``spotverse chaos
run`` prints and ``spotverse chaos report`` re-reads.  Nothing in the scorecard depends
on wall-clock, so the same seed and campaign produce byte-identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.obs import EventType, TelemetryEvent
from repro.obs.export import StreamValidator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.campaign import CampaignSpec
    from repro.cloud.provider import CloudProvider
    from repro.core.fleet.state import FleetStateStore
    from repro.core.result import FleetResult
    from repro.obs.live import LivePlane
    from repro.workloads.base import Workload


@dataclass(frozen=True)
class InvariantResult:
    """Verdict of one invariant check."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"name": self.name, "passed": self.passed}
        if self.detail:
            record["detail"] = self.detail
        return record


def _result(name: str, problems: List[str]) -> InvariantResult:
    return InvariantResult(
        name=name,
        passed=not problems,
        detail="; ".join(problems[:5]) + ("; ..." if len(problems) > 5 else ""),
    )


@dataclass(frozen=True)
class OnlineViolation:
    """One invariant problem surfaced at the sim-time it occurred."""

    time: float
    name: str
    detail: str
    seq: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "name": self.name,
            "detail": self.detail,
            "seq": self.seq,
        }


class RunContext:
    """Post-run state handed to every check's ``finalize``.

    Lazily materialises the store/workload indexes the finalize passes
    share, so building a context is free for callers that never
    finalize (a live monitor on a crashed run).
    """

    def __init__(
        self,
        provider: "CloudProvider",
        store: "FleetStateStore",
        result: "FleetResult",
        workloads: Sequence["Workload"],
    ) -> None:
        self.provider = provider
        self.store = store
        self.result = result
        self.workloads = workloads
        self._stored: Optional[Dict[str, Dict[str, Any]]] = None

    @property
    def stored(self) -> Dict[str, Dict[str, Any]]:
        """State-store items keyed by workload id (built once)."""
        if self._stored is None:
            self._stored = {
                item["workload_id"]: item for item in self.store.workload_items()
            }
        return self._stored

    @property
    def segments_by_id(self) -> Dict[str, int]:
        """Expected segment counts per submitted workload."""
        return {w.workload_id: len(w.segment_durations) for w in self.workloads}


class InvariantCheck:
    """Base: an invariant with an online face and a post-run face."""

    name = "invariant"

    def observe(self, event: TelemetryEvent) -> List[str]:
        """Fold one event; return problems this event just proved."""
        return []

    def finalize(self, ctx: RunContext) -> List[str]:
        """Complete problem list over the finished run."""
        raise NotImplementedError


class WorkloadsTerminalCheck(InvariantCheck):
    """Every submitted workload reached the terminal "done" state."""

    name = "workloads-terminal"

    def finalize(self, ctx: RunContext) -> List[str]:
        problems = []
        for workload in ctx.workloads:
            item = ctx.stored.get(workload.workload_id)
            if item is None:
                problems.append(f"{workload.workload_id}: not in the state store")
            elif item["state"] != "done":
                problems.append(f"{workload.workload_id}: state={item['state']!r}")
        return problems


class SingleCompletionCheck(InvariantCheck):
    """Exactly one completion per workload, every segment done once.

    Online, a *second* ``workload.done`` for the same workload is a
    violation the moment it lands; missing completions and stored
    segment mismatches are only decidable at finalize.
    """

    name = "single-completion"

    def __init__(self) -> None:
        self.done_counts: Dict[str, int] = {}

    def observe(self, event: TelemetryEvent) -> List[str]:
        if event.type is not EventType.WORKLOAD_DONE:
            return []
        count = self.done_counts.get(event.workload_id, 0) + 1
        self.done_counts[event.workload_id] = count
        if count > 1:
            return [f"{event.workload_id}: {count} workload.done events"]
        return []

    def finalize(self, ctx: RunContext) -> List[str]:
        problems = []
        for workload_id, total in sorted(ctx.segments_by_id.items()):
            count = self.done_counts.get(workload_id, 0)
            if count != 1:
                problems.append(f"{workload_id}: {count} workload.done events")
            item = ctx.stored.get(workload_id)
            if item is not None and item["completed_segments"] != total:
                problems.append(
                    f"{workload_id}: {item['completed_segments']}/{total} segments stored"
                )
        return problems


class InstancesTerminatedCheck(InvariantCheck):
    """No instance outlives the run (nothing orphaned and running)."""

    name = "instances-terminated"

    def finalize(self, ctx: RunContext) -> List[str]:
        return [
            f"{instance.instance_id}: still live in {instance.region}"
            for instance in ctx.provider.ec2.describe_instances()
            if instance.is_live or instance.end_time is None
        ]


class NoBillingPastEndCheck(InvariantCheck):
    """No charge accrued past the end of the run."""

    name = "no-billing-past-end"

    def finalize(self, ctx: RunContext) -> List[str]:
        last = ctx.provider.ledger.last_charge_time
        if last > ctx.result.ended_at:
            return [f"charge posted at t={last:.0f} (run ended t={ctx.result.ended_at:.0f})"]
        return []


class BindingsSettledCheck(InvariantCheck):
    """No stale instance binding may point at live capacity."""

    name = "bindings-settled"

    def finalize(self, ctx: RunContext) -> List[str]:
        problems = []
        for instance_id, workload_id in sorted(ctx.store.instance_bindings().items()):
            instance = ctx.provider.ec2.describe_instance(instance_id)
            item = ctx.stored.get(workload_id)
            if instance.is_live and (item is None or item["state"] != "done"):
                problems.append(f"{instance_id} -> {workload_id}: bound and live")
        return problems


class CheckpointMonotonicCheck(InvariantCheck):
    """Checkpoint progress only moves forward (modulo explicit fallback).

    Fully online: the violating save event *is* the violation, so the
    post-run problem list is just everything observed, in event order.
    """

    name = "checkpoint-monotonic"

    def __init__(self) -> None:
        self.floor: Dict[str, int] = {}
        self.problems: List[str] = []

    def observe(self, event: TelemetryEvent) -> List[str]:
        if event.type is EventType.CHECKPOINT_FALLBACK:
            self.floor[event.workload_id] = int(event.attrs.get("to_segments", 0))
        elif event.type is EventType.CHECKPOINT_SAVED:
            segments = int(event.attrs.get("segments", 0))
            if segments < self.floor.get(event.workload_id, 0):
                problem = (
                    f"{event.workload_id}: checkpoint went backwards "
                    f"{self.floor[event.workload_id]} -> {segments} (seq={event.seq})"
                )
                self.problems.append(problem)
                return [problem]
            self.floor[event.workload_id] = segments
        return []

    def finalize(self, ctx: RunContext) -> List[str]:
        return list(self.problems)


class DagDependenciesCheck(InvariantCheck):
    """No DAG step was released before all of its dependencies completed.

    The DAG coordinator's topological-release contract, checked from
    the stream alone: every ``dag.step_released`` event names its
    dependency stages in ``attrs["deps"]``, and each of those must
    already have a ``workload.done`` behind it.  Runs without DAG
    events trivially pass.
    """

    name = "dag-deps-ordered"

    def __init__(self) -> None:
        self.completed: set = set()
        self.problems: List[str] = []

    def observe(self, event: TelemetryEvent) -> List[str]:
        if event.type is EventType.WORKLOAD_DONE:
            self.completed.add(event.workload_id)
        elif event.type is EventType.DAG_STEP_RELEASED:
            missing = [
                dep
                for dep in event.attrs.get("deps", ())
                if dep not in self.completed
            ]
            if missing:
                problem = (
                    f"{event.workload_id}: released before dependencies "
                    f"completed: {missing} (seq={event.seq})"
                )
                self.problems.append(problem)
                return [problem]
        return []

    def finalize(self, ctx: RunContext) -> List[str]:
        return list(self.problems)


class StreamValidCheck(InvariantCheck):
    """The telemetry stream's ordering/causality guarantees held."""

    name = "stream-valid"

    def __init__(self) -> None:
        self.validator = StreamValidator()

    def observe(self, event: TelemetryEvent) -> List[str]:
        return self.validator.observe(event)

    def finalize(self, ctx: RunContext) -> List[str]:
        return list(self.validator.problems)


class TenantQuotaCheck(InvariantCheck):
    """No tenant ever held more in-flight workloads than its quota.

    Reconstructed from the stream alone rather than trusted from the
    admission controller's own attrs: ``tenant.admitted`` increments a
    per-tenant counter, the attributed workload's ``workload.done``
    decrements it, and the counter must never exceed the quota the
    tenant registered with (0 = unlimited).  Runs without tenancy
    events trivially pass.
    """

    name = "tenant-quota"

    def __init__(self) -> None:
        self.quota: Dict[str, int] = {}
        self.in_flight: Dict[str, int] = {}
        self.tenant_of: Dict[str, str] = {}
        self.problems: List[str] = []

    def observe(self, event: TelemetryEvent) -> List[str]:
        if event.type is EventType.TENANT_REGISTERED:
            self.quota[str(event.attrs["tenant_id"])] = int(
                event.attrs.get("max_in_flight", 0)
            )
        elif event.type is EventType.TENANT_ADMITTED:
            tenant_id = str(event.attrs["tenant_id"])
            self.tenant_of[event.workload_id] = tenant_id
            count = self.in_flight.get(tenant_id, 0) + 1
            self.in_flight[tenant_id] = count
            quota = self.quota.get(tenant_id, int(event.attrs.get("quota", 0)))
            if quota and count > quota:
                problem = (
                    f"{tenant_id}: {count} in flight over quota {quota} "
                    f"(seq={event.seq})"
                )
                self.problems.append(problem)
                return [problem]
        elif event.type is EventType.WORKLOAD_DONE:
            tenant_id = self.tenant_of.get(event.workload_id)
            if tenant_id is not None:
                self.in_flight[tenant_id] = max(
                    0, self.in_flight.get(tenant_id, 0) - 1
                )
        return []

    def finalize(self, ctx: RunContext) -> List[str]:
        return list(self.problems)


class TenantFairnessCheck(InvariantCheck):
    """Weighted fair-share admission never starves an eligible tenant.

    Every ``tenant.admitted`` event names the tenants that were
    eligible (queued work, free quota) but passed over.  Under
    start-time weighted fair queuing, a continuously eligible tenant is
    served at least once per ``ceil(total_weight / weight)`` admissions
    asymptotically; the check allows twice that plus slack for virtual
    -time offsets before calling starvation.  Tenants absent from an
    admission's ``passed_over`` list were not eligible at that moment,
    so their starvation clock resets.  Runs without tenancy events
    trivially pass.
    """

    name = "tenant-fairness"

    def __init__(self) -> None:
        self.weights: Dict[str, float] = {}
        self.passed_streak: Dict[str, int] = {}
        self.problems: List[str] = []

    def _bound(self, tenant_id: str) -> int:
        floor = 0.1  # mirrors repro.core.tenancy.ZERO_WEIGHT_FLOOR
        weight = max(self.weights.get(tenant_id, 1.0), floor)
        total = sum(max(w, floor) for w in self.weights.values()) or weight
        return int(2 * -(-total // weight)) + len(self.weights) + 1

    def observe(self, event: TelemetryEvent) -> List[str]:
        if event.type is EventType.TENANT_REGISTERED:
            self.weights[str(event.attrs["tenant_id"])] = float(
                event.attrs.get("weight", 1.0)
            )
            return []
        if event.type is not EventType.TENANT_ADMITTED:
            return []
        chosen = str(event.attrs["tenant_id"])
        passed = {str(t) for t in event.attrs.get("passed_over", ())}
        self.passed_streak[chosen] = 0
        problems = []
        for tenant_id in list(self.passed_streak):
            if tenant_id != chosen and tenant_id not in passed:
                self.passed_streak[tenant_id] = 0
        for tenant_id in sorted(passed):
            streak = self.passed_streak.get(tenant_id, 0) + 1
            self.passed_streak[tenant_id] = streak
            bound = self._bound(tenant_id)
            if streak > bound:
                problem = (
                    f"{tenant_id}: passed over {streak} consecutive admissions "
                    f"(fair-share bound {bound}, seq={event.seq})"
                )
                self.problems.append(problem)
                problems.append(problem)
        return problems

    def finalize(self, ctx: RunContext) -> List[str]:
        return list(self.problems)


def default_checks() -> List[InvariantCheck]:
    """Fresh check objects in the canonical scorecard order."""
    return [
        WorkloadsTerminalCheck(),
        SingleCompletionCheck(),
        InstancesTerminatedCheck(),
        NoBillingPastEndCheck(),
        BindingsSettledCheck(),
        CheckpointMonotonicCheck(),
        DagDependenciesCheck(),
        StreamValidCheck(),
        TenantQuotaCheck(),
        TenantFairnessCheck(),
    ]


class OnlineInvariantMonitor:
    """Runs every invariant check incrementally as events arrive.

    A plain reducer: the :class:`~repro.obs.live.LivePlane` feeds it the
    bus (its ``monitor``), or a caller feeds a saved stream through
    :meth:`observe`.  Violations are recorded with the sim-time of the
    offending event, and :meth:`observe` returns the new ones so the
    plane can snapshot the flight recorder the moment they are proven.
    After the run, :meth:`finalize` produces the exact scorecard
    :func:`check_invariants` would — same objects, same fold.
    """

    def __init__(self, workloads: Sequence["Workload"] = ()) -> None:
        self.workloads = list(workloads)
        self.checks = default_checks()
        self.violations: List[OnlineViolation] = []

    def observe(self, event: TelemetryEvent) -> List[OnlineViolation]:
        """Fold one event through every check; returns new violations.

        The bus delivers in ``seq`` order even when a subscriber emits
        during fan-out, so a live monitor folds exactly the sequence a
        post-run ``bus.events()`` fold does.
        """
        new = [
            OnlineViolation(time=event.time, name=check.name, detail=problem, seq=event.seq)
            for check in self.checks
            for problem in check.observe(event)
        ]
        self.violations.extend(new)
        return new

    def finalize(
        self,
        provider: "CloudProvider",
        store: "FleetStateStore",
        result: "FleetResult",
    ) -> List[InvariantResult]:
        """Post-run verdicts, bit-identical to :func:`check_invariants`."""
        ctx = RunContext(provider, store, result, self.workloads)
        return [_result(check.name, check.finalize(ctx)) for check in self.checks]


def check_invariants(
    provider: "CloudProvider",
    store: "FleetStateStore",
    result: "FleetResult",
    workloads: Sequence["Workload"],
) -> List[InvariantResult]:
    """Assert the resilience invariants over a finished run.

    Args:
        provider: The provider the run executed against (telemetry,
            EC2 state, and the billing ledger are read from it).
        store: The fleet's durable state store.
        result: The run's :class:`FleetResult`.
        workloads: The submitted workload definitions.

    Returns:
        One :class:`InvariantResult` per invariant, in a stable order.

    This is the batch fold over :class:`OnlineInvariantMonitor`: a
    fresh monitor fed the full event stream finalizes to the same
    verdicts a live-attached one accumulates.
    """
    monitor = OnlineInvariantMonitor(workloads)
    for event in provider.telemetry.bus.events():
        monitor.observe(event)
    return monitor.finalize(provider, store, result)


# ----------------------------------------------------------------------
# Scorecard
# ----------------------------------------------------------------------
def build_scorecard(
    provider: "CloudProvider",
    store: "FleetStateStore",
    result: "FleetResult",
    plane: "LivePlane",
    campaign: "CampaignSpec",
    policy: str,
    seed: int,
    extra_invariants: Sequence[InvariantResult] = (),
) -> Dict[str, Any]:
    """Assemble the deterministic chaos scorecard for one run.

    Reads the :class:`~repro.obs.live.LivePlane` that followed the run:
    its ``monitor`` supplies the verdicts and its rollup's chaos tally
    the ``faults`` block, so nothing here rescans the stream.
    """
    invariants = list(plane.monitor.finalize(provider, store, result))
    invariants.extend(extra_invariants)
    tally = plane.rollup.chaos_tally()
    per_workload = {}
    stored = {item["workload_id"]: item for item in store.workload_items()}
    for record in result.records:
        item = stored.get(record.workload_id, {})
        per_workload[record.workload_id] = {
            "state": item.get("state", "unknown"),
            "segments": item.get("completed_segments", 0),
            "interruptions": record.n_interruptions,
            "attempts": record.attempts,
            "on_demand_attempts": record.on_demand_attempts,
            "regions": list(record.regions),
            "cost": record.cost,
        }
    return {
        "campaign": campaign.to_dict(),
        "policy": policy,
        "seed": seed,
        "invariants": [inv.to_dict() for inv in invariants],
        "all_passed": all(inv.passed for inv in invariants),
        "faults": {
            "by_kind": tally["faults_by_kind"],
            "total": sum(tally["faults_by_kind"].values()),
            "retries": tally["retries"],
            "dead_letters": tally["dead_letters"],
            "checkpoint_fallbacks": tally["checkpoint_fallbacks"],
            "reconciled_interruptions": tally["reconciled_interruptions"],
        },
        "totals": {
            "total_cost": result.total_cost,
            "instance_cost": result.instance_cost,
            "overhead_cost": result.overhead_cost,
            "ended_at": result.ended_at,
            "interruptions": sum(r.n_interruptions for r in result.records),
        },
        "workloads": per_workload,
    }


def render_scorecard(scorecard: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`build_scorecard` dict."""
    lines = [
        f"chaos campaign   : {scorecard['campaign']['name']} "
        f"({len(scorecard['campaign'].get('injections', []))} injections)",
        f"policy / seed    : {scorecard['policy']} / {scorecard['seed']}",
        f"faults injected  : {scorecard['faults']['total']} "
        f"(retries {scorecard['faults']['retries']}, "
        f"dead letters {scorecard['faults']['dead_letters']}, "
        f"checkpoint fallbacks {scorecard['faults']['checkpoint_fallbacks']}, "
        f"reconciled {scorecard['faults']['reconciled_interruptions']})",
    ]
    for kind, count in scorecard["faults"]["by_kind"].items():
        lines.append(f"  {kind:<24s} {count}")
    lines.append("invariants:")
    for inv in scorecard["invariants"]:
        mark = "PASS" if inv["passed"] else "FAIL"
        suffix = f" — {inv['detail']}" if inv.get("detail") and not inv["passed"] else ""
        lines.append(f"  [{mark}] {inv['name']}{suffix}")
    totals = scorecard["totals"]
    lines.append(
        f"totals           : ${totals['total_cost']:.2f} "
        f"({totals['interruptions']} interruptions, ended t={totals['ended_at']:.0f}s)"
    )
    verdict = "ALL INVARIANTS PASSED" if scorecard["all_passed"] else "INVARIANT VIOLATIONS"
    lines.append(f"verdict          : {verdict}")
    return "\n".join(lines)
