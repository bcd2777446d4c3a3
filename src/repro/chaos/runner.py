"""End-to-end chaos campaign runs.

:func:`run_campaign` assembles the same fleet scenario the golden
equivalence suite uses (mixed standard + checkpointable workloads, one
policy, a seeded provider), installs a
:class:`~repro.chaos.faults.ChaosController` for the requested
campaign, runs the fleet to completion — executing any
``controller-kill`` injections as real teardown/rebuild cycles over the
durable state store — and returns the run's resilience scorecard.

Everything is driven by the engine's seeded RNG streams, so the same
``(policy, campaign, seed)`` triple produces a byte-identical scorecard
on every invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.campaign import CampaignSpec, default_campaign
from repro.chaos.faults import ChaosController
from repro.chaos.invariants import (
    InvariantResult,
    OnlineInvariantMonitor,
    build_scorecard,
)
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.result import FleetResult
from repro.obs.live import LivePlane
from repro.strategies import build_strategy
from repro.workloads.base import Workload, synthetic_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload

DEFAULT_SEED = 11
DEFAULT_WARMUP_STEPS = 24
DEFAULT_MAX_HOURS = 72.0


def default_fleet() -> List[Workload]:
    """The golden scenario fleet: 3 standard + 3 checkpointable jobs."""
    fleet: List[Workload] = [
        synthetic_workload(f"std-{i}", duration_hours=6.0, n_segments=6) for i in range(3)
    ]
    fleet += [
        ngs_preprocessing_workload(f"ckpt-{i}", duration_hours=6.0, n_segments=6)
        for i in range(3)
    ]
    return fleet


def tenant_fleet(n_tenants: int = 3):
    """Roster + submissions for a multi-tenant chaos run.

    Each tenant gets one standard and one checkpointable workload, a
    distinct fair-share weight (``i + 1``), and a concurrency quota of
    2 — small enough that the quota invariant actually binds during
    re-admission after a reclaim storm.

    Returns:
        ``(specs, submissions)``: the :class:`TenantSpec` roster and
        the ordered ``(tenant_id, workload)`` submission list.
    """
    from repro.core.tenancy import TenantSpec

    specs = []
    submissions: List[Tuple[str, Workload]] = []
    for index in range(int(n_tenants)):
        tenant_id = f"tenant-{index:02d}"
        specs.append(
            TenantSpec(tenant_id=tenant_id, weight=float(index + 1), max_in_flight=2)
        )
        submissions.append(
            (tenant_id, synthetic_workload(f"t{index}-std", duration_hours=6.0, n_segments=6))
        )
        submissions.append(
            (
                tenant_id,
                ngs_preprocessing_workload(
                    f"t{index}-ckpt", duration_hours=6.0, n_segments=6
                ),
            )
        )
    return specs, submissions


@dataclass
class ChaosRunOutcome:
    """What one chaos run produced.

    Attributes:
        scorecard: Deterministic JSON-serialisable resilience scorecard.
        result: The underlying :class:`FleetResult`.
    """

    scorecard: Dict[str, Any]
    result: FleetResult

    @property
    def all_passed(self) -> bool:
        return bool(self.scorecard["all_passed"])


def _execute(
    policy_name: str,
    campaign: CampaignSpec,
    seed: int,
    max_hours: float,
    warmup_steps: int,
    workloads: Optional[Sequence[Workload]],
    apply_kills: bool,
    stream_dir: Optional[str] = None,
    blackbox_dir: Optional[str] = None,
    tenants: Optional[int] = None,
):
    """One full run; returns live objects for scorecard assembly.

    A :class:`~repro.obs.live.LivePlane`, the run's one bus subscriber,
    feeds an :class:`OnlineInvariantMonitor` (violations carry the
    sim-times they occurred at) and, with *blackbox_dir*, a
    :class:`~repro.obs.flight.FlightRecorder`; with *stream_dir* it
    also streams the telemetry into segmented JSONL there.  The plane
    is closed even when the run raises, so the stream is sealed and
    ``BLACKBOX_final.json`` written either way.
    """
    provider = CloudProvider(seed=seed)
    provider.warmup_markets(warmup_steps)
    if tenants is not None:
        from repro.core.tenancy import MultiTenantController

        controller_cls = MultiTenantController
        specs, submissions = tenant_fleet(tenants)
        fleet = [workload for _, workload in submissions]
    else:
        controller_cls = FleetController
        specs, submissions = [], []
        fleet = list(workloads) if workloads is not None else default_fleet()
    recorder = None
    if blackbox_dir is not None:
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(provider.telemetry, directory=blackbox_dir)
        recorder.guard_engine(provider.engine)
    plane = LivePlane(
        provider.telemetry,
        directory=stream_dir,
        recorder=recorder,
        monitor=OnlineInvariantMonitor(fleet),
    )
    try:
        config, monitor, policy = build_strategy(policy_name, provider, SpotVerseConfig())
        controller = controller_cls(provider, policy, config, monitor=monitor)
        if recorder is not None:
            recorder.add_context("fleet_states", controller.state_store.state_counts)

        # The controller-kill offsets are executed here (process-level
        # faults); everything else is the chaos controller's business.
        chaos = ChaosController(provider, campaign.without_kills())
        chaos.install()
        if tenants is not None:
            for spec in specs:
                controller.register_tenant(spec)
            for tenant_id, workload in submissions:
                controller.submit(tenant_id, workload)
        else:
            controller.submit(fleet)
        engine = provider.engine
        for offset in campaign.kills if apply_kills else ():
            target = chaos.started_at + offset
            if target > engine.now:
                engine.run_until(target)
            store = controller.state_store
            controller.teardown()
            del controller
            controller = controller_cls(
                provider, policy, config, monitor=monitor, state_store=store
            )
            controller.restore(fleet)
        if tenants is not None:
            result = controller.wait(max_hours=max_hours)
        else:
            result = controller.wait(fleet, max_hours=max_hours)
        chaos.deactivate()
    finally:
        plane.close()
    return provider, controller.state_store, result, fleet, plane


def run_campaign(
    policy: str = "spotverse",
    campaign: Optional[CampaignSpec] = None,
    seed: int = DEFAULT_SEED,
    max_hours: float = DEFAULT_MAX_HOURS,
    warmup_steps: int = DEFAULT_WARMUP_STEPS,
    workloads: Optional[Sequence[Workload]] = None,
    verify_resume_equivalence: bool = False,
    stream_dir: Optional[str] = None,
    blackbox_dir: Optional[str] = None,
    tenants: Optional[int] = None,
) -> ChaosRunOutcome:
    """Run *campaign* against *policy* and score the outcome.

    Args:
        policy: A :data:`repro.strategies.STRATEGIES` name.
        campaign: Fault campaign; :func:`default_campaign` when omitted.
        seed: Master engine seed (drives markets and chaos streams).
        max_hours: Fleet deadline in virtual hours.
        warmup_steps: Market burn-in steps before the fleet starts.
        workloads: Fleet override; :func:`default_fleet` when omitted.
        verify_resume_equivalence: When the campaign contains
            ``controller-kill`` injections, additionally run the same
            campaign *without* kills and require a bit-identical
            :class:`FleetResult` — crash recovery must not change the
            outcome.  (Only meaningful with kills scheduled outside
            rate-based fault windows; recovery's extra store reads
            otherwise consume window RNG draws.)
        stream_dir: Stream the run's telemetry into segmented JSONL
            here while it executes (``spotverse obs watch --dir``
            tails it).  The resume-equivalence baseline run, when any,
            never exports.
        blackbox_dir: Arm a flight recorder writing ``BLACKBOX_*.json``
            artifacts here on invariant breach, SLO breach, dead-letter,
            or engine exception (plus an unconditional run-end snapshot,
            written even when the run raises).
        tenants: Run the campaign through the multi-tenant control
            plane instead: :func:`tenant_fleet` builds this many
            tenants (distinct weights, quota 2, two workloads each),
            submissions go through fair-share admission, and the
            per-tenant quota/fairness invariants join the scorecard's
            verdicts.  Overrides *workloads*.

    Returns:
        A :class:`ChaosRunOutcome` with the deterministic scorecard.
    """
    campaign = campaign if campaign is not None else default_campaign()
    provider, store, result, _, plane = _execute(
        policy,
        campaign,
        seed,
        max_hours,
        warmup_steps,
        workloads,
        apply_kills=True,
        stream_dir=stream_dir,
        blackbox_dir=blackbox_dir,
        tenants=tenants,
    )
    extra: List[InvariantResult] = []
    if verify_resume_equivalence and campaign.kills:
        baseline_provider, _, baseline, _, _ = _execute(
            policy,
            campaign,
            seed,
            max_hours,
            warmup_steps,
            workloads,
            apply_kills=False,
            tenants=tenants,
        )
        baseline_provider.shutdown()
        extra.append(_compare_results(result, baseline))
    scorecard = build_scorecard(
        provider, store, result, plane, campaign, policy, seed, extra_invariants=extra
    )
    provider.shutdown()
    return ChaosRunOutcome(scorecard=scorecard, result=result)


def _compare_results(killed: FleetResult, baseline: FleetResult) -> InvariantResult:
    """Bit-equality of a killed-and-recovered run vs. its baseline."""
    problems: List[str] = []
    for field_name in ("total_cost", "instance_cost", "overhead_cost", "ended_at"):
        lhs, rhs = getattr(killed, field_name), getattr(baseline, field_name)
        if lhs != rhs:
            problems.append(f"{field_name}: {lhs!r} != {rhs!r}")
    killed_records = {record.workload_id: record for record in killed.records}
    for record in baseline.records:
        other = killed_records.get(record.workload_id)
        if other is None:
            problems.append(f"{record.workload_id}: missing from recovered run")
        elif (other.completed_at, other.cost, other.attempts, other.regions) != (
            record.completed_at,
            record.cost,
            record.attempts,
            record.regions,
        ):
            problems.append(f"{record.workload_id}: record diverged")
    return InvariantResult(
        name="resume-equivalence",
        passed=not problems,
        detail="; ".join(problems[:5]),
    )


__all__ = [
    "ChaosRunOutcome",
    "DEFAULT_MAX_HOURS",
    "DEFAULT_SEED",
    "DEFAULT_WARMUP_STEPS",
    "default_fleet",
    "run_campaign",
    "tenant_fleet",
]
