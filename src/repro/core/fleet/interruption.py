"""InterruptionService: the EventBridge → Lambda → Step Functions path.

Owns the paper's Section 4 reaction chain: an EventBridge rule routes
EC2's two-minute spot interruption warnings to the interruption-handler
Lambda, which checkpoints/records the loss and starts a Step Functions
execution that re-acquires capacity per the placement policy (with
retries for failed requests).

All deployed resources target the state store's
:class:`~repro.core.fleet.state.ControlPlaneRouter`, never this object:
warnings and retry attempts already in flight keep working across a
controller teardown/rebuild, exactly as real Lambda/Step Functions
survive a control-plane redeploy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.cloud.retry import RetryPolicy, note_dead_letter
from repro.core.execution import ExecutionState
from repro.errors import ThrottlingError
from repro.obs import EventType
from repro.obs.tracing import traced_hop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.core.fleet.capacity import CapacityService
    from repro.core.fleet.lifecycle import LifecycleService
    from repro.core.fleet.state import FleetStateStore
    from repro.core.policy import PlacementPolicy, PolicyContext


class InterruptionService:
    """Handles interruption warnings and drives re-acquisition.

    Args:
        provider: The simulated cloud.
        policy: Placement policy consulted for migration targets.
        store: Durable fleet state (instance bindings).
        lifecycle: Registry resolving workload ids to live executions.
        capacity: Acquisition service used for the replacement instance.
        ctx: Policy context shared across the control plane.
    """

    def __init__(
        self,
        provider: "CloudProvider",
        policy: "PlacementPolicy",
        store: "FleetStateStore",
        lifecycle: "LifecycleService",
        capacity: "CapacityService",
        ctx: "PolicyContext",
    ) -> None:
        self._provider = provider
        self._policy = policy
        self._store = store
        self._lifecycle = lifecycle
        self._capacity = capacity
        self._ctx = ctx
        self._telemetry = provider.telemetry

    def deploy(self) -> None:
        """Create the Lambda, EventBridge rule, and state machine."""
        router = self._store.router
        self._provider.lambda_.create_function(
            "spotverse-interruption-handler",
            handler=router.interruption_event,
            memory_mb=128,
            simulated_duration=1.0,
        )
        self._provider.eventbridge.put_rule(
            "spotverse-on-interruption",
            source="aws.ec2",
            detail_type="EC2 Spot Instance Interruption Warning",
        )
        self._provider.eventbridge.add_target(
            "spotverse-on-interruption",
            self._provider.lambda_.as_target("spotverse-interruption-handler"),
        )
        self._provider.stepfunctions.create_state_machine(
            "spotverse-reacquire",
            task=router.reacquire,
            retry=RetryPolicy(max_attempts=4, interval=30.0, backoff_rate=2.0),
        )

    # ------------------------------------------------------------------
    # Event path
    # ------------------------------------------------------------------
    def handle_event(self, event: Dict[str, Any], context: object) -> str:
        """Lambda: record the warning, checkpoint, and re-acquire."""
        instance_id = event.get("detail", {}).get("instance-id", "")
        workload_id = self._store.pop_instance(instance_id)
        execution = (
            self._lifecycle.find(workload_id) if workload_id is not None else None
        )
        if execution is None or execution.state is ExecutionState.DONE:
            return "ignored"
        with traced_hop(
            self._telemetry.tracer,
            "interruption:handle",
            "interruption",
            trace_id=execution.workload.workload_id,
            instance_id=instance_id,
        ):
            lost_region = execution.handle_interruption_notice()
            self._telemetry.bus.emit(
                EventType.MIGRATION_STARTED,
                workload_id=execution.workload.workload_id,
                region=lost_region,
                instance_id=instance_id,
            )
            self._telemetry.metrics.counter(
                "migrations_started_total", "reacquisitions kicked off by interruptions"
            ).inc(region=lost_region)
            self._provider.stepfunctions.start_execution(
                "spotverse-reacquire",
                input={
                    "workload_id": execution.workload.workload_id,
                    "exclude_region": lost_region,
                },
            )
            return "handled"

    def reacquire_task(self, input: Dict[str, Any]) -> str:
        """Step Functions task: pick a migration target and request it."""
        workload_id = input["workload_id"]
        execution = self._lifecycle.execution(workload_id)
        if not execution.needs_instance:
            return "noop"
        placement = self._policy.migration_placement(
            execution.workload, input["exclude_region"], self._ctx
        )
        self._capacity.acquire(execution, placement, phase="migration")
        return placement.region

    # ------------------------------------------------------------------
    # Reconciliation (fault repair)
    # ------------------------------------------------------------------
    def reconcile_missed_interruptions(self) -> int:
        """Repair event-path losses the sweep can observe durably.

        The normal reaction chain (EventBridge → Lambda → Step
        Functions) can lose work under injected faults: a delivery
        dropped past its redelivery budget, or a handler Lambda that
        crashed after the instance binding was already popped.  This
        sweep walks the live executions — not the store's bindings,
        which a half-finished handler may have consumed — and repairs
        two symptoms:

        * an execution that believes it is booting/running on an
          instance that is no longer alive (a missed interruption);
        * an execution waiting for capacity with no tracked spot
          request and no pending retry to produce one (a stranded
          workload).

        Gated on a chaos controller being attached: fault-free runs
        must stay bit-identical, and the golden failure-injection
        tests rely on the unrepaired behavior.

        Returns:
            Number of executions repaired this sweep.
        """
        if self._provider.chaos is None:
            return 0
        try:
            return self._reconcile_once()
        except ThrottlingError as exc:
            # Durable state stayed unreadable through every retry; the
            # next sweep sees the same symptoms and repairs them then.
            note_dead_letter(self._telemetry, "reconcile:sweep", str(exc))
            return 0

    def _reconcile_once(self) -> int:
        repaired = 0
        reacquiring = set()
        for execution in self._lifecycle.executions():
            instance = execution.instance
            if instance is None or instance.is_live:
                continue
            if execution.state not in (ExecutionState.BOOTING, ExecutionState.RUNNING):
                continue
            workload_id = execution.workload.workload_id
            self._store.drop_instance(instance.instance_id, workload_id)
            lost_region = execution.handle_interruption_notice()
            self._telemetry.bus.emit(
                EventType.MIGRATION_STARTED,
                workload_id=workload_id,
                region=lost_region,
                instance_id=instance.instance_id,
                reconciled=True,
            )
            self._telemetry.metrics.counter(
                "reconciled_interruptions_total",
                "missed interruptions repaired by the sweep",
            ).inc(region=lost_region)
            with traced_hop(
                self._telemetry.tracer,
                "interruption:reconcile",
                "interruption",
                trace_id=workload_id,
                instance_id=instance.instance_id,
                region=lost_region,
            ):
                self._provider.stepfunctions.start_execution(
                    "spotverse-reacquire",
                    input={"workload_id": workload_id, "exclude_region": lost_region},
                )
            reacquiring.add(workload_id)
            repaired += 1
        tracked = {workload_id for _, workload_id in self._store.tracked_requests()}
        for execution in self._lifecycle.executions():
            workload_id = execution.workload.workload_id
            if (
                not execution.needs_instance
                or workload_id in tracked
                or workload_id in reacquiring
                or self._capacity.retry_pending(workload_id)
            ):
                continue
            self._telemetry.metrics.counter(
                "reconciled_stranded_total",
                "stranded capacity waits restarted by the sweep",
            ).inc()
            with traced_hop(
                self._telemetry.tracer,
                "interruption:restrand",
                "interruption",
                trace_id=workload_id,
            ):
                self._provider.stepfunctions.start_execution(
                    "spotverse-reacquire",
                    input={"workload_id": workload_id, "exclude_region": ""},
                )
            repaired += 1
        return repaired
