"""LifecycleService: registration, completion listeners, results.

The service owns the in-memory registry of live
:class:`~repro.core.execution.WorkloadExecution` objects — the only
fleet state that is *not* durable, because executions hold the workload
definitions (code: segment durations, payload callables) that clients
re-supply on resume.  Everything the executions *know* is mirrored into
the :class:`~repro.core.fleet.state.FleetStateStore`, which is what
makes :meth:`restore` possible: given the store plus the workload
definitions, the service rebuilds every execution mid-flight, re-arms
its pending boot/segment timer at the original absolute time, and the
fleet finishes as if the teardown never happened.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.core.dag import StageWorkload
from repro.core.execution import ExecutionState, WorkloadExecution
from repro.core.result import FleetResult
from repro.errors import ExperimentError
from repro.obs import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.core.config import SpotVerseConfig
    from repro.core.fleet.checkpoint import CheckpointBackend
    from repro.core.fleet.state import FleetStateStore
    from repro.core.policy import PolicyContext
    from repro.workloads.base import Workload


class LifecycleService:
    """Registration, completion listeners and result assembly for fleets.

    Args:
        provider: The simulated cloud.
        config: Control-plane configuration.
        store: Durable fleet state.
        ctx: Policy context (live records are published into it).
        backend: Checkpoint backend handed to executions.
        strategy: Policy name stamped onto results.
    """

    def __init__(
        self,
        provider: "CloudProvider",
        config: "SpotVerseConfig",
        store: "FleetStateStore",
        ctx: "PolicyContext",
        backend: "CheckpointBackend",
        strategy: str,
    ) -> None:
        self._provider = provider
        self._config = config
        self._store = store
        self._ctx = ctx
        self._backend = backend
        self._strategy = strategy
        self._telemetry = provider.telemetry
        self._executions: Dict[str, WorkloadExecution] = {}
        self._completion_listeners: List[Callable[[WorkloadExecution], None]] = []

    def add_completion_listener(
        self, listener: Callable[[WorkloadExecution], None]
    ) -> None:
        """Call *listener* with each execution the moment it completes.

        The DAG coordinator uses this to release downstream steps;
        listeners run synchronously inside the completing event, after
        the ``workload.done`` emission.
        """
        self._completion_listeners.append(listener)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def find(self, workload_id: str) -> Optional[WorkloadExecution]:
        """The live execution for *workload_id*, or ``None``."""
        return self._executions.get(workload_id)

    def execution(self, workload_id: str) -> WorkloadExecution:
        """The live execution for *workload_id* (raises when unknown)."""
        return self._executions[workload_id]

    def executions(self) -> List[WorkloadExecution]:
        """Live executions, in registration order."""
        return list(self._executions.values())

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, workloads: Sequence["Workload"]) -> None:
        """Admit *workloads* into the fleet.

        Raises:
            ExperimentError: On an empty fleet, duplicate ids, or ids
                already used on this control plane.
        """
        if not workloads:
            raise ExperimentError("fleet must contain at least one workload")
        ids = [workload.workload_id for workload in workloads]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"duplicate workload ids in fleet: {ids!r}")
        already_known = [
            wid for wid in ids if wid in self._executions or self._store.has_workload(wid)
        ]
        if already_known:
            raise ExperimentError(
                f"workload ids already used by an earlier fleet on this "
                f"controller: {already_known!r}"
            )
        for workload in workloads:
            execution = WorkloadExecution(
                workload=workload,
                provider=self._provider,
                backend=self._backend,
                results_bucket=self._config.results_bucket,
                boot_delay=self._config.boot_delay,
                execute_payloads=self._config.execute_payloads,
                on_complete=self._on_workload_complete,
                fleet_state=self._store,
            )
            self._executions[workload.workload_id] = execution
            self._store.save_execution(execution)
            # History-aware policies read live records via the context.
            self._ctx.records[workload.workload_id] = execution.record
            # DAG stages carry their provenance (dag id + step labels)
            # onto the root trace hop and the submission event, so
            # per-step placement chains are reconstructible from the
            # stream alone; plain workloads emit exactly as before.
            step_attrs: Dict[str, Any] = {}
            if isinstance(workload, StageWorkload) and workload.dag_id:
                step_attrs = {
                    "dag_id": workload.dag_id,
                    "steps": list(workload.step_labels),
                }
            tracer = self._telemetry.tracer
            if tracer is not None:
                # Root hop of the workload's causal tree; closed by the
                # tracer's WORKLOAD_DONE subscription.
                tracer.open_root(
                    workload.workload_id,
                    "workload:submit",
                    "lifecycle",
                    kind=workload.kind._value_,
                    **step_attrs,
                )
            self._telemetry.bus.emit(
                EventType.WORKLOAD_SUBMITTED,
                workload_id=workload.workload_id,
                kind=workload.kind._value_,
                segments=len(workload.segment_durations),
                **step_attrs,
            )

    def _on_workload_complete(self, execution: WorkloadExecution) -> None:
        for listener in list(self._completion_listeners):
            listener(execution)

    def all_done(self, workloads: Sequence["Workload"]) -> bool:
        """Whether every workload in *workloads* has finished."""
        return all(
            self._executions[w.workload_id].state is ExecutionState.DONE
            for w in workloads
        )

    # ------------------------------------------------------------------
    # Restore (crash/teardown recovery)
    # ------------------------------------------------------------------
    def restore(self, workloads: Sequence["Workload"]) -> None:
        """Rebuild every stored execution from the state store.

        Args:
            workloads: The definitions of the stored workloads (state
                is durable; the definitions are code and must be
                re-supplied by the submitting client, as in Galaxy).

        Raises:
            ExperimentError: When a stored workload has no definition,
                or executions are already registered in-memory.
        """
        if self._executions:
            raise ExperimentError("restore() requires a freshly built control plane")
        definitions = {workload.workload_id: workload for workload in workloads}
        for item in self._store.workload_items():
            workload = definitions.get(item["workload_id"])
            if workload is None:
                raise ExperimentError(
                    f"no workload definition supplied for stored workload "
                    f"{item['workload_id']!r}"
                )
            execution = WorkloadExecution.restore(
                item=item,
                workload=workload,
                provider=self._provider,
                backend=self._backend,
                results_bucket=self._config.results_bucket,
                boot_delay=self._config.boot_delay,
                execute_payloads=self._config.execute_payloads,
                on_complete=self._on_workload_complete,
                fleet_state=self._store,
            )
            self._executions[workload.workload_id] = execution
            self._ctx.records[workload.workload_id] = execution.record

    def teardown(self) -> None:
        """Cancel in-process timers and forget the live executions.

        Crash semantics: pending boot/segment events die with the
        controller process; their due times are in the store, so
        :meth:`restore` re-arms them at the original absolute times.
        """
        for execution in self._executions.values():
            execution.detach_timers()
        self._executions.clear()

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def build_result(self, workloads: Sequence["Workload"]) -> FleetResult:
        """Settle billing and assemble the :class:`FleetResult`."""
        self._provider.ec2.settle_billing()
        # Stop anything still running (deadline hit) and release
        # untracked capacity.
        for execution in self._executions.values():
            if execution.instance is not None and execution.instance.is_live:
                self._provider.ec2.terminate_instances([execution.instance.instance_id])
        records = []
        ledger = self._provider.ledger
        for workload in workloads:
            execution = self._executions[workload.workload_id]
            execution.record.cost = ledger.total_for_tag(workload.workload_id)
            self._store.save_execution(execution)
            records.append(execution.record)
        return FleetResult(
            strategy=self._strategy,
            records=records,
            total_cost=ledger.total(),
            instance_cost=ledger.instance_total(),
            overhead_cost=ledger.overhead_total(),
            ended_at=self._provider.engine.now,
        )
