"""DagCoordinator: topological release of ready steps into the fleet.

The coordinator is the control-plane face of :mod:`repro.core.dag`.
It owns no placement logic and no execution state — it *drives* the
existing services with stage workloads:

* ``submit`` registers each DAG's root stages through the
  :class:`~repro.core.fleet.lifecycle.LifecycleService` and places
  them through the controller's batched placement round (one
  ``policy.initial_placements`` call), exactly as a whole-workload
  fleet launch does.
* A completion listener on the lifecycle service marks stages done,
  records the region each stage completed in (the producer side of
  the egress model), and *coalesces* every stage that became ready at
  the same instant — across all submitted DAGs — into one zero-delay
  release event, so the whole per-tick ready set is scored by a
  single Algorithm-1 round instead of per-step calls.
* Released stages get their ``input_edges`` resolved against the
  recorded producer regions; the execution charges the cross-region
  transfer at every boot (so a migrated step re-pays the egress of
  moving its inputs).
* Interruptions need no coordinator involvement at all: the
  interruption service reschedules the interrupted *stage* through
  ``policy.migration_placement``, which is precisely "reschedule only
  the interrupted step" once the stage is the placement unit.

Progress is durable: the coordinator mirrors each DAG's completed
set and producer regions into the
:class:`~repro.core.fleet.state.FleetStateStore`'s dags table, so a
torn-down controller can :meth:`restore` mid-DAG and release the
remaining steps as their (already completed) dependencies dictate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.dag import DagWorkload, Stage, StepPlanner
from repro.core.execution import WorkloadExecution
from repro.errors import ExperimentError
from repro.obs import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.core.fleet.lifecycle import LifecycleService
    from repro.core.fleet.state import FleetStateStore
    from repro.sim.events import Event
    from repro.workloads.base import Workload


class DagCoordinator:
    """Schedules the ready steps of compiled DAGs onto the fleet.

    Args:
        provider: The simulated cloud.
        store: Durable fleet state (gains the dags table).
        lifecycle: Registration/completion accounting service.
        place: The controller's batched placement round for registered
            workloads (one ``initial_placements`` call, then one
            acquire each) — the round whole fleets launch through.
    """

    def __init__(
        self,
        provider: "CloudProvider",
        store: "FleetStateStore",
        lifecycle: "LifecycleService",
        place: Callable[[Sequence["Workload"]], None],
    ) -> None:
        self._engine = provider.engine
        self._telemetry = provider.telemetry
        self._store = store
        self._lifecycle = lifecycle
        self._place = place
        self._planners: Dict[str, StepPlanner] = {}
        self._stage_dag: Dict[str, str] = {}
        self._producer_regions: Dict[str, str] = {}
        self._pending_release: List[str] = []
        self._release_event: Optional["Event"] = None
        lifecycle.add_completion_listener(self._on_stage_complete)
        # Decision provenance: any Algorithm-1 round that places a
        # stage workload — initial batches here, migrations deep in
        # the interruption path — gets its step fields annotated.
        self._telemetry.decisions.set_step_resolver(self._step_label)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _step_label(self, workload_id: str) -> Optional[str]:
        dag_id = self._stage_dag.get(workload_id)
        if dag_id is None:
            return None
        stage = self._planners[dag_id].dag.stage(workload_id)
        return stage.step_labels[0] if stage.step_labels else workload_id

    def planner(self, dag_id: str) -> StepPlanner:
        """The live planner for *dag_id* (raises when unknown)."""
        return self._planners[dag_id]

    def all_done(self, dags: Sequence[DagWorkload]) -> bool:
        """Whether every stage of every DAG in *dags* completed."""
        return all(self._planners[dag.dag_id].all_done for dag in dags)

    def released_workloads(self, dags: Sequence[DagWorkload]) -> List["Workload"]:
        """Stage workloads released so far, in topological order.

        After a completed run this is every stage; on a deadline hit,
        stages whose dependencies never finished were never released
        and have no execution (or record) to report.
        """
        workloads: List["Workload"] = []
        for dag in dags:
            released = self._planners[dag.dag_id].released
            workloads.extend(
                stage.workload for stage in dag.stages if stage.stage_id in released
            )
        return workloads

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, dags: Sequence[DagWorkload]) -> None:
        """Admit *dags* and release their root stages (batched).

        Raises:
            ExperimentError: On an empty batch, duplicate DAG ids, or
                ids already used on this control plane.
        """
        if not dags:
            raise ExperimentError("must submit at least one DAG")
        ids = [dag.dag_id for dag in dags]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"duplicate dag ids: {ids!r}")
        known = [
            dag_id
            for dag_id in ids
            if dag_id in self._planners or self._store.has_dag(dag_id)
        ]
        if known:
            raise ExperimentError(
                f"dag ids already used on this control plane: {known!r}"
            )
        roots: List[str] = []
        for dag in dags:
            self._admit(dag)
            self._telemetry.bus.emit(
                EventType.DAG_SUBMITTED,
                dag_id=dag.dag_id,
                stages=dag.n_stages,
                steps=dag.n_steps,
            )
            self._save(dag.dag_id)
            roots.extend(stage.stage_id for stage in dag.roots())
        self._release(roots)

    def _admit(self, dag: DagWorkload) -> None:
        self._planners[dag.dag_id] = StepPlanner(dag)
        for stage in dag.stages:
            self._stage_dag[stage.stage_id] = dag.dag_id

    # ------------------------------------------------------------------
    # Release path (the per-tick batched Algorithm-1 round)
    # ------------------------------------------------------------------
    def _release(self, stage_ids: List[str]) -> None:
        """Register and place *stage_ids* in one batched decision."""
        if not stage_ids:
            return
        stages: List[Stage] = []
        for stage_id in stage_ids:
            planner = self._planners[self._stage_dag[stage_id]]
            planner.mark_released(stage_id)
            stages.append(planner.dag.stage(stage_id))
        workloads = [stage.workload for stage in stages]
        self._lifecycle.register(workloads)
        for stage in stages:
            execution = self._lifecycle.execution(stage.stage_id)
            execution.input_sources = self._resolve_inputs(stage)
            self._telemetry.bus.emit(
                EventType.DAG_STEP_RELEASED,
                workload_id=stage.stage_id,
                dag_id=self._stage_dag[stage.stage_id],
                steps=list(stage.step_labels),
                deps=list(stage.deps),
                ready_set=len(stage_ids),
            )
        # One scoring round for the whole ready set: the policy scores
        # regions once and spreads the batch (SpotVerse's round-robin
        # over the top-R candidates), exactly like a fleet launch.
        self._place(workloads)

    def _resolve_inputs(self, stage: Stage) -> List[tuple]:
        """Resolve input edges to ``(producer region, bytes)`` pairs."""
        sources = []
        for producer_id, nbytes in stage.input_edges:
            region = self._producer_regions.get(producer_id)
            if region is not None and nbytes > 0:
                sources.append((region, nbytes))
        return sources

    def _queue_release(self, stage_ids: List[str]) -> None:
        """Coalesce releases into one zero-delay batched decision.

        Completions landing at the same sim time each fire their own
        engine event; queuing into a single zero-delay follow-up means
        every step they made ready is scored by *one* Algorithm-1
        round for the whole tick, not one round per completion.

        Stages are marked released at queue time, so a later
        completion in the same tick cannot re-queue a stage the
        planner already reported ready.
        """
        for stage_id in stage_ids:
            self._planners[self._stage_dag[stage_id]].mark_released(stage_id)
        self._pending_release.extend(stage_ids)
        if self._release_event is None and self._pending_release:
            self._release_event = self._engine.call_in(
                0.0, self._flush_releases, label="dag:release"
            )

    def _flush_releases(self) -> None:
        self._release_event = None
        batch = self._pending_release
        self._pending_release = []
        self._release(batch)

    # ------------------------------------------------------------------
    # Completion listener
    # ------------------------------------------------------------------
    def _on_stage_complete(self, execution: WorkloadExecution) -> None:
        stage_id = execution.workload.workload_id
        dag_id = self._stage_dag.get(stage_id)
        if dag_id is None:
            return  # plain workload on the same controller
        planner = self._planners[dag_id]
        if execution.record.regions:
            self._producer_regions[stage_id] = execution.record.regions[-1]
        newly_ready = planner.mark_done(stage_id)
        self._save(dag_id)
        if planner.all_done:
            self._telemetry.bus.emit(
                EventType.DAG_DONE,
                dag_id=dag_id,
                stages=planner.dag.n_stages,
            )
        self._queue_release([stage.stage_id for stage in newly_ready])

    # ------------------------------------------------------------------
    # Durable mirror / restore
    # ------------------------------------------------------------------
    def _save(self, dag_id: str) -> None:
        planner = self._planners[dag_id]
        self._store.save_dag(
            {
                "dag_id": dag_id,
                "stages": planner.dag.stage_ids(),
                "done": sorted(planner.done),
                "regions": {
                    stage_id: self._producer_regions[stage_id]
                    for stage_id in sorted(planner.done)
                    if stage_id in self._producer_regions
                },
            }
        )

    def restore(self, dags: Sequence[DagWorkload]) -> None:
        """Rebuild DAG progress (and stage executions) from the store.

        Args:
            dags: Definitions of the stored DAGs — progress is durable,
                definitions are code the client re-supplies, exactly
                like workload definitions on :meth:`LifecycleService.restore`.

        Raises:
            ExperimentError: When a DAG has no stored progress, or the
                coordinator already tracks DAGs in-memory.
        """
        if self._planners:
            raise ExperimentError("restore() requires a freshly built control plane")
        items: Dict[str, Dict] = {}
        for dag in dags:
            item = self._store.dag_item(dag.dag_id)
            if item is None:
                raise ExperimentError(
                    f"no stored progress for dag {dag.dag_id!r}"
                )
            items[dag.dag_id] = item
            self._admit(dag)
        # Rebuild every stored stage execution (released stages only —
        # unreleased stages never reached the store).
        self._lifecycle.restore(
            [stage.workload for dag in dags for stage in dag.stages]
        )
        for dag in dags:
            planner = self._planners[dag.dag_id]
            item = items[dag.dag_id]
            for stage in dag.stages:
                if self._lifecycle.find(stage.stage_id) is not None:
                    planner.mark_released(stage.stage_id)
            self._producer_regions.update(item.get("regions", {}))
            for stage_id in item.get("done", ()):
                planner.mark_done(stage_id)
            # Releases that were pending when the old controller died
            # (its zero-delay event died with it) are re-queued here.
            self._queue_release(
                [stage.stage_id for stage in planner.ready()]
            )
