"""Per-workload execution state: segments, checkpoints, interruptions.

A :class:`WorkloadExecution` binds one workload to whatever instance
currently runs it.  Segments are scheduled one at a time on the engine;
an interruption cancels the in-flight segment and — depending on the
workload's kind — either keeps completed segments (checkpoint, persisted
through the fleet's :class:`~repro.core.fleet.checkpoint.CheckpointBackend`
during the two-minute notice) or discards everything (standard).

Everything an execution knows — record, state, progress, pending timer
due-times — is mirrored into the fleet's
:class:`~repro.core.fleet.state.FleetStateStore` after each transition,
so a torn-down controller can rebuild the execution mid-flight via
:meth:`WorkloadExecution.restore`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.retry import note_dead_letter
from repro.cloud.services.ec2 import Instance, InstanceLifecycle
from repro.core.result import WorkloadRecord
from repro.errors import ThrottlingError, WorkloadError
from repro.obs import EventType
from repro.sim.events import Event
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.core.fleet.checkpoint import CheckpointBackend
    from repro.core.fleet.state import FleetStateStore


class ExecutionState(enum.Enum):
    """Where a workload execution stands."""

    WAITING = "waiting"  # no instance yet (request open)
    BOOTING = "booting"  # instance up, AMI/tooling still starting
    RUNNING = "running"  # segments executing
    INTERRUPTED = "interrupted"  # lost its instance, awaiting replacement
    DONE = "done"


class WorkloadExecution:
    """Runtime state of one workload within a fleet.

    Args:
        workload: The workload definition.
        provider: The simulated cloud (engine, S3, ledger access).
        backend: Checkpoint backend (progress + artifact persistence).
        results_bucket: S3 bucket for run-log uploads.
        boot_delay: Seconds from instance attach to first segment.
        execute_payloads: Run the workload's real payload per segment.
        on_complete: Callback fired once when the workload finishes.
        fleet_state: Optional durable state store this execution mirrors
            itself into after every transition.
    """

    def __init__(
        self,
        workload: Workload,
        provider: "CloudProvider",
        backend: "CheckpointBackend",
        results_bucket: str,
        boot_delay: float,
        execute_payloads: bool,
        on_complete: Callable[["WorkloadExecution"], None],
        fleet_state: Optional["FleetStateStore"] = None,
    ) -> None:
        self.workload = workload
        self._provider = provider
        self._engine = provider.engine
        self._telemetry = provider.telemetry
        self._backend = backend
        self._bucket = results_bucket
        self._boot_delay = boot_delay
        self._execute_payloads = execute_payloads
        self._on_complete = on_complete
        self._fleet_state = fleet_state
        self.state = ExecutionState.WAITING
        self.instance: Optional[Instance] = None
        self.completed_segments = 0
        #: ``(source region, bytes)`` pairs of upstream stage outputs
        #: this execution downloads at every boot (DAG-aware placement:
        #: the coordinator resolves a stage's input edges to the
        #: regions its producer stages completed in).  A migration
        #: re-pays the download — moving a step moves its inputs.
        self.input_sources: List[Tuple[str, int]] = []
        self.record = WorkloadRecord(
            workload_id=workload.workload_id,
            kind=workload.kind,
            submitted_at=self._engine.now,
        )
        self._segment_event: Optional[Event] = None
        self._boot_event: Optional[Event] = None
        self._segment_due: Optional[float] = None
        self._boot_due: Optional[float] = None

    # ------------------------------------------------------------------
    # Durable mirror
    # ------------------------------------------------------------------
    def state_item(self) -> Dict[str, Any]:
        """Full durable state, for the fleet state store.

        An immutable snapshot, like :meth:`WorkloadRecord.to_item`:
        sequences are tuples, which the garbage collector stops
        tracking.
        """
        return {
            "workload_id": self.workload.workload_id,
            "state": self.state._value_,
            "completed_segments": self.completed_segments,
            "instance_id": self.instance.instance_id if self.instance else None,
            "boot_due": self._boot_due,
            "segment_due": self._segment_due,
            "input_sources": tuple(self.input_sources),
            "record": self.record.to_item(),
        }

    def _sync(self) -> None:
        """Mirror current state into the fleet state store, if any."""
        if self._fleet_state is not None:
            self._fleet_state.save_execution(self)

    def detach_timers(self) -> None:
        """Cancel in-process timers without touching durable state.

        Crash semantics for a controller teardown: the engine events
        die, but their due times stay in the store so :meth:`restore`
        can re-arm them at the original absolute times.
        """
        if self._segment_event is not None:
            self._segment_event.cancel()
            self._segment_event = None
        if self._boot_event is not None:
            self._boot_event.cancel()
            self._boot_event = None

    @classmethod
    def restore(
        cls,
        item: Dict[str, Any],
        workload: Workload,
        provider: "CloudProvider",
        backend: "CheckpointBackend",
        results_bucket: str,
        boot_delay: float,
        execute_payloads: bool,
        on_complete: Callable[["WorkloadExecution"], None],
        fleet_state: "FleetStateStore",
    ) -> "WorkloadExecution":
        """Rebuild an execution from its stored :meth:`state_item`.

        Accepts tuple rows and list rows alike.

        Pending boot/segment timers are re-armed at their stored
        absolute due times, so the restored execution's future is
        identical to the torn-down one's.
        """
        execution = cls(
            workload=workload,
            provider=provider,
            backend=backend,
            results_bucket=results_bucket,
            boot_delay=boot_delay,
            execute_payloads=execute_payloads,
            on_complete=on_complete,
            fleet_state=fleet_state,
        )
        execution.state = ExecutionState(item["state"])
        execution.completed_segments = item["completed_segments"]
        execution.input_sources = [
            (str(region), int(nbytes))
            for region, nbytes in item.get("input_sources", [])
        ]
        execution.record = WorkloadRecord.from_item(item["record"])
        if item["instance_id"] is not None:
            execution.instance = provider.ec2.describe_instance(item["instance_id"])
        execution._boot_due = item["boot_due"]
        execution._segment_due = item["segment_due"]
        wid = workload.workload_id
        if execution.state is ExecutionState.BOOTING and execution._boot_due is not None:
            execution._boot_event = provider.engine.call_at(
                execution._boot_due,
                execution._begin_running,
                label=f"exec:{wid}:boot",
            )
        if execution.state is ExecutionState.RUNNING and execution._segment_due is not None:
            execution._segment_event = provider.engine.call_at(
                execution._segment_due,
                execution._segment_done,
                label=f"exec:{wid}:seg{execution.completed_segments}",
            )
        return execution

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------
    def attach(self, instance: Instance) -> None:
        """Bind a freshly launched instance and begin booting.

        Raises:
            WorkloadError: If the execution already has an instance or
                is done.
        """
        if self.state in (ExecutionState.BOOTING, ExecutionState.RUNNING):
            raise WorkloadError(
                f"workload {self.workload.workload_id!r} already has instance "
                f"{self.instance.instance_id if self.instance else '?'}"
            )
        if self.state is ExecutionState.DONE:
            raise WorkloadError(
                f"workload {self.workload.workload_id!r} is already complete"
            )
        was_interrupted = self.state is ExecutionState.INTERRUPTED
        self.instance = instance
        self.state = ExecutionState.BOOTING
        self._telemetry.bus.emit(
            EventType.INSTANCE_ATTACHED,
            workload_id=self.workload.workload_id,
            region=instance.region,
            instance_id=instance.instance_id,
            option=instance.lifecycle._value_,
        )
        if was_interrupted and self.record.interruptions:
            lost_at, lost_region = self.record.interruptions[-1]
            latency = self._engine.now - lost_at
            self._telemetry.bus.emit(
                EventType.MIGRATION_COMPLETED,
                workload_id=self.workload.workload_id,
                region=instance.region,
                instance_id=instance.instance_id,
                option=instance.lifecycle._value_,
                latency=latency,
                from_region=lost_region,
            )
            self._telemetry.metrics.histogram(
                "migration_latency_seconds",
                "interruption warning to replacement instance attach",
            ).observe(latency, to_region=instance.region)
        self.record.attempts += 1
        self.record.regions.append(instance.region)
        self.record.attempt_starts.append(self._engine.now)
        if instance.lifecycle is InstanceLifecycle.ON_DEMAND:
            self.record.on_demand_attempts += 1
        self._boot_due = self._engine.now + self._boot_delay
        self._boot_event = self._engine.call_in(
            self._boot_delay,
            self._begin_running,
            label=f"exec:{self.workload.workload_id}:boot",
        )
        self._sync()

    def _instance_lost(self) -> bool:
        """Whether chaos killed the instance under a still-armed timer.

        Without faults the interruption notice always cancels pending
        timers before the instance dies, so this can only be true when
        a chaos controller dropped that notice on the floor; the
        reconcile sweep repairs the execution at its next tick.
        """
        return (
            self._provider.chaos is not None
            and self.instance is not None
            and not self.instance.is_live
        )

    def _begin_running(self) -> None:
        if self._instance_lost():
            self._boot_event = None
            return
        self._boot_event = None
        self._boot_due = None
        self.state = ExecutionState.RUNNING
        self._telemetry.bus.emit(
            EventType.WORKLOAD_RUNNING,
            workload_id=self.workload.workload_id,
            region=self.instance.region if self.instance else "",
            instance_id=self.instance.instance_id if self.instance else "",
            completed_segments=self.completed_segments,
        )
        if self.workload.input_bytes > 0 and self.instance is not None:
            # The user-data script downloads the input dataset on every
            # boot; running outside the data's home region pays the
            # cross-region transfer (Section 5.1.2's cost model).
            self._charge_input_download(self.instance.region)
        if self.input_sources and self.instance is not None:
            # DAG stages fetch upstream stage outputs on every boot;
            # running outside a producer's region pays the egress.
            self._charge_step_inputs(self.instance.region)
        if self.workload.checkpointable:
            # Resume from the latest durable checkpoint (the replacement
            # instance downloads state the dying instance uploaded).
            restored = self._restore_progress()
            if restored > self.completed_segments:
                self.completed_segments = restored
            if restored > 0 and self.record.attempts > 1:
                self._telemetry.bus.emit(
                    EventType.CHECKPOINT_RESTORED,
                    workload_id=self.workload.workload_id,
                    region=self.instance.region if self.instance else "",
                    segments=restored,
                )
                self._telemetry.metrics.counter(
                    "checkpoint_restores_total", "resumes from a durable checkpoint"
                ).inc()
        self._schedule_next_segment()

    def _restore_progress(self) -> int:
        """Checkpoint restore with integrity verification under chaos.

        The fault-free path is exactly one ``load_progress`` call.  When
        faults are injected, the recorded progress count may point at an
        artifact whose bytes were corrupted in flight; the replacement
        instance then falls back to the newest artifact whose checksum
        still verifies, re-running the segments in between — the
        measurable price of the corruption.
        """
        workload_id = self.workload.workload_id
        try:
            restored = self._backend.load_progress(workload_id)
        except ThrottlingError as exc:
            # Progress unreadable through every retry: resume from the
            # in-memory count rather than stalling the replacement.
            note_dead_letter(
                self._telemetry, "checkpoint:load", str(exc), workload_id=workload_id
            )
            restored = self.completed_segments
        if self._provider.chaos is None or self.record.attempts <= 1:
            return restored
        check = self._backend.verify_artifacts(workload_id)
        if check is None or check.newest_valid:
            return restored
        self._telemetry.bus.emit(
            EventType.CHECKPOINT_FALLBACK,
            workload_id=workload_id,
            region=self.instance.region if self.instance else "",
            from_segments=restored,
            to_segments=check.valid_segments,
            corrupt=check.corrupt_count,
        )
        self._telemetry.metrics.counter(
            "checkpoint_fallbacks_total",
            "restores demoted to an older valid checkpoint",
        ).inc()
        if self.completed_segments > check.valid_segments:
            self.completed_segments = check.valid_segments
        return min(restored, check.valid_segments)

    def _schedule_next_segment(self) -> None:
        remaining = self.workload.remaining_after(self.completed_segments)
        if not remaining:
            self._complete()
            return
        self._segment_due = self._engine.now + remaining[0]
        self._segment_event = self._engine.call_in(
            remaining[0],
            self._segment_done,
            label=f"exec:{self.workload.workload_id}:seg{self.completed_segments}",
        )
        self._sync()

    def _segment_done(self) -> None:
        if self._instance_lost():
            # The instance died mid-segment and the notice was dropped:
            # the segment cannot have finished.  Freeze progression and
            # let the reconcile sweep restage the workload.
            self._segment_event = None
            return
        self._segment_event = None
        self._segment_due = None
        index = self.completed_segments
        self.completed_segments += 1
        self._telemetry.metrics.counter(
            "segments_completed_total", "workload segments finished"
        ).inc()
        if self._execute_payloads and self.workload.payload is not None:
            self.workload.payload(index)
        if self.workload.checkpointable:
            # Per-segment progress tracking in DynamoDB (the paper's
            # per-file status updates).
            self._backend.save_progress(
                self.workload.workload_id,
                self.completed_segments,
                detail={"region": self.instance.region if self.instance else ""},
            )
        self._schedule_next_segment()

    def _complete(self) -> None:
        self.state = ExecutionState.DONE
        now = self._engine.now
        self.record.completed_at = now
        self._telemetry.bus.emit(
            EventType.WORKLOAD_DONE,
            workload_id=self.workload.workload_id,
            region=self.instance.region if self.instance else "",
            attempts=self.record.attempts,
            interruptions=self.record.n_interruptions,
            elapsed=now - self.record.submitted_at,
        )
        self._telemetry.metrics.counter(
            "workloads_completed_total", "workloads run to completion"
        ).inc()
        self._telemetry.metrics.histogram(
            "workload_completion_seconds", "submission to completion"
        ).observe(now - self.record.submitted_at)
        if self.instance is not None and self.instance.is_live:
            self._provider.ec2.terminate_instances([self.instance.instance_id])
        # Activity log to S3 (the paper stores run details for cost and
        # duration accounting).
        self._provider.s3.put_object(
            self._bucket,
            f"runs/{self.workload.workload_id}/complete.json",
            body=repr(
                {
                    "workload": self.workload.workload_id,
                    "completed_at": now,
                    "attempts": self.record.attempts,
                    "interruptions": self.record.n_interruptions,
                }
            ).encode("utf-8"),
            source_region=self.instance.region if self.instance else None,
            tag=self.workload.workload_id,
        )
        self.instance = None
        self._sync()
        self._on_complete(self)

    # ------------------------------------------------------------------
    # Interruption path
    # ------------------------------------------------------------------
    def handle_interruption_notice(self) -> str:
        """React to the two-minute warning; returns the lost region.

        Cancels in-flight work, persists a final checkpoint (checkpoint
        workloads push their state through the backend within the
        notice window), or resets progress (standard workloads).
        """
        if self.instance is None:
            raise WorkloadError(
                f"workload {self.workload.workload_id!r} got an interruption "
                "notice without an instance"
            )
        region = self.instance.region
        now = self._engine.now
        self.record.interruptions.append((now, region))
        if self._segment_event is not None:
            self._segment_event.cancel()
            self._segment_event = None
        self._segment_due = None
        if self._boot_event is not None:
            self._boot_event.cancel()
            self._boot_event = None
        self._boot_due = None
        if self.workload.checkpointable:
            self._backend.save_progress(
                self.workload.workload_id,
                self.completed_segments,
                detail={"interrupted_in": region},
            )
            self._telemetry.bus.emit(
                EventType.CHECKPOINT_SAVED,
                workload_id=self.workload.workload_id,
                region=region,
                segments=self.completed_segments,
                bytes=self.workload.checkpoint_bytes,
                backend=self._backend.name,
            )
            self._telemetry.metrics.counter(
                "checkpoint_saves_total", "interruption-time checkpoint persists"
            ).inc(region=region)
            self._telemetry.metrics.counter(
                "checkpoint_bytes_total", "checkpoint payload bytes persisted"
            ).inc(float(self.workload.checkpoint_bytes))
            # Checkpoint state persisted during the notice window; the
            # backend decides between the paper's S3 upload (paying
            # cross-region transfer when the bucket lives elsewhere)
            # and the Section 7 EFS write.
            self._backend.persist_artifact(
                self.workload.workload_id,
                self.record.n_interruptions,
                self.workload.checkpoint_bytes,
                region,
                segments=self.completed_segments,
            )
        else:
            self.completed_segments = 0
        self.instance = None
        self.state = ExecutionState.INTERRUPTED
        self._sync()
        return region

    def _charge_input_download(self, dest_region: str) -> None:
        """Charge the per-boot input download (cross-region only)."""
        from repro.cloud.billing import S3_CROSS_REGION_TRANSFER_PRICE, CostCategory

        bucket_region = self._provider.s3.bucket_region(self._bucket)
        if dest_region == bucket_region:
            return
        self._provider.ledger.charge(
            time=self._engine.now,
            category=CostCategory.S3_TRANSFER,
            amount=(self.workload.input_bytes / (1024 ** 3))
            * S3_CROSS_REGION_TRANSFER_PRICE,
            region=bucket_region,
            tag=self.workload.workload_id,
            detail=f"input download {bucket_region}->{dest_region} "
            f"{self.workload.workload_id}",
        )

    def _charge_step_inputs(self, dest_region: str) -> None:
        """Charge cross-region egress for upstream stage outputs.

        Each ``(source region, bytes)`` entry in :attr:`input_sources`
        is one producer stage's output set; fetching it into the same
        region is free, anywhere else pays the S3 cross-region rate —
        the per-edge data-transfer cost the DAG planner models.
        """
        from repro.cloud.billing import S3_CROSS_REGION_TRANSFER_PRICE, CostCategory

        for source_region, nbytes in self.input_sources:
            if source_region == dest_region or nbytes <= 0:
                continue
            self._provider.ledger.charge(
                time=self._engine.now,
                category=CostCategory.S3_TRANSFER,
                amount=(nbytes / (1024 ** 3)) * S3_CROSS_REGION_TRANSFER_PRICE,
                region=source_region,
                tag=self.workload.workload_id,
                detail=f"step input {source_region}->{dest_region} "
                f"{self.workload.workload_id}",
            )

    @property
    def needs_instance(self) -> bool:
        """Whether the execution is waiting for capacity."""
        return self.state in (ExecutionState.WAITING, ExecutionState.INTERRUPTED)
