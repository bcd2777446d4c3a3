"""The Controller: a thin façade over the fleet control-plane services.

Wires the paper's Section 4 control plane onto the simulated cloud by
composing the :mod:`repro.core.fleet` services:

* a :class:`~repro.core.fleet.state.FleetStateStore` keeps workload /
  instance / request state durably in **DynamoDB** — the controller
  object itself holds no fleet state and can be torn down mid-run and
  rebuilt from the store (:meth:`FleetController.restore`, then
  :meth:`FleetController.wait`),
* the :class:`~repro.core.fleet.interruption.InterruptionService`
  deploys the **EventBridge rule** → interruption-handler **Lambda** →
  **Step Functions** re-acquire chain,
* the :class:`~repro.core.fleet.capacity.CapacityService` owns spot
  requests, on-demand fallback, and the **CloudWatch 15-minute sweep**
  for requests that stayed ``open``,
* the :class:`~repro.core.fleet.lifecycle.LifecycleService` owns
  registration, completion listeners, and result assembly; run logs
  and checkpoints land in **S3** via the configured
  :class:`~repro.core.fleet.checkpoint.CheckpointBackend`.

Every strategy in the paper's evaluation — SpotVerse, single-region,
on-demand, SkyPilot-like — runs through this same controller; only the
:class:`~repro.core.policy.PlacementPolicy` differs.  Whole fleets and
released DAG stages share one batched placement round
(:meth:`FleetController._place`), and every wait loop is :func:`drive`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.dag import DagWorkload
from repro.core.execution import WorkloadExecution
from repro.core.fleet.capacity import CapacityService
from repro.core.fleet.checkpoint import (
    CheckpointBackend,
    DynamoCheckpointBackend,
    EFSCheckpointBackend,
)
from repro.core.fleet.coordinator import DagCoordinator
from repro.core.fleet.interruption import InterruptionService
from repro.core.fleet.lifecycle import LifecycleService
from repro.core.fleet.state import FleetStateStore
from repro.core.policy import PlacementPolicy, PolicyContext
from repro.core.result import FleetResult
from repro.errors import ExperimentError
from repro.sim.clock import HOUR, MINUTE
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import Monitor
    from repro.sim.engine import SimulationEngine

#: Sim-time step between completion checks while a run is driven.
POLL_INTERVAL = 5 * MINUTE


def drive(engine: "SimulationEngine", done: Callable[[], bool], max_hours: float) -> None:
    """Run *engine* until ``done()`` holds or *max_hours* of sim time pass.

    ``done`` is checked every :data:`POLL_INTERVAL`; the last step stops
    exactly at the deadline.
    """
    deadline = engine.now + max_hours * HOUR
    while not done() and engine.now < deadline:
        engine.run_until(min(engine.now + POLL_INTERVAL, deadline))


class FleetController:
    """Runs workload fleets under a placement policy.

    Args:
        provider: The simulated cloud.
        policy: Placement decisions (SpotVerse's Optimizer or a
            baseline).
        config: Control-plane configuration.
        monitor: Optional Monitor handed to the policy context.
        state_store: Durable fleet state to compose over.  Defaults to
            a fresh store; pass the store of a torn-down controller to
            rebuild its control plane (then call :meth:`restore` and
            :meth:`wait`).
    """

    def __init__(
        self,
        provider: CloudProvider,
        policy: PlacementPolicy,
        config: SpotVerseConfig,
        monitor: Optional["Monitor"] = None,
        state_store: Optional[FleetStateStore] = None,
    ) -> None:
        self._provider = provider
        self._policy = policy
        self._config = config
        self._engine = provider.engine
        self._ctx = PolicyContext(
            provider=provider,
            monitor=monitor,
            rng=provider.engine.streams.get(f"controller:{policy.name}"),
        )
        self.state_store = (
            state_store if state_store is not None else FleetStateStore(provider.dynamodb)
        )
        self._backend = self._make_backend(config, provider, self.state_store)
        provider.s3.create_bucket(config.results_bucket, config.results_region)

        self._lifecycle = LifecycleService(
            provider=provider,
            config=config,
            store=self.state_store,
            ctx=self._ctx,
            backend=self._backend,
            strategy=policy.name,
        )
        self._capacity = CapacityService(
            provider=provider,
            config=config,
            store=self.state_store,
            lifecycle=self._lifecycle,
        )
        self._interruption = InterruptionService(
            provider=provider,
            policy=policy,
            store=self.state_store,
            lifecycle=self._lifecycle,
            capacity=self._capacity,
            ctx=self._ctx,
        )
        self._dag = DagCoordinator(
            provider=provider,
            store=self.state_store,
            lifecycle=self._lifecycle,
            place=self._place,
        )
        router = self.state_store.router
        router.bind(self._capacity, self._interruption, provider.ec2)

        # Control-plane wiring (Section 4) targets the store's router,
        # so it is deployed once per router: a controller rebuilt over
        # an existing store reuses the live Lambda / rule / state
        # machine / sweep, exactly as a redeployed serverless stack would.
        if not router.deployed:
            self._interruption.deploy()
            self._capacity.deploy()
            router.deployed = True

    @staticmethod
    def _make_backend(
        config: SpotVerseConfig, provider: CloudProvider, store: FleetStateStore
    ) -> CheckpointBackend:
        if config.checkpoint_backend == "efs":
            return EFSCheckpointBackend(
                provider,
                config.results_region,
                fs_registry=store.mapping("efs-filesystems"),
            )
        return DynamoCheckpointBackend(provider, config.results_bucket)

    # ------------------------------------------------------------------
    # Fleet entry points
    # ------------------------------------------------------------------
    def run(self, workloads: Sequence[Workload], max_hours: float = 120.0) -> FleetResult:
        """Run *workloads* to completion (or the deadline).

        Raises:
            ExperimentError: On duplicate workload ids or an empty fleet.
        """
        self.submit(workloads)
        return self.wait(workloads, max_hours=max_hours)

    def submit(self, workloads: Sequence[Workload]) -> None:
        """Register *workloads* and acquire their initial capacity."""
        self._lifecycle.register(workloads)
        self._place(workloads)

    def _place(self, workloads: Sequence[Workload]) -> None:
        """One batched placement round for registered *workloads*.

        One ``initial_placements`` call scores regions once for the
        whole batch, then each workload acquires its placement.  Fleet
        launches and every DAG release tick both place through here.
        """
        placements = self._policy.initial_placements(workloads, self._ctx)
        if len(placements) != len(workloads):
            raise ExperimentError(
                f"policy {self._policy.name!r} returned {len(placements)} placements "
                f"for {len(workloads)} workloads"
            )
        for workload, placement in zip(workloads, placements):
            self._capacity.acquire(
                self._lifecycle.execution(workload.workload_id), placement
            )

    def wait(self, workloads: Sequence[Workload], max_hours: float = 120.0) -> FleetResult:
        """Drive the engine until *workloads* finish (or the deadline)."""
        drive(self._engine, lambda: self._lifecycle.all_done(workloads), max_hours)
        return self._lifecycle.build_result(workloads)

    # ------------------------------------------------------------------
    # DAG entry points (DAG-aware placement: the step is the unit)
    # ------------------------------------------------------------------
    def run_dags(self, dags: Sequence[DagWorkload], max_hours: float = 120.0) -> FleetResult:
        """Run compiled DAGs to completion (or the deadline).

        Stages are registered and placed as their dependencies
        complete; independent steps fan out across instances, each
        placed by the same batched Algorithm-1 rounds whole fleets
        use.  A linear workload compiled via
        :func:`repro.core.dag.compile_workload` runs bit-identically
        to :meth:`run` — the degenerate single-chain case.
        """
        self.submit_dags(dags)
        return self.wait_dags(dags, max_hours=max_hours)

    def submit_dags(self, dags: Sequence[DagWorkload]) -> None:
        """Register *dags* and acquire capacity for their root stages."""
        self._dag.submit(dags)

    def wait_dags(self, dags: Sequence[DagWorkload], max_hours: float = 120.0) -> FleetResult:
        """Drive the engine until every stage finishes (or the deadline).

        The result carries one record per *released* stage workload;
        on a deadline hit, stages whose dependencies never completed
        were never scheduled and do not appear.
        """
        drive(self._engine, lambda: self._dag.all_done(dags), max_hours)
        return self._lifecycle.build_result(self._dag.released_workloads(dags))

    def restore_dags(self, dags: Sequence[DagWorkload]) -> None:
        """Rebuild DAG progress and stage executions from the store.

        Only for controllers that ran DAGs exclusively: the underlying
        :meth:`LifecycleService.restore` needs a definition for every
        stored workload, and this supplies the stage workloads of
        *dags*.  Call :meth:`wait_dags` to finish the run.
        """
        self._dag.restore(dags)

    # ------------------------------------------------------------------
    # Teardown / restore (crash recovery over the durable store)
    # ------------------------------------------------------------------
    def teardown(self) -> None:
        """Discard this controller's in-process state, mid-run.

        Pending boot/segment timers, spot-request refilings and
        checkpoint-artifact write retries are cancelled (they lived in
        the dead process) and the router endpoints detach.  The
        cloud-side wiring (EventBridge redelivery and Step Functions
        retries included) and every byte of fleet state stay put —
        build a new controller over ``state_store``, :meth:`restore`,
        and :meth:`wait` to continue.
        """
        # Land staged writes first: the store is the only thing the next
        # controller can rebuild from, so nothing may die in the overlay.
        self.state_store.flush()
        self._lifecycle.teardown()
        self._capacity.teardown()
        self._backend.teardown()
        self.state_store.router.unbind()

    def restore(self, workloads: Sequence[Workload]) -> None:
        """Rebuild executions from the state store without running.

        Call :meth:`wait` afterwards to finish the run.

        Args:
            workloads: Definitions of the stored workloads (state is
                durable; definitions are code the client re-supplies).
        """
        self._lifecycle.restore(workloads)

    # ------------------------------------------------------------------
    # Introspection (used by tests and tools)
    # ------------------------------------------------------------------
    @property
    def services(self) -> Dict[str, object]:
        """The composed control-plane services, by role."""
        return {
            "capacity": self._capacity,
            "interruption": self._interruption,
            "lifecycle": self._lifecycle,
            "dag": self._dag,
            "state": self.state_store,
        }

    @property
    def checkpoint_backend(self) -> CheckpointBackend:
        """The active checkpoint backend."""
        return self._backend

    def execution(self, workload_id: str) -> WorkloadExecution:
        """Return the execution for *workload_id*."""
        return self._lifecycle.execution(workload_id)
