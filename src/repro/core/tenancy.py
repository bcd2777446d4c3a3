"""Multi-tenant control plane: a fleet of fleets over one simulation.

The paper's controller places one batch of workloads for one user; the
ROADMAP's north star is a service placing work for *many* users at
once.  This module is the tenancy layer that turns the single-user
control plane into that service without touching Algorithm 1 itself:

* :class:`TenantSpec` / :class:`TenantRegistry` — who the tenants are:
  a fair-share weight, an in-flight quota, a pending-queue bound, and
  an advisory default policy, persisted in the state store's tenants
  table so a rebuilt controller reloads the roster durably;
* :class:`AdmissionController` — weighted fair-share queuing over
  per-tenant submission queues.  Admission is start-time weighted fair
  queuing: each tenant carries a virtual time that advances by
  ``1 / effective_weight`` per admission, and the next admitted tenant
  is always the smallest ``(virtual time, tenant id)`` among tenants
  with queued work and free quota — deterministic tie-breaking, so a
  seeded run replays bit-for-bit.  Quota holds admissions back
  (released on workload completion); a full pending queue rejects the
  submission outright with ``tenant.throttled`` telemetry
  (backpressure, not silent loss);
* :class:`MultiTenantController` — the façade over
  :class:`~repro.core.controller.FleetController`.  Submissions queue;
  a coalesced zero-delay engine event (the DAG coordinator's batching
  machinery from ``_queue_release``) drains admission once per tick
  and places the whole admitted batch through **one**
  ``initial_placements`` call — one region-scoring pass per round, one
  :class:`~repro.obs.provenance.DecisionRecord` carrying
  ``batch_size`` / ``tenant_id``, regardless of how many tenants'
  workloads rode the batch.

Determinism contract: with one default tenant and ``n_shards=1`` a
run through this façade is bit-identical to driving
:class:`FleetController` directly — same RNG draws, same placements,
same costs — which is what the golden-equivalence suite pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController, drive
from repro.core.execution import ExecutionState
from repro.core.fleet.state import DEFAULT_TENANT, FleetStateStore
from repro.core.policy import PlacementPolicy
from repro.core.result import FleetResult
from repro.errors import ExperimentError
from repro.obs.events import EventType
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cloud.provider import CloudProvider
    from repro.core.execution import WorkloadExecution
    from repro.core.monitor import Monitor

#: Fair-share weight floor: a zero- (or negative-) weight tenant is
#: clamped here instead of being starved outright — it still advances
#: one admission per ~1/floor admissions of a weight-1 competitor, so
#: every backlogged tenant makes progress (the starvation guard the
#: admission-fairness invariant checks).
ZERO_WEIGHT_FLOOR = 0.1


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the control plane.

    Attributes:
        tenant_id: Stable tenant identifier.
        weight: Fair-share weight; higher gets proportionally more
            admissions under contention.  Non-positive weights are
            clamped to :data:`ZERO_WEIGHT_FLOOR` at scheduling time.
        max_in_flight: Quota on concurrently admitted (not yet done)
            workloads — one workload occupies one instance, so this is
            also the tenant's concurrent-instance cap.  0 = unlimited.
        max_pending: Bound on the tenant's submission queue; a
            submission past it is rejected with ``tenant.throttled``
            telemetry.  0 = unlimited.
        policy: Advisory default-policy label recorded in the roster
            and rollups (the controller itself runs one policy; the
            label is what a per-tenant-policy deployment would key on).
    """

    tenant_id: str
    weight: float = 1.0
    max_in_flight: int = 0
    max_pending: int = 0
    policy: str = ""

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ExperimentError("tenant_id must be non-empty")
        if self.max_in_flight < 0 or self.max_pending < 0:
            raise ExperimentError(
                f"{self.tenant_id}: max_in_flight/max_pending must be >= 0"
            )

    @property
    def effective_weight(self) -> float:
        """Scheduling weight with the zero-weight starvation guard."""
        return max(float(self.weight), ZERO_WEIGHT_FLOOR)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the tenants-table item)."""
        return {
            "tenant_id": self.tenant_id,
            "weight": self.weight,
            "max_in_flight": self.max_in_flight,
            "max_pending": self.max_pending,
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TenantSpec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        return cls(
            tenant_id=str(record["tenant_id"]),
            weight=float(record.get("weight", 1.0)),
            max_in_flight=int(record.get("max_in_flight", 0)),
            max_pending=int(record.get("max_pending", 0)),
            policy=str(record.get("policy", "")),
        )


class TenantRegistry:
    """The durable tenant roster, backed by the store's tenants table."""

    def __init__(self, store: FleetStateStore) -> None:
        self._store = store
        # Insertion-ordered: an update keeps the tenant's first position.
        self._specs: Dict[str, TenantSpec] = {}

    def register(self, spec: TenantSpec, bus=None) -> TenantSpec:
        """Add (or update) *spec*; persists it and announces on *bus*."""
        self._specs[spec.tenant_id] = spec
        self._store.save_tenant(spec.to_dict())
        if bus is not None:
            bus.emit(
                EventType.TENANT_REGISTERED,
                tenant_id=spec.tenant_id,
                weight=spec.weight,
                max_in_flight=spec.max_in_flight,
                max_pending=spec.max_pending,
                policy=spec.policy,
            )
        return spec

    def reload(self) -> None:
        """Rebuild the roster from the tenants table (controller restore)."""
        self._specs = {}
        for item in self._store.tenant_items():
            spec = TenantSpec.from_dict(item)
            self._specs[spec.tenant_id] = spec

    def has(self, tenant_id: str) -> bool:
        """Whether *tenant_id* is registered."""
        return tenant_id in self._specs

    def get(self, tenant_id: str) -> TenantSpec:
        """The spec for *tenant_id*.

        Raises:
            ExperimentError: For an unregistered tenant.
        """
        spec = self._specs.get(tenant_id)
        if spec is None:
            raise ExperimentError(
                f"unknown tenant {tenant_id!r}; register a TenantSpec first"
            )
        return spec

    def tenants(self) -> List[TenantSpec]:
        """Every spec, in registration order."""
        return list(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


@dataclass(frozen=True)
class Admission:
    """One workload clearing admission in a fair-share round.

    Attributes:
        tenant_id: Tenant the workload was admitted for.
        workload: The admitted workload definition.
        passed_over: Tenants that were eligible (queued work, free
            quota) at selection time but not chosen — what the
            admission-fairness invariant bounds.
    """

    tenant_id: str
    workload: Workload
    passed_over: Tuple[str, ...]


class AdmissionController:
    """Weighted fair-share admission over per-tenant queues.

    Pure deterministic bookkeeping: no RNG, no wall-clock, dict
    iteration always over sorted tenant ids.  The controller façade
    owns durability (queue snapshots live in the store's meta table)
    and telemetry; this class decides *who goes next*.
    """

    def __init__(self, registry: TenantRegistry) -> None:
        self.registry = registry
        self._queues: Dict[str, Deque[Workload]] = {}
        self._in_flight: Dict[str, int] = {}
        self._virtual: Dict[str, float] = {}
        self._global_virtual = 0.0
        self._queued_total = 0
        self.admitted_counts: Dict[str, int] = {}
        self.completed_counts: Dict[str, int] = {}
        self.throttled_counts: Dict[str, int] = {}

    # -- submission ----------------------------------------------------
    def enqueue(self, tenant_id: str, workload: Workload) -> bool:
        """Queue one submission; ``False`` means throttled (queue full)."""
        spec = self.registry.get(tenant_id)
        queue = self._queues.setdefault(tenant_id, deque())
        if spec.max_pending and len(queue) >= spec.max_pending:
            self.throttled_counts[tenant_id] = (
                self.throttled_counts.get(tenant_id, 0) + 1
            )
            return False
        if not queue:
            # A tenant going from idle to backlogged re-joins at the
            # current global virtual time — it competes fairly from
            # *now* instead of burning a credit backlog accrued while
            # it had nothing to run.
            self._virtual[tenant_id] = max(
                self._virtual.get(tenant_id, 0.0), self._global_virtual
            )
        queue.append(workload)
        self._queued_total += 1
        return True

    def release(self, tenant_id: str) -> None:
        """A workload of *tenant_id* completed; frees one quota slot."""
        self._in_flight[tenant_id] = max(0, self._in_flight.get(tenant_id, 0) - 1)
        self.completed_counts[tenant_id] = self.completed_counts.get(tenant_id, 0) + 1

    def note_in_flight(self, tenant_id: str, count: int = 1) -> None:
        """Seed quota usage from stored state (controller restore)."""
        self._in_flight[tenant_id] = self._in_flight.get(tenant_id, 0) + count

    # -- scheduling ----------------------------------------------------
    def _admissible(self, tenant_id: str, spec: TenantSpec) -> bool:
        """Queued work and free quota."""
        if not self._queues[tenant_id]:
            return False
        return not spec.max_in_flight or self._in_flight.get(tenant_id, 0) < spec.max_in_flight

    def drain(self) -> List[Admission]:
        """Admit everything quota allows, in weighted fair-share order.

        Only the chosen tenant's state changes per admission, so the
        id-sorted eligible list is built once and a tenant leaves it
        when it stops being admissible; ``min`` keeps the first of equal
        virtual times, so ties go to the smallest id.
        """
        specs = {
            tenant_id: self.registry.get(tenant_id)
            for tenant_id in sorted(self._queues)
            if self._queues[tenant_id]
        }
        eligible = [
            tenant_id for tenant_id, spec in specs.items() if self._admissible(tenant_id, spec)
        ]
        admitted: List[Admission] = []
        while eligible:
            chosen = min(eligible, key=self._virtual.__getitem__)
            index = eligible.index(chosen)
            passed_over = tuple(eligible[:index] + eligible[index + 1:])
            workload = self._queues[chosen].popleft()
            self._queued_total -= 1
            spec = specs[chosen]
            self._in_flight[chosen] = self._in_flight.get(chosen, 0) + 1
            self._virtual[chosen] += 1.0 / spec.effective_weight
            self._global_virtual = self._virtual[chosen]
            self.admitted_counts[chosen] = self.admitted_counts.get(chosen, 0) + 1
            admitted.append(Admission(tenant_id=chosen, workload=workload, passed_over=passed_over))
            if not self._admissible(chosen, spec):
                del eligible[index]
        return admitted

    # -- introspection -------------------------------------------------
    def queued_count(self, tenant_id: Optional[str] = None) -> int:
        """Pending submissions (one tenant or all)."""
        if tenant_id is not None:
            return len(self._queues.get(tenant_id, ()))
        return self._queued_total

    def in_flight(self, tenant_id: str) -> int:
        """Currently admitted, not-yet-done workloads of *tenant_id*."""
        return self._in_flight.get(tenant_id, 0)


class MultiTenantController:
    """Fleet-of-fleets façade: per-tenant submission over one control plane.

    Args:
        provider: The simulated cloud.
        policy: Placement policy every admitted batch runs through.
        config: Control-plane configuration.
        monitor: Optional Monitor handed to the policy context.
        state_store: Durable fleet state to compose over; defaults to a
            fresh store with *n_shards* shards.  Pass a torn-down
            controller's store, then :meth:`restore` and :meth:`wait`,
            to recover.
        n_shards: Shard count for the default store.
        admit_interval: Coalescing window (sim seconds) for admission
            rounds triggered mid-run.  0.0 — the default — drains in a
            zero-delay event within the same tick (maximally
            responsive); fleet-scale deployments raise it so quota
            freed by many completions rides one batched Algorithm-1
            round instead of one round per completion tick.  The
            synchronous drain at :meth:`wait` entry is unaffected.
    """

    #: Meta-table section holding the admission queue: one row per
    #: queued submission, keyed by a zero-padded enqueue sequence so
    #: iteration order is submission order.  Admitted workloads keep
    #: their tenant in their own workload row.
    QUEUE_SECTION = "tenancy-queue"

    def __init__(
        self,
        provider: "CloudProvider",
        policy: PlacementPolicy,
        config: SpotVerseConfig,
        monitor: Optional["Monitor"] = None,
        state_store: Optional[FleetStateStore] = None,
        n_shards: int = 1,
        admit_interval: float = 0.0,
    ) -> None:
        self._provider = provider
        self._engine = provider.engine
        self._admit_interval = max(0.0, float(admit_interval))
        store = (
            state_store
            if state_store is not None
            else FleetStateStore(provider.dynamodb, n_shards=n_shards)
        )
        self._fleet = FleetController(
            provider, policy, config, monitor=monitor, state_store=store
        )
        self.registry = TenantRegistry(store)
        self.admission = AdmissionController(self.registry)
        self._bus = provider.telemetry.bus
        self._queue_meta = store.mapping(self.QUEUE_SECTION)
        self._queue_keys: Dict[str, str] = {}
        self._queue_seq = 0
        self._admitted: List[Workload] = []
        self._drain_pending = False
        provider.telemetry.decisions.set_tenant_resolver(store.tenant_of)
        self._fleet.services["lifecycle"].add_completion_listener(self._on_complete)

    # ------------------------------------------------------------------
    # Tenant roster
    # ------------------------------------------------------------------
    def register_tenant(self, spec: TenantSpec) -> TenantSpec:
        """Add *spec* to the durable roster (announced on the bus)."""
        return self.registry.register(spec, bus=self._bus)

    def _ensure_tenant(self, tenant_id: str) -> TenantSpec:
        if not self.registry.has(tenant_id):
            if tenant_id != DEFAULT_TENANT:
                raise ExperimentError(
                    f"unknown tenant {tenant_id!r}; register a TenantSpec first"
                )
            # Single-tenant runs never register anything: the default
            # tenant materialises unlimited on first use.
            return self.register_tenant(TenantSpec(tenant_id=DEFAULT_TENANT))
        return self.registry.get(tenant_id)

    # ------------------------------------------------------------------
    # Submission (queue -> coalesced per-tick admission round)
    # ------------------------------------------------------------------
    def submit(self, tenant_id: str, workload: Workload) -> bool:
        """Queue one workload for *tenant_id*.

        Returns ``True`` when queued (admission happens at the next
        batched placement round) and ``False`` when the tenant's
        bounded pending queue rejected it — the ``tenant.throttled``
        event is the telemetry side of that backpressure.
        """
        spec = self._ensure_tenant(tenant_id)
        if not self.admission.enqueue(tenant_id, workload):
            self._bus.emit(
                EventType.TENANT_THROTTLED,
                workload_id=workload.workload_id,
                tenant_id=tenant_id,
                queued=self.admission.queued_count(tenant_id),
                limit=spec.max_pending,
            )
            return False
        key = f"{self._queue_seq:012d}"
        self._queue_seq += 1
        self._queue_meta[key] = {
            "tenant_id": tenant_id,
            "workload_id": workload.workload_id,
        }
        self._queue_keys[workload.workload_id] = key
        self._queue_drain()
        return True

    def _queue_drain(self) -> None:
        """Coalesce admission into one round per ``admit_interval``."""
        if self._drain_pending:
            return
        self._drain_pending = True
        self._engine.call_in(self._admit_interval, self._drain_event, label="tenancy:admit")

    def _drain_event(self) -> None:
        self._drain_pending = False
        self._admit_batch()

    def _admit_batch(self) -> None:
        """One placement round: drain admission, place the batch at once."""
        admissions = self.admission.drain()
        if not admissions:
            return
        batch: List[Workload] = []
        for admission in admissions:
            workload = admission.workload
            workload_id = workload.workload_id
            spec = self.registry.get(admission.tenant_id)
            self._fleet.state_store.assign_tenant(workload_id, admission.tenant_id)
            key = self._queue_keys.pop(workload_id, None)
            if key is not None:
                # ``_queue_keys`` holds exactly the stored queue rows,
                # so the tombstone needs no existence read.
                self._queue_meta.discard(key)
            self._bus.emit(
                EventType.TENANT_ADMITTED,
                workload_id=workload_id,
                tenant_id=admission.tenant_id,
                in_flight=self.admission.in_flight(admission.tenant_id),
                quota=spec.max_in_flight,
                policy=spec.policy,
                passed_over=admission.passed_over,
            )
            batch.append(workload)
        self._admitted.extend(batch)
        # One FleetController.submit == one register + ONE
        # ``initial_placements`` over the whole batch + one acquire per
        # placement: the batched-Algorithm-1 contract.  The decision
        # log's tenant resolver annotates the resulting DecisionRecord
        # with ``tenant_id`` / ``batch_size``.
        self._fleet.submit(batch)

    def _on_complete(self, execution: "WorkloadExecution") -> None:
        tenant_id = self._fleet.state_store.tenant_of(execution.workload.workload_id)
        if tenant_id is None:
            return
        self.admission.release(tenant_id)
        if self.admission.queued_count():
            # Freed quota may unblock queued submissions; they ride the
            # next coalesced round in this same tick.
            self._queue_drain()

    # ------------------------------------------------------------------
    # Run / wait
    # ------------------------------------------------------------------
    def wait(self, max_hours: float = 120.0) -> FleetResult:
        """Drive the engine until every submission finishes (or deadline).

        The first admission round runs synchronously before the engine
        is driven — the same call ordering as
        ``FleetController.run`` — which is what keeps single-tenant
        runs bit-identical to the plain controller.
        """
        self._admit_batch()
        lifecycle = self._fleet.services["lifecycle"]
        drive(
            self._engine,
            lambda: not self.admission.queued_count()
            and lifecycle.all_done(self._admitted),
            max_hours,
        )
        return lifecycle.build_result(self._admitted)

    # ------------------------------------------------------------------
    # Teardown / restore (crash recovery over the durable store)
    # ------------------------------------------------------------------
    def teardown(self) -> None:
        """Discard in-process state; queues and roster stay durable."""
        self._provider.telemetry.decisions.set_tenant_resolver(None)
        self._fleet.teardown()

    def restore(self, definitions: Sequence[Workload]) -> None:
        """Rebuild roster, quotas, executions, and queues from the store.

        Call :meth:`wait` afterwards to finish the run.

        Args:
            definitions: Workload definitions covering every stored
                *and* still-queued workload (state is durable;
                definitions are code the client re-supplies — the same
                contract as ``FleetController.restore``).
        """
        defs = {workload.workload_id: workload for workload in definitions}
        self.registry.reload()
        # One workload scan rebuilds the executions and, from their
        # rows, the store's tenant map.
        self._fleet.restore(definitions)
        store = self._fleet.state_store
        for execution in self._fleet.services["lifecycle"].executions():
            workload = execution.workload
            self._admitted.append(workload)
            tenant_id = store.tenant_of(workload.workload_id) or DEFAULT_TENANT
            self.admission.note_in_flight(tenant_id)
            if execution.state is ExecutionState.DONE:
                self.admission.release(tenant_id)
        # Re-queue submissions that never cleared admission, in their
        # original enqueue order (the zero-padded meta keys sort by
        # submission sequence).
        for key, row in self._queue_meta.items():
            workload = defs.get(row["workload_id"])
            if workload is None:
                raise ExperimentError(
                    f"restore needs a definition for queued workload "
                    f"{row['workload_id']!r}"
                )
            self.admission.enqueue(row["tenant_id"], workload)
            self._queue_keys[workload.workload_id] = key
            self._queue_seq = max(self._queue_seq, int(key) + 1)
        if self.admission.queued_count():
            self._queue_drain()

    # ------------------------------------------------------------------
    # Introspection (CLI roster / per-tenant scorecard, tests)
    # ------------------------------------------------------------------
    @property
    def state_store(self) -> FleetStateStore:
        """The durable store the control plane composes over."""
        return self._fleet.state_store

    @property
    def fleet(self) -> FleetController:
        """The wrapped single-plane controller."""
        return self._fleet

    def tenant_of(self, workload_id: str) -> Optional[str]:
        """Tenant a workload was admitted for (None when unknown)."""
        return self._fleet.state_store.tenant_of(workload_id)

    def usage(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant scorecard rows, in registration order."""
        rows: Dict[str, Dict[str, Any]] = {}
        for spec in self.registry.tenants():
            tenant_id = spec.tenant_id
            rows[tenant_id] = {
                "weight": spec.weight,
                "quota": spec.max_in_flight,
                "policy": spec.policy,
                "in_flight": self.admission.in_flight(tenant_id),
                "queued": self.admission.queued_count(tenant_id),
                "admitted": self.admission.admitted_counts.get(tenant_id, 0),
                "done": self.admission.completed_counts.get(tenant_id, 0),
                "throttled": self.admission.throttled_counts.get(tenant_id, 0),
            }
        return rows


__all__ = [
    "Admission",
    "AdmissionController",
    "DEFAULT_TENANT",
    "MultiTenantController",
    "TenantRegistry",
    "TenantSpec",
    "ZERO_WEIGHT_FLOOR",
]
