"""Durable fleet state in the simulated DynamoDB.

The paper's Section 4 control plane keeps *all* durable state in
DynamoDB: the serverless components (Lambdas, the Step Functions
re-acquire machine) are stateless and can die or redeploy at any time.
:class:`FleetStateStore` reproduces that property for the fleet
controller — workload progress, instance bindings, and open spot
requests live in DynamoDB tables rather than in-process dicts, so a
controller can be torn down mid-run and a fresh one rebuilt from the
store alone (see ``LifecycleService.restore``).

The store's tables are *unmetered* (see
:class:`~repro.cloud.services.dynamodb.Table`): the paper bills its
checkpoint/metrics tables, which stay metered, but the state mirror's
request volume is a reproduction artifact and must not perturb the
cost model the evaluation compares.

:class:`ControlPlaneRouter` is the non-durable half: the stand-in for
the *deployed* serverless endpoints.  Cloud-side wiring (EventBridge
targets, the CloudWatch sweep rule, EC2 fulfillment callbacks) holds a
reference to the router's stable methods, and the router forwards to
whichever service instances are currently bound — exactly how a real
Lambda survives a control-plane redeploy: the endpoint is stable, the
code behind it is replaced.
"""

from __future__ import annotations

import functools
import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, MutableMapping, Optional, Sequence, Set, Tuple

from repro.cloud.retry import call_with_retries
from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cloud.services.dynamodb import DynamoDBService
    from repro.cloud.services.ec2 import Instance, SpotRequest
    from repro.core.execution import WorkloadExecution

#: Tenant every workload belongs to unless the tenancy layer says
#: otherwise — single-tenant runs never mention tenants at all.
DEFAULT_TENANT = "default"


def shard_index(tenant_id: str, workload_id: str, n_shards: int) -> int:
    """Stable shard of one workload: ``hash(tenant_id, workload_id) % n``.

    Uses CRC-32 rather than Python's builtin ``hash`` so the partition
    map survives process restarts and ``PYTHONHASHSEED`` — the same
    (tenant, workload) pair must land on the same shard in a resumed
    controller or a replayed run.
    """
    if n_shards <= 1:
        return 0
    return zlib.crc32(f"{tenant_id}/{workload_id}".encode("utf-8")) % n_shards


class _MetaMapping(MutableMapping):
    """Dict-like view over one partition of the store's meta table.

    Lets components (e.g. the EFS checkpoint backend's per-region file
    system registry) keep small key-value state durably without knowing
    about DynamoDB.
    """

    def __init__(self, store: "FleetStateStore", section: str) -> None:
        self._store = store
        self._section = section
        self._scope = f"fleet-state:meta:{section}"

    def __getitem__(self, key: str) -> Any:
        store = self._store
        _, item = store._get([store.meta_table], self._section, self._scope, sort=key)
        if item is None:
            raise KeyError(key)
        return item["value"]

    def __setitem__(self, key: str, value: Any) -> None:
        self._store._stage(
            self._store.meta_table,
            (self._section, key),
            {"section": self._section, "key": key, "value": value},
            scope=self._scope,
        )

    def __delitem__(self, key: str) -> None:
        self.__getitem__(key)  # raise KeyError when absent
        self.discard(key)

    def discard(self, key: str) -> None:
        """Delete *key* without reading it first.

        For callers that know the key is stored: ``del`` reads the key
        to raise ``KeyError`` when it is absent, this only stages the
        tombstone.
        """
        self._store._stage(self._store.meta_table, (self._section, key), None, scope=self._scope)

    def _rows(self) -> Dict[str, Any]:
        """Every ``key -> value`` of the section: one ``query``, overlay merged."""
        store = self._store
        rows = store._read(
            functools.partial(store._dynamodb.query, store.meta_table, self._section),
            scope=self._scope,
        )
        merged = {row["key"]: row["value"] for row in rows}
        for (section, key), staged in store._pending[store.meta_table].items():
            if section != self._section:
                continue
            if staged is None:
                merged.pop(key, None)
            else:
                merged[key] = staged["value"]
        # The flushed path reads through ``query``, which returns rows
        # sorted by sort key; sorting the merged rows keeps iteration
        # order independent of flush timing.
        return dict(sorted(merged.items()))

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows())

    def items(self):
        return self._rows().items()

    def __len__(self) -> int:
        return len(self._rows())


class FleetStateStore:
    """Workload / instance / request state, durably in DynamoDB.

    Args:
        dynamodb: The simulated DynamoDB service to keep state in.
        namespace: Table-name namespace; controllers default to a fresh
            one minted by the DynamoDB service (``ctl000``, ``ctl001``,
            ... *per provider*, so two runs on fresh providers — e.g. a
            plain run and its instrumented chaos twin — mint identical
            namespaces and stay bit-identical).  Pass the same store
            object to a new controller to rebuild from it.
        n_shards: Partition count for the workload / instance / request
            tables.  The default of 1 is byte-identical to the
            unsharded store (same table names, same flush batches, same
            scan orders).  With more shards, items partition by
            :func:`shard_index` over ``(tenant_id, workload_id)`` —
            the tenancy layer assigns tenants via
            :meth:`assign_tenant` before registration, everything else
            defaults to :data:`DEFAULT_TENANT` — so per-shard scans
            and flush batches stay O(shard) instead of O(fleet).  The meta / dags / tenants tables are
            control-plane-small and stay unsharded.
    """

    def __init__(
        self,
        dynamodb: "DynamoDBService",
        namespace: Optional[str] = None,
        n_shards: int = 1,
    ) -> None:
        if int(n_shards) < 1:
            raise ExperimentError(f"n_shards must be >= 1, got {n_shards}")
        self._dynamodb = dynamodb
        self._telemetry = dynamodb.provider.telemetry
        self.n_shards = int(n_shards)
        self.namespace = (
            namespace if namespace is not None else dynamodb.next_store_namespace()
        )
        prefix = f"spotverse-fleet-{self.namespace}"
        self._prefix = prefix
        self.workloads_table = f"{prefix}-workloads"
        self.instances_table = f"{prefix}-instances"
        self.requests_table = f"{prefix}-requests"
        self.meta_table = f"{prefix}-meta"
        self.dags_table = f"{prefix}-dags"
        self.tenants_table = f"{prefix}-tenants"

        def shard_names(base: str) -> List[str]:
            # Shard 0 keeps the historical unsuffixed name so a
            # 1-shard store is indistinguishable from pre-shard builds.
            return [base] + [f"{base}-s{i:02d}" for i in range(1, self.n_shards)]

        self._workload_shards = shard_names(self.workloads_table)
        self._instance_shards = shard_names(self.instances_table)
        self._request_shards = shard_names(self.requests_table)
        for table in self._workload_shards:
            dynamodb.create_table(table, partition_key="workload_id", metered=False)
        for table in self._instance_shards:
            dynamodb.create_table(table, partition_key="instance_id", metered=False)
        for table in self._request_shards:
            dynamodb.create_table(table, partition_key="request_id", metered=False)
        dynamodb.create_table(
            self.meta_table, partition_key="section", sort_key="key", metered=False
        )
        dynamodb.create_table(self.dags_table, partition_key="dag_id", metered=False)
        dynamodb.create_table(self.tenants_table, partition_key="tenant_id", metered=False)
        # Write-through overlay: mutations stage here (keyed by the
        # table's ``(partition, sort)`` tuple; ``None`` is a tombstone)
        # and land in DynamoDB as one ``batch_write_item`` per table at
        # the next engine tick boundary.  Reads consult the overlay
        # first, so staged state is always visible.
        self._pending: Dict[str, Dict[Tuple[Any, Any], Optional[Dict[str, Any]]]] = {}
        # ``(table, retry scope)`` in flush order.
        flush_tables: List[Tuple[str, str]] = []
        for group in (self._workload_shards, self._instance_shards, self._request_shards):
            for table in group:
                flush_tables.append((table, table[len(prefix) + 1:]))
        flush_tables.append((self.meta_table, "meta"))
        flush_tables.append((self.dags_table, "dags"))
        flush_tables.append((self.tenants_table, "tenants"))
        self._flush_tables = tuple(
            (table, f"fleet-state:flush:{label}") for table, label in flush_tables
        )
        for table, _ in self._flush_tables:
            self._pending[table] = {}
        #: Flush position per table, and the tables with staged writes
        #: (a tick's flush visits only these, in ``_flush_tables`` order).
        self._flush_order = {table: index for index, (table, _) in enumerate(self._flush_tables)}
        self._dirty: Set[str] = set()
        # Shard routing state.  Both maps are in-process conveniences
        # over durable data: a workload's tenant is stored in its own
        # row, so a workload scan re-derives the tenant map, and
        # instance/request shards fall back to an all-shard probe when
        # unknown, so a rebuilt controller over the same store object —
        # the crash-recovery contract — never loses an item.
        self._tenant_of: Dict[str, str] = {}
        self._entity_shard: Dict[str, int] = {}
        #: Memoised :func:`shard_index` per workload.  An entry means
        #: the store has routed the workload, which pins its tenant.
        self._shard_of: Dict[str, int] = {}
        dynamodb.provider.engine.add_tick_hook(self.flush)
        self.router = ControlPlaneRouter()

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    def assign_tenant(self, workload_id: str, tenant_id: str) -> None:
        """Pin *workload_id*'s shard to *tenant_id* (before registration).

        Re-assigning the same tenant is a no-op.

        Raises:
            ExperimentError: When a sharded store already routed the
                workload under another tenant: its rows live on that
                tenant's shard, and a second routing would store it
                twice.
        """
        routed_for = self._tenant_of.get(workload_id, DEFAULT_TENANT)
        if workload_id in self._shard_of and routed_for != tenant_id:
            raise ExperimentError(
                f"workload {workload_id!r} is already routed for tenant "
                f"{routed_for!r}; cannot move it to {tenant_id!r}"
            )
        self._tenant_of[workload_id] = tenant_id

    def tenant_of(self, workload_id: str) -> Optional[str]:
        """Tenant a workload was assigned (``None`` if never assigned)."""
        return self._tenant_of.get(workload_id)

    def shard_of(self, workload_id: str) -> int:
        """The shard *workload_id*'s items live on (memoised: routing is fixed)."""
        if self.n_shards == 1:
            return 0
        shard = self._shard_of.get(workload_id)
        if shard is None:
            tenant_id = self._tenant_of.get(workload_id, DEFAULT_TENANT)
            shard = shard_index(tenant_id, workload_id, self.n_shards)
            self._shard_of[workload_id] = shard
        return shard

    # ------------------------------------------------------------------
    # Resilient store access
    # ------------------------------------------------------------------
    # Store traffic is the control plane's most frequent DynamoDB use,
    # so it is the first casualty of an injected throttle window.  Both
    # helpers retry in place (no simulated time passes inside an event);
    # a write exhausted past the in-place budget is dropped with a dead
    # letter — the mirror self-heals on the next ``_sync`` — while an
    # exhausted read re-raises, because callers cannot act on state they
    # never saw.

    def _write(self, fn: Callable[[], Any], scope: str) -> Any:
        """*fn*'s result, or ``None`` when the write was dead-lettered."""
        tracer = self._telemetry.tracer
        if tracer is not None and tracer.current is not None:
            # Store traffic off a causal chain (setup, bookkeeping
            # sweeps) stays out of every trace tree.
            tracer.event(scope, "dynamodb")
        return call_with_retries(fn, self._telemetry, scope, drop=True)

    def _read(self, fn: Callable[[], Any], scope: str) -> Any:
        return call_with_retries(fn, self._telemetry, scope)

    # ------------------------------------------------------------------
    # Batched write-through overlay
    # ------------------------------------------------------------------
    # Every mutation stages into ``_pending`` and lands in DynamoDB at
    # the next engine tick boundary as one batch per table.  The tracer
    # event still fires at the *staging* site (the causal chain the
    # write belongs to); the flush itself runs between events, where no
    # span is current.  One semantic caveat: deleting and re-putting the
    # same key inside one tick keeps the row's original scan position,
    # where item-at-a-time writes would move it to the end — no store
    # client does this (instance/request ids are unique per acquisition
    # and workloads are never deleted).

    def _stage(
        self,
        table: str,
        key: Tuple[Any, Any],
        item: Optional[Dict[str, Any]],
        scope: str,
    ) -> None:
        tracer = self._telemetry.tracer
        if tracer is not None and tracer.current is not None:
            tracer.event(scope, "dynamodb")
        # Staged dicts are stored as-is: every staging site passes a
        # freshly built dict, and overlay reads copy on the way out.
        self._pending[table][key] = item
        self._dirty.add(table)

    def _overlay_scan(self, table: str, rows: List[Dict[str, Any]], key_attr: str) -> List[Dict[str, Any]]:
        """Merge a table scan with the staged overlay.

        Scanned rows keep their positions (staged replacements swap in
        place, tombstoned rows drop out); keys staged but never flushed
        append in staging order — matching the insertion order a flushed
        table would show.
        """
        pending = self._pending[table]
        if not pending:
            return rows
        merged = []
        seen = set()
        for row in rows:
            key = (row[key_attr], None)
            if key in pending:
                seen.add(key)
                staged = pending[key]
                if staged is None:
                    continue
                merged.append(dict(staged))
            else:
                merged.append(row)
        for key, staged in pending.items():
            if staged is not None and key not in seen:
                merged.append(dict(staged))
        return merged

    # Every row read goes through these two.  ``_get`` tries the
    # overlay, then DynamoDB, on the routed shard; a staged row or
    # tombstone answers without a read.  Only when the caller does not
    # know the routing (``probe``) does a miss go on to the other
    # shards in index order: that covers rows whose routing state
    # predates this store object (a tenant map not yet restored).  A
    # 1-shard store always issues exactly one read.

    def _get(
        self,
        tables: Sequence[str],
        partition: Any,
        scope: str,
        routed: int = 0,
        sort: Any = None,
        probe: bool = False,
    ) -> Tuple[Optional[str], Optional[Dict[str, Any]]]:
        """``(table, item)`` for one row; *item* is ``None`` on a miss or tombstone."""
        key = (partition, sort)
        get_item = self._dynamodb.get_item
        for step in range(len(tables) if probe else 1):
            # The routed shard first, then the others in index order.
            index = routed if step == 0 else step - 1 if step <= routed else step
            table = tables[index]
            pending = self._pending[table]
            if key in pending:
                staged = pending[key]
                return table, dict(staged) if staged is not None else None
            item = self._read(functools.partial(get_item, table, partition, sort), scope)
            if item is not None:
                return table, item
        return None, None

    def _scan(self, tables: Sequence[str], key_attr: str, scope: str) -> List[Dict[str, Any]]:
        """Every row of *tables*, shard by shard, with the overlay merged."""
        items: List[Dict[str, Any]] = []
        scan = self._dynamodb.scan
        for table in tables:
            rows = self._read(functools.partial(scan, table), scope)
            items.extend(self._overlay_scan(table, rows, key_attr))
        return items

    def flush(self) -> None:
        """Land every staged write in DynamoDB, one batch per table.

        Runs from the engine's tick hook (and from controller teardown).
        A batch that exhausts its retry budget against an injected
        throttle is dead-lettered and **stays pending**, so the next
        tick's flush retries it — the mirror self-heals instead of
        silently losing state.  A tick that staged nothing returns at
        once.
        """
        dirty = self._dirty
        if not dirty:
            return
        order = self._flush_order
        if len(dirty) == 1:
            (table,) = dirty
            indices: Iterable[int] = (order[table],)
        else:
            indices = sorted(map(order.__getitem__, dirty))
        batch_write_item = self._dynamodb.batch_write_item
        for index in indices:
            table, scope = self._flush_tables[index]
            pending = self._pending[table]
            puts = []
            deletes = []
            for key, item in pending.items():
                if item is None:
                    deletes.append(key)
                else:
                    puts.append(item)
            # ``batch_write_item`` returns its write count, never None.
            landed = self._write(
                functools.partial(batch_write_item, table, puts=puts, deletes=deletes),
                scope=scope,
            )
            if landed is not None:
                pending.clear()
                dirty.discard(table)

    # ------------------------------------------------------------------
    # Workload state
    # ------------------------------------------------------------------
    def save_execution(self, execution: "WorkloadExecution") -> None:
        """Persist one execution's full durable state (upsert), with its assigned tenant."""
        item = execution.state_item()
        workload_id = item["workload_id"]
        if workload_id in self._tenant_of:
            item["tenant_id"] = self._tenant_of[workload_id]
        self._stage(
            self._workload_shards[self.shard_of(workload_id)],
            (workload_id, None),
            item,
            scope="fleet-state:save-execution",
        )

    def workload_item(self, workload_id: str) -> Optional[Dict[str, Any]]:
        """The stored state of one workload, or ``None``.

        One read when the store knows the workload's tenant; otherwise
        a miss probes every shard.
        """
        return self._get(
            self._workload_shards,
            workload_id,
            "fleet-state:workload-item",
            routed=self.shard_of(workload_id),
            probe=workload_id not in self._tenant_of,
        )[1]

    def workload_items(self) -> List[Dict[str, Any]]:
        """Stored workloads, in registration order.

        With shards, the order is per-shard registration order
        concatenated in shard order — deterministic, but interleaved
        differently than a 1-shard store would show.  The scan also
        re-derives the tenant map from the rows' ``tenant_id``.
        """
        items = self._scan(self._workload_shards, "workload_id", "fleet-state:workload-items")
        for item in items:
            if "tenant_id" in item:
                self._tenant_of[item["workload_id"]] = item["tenant_id"]
        return items

    def has_workload(self, workload_id: str) -> bool:
        """Whether *workload_id* is registered."""
        return self.workload_item(workload_id) is not None

    def state_counts(self) -> Dict[str, int]:
        """Stored workloads per state, name-sorted.

        The flight recorder embeds this in blackbox snapshots: one
        line of fleet shape ("3 running, 2 migrating, 1 done") that
        usually orients an incident before the event ring is read.
        Reads via :meth:`DynamoDBService.peek_items` — snapshots fire
        mid-run from inside event fan-out, and a metered or
        chaos-gated read there would consume fault-stream RNG draws
        and perturb the very run being recorded.
        """
        counts: Dict[str, int] = {}
        for table in self._workload_shards:
            rows = self._overlay_scan(
                table, self._dynamodb.peek_items(table), "workload_id"
            )
            for item in rows:
                state = item["state"]
                counts[state] = counts.get(state, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Instance bindings
    # ------------------------------------------------------------------
    def bind_instance(self, instance: "Instance", workload_id: str) -> None:
        """Record that *instance* runs *workload_id*."""
        shard = self.shard_of(workload_id)
        if self.n_shards > 1:
            self._entity_shard[instance.instance_id] = shard
        self._stage(
            self._instance_shards[shard],
            (instance.instance_id, None),
            {"instance_id": instance.instance_id, "workload_id": workload_id},
            scope="fleet-state:bind-instance",
        )

    def _pop_row(self, tables: List[str], entity_id: str, scope: str) -> Optional[str]:
        """Remove one binding/tracking row; returns its workload id."""
        shard = self._entity_shard.get(entity_id)
        table, item = self._get(
            tables, entity_id, scope, routed=shard or 0, probe=shard is None
        )
        if item is None:
            return None
        self._stage(table, (entity_id, None), None, scope=scope)
        self._entity_shard.pop(entity_id, None)
        return item["workload_id"]

    def _drop_row(self, tables: List[str], entity_id: str, workload_id: str, scope: str) -> None:
        """Tombstone a row of *workload_id* on its shard, where it was staged; no read."""
        self._stage(tables[self.shard_of(workload_id)], (entity_id, None), None, scope=scope)
        self._entity_shard.pop(entity_id, None)

    def pop_instance(self, instance_id: str) -> Optional[str]:
        """Remove and return the workload bound to *instance_id*."""
        return self._pop_row(
            self._instance_shards, instance_id, scope="fleet-state:pop-instance"
        )

    def drop_instance(self, instance_id: str, workload_id: str) -> None:
        """Remove *workload_id*'s binding to *instance_id* (no read)."""
        self._drop_row(self._instance_shards, instance_id, workload_id, "fleet-state:pop-instance")

    def instance_bindings(self) -> Dict[str, str]:
        """Current ``instance_id -> workload_id`` map."""
        rows = self._scan(self._instance_shards, "instance_id", "fleet-state:instance-bindings")
        return {item["instance_id"]: item["workload_id"] for item in rows}

    # ------------------------------------------------------------------
    # Spot request tracking
    # ------------------------------------------------------------------
    def track_request(self, request: "SpotRequest", workload_id: str) -> None:
        """Track an open spot request filed for *workload_id*."""
        shard = self.shard_of(workload_id)
        if self.n_shards > 1:
            self._entity_shard[request.request_id] = shard
        self._stage(
            self._request_shards[shard],
            (request.request_id, None),
            {"request_id": request.request_id, "workload_id": workload_id},
            scope="fleet-state:track-request",
        )

    def pop_request(self, request_id: str) -> Optional[str]:
        """Remove and return the workload a request was filed for."""
        return self._pop_row(
            self._request_shards, request_id, scope="fleet-state:pop-request"
        )

    def drop_request(self, request_id: str, workload_id: str) -> None:
        """Stop tracking *workload_id*'s request *request_id* (no read)."""
        self._drop_row(self._request_shards, request_id, workload_id, "fleet-state:pop-request")

    def tracked_requests(self) -> List[Tuple[str, str]]:
        """``(request_id, workload_id)`` pairs, in filing order."""
        rows = self._scan(self._request_shards, "request_id", "fleet-state:tracked-requests")
        return [(item["request_id"], item["workload_id"]) for item in rows]

    # ------------------------------------------------------------------
    # DAG progress (DAG-aware placement)
    # ------------------------------------------------------------------
    def save_dag(self, item: Dict[str, Any]) -> None:
        """Persist one DAG's durable progress (upsert).

        The item is the coordinator's ``dag_item``: stage ids, the
        completed set, and each completed stage's completion region
        (what the egress model needs to re-price input edges after a
        restore).  Stage *definitions* are code and are re-supplied on
        resume, exactly like workload definitions.
        """
        self._stage(
            self.dags_table,
            (item["dag_id"], None),
            item,
            scope="fleet-state:save-dag",
        )

    def dag_item(self, dag_id: str) -> Optional[Dict[str, Any]]:
        """The stored progress of one DAG, or ``None``."""
        return self._get([self.dags_table], dag_id, "fleet-state:dag-item")[1]

    def dag_items(self) -> List[Dict[str, Any]]:
        """Every stored DAG, in submission order."""
        return self._scan([self.dags_table], "dag_id", "fleet-state:dag-items")

    def has_dag(self, dag_id: str) -> bool:
        """Whether *dag_id* is registered."""
        return self.dag_item(dag_id) is not None

    # ------------------------------------------------------------------
    # Tenant roster (multi-tenant control plane)
    # ------------------------------------------------------------------
    def save_tenant(self, item: Dict[str, Any]) -> None:
        """Persist one tenant spec (upsert).

        The item is the registry's ``TenantSpec.to_dict()``: quota,
        fair-share weight, pending-queue bound, and default policy.
        Specs are durable like workload state — a rebuilt controller
        reloads the roster from this table alone.
        """
        self._stage(
            self.tenants_table,
            (item["tenant_id"], None),
            item,
            scope="fleet-state:save-tenant",
        )

    def tenant_item(self, tenant_id: str) -> Optional[Dict[str, Any]]:
        """The stored spec of one tenant, or ``None``."""
        return self._get([self.tenants_table], tenant_id, "fleet-state:tenant-item")[1]

    def tenant_items(self) -> List[Dict[str, Any]]:
        """Every stored tenant spec, in registration order."""
        return self._scan([self.tenants_table], "tenant_id", "fleet-state:tenant-items")

    # ------------------------------------------------------------------
    # Meta state
    # ------------------------------------------------------------------
    def mapping(self, section: str) -> MutableMapping:
        """A durable dict-like view over one meta-table partition."""
        return _MetaMapping(self, section)


class ControlPlaneRouter:
    """Stable dispatch endpoints for the fleet services.

    All cloud-side wiring targets the router, never a service instance
    directly, so pending deliveries (EventBridge events, EC2
    fulfillment callbacks, Step Functions attempts, the CloudWatch
    sweep) keep working across a controller teardown/rebuild.
    """

    def __init__(self) -> None:
        self._capacity = None
        self._interruption = None
        self._ec2 = None
        #: Whether the wiring that targets this router is deployed.
        self.deployed = False

    def bind(self, capacity, interruption, ec2) -> None:
        """Point the endpoints at freshly constructed services."""
        self._capacity = capacity
        self._interruption = interruption
        self._ec2 = ec2

    def unbind(self) -> None:
        """Detach the services (controller torn down)."""
        self._capacity = None
        self._interruption = None

    # -- endpoints ------------------------------------------------------
    def spot_fulfilled(self, request, instance) -> None:
        """EC2 ``on_fulfilled`` callback endpoint."""
        if self._capacity is not None:
            self._capacity.on_spot_fulfilled(request, instance)
        elif self._ec2 is not None:
            # No controller bound: nothing can use the capacity.
            self._ec2.terminate_instances([instance.instance_id])

    def sweep(self) -> None:
        """CloudWatch 15-minute sweep endpoint."""
        if self._capacity is not None:
            self._capacity.sweep_open_requests()
        if self._interruption is not None:
            # Repair interruptions whose event-path handling was lost to
            # injected faults (dropped deliveries, crashed Lambdas).
            self._interruption.reconcile_missed_interruptions()

    def interruption_event(self, event: Dict[str, Any], context: object) -> str:
        """Interruption-handler Lambda endpoint."""
        if self._interruption is None:
            return "ignored"
        return self._interruption.handle_event(event, context)

    def reacquire(self, input: Dict[str, Any]) -> str:
        """Step Functions re-acquire task endpoint."""
        if self._interruption is None:
            return "noop"
        return self._interruption.reacquire_task(input)
