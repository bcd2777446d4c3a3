"""Simulated Amazon DynamoDB.

Tables have a partition key and an optional sort key.  The API mirrors
the boto3 resource layer closely enough for the paper's uses: the
Monitor writes metric snapshots, the checkpoint machinery updates
per-segment progress (with conditional writes so a stale instance
cannot clobber newer state), and experiments query by partition.
Every operation charges request units to the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import CostCategory, DYNAMODB_READ_PRICE, DYNAMODB_WRITE_PRICE
from repro.errors import (
    ConditionalCheckFailedError,
    NoSuchTableError,
    ServiceError,
    ThrottlingError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider

Item = Dict[str, Any]
Key = Tuple[Any, Any]  # (partition value, sort value or None)


@dataclass
class Table:
    """One DynamoDB table.

    Attributes:
        name: Table name.
        partition_key: Attribute name of the partition key.
        sort_key: Attribute name of the sort key, or ``None``.
        items: Storage keyed by ``(partition, sort)``.
        metered: Whether operations on this table charge request units
            to the ledger.  The paper's data-path tables (metrics,
            checkpoints) are metered; the fleet control plane's internal
            state mirror is not, so refactoring controller state into
            DynamoDB never perturbs the cost model the evaluation
            compares (its request volume is an implementation detail of
            the reproduction, not of the paper's billing study).
    """

    name: str
    partition_key: str
    sort_key: Optional[str] = None
    items: Dict[Key, Item] = field(default_factory=dict)
    metered: bool = True

    def key_of(self, item: Item) -> Key:
        """Extract this table's key tuple from *item*.

        Raises:
            ServiceError: If key attributes are missing.
        """
        if self.partition_key not in item:
            raise ServiceError(
                f"item missing partition key {self.partition_key!r} for table {self.name!r}"
            )
        sort_value = None
        if self.sort_key is not None:
            if self.sort_key not in item:
                raise ServiceError(
                    f"item missing sort key {self.sort_key!r} for table {self.name!r}"
                )
            sort_value = item[self.sort_key]
        return (item[self.partition_key], sort_value)


class DynamoDBService:
    """Global DynamoDB substrate."""

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider
        self._tables: Dict[str, Table] = {}
        self._store_namespaces = 0

    @property
    def provider(self) -> "CloudProvider":
        """The owning provider (clients reach telemetry/chaos through it)."""
        return self._provider

    def next_store_namespace(self) -> str:
        """Mint the next fleet-state table namespace (``ctl000``, ...).

        The counter is **per service instance**, not process-global:
        two runs on fresh providers mint identical namespaces, so an
        instrumented run (chaos twin, replay harness) is bit-identical
        to a plain one regardless of how many controllers earlier runs
        in the same process created.
        """
        namespace = f"ctl{self._store_namespaces:03d}"
        self._store_namespaces += 1
        return namespace

    def _chaos_gate(self, op: str, table_name: str, conditional: bool = False) -> None:
        """Raise an injected fault for one item operation, if any."""
        chaos = self._provider.chaos
        if chaos is None:
            return
        verdict = chaos.dynamodb_fault(op, conditional)
        if verdict == "throttle":
            raise ThrottlingError(f"{op} on table {table_name!r} throttled")
        if verdict == "conditional-check":
            raise ConditionalCheckFailedError(
                f"injected conditional-check failure: {op} on table {table_name!r}"
            )

    def create_table(
        self,
        name: str,
        partition_key: str,
        sort_key: Optional[str] = None,
        metered: bool = True,
    ) -> Table:
        """Create a table (idempotent when the schema matches)."""
        existing = self._tables.get(name)
        if existing is not None:
            if (existing.partition_key, existing.sort_key) != (partition_key, sort_key):
                raise ServiceError(f"table {name!r} exists with a different key schema")
            return existing
        table = Table(
            name=name, partition_key=partition_key, sort_key=sort_key, metered=metered
        )
        self._tables[name] = table
        return table

    def _table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise NoSuchTableError(f"no such table: {name!r}")
        return table

    def _charge(self, table: Table, write: bool, detail: str) -> None:
        if not table.metered:
            return
        self._provider.ledger.charge(
            time=self._provider.engine.now,
            category=CostCategory.DYNAMODB,
            amount=DYNAMODB_WRITE_PRICE if write else DYNAMODB_READ_PRICE,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # Item operations
    # ------------------------------------------------------------------
    def put_item(
        self,
        table_name: str,
        item: Item,
        condition: Optional[Callable[[Optional[Item]], bool]] = None,
    ) -> None:
        """Store *item* wholesale.

        Args:
            condition: Optional predicate over the *existing* item
                (``None`` when absent); when it returns false the write
                fails with :class:`ConditionalCheckFailedError`,
                mirroring DynamoDB conditional expressions.
        """
        table = self._table(table_name)
        self._chaos_gate("put_item", table_name, conditional=condition is not None)
        key = table.key_of(item)
        if condition is not None and not condition(table.items.get(key)):
            raise ConditionalCheckFailedError(
                f"conditional put on table {table_name!r} failed for key {key!r}"
            )
        table.items[key] = dict(item)
        self._charge(table, write=True, detail=f"put {table_name}")

    def get_item(
        self, table_name: str, partition: Any, sort: Any = None
    ) -> Optional[Item]:
        """Fetch one item by key, or ``None`` when absent."""
        table = self._table(table_name)
        # The hottest store call: the chaos gate and the meter are
        # only entered when they have work to do.
        if self._provider.chaos is not None:
            self._chaos_gate("get_item", table_name)
        if table.metered:
            self._charge(table, write=False, detail=f"get {table_name}")
        item = table.items.get((partition, sort))
        return dict(item) if item is not None else None

    def update_item(
        self,
        table_name: str,
        partition: Any,
        sort: Any = None,
        updates: Optional[Dict[str, Any]] = None,
        condition: Optional[Callable[[Optional[Item]], bool]] = None,
    ) -> Item:
        """Merge *updates* into an item, creating it if needed."""
        table = self._table(table_name)
        self._chaos_gate("update_item", table_name, conditional=condition is not None)
        key = (partition, sort)
        existing = table.items.get(key)
        if condition is not None and not condition(existing):
            raise ConditionalCheckFailedError(
                f"conditional update on table {table_name!r} failed for key {key!r}"
            )
        item = dict(existing) if existing is not None else {table.partition_key: partition}
        if table.sort_key is not None and existing is None:
            item[table.sort_key] = sort
        item.update(updates or {})
        table.items[key] = item
        self._charge(table, write=True, detail=f"update {table_name}")
        return dict(item)

    def delete_item(self, table_name: str, partition: Any, sort: Any = None) -> None:
        """Delete an item by key (no-op when absent)."""
        table = self._table(table_name)
        self._chaos_gate("delete_item", table_name)
        table.items.pop((partition, sort), None)
        self._charge(table, write=True, detail=f"delete {table_name}")

    # ------------------------------------------------------------------
    # Batch operations
    # ------------------------------------------------------------------
    def batch_write_item(
        self,
        table_name: str,
        puts: Sequence[Item] = (),
        deletes: Sequence[Key] = (),
    ) -> int:
        """Apply *puts* then *deletes* to one table as a single request.

        The batched counterpart of :meth:`put_item` / :meth:`delete_item`
        for per-tick write coalescing: the chaos gate rolls **once per
        batch** (an injected throttle rejects the whole request before
        any item lands, so a retried batch re-applies atomically and
        campaigns stay seed-replayable), while request units are still
        charged **per item** (one itemised run for the puts, then one
        for the deletes), at the same prices as the item-at-a-time
        calls — billing totals are unchanged by batching.  Conditional
        writes are not supported in batches, mirroring the real
        ``BatchWriteItem``.

        Args:
            puts: Items to store wholesale, in order.
            deletes: ``(partition, sort)`` key pairs to delete (sort is
                ``None`` for tables without a sort key).

        Returns:
            The number of write operations applied.
        """
        table = self._table(table_name)
        if not puts and not deletes:
            return 0
        if self._provider.chaos is not None:
            self._chaos_gate("batch_write_item", table_name)
        items = table.items
        for item in puts:
            items[table.key_of(item)] = dict(item)
        for partition, sort in deletes:
            items.pop((partition, sort), None)
        if table.metered:
            charge = self._provider.ledger.charge
            now = self._provider.engine.now
            charge(
                time=now,
                category=CostCategory.DYNAMODB,
                amount=DYNAMODB_WRITE_PRICE,
                detail=f"batch-put {table_name}",
                count=len(puts),
            )
            charge(
                time=now,
                category=CostCategory.DYNAMODB,
                amount=DYNAMODB_WRITE_PRICE,
                detail=f"batch-delete {table_name}",
                count=len(deletes),
            )
        return len(puts) + len(deletes)

    def batch_get_item(
        self, table_name: str, keys: Sequence[Key]
    ) -> List[Optional[Item]]:
        """Fetch several items by key as a single request.

        One chaos gate for the whole batch, read units charged per key
        (one itemised run).  Results align positionally with *keys*;
        absent items come back as ``None`` (a convenience divergence
        from the real API, which omits misses).
        """
        table = self._table(table_name)
        if not keys:
            return []
        self._chaos_gate("batch_get_item", table_name)
        items = table.items
        results: List[Optional[Item]] = []
        for partition, sort in keys:
            item = items.get((partition, sort))
            results.append(dict(item) if item is not None else None)
        if table.metered:
            self._provider.ledger.charge(
                time=self._provider.engine.now,
                category=CostCategory.DYNAMODB,
                amount=DYNAMODB_READ_PRICE,
                detail=f"batch-get {table_name}",
                count=len(keys),
            )
        return results

    # ------------------------------------------------------------------
    # Bulk reads
    # ------------------------------------------------------------------
    def query(self, table_name: str, partition: Any) -> List[Item]:
        """Return all items sharing *partition*, sorted by sort key."""
        table = self._table(table_name)
        self._chaos_gate("query", table_name)
        self._charge(table, write=False, detail=f"query {table_name}")
        matches = [
            dict(item)
            for (pk, _), item in table.items.items()
            if pk == partition
        ]
        if table.sort_key is not None:
            matches.sort(key=lambda item: item.get(table.sort_key))
        return matches

    def scan(
        self, table_name: str, predicate: Optional[Callable[[Item], bool]] = None
    ) -> List[Item]:
        """Return every item, optionally filtered by *predicate*."""
        table = self._table(table_name)
        self._chaos_gate("scan", table_name)
        self._charge(table, write=False, detail=f"scan {table_name}")
        items = (dict(item) for item in table.items.values())
        if predicate is None:
            return list(items)
        return [item for item in items if predicate(item)]

    def peek_items(self, table_name: str) -> List[Item]:
        """Fault-free, unbilled snapshot of a table's rows.

        Diagnostic path for observers that must read state mid-run
        without perturbing it: no chaos gate (so no fault-stream RNG
        draws), no request units charged, no retry/dead-letter
        emissions.  The flight recorder's blackbox context providers
        read through here; simulated control-plane code never should.
        """
        return [dict(item) for item in self._table(table_name).items.values()]

    def item_count(self, table_name: str) -> int:
        """Number of items currently in the table."""
        return len(self._table(table_name).items)

    def tables(self) -> List[str]:
        """Return all table names, sorted."""
        return sorted(self._tables)
