"""What a long run retains: immutable rows the garbage collector can skip.

Stored workload rows and itemised ledger entries live for the whole
run.  They hold only atomic values in tuples, so CPython's cyclic
garbage collector stops tracking them after its first pass instead of
traversing them in every later collection.  Readers still get the
same values: list-form rows (older stores, JSON round trips) restore
exactly like tuple-form rows.
"""

import gc
import json

import pytest

from repro.cloud.billing import CostCategory, CostLedger
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.execution import WorkloadExecution
from repro.core.result import WorkloadRecord
from repro.strategies import SingleRegionPolicy
from repro.workloads.base import WorkloadKind, synthetic_workload


def _as_lists(item):
    """The JSON round trip of a row: every tuple becomes a list."""
    return json.loads(json.dumps(item))


@pytest.fixture(scope="module")
def run():
    """A small single-region fleet run to completion (three interruptions)."""
    provider = CloudProvider(seed=11)
    provider.warmup_markets(24)
    config = SpotVerseConfig(instance_type="m5.xlarge")
    controller = FleetController(provider, SingleRegionPolicy(region="us-east-1"), config)
    workloads = [
        synthetic_workload(f"wl-{index}", duration_hours=2.0, n_segments=4) for index in range(4)
    ]
    result = controller.run(workloads, max_hours=48.0)
    assert result.all_complete and result.total_interruptions
    controller.state_store.flush()
    return provider, controller, workloads


def test_stored_rows_are_untracked_after_a_collection(run):
    provider, controller, _ = run
    store = controller.state_store
    rows = provider.dynamodb.peek_items(store.workloads_table)
    assert any(row["record"]["interruptions"] for row in rows)
    # A pass untracks a tuple only when its items are untracked by then,
    # and the collector may visit an ``interruptions`` tuple before its
    # ``(time, region)`` pairs: nested tuples take one pass per level.
    gc.collect()
    gc.collect()
    for row in rows:
        record = row["record"]
        assert record["regions"] and record["attempt_starts"]
        for field in ("interruptions", "regions", "attempt_starts"):
            assert isinstance(record[field], tuple)
            assert not gc.is_tracked(record[field]), field
        assert not gc.is_tracked(row["input_sources"])


def test_ledger_entries_are_untracked_and_read_back_as_members():
    ledger = CostLedger()
    ledger.charge(time=1.0, category=CostCategory.DYNAMODB, amount=0.5, detail="put t")
    ledger.charge(time=2.0, category=CostCategory.LAMBDA, amount=0.25, tag="w", count=2)
    gc.collect()
    assert not any(gc.is_tracked(entry) for entry in ledger._entries)
    entries = ledger.entries
    assert [entry.category for entry in entries] == [
        CostCategory.DYNAMODB,
        CostCategory.LAMBDA,
        CostCategory.LAMBDA,
    ]
    assert all(isinstance(entry.category, CostCategory) for entry in entries)
    assert ledger.total(CostCategory.LAMBDA) == 0.5


def test_record_from_list_and_tuple_rows_is_equal():
    record = WorkloadRecord(
        workload_id="wl",
        kind=WorkloadKind.CHECKPOINT,
        submitted_at=3.0,
        completed_at=9.5,
        interruptions=[(4.0, "us-east-1"), (6.0, "eu-west-1")],
        regions=["us-east-1", "eu-west-1", "ca-central-1"],
        attempt_starts=[3.5, 4.5, 6.5],
        attempts=3,
        on_demand_attempts=1,
        cost=1.25,
    )
    item = record.to_item()
    assert WorkloadRecord.from_item(item) == record
    assert WorkloadRecord.from_item(_as_lists(item)) == record


def test_execution_restore_from_list_and_tuple_rows_is_equal(run):
    provider, controller, workloads = run
    lifecycle = controller.services["lifecycle"]
    store = controller.state_store
    definitions = {workload.workload_id: workload for workload in workloads}
    for item in store.workload_items():
        item = dict(item, input_sources=(("us-east-1", 1024), ("eu-west-1", 2048)))
        restored = []
        for row in (item, _as_lists(item)):
            execution = WorkloadExecution.restore(
                item=row,
                workload=definitions[row["workload_id"]],
                provider=provider,
                backend=lifecycle._backend,
                results_bucket=lifecycle._config.results_bucket,
                boot_delay=lifecycle._config.boot_delay,
                execute_payloads=False,
                on_complete=lambda execution: None,
                fleet_state=store,
            )
            execution.detach_timers()
            restored.append(execution)
        tuple_form, list_form = restored
        assert tuple_form.record == list_form.record
        assert tuple_form.input_sources == list_form.input_sources
        assert tuple_form.state_item() == list_form.state_item() == item
