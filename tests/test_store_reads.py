"""The fleet state store's read contract, counted at the DynamoDB API.

Every test wraps the ``DynamoDBService`` of its provider with a spy
that counts calls per op (and per table), so a store change that adds
a read, or a probe over shards the store could have routed, fails
here by count.
"""

from collections import Counter

import pytest

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.fleet.state import FleetStateStore, shard_index
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.tenancy import MultiTenantController, TenantSpec
from repro.errors import ExperimentError
from repro.sim.clock import HOUR
from repro.strategies import SingleRegionPolicy
from repro.workloads.base import synthetic_workload

SHARDS = 16


class _Spy:
    """Counts ``DynamoDBService`` calls by op and by ``(op, table)``."""

    OPS = ("get_item", "query", "scan", "batch_write_item", "batch_get_item")

    def __init__(self, dynamodb):
        self.ops = Counter()
        self.tables = Counter()
        for op in self.OPS:
            setattr(dynamodb, op, self._wrap(op, getattr(dynamodb, op)))

    def _wrap(self, op, fn):
        def spy(table_name, *args, **kwargs):
            self.ops[op] += 1
            self.tables[op, table_name] += 1
            return fn(table_name, *args, **kwargs)

        return spy

    def reset(self):
        self.ops.clear()
        self.tables.clear()


class _StateRow:
    """Stands in for a ``WorkloadExecution``: the store only reads ``state_item()``."""

    def __init__(self, workload_id):
        self.workload_id = workload_id

    def state_item(self):
        return {"workload_id": self.workload_id, "state": "running"}


@pytest.fixture()
def provider():
    return CloudProvider(seed=4)


def test_assigned_workload_reads_only_the_owning_shard(provider):
    store = FleetStateStore(provider.dynamodb, n_shards=SHARDS)
    spy = _Spy(provider.dynamodb)
    store.assign_tenant("wl-new", "tenant-a")
    assert not store.has_workload("wl-new")
    # One read, not a probe over all 16 shards.
    assert spy.ops == Counter(get_item=1)
    owner = store._workload_shards[shard_index("tenant-a", "wl-new", SHARDS)]
    assert spy.tables["get_item", owner] == 1
    store.save_execution(_StateRow("wl-new"))
    store.flush()
    spy.reset()
    # The row carries its tenant, from which a scan re-derives routing.
    assert store.workload_item("wl-new") == {
        **_StateRow("wl-new").state_item(),
        "tenant_id": "tenant-a",
    }
    assert spy.ops == Counter(get_item=1)


def test_unknown_routing_still_probes_every_shard(provider):
    # A workload saved under a tenant by one store object ...
    workload_id = next(
        w
        for w in (f"w{i}" for i in range(200))
        if shard_index("tenant-a", w, SHARDS) != shard_index("default", w, SHARDS)
    )
    store = FleetStateStore(provider.dynamodb, n_shards=SHARDS)
    store.assign_tenant(workload_id, "tenant-a")
    store.save_execution(_StateRow(workload_id))
    store.flush()
    # ... is found by a second store over the same tables that was never
    # told the tenant (a tenant map not yet restored).
    rebuilt = FleetStateStore(provider.dynamodb, namespace=store.namespace, n_shards=SHARDS)
    spy = _Spy(provider.dynamodb)
    assert rebuilt.has_workload(workload_id)
    assert 2 <= spy.ops["get_item"] <= SHARDS
    spy.reset()
    assert not rebuilt.has_workload("never-stored")
    assert spy.ops == Counter(get_item=SHARDS)


def test_one_shard_store_reads_once(provider):
    store = FleetStateStore(provider.dynamodb)
    spy = _Spy(provider.dynamodb)
    assert not store.has_workload("wl-x")
    assert store.pop_request("sir-unknown") is None
    assert spy.ops == Counter(get_item=2)


def test_meta_discard_makes_no_read(provider):
    store = FleetStateStore(provider.dynamodb)
    mapping = store.mapping("section")
    mapping["k"] = 1
    store.flush()
    spy = _Spy(provider.dynamodb)
    mapping.discard("k")
    assert sum(spy.ops.values()) == 0
    store.flush()
    assert spy.ops == Counter(batch_write_item=1)
    spy.reset()
    assert "k" not in mapping
    with pytest.raises(KeyError):
        del mapping["k"]
    # ``del`` keeps its existence read.
    assert spy.ops == Counter(get_item=2)


def test_tenancy_admission_round_makes_no_meta_read(provider):
    provider.warmup_markets(24)
    config = SpotVerseConfig(instance_type="m5.xlarge")
    monitor = Monitor(provider, [config.instance_type], collect_interval=config.collect_interval)
    controller = MultiTenantController(
        provider,
        SpotVerseOptimizer(monitor, config),
        config,
        monitor=monitor,
        n_shards=4,
        admit_interval=60.0,
    )
    controller.register_tenant(TenantSpec(tenant_id="tenant-a"))
    for index in range(3):
        controller.submit("tenant-a", synthetic_workload(f"wl-{index}", duration_hours=0.25))
    meta = controller.state_store.meta_table
    spy = _Spy(provider.dynamodb)
    # The queue rows flush at the first tick boundary; the admission
    # round fires after it and tombstones them.
    provider.engine.run_until(120.0)
    assert controller.admission.admitted_counts == {"tenant-a": 3}
    assert spy.tables["batch_write_item", meta] >= 1
    assert [key for key in spy.tables if key[1] == meta and key[0] != "batch_write_item"] == []
    assert list(controller.state_store.mapping(MultiTenantController.QUEUE_SECTION)) == []


def test_tenant_change_after_routing_raises(provider):
    store = FleetStateStore(provider.dynamodb, n_shards=SHARDS)
    workload_id = next(
        w
        for w in (f"w{i}" for i in range(200))
        if shard_index("tenant-a", w, SHARDS) != shard_index("tenant-b", w, SHARDS)
    )
    store.assign_tenant(workload_id, "tenant-a")
    store.save_execution(_StateRow(workload_id))
    with pytest.raises(ExperimentError, match="already routed"):
        store.assign_tenant(workload_id, "tenant-b")
    # The same tenant again is a no-op (tenancy restore relies on it).
    store.assign_tenant(workload_id, "tenant-a")
    store.save_execution(_StateRow(workload_id))
    store.flush()
    assert [item["workload_id"] for item in store.workload_items()] == [workload_id]


def test_default_routed_workload_cannot_change_tenant(provider):
    store = FleetStateStore(provider.dynamodb, n_shards=SHARDS)
    store.save_execution(_StateRow("wl-default"))
    with pytest.raises(ExperimentError):
        store.assign_tenant("wl-default", "tenant-a")


def _fleet(provider, state_store=None):
    config = SpotVerseConfig(instance_type="m5.xlarge")
    return FleetController(
        provider, SingleRegionPolicy(instance_type="m5.xlarge"), config, state_store=state_store
    )


def _reads(spy):
    return {op: count for op, count in spy.ops.items() if op != "batch_write_item"}


def test_fulfillment_reads_nothing(provider):
    controller = _fleet(provider)
    controller.submit([synthetic_workload("w0", duration_hours=1.0)])
    controller.state_store.flush()
    (request,) = provider.ec2.describe_spot_requests()
    instance = provider.ec2.run_on_demand(request.region, "m5.xlarge", tag="w0")
    spy = _Spy(provider.dynamodb)
    controller.services["capacity"].on_spot_fulfilled(request, instance)
    assert _reads(spy) == {}
    assert controller.execution("w0").instance is instance
    # The tracking row is gone all the same.
    assert controller.state_store.tracked_requests() == []


def test_building_a_controller_reads_nothing(provider):
    spy = _Spy(provider.dynamodb)
    controller = _fleet(provider)
    controller.submit([synthetic_workload("w0", duration_hours=1.0)])
    controller.teardown()
    spy.reset()
    _fleet(provider, state_store=controller.state_store)
    # No deploy flag to read back and no completion count to scan.
    assert _reads(spy) == {}


def test_fleet_restore_scans_the_workloads_once(provider):
    controller = _fleet(provider)
    fleet = [synthetic_workload(f"w{i}", duration_hours=2.0) for i in range(3)]
    controller.submit(fleet)
    provider.engine.run_until(HOUR)
    controller.teardown()
    rebuilt = _fleet(provider, state_store=controller.state_store)
    spy = _Spy(provider.dynamodb)
    rebuilt.restore(fleet)
    assert _reads(spy) == {"scan": 1}
    assert spy.tables["scan", controller.state_store.workloads_table] == 1


def test_tenancy_restore_reads_each_table_once(provider):
    provider.warmup_markets(24)
    config = SpotVerseConfig(instance_type="m5.xlarge")
    policy = SingleRegionPolicy(instance_type="m5.xlarge")
    controller = MultiTenantController(provider, policy, config)
    controller.register_tenant(TenantSpec(tenant_id="lab", max_in_flight=1))
    fleet = [synthetic_workload(f"wl-{i}", duration_hours=4.0) for i in range(3)]
    for workload in fleet:
        controller.submit("lab", workload)
    provider.engine.run_until(HOUR)
    store = controller.state_store
    controller.teardown()
    rebuilt = MultiTenantController(provider, policy, config, state_store=store)
    spy = _Spy(provider.dynamodb)
    rebuilt.restore(fleet)
    assert _reads(spy) == {"scan": 2, "query": 1}
    assert spy.tables["scan", store.workloads_table] == 1
    assert spy.tables["scan", store.tenants_table] == 1
    assert spy.tables["query", store.meta_table] == 1
    assert rebuilt.tenant_of("wl-0") == "lab"
    assert rebuilt.usage()["lab"]["in_flight"] == 1
    assert rebuilt.admission.queued_count("lab") == 2
