"""Unit and integration tests for the decomposed fleet control plane."""

import pytest

from repro.chaos import CampaignSpec, ChaosController, Injection
from repro.cloud.provider import CloudProvider
from repro.cloud.services.ec2 import InstanceState, SpotRequestState
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.fleet import (
    DynamoCheckpointBackend,
    EFSCheckpointBackend,
    FleetStateStore,
)
from repro.core.fleet.state import DEFAULT_TENANT, shard_index
from repro.errors import ExperimentError
from repro.obs import EventType
from repro.sim.clock import HOUR
from repro.strategies import OnDemandPolicy, SingleRegionPolicy
from repro.workloads.base import synthetic_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload


@pytest.fixture()
def provider():
    p = CloudProvider(seed=4)
    p.warmup_markets(24)
    return p


class TestFleetStateStore:
    def test_tables_are_unmetered(self, provider):
        store = FleetStateStore(provider.dynamodb)
        before = provider.ledger.total()
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        store.bind_instance(instance, "w")
        store.instance_bindings()
        store.mapping("meta")["k"] = 1
        assert provider.ledger.total() == before

    def test_instance_bindings_roundtrip(self, provider):
        store = FleetStateStore(provider.dynamodb)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        store.bind_instance(instance, "w")
        assert store.instance_bindings() == {instance.instance_id: "w"}
        assert store.pop_instance(instance.instance_id) == "w"
        assert store.pop_instance(instance.instance_id) is None
        assert store.instance_bindings() == {}

    def test_request_tracking_keeps_filing_order(self, provider):
        store = FleetStateStore(provider.dynamodb)
        requests = [
            provider.ec2.request_spot_instances("us-east-1", "m5.xlarge", tag=f"w{i}")
            for i in range(3)
        ]
        for i, request in enumerate(requests):
            store.track_request(request, f"w{i}")
        assert store.tracked_requests() == [
            (request.request_id, f"w{i}") for i, request in enumerate(requests)
        ]
        assert store.pop_request(requests[1].request_id) == "w1"
        assert store.pop_request(requests[1].request_id) is None
        assert [wid for _, wid in store.tracked_requests()] == ["w0", "w2"]

    def test_meta_mapping_behaves_like_a_dict(self, provider):
        store = FleetStateStore(provider.dynamodb)
        mapping = store.mapping("efs-filesystems")
        mapping["us-east-1"] = "fs-0"
        mapping["eu-west-1"] = "fs-1"
        assert mapping["us-east-1"] == "fs-0"
        assert mapping.get("nope") is None
        assert sorted(mapping) == ["eu-west-1", "us-east-1"]
        assert len(mapping) == 2
        del mapping["us-east-1"]
        with pytest.raises(KeyError):
            mapping["us-east-1"]
        # Sections are isolated partitions of one meta table.
        assert "eu-west-1" not in store.mapping("other-section")

    def test_namespaces_isolate_controllers(self, provider):
        a = FleetStateStore(provider.dynamodb)
        b = FleetStateStore(provider.dynamodb)
        assert a.namespace != b.namespace
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        a.bind_instance(instance, "w")
        assert b.instance_bindings() == {}


class _StateRow:
    """Stands in for a ``WorkloadExecution``: the store only reads ``state_item()``."""

    def __init__(self, workload_id):
        self.workload_id = workload_id

    def state_item(self):
        return {"workload_id": self.workload_id, "state": "running"}


class TestShardedStoreMisses:
    """Reads that miss the routed shard probe the others; tombstones stop them."""

    def test_rebuilt_store_finds_rows_off_the_routed_shard(self, provider):
        n = 4
        # A tenant workload whose rows live neither on shard 0 (where an
        # unknown instance/request is looked up first) nor where the
        # default tenant would route it.
        workload_id = next(
            w
            for w in (f"w{i}" for i in range(100))
            if shard_index("t1", w, n) not in (0, shard_index(DEFAULT_TENANT, w, n))
        )
        # A default-tenant workload on shard 0, for the routed tombstone.
        home_id = next(
            w for w in (f"h{i}" for i in range(100)) if shard_index(DEFAULT_TENANT, w, n) == 0
        )
        store = FleetStateStore(provider.dynamodb, n_shards=n)
        store.assign_tenant(workload_id, "t1")
        store.save_execution(_StateRow(workload_id))
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        home = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        request = provider.ec2.request_spot_instances("us-east-1", "m5.xlarge", tag="r")
        store.bind_instance(instance, workload_id)
        store.bind_instance(home, home_id)
        store.track_request(request, workload_id)
        store.flush()

        # A second store over the same tables starts with empty routing
        # maps: a rebuilt controller whose map was never restored.
        rebuilt = FleetStateStore(provider.dynamodb, namespace=store.namespace, n_shards=n)
        assert rebuilt.shard_of(workload_id) != store.shard_of(workload_id)
        assert rebuilt.workload_item(workload_id) == {
            **_StateRow(workload_id).state_item(),
            "tenant_id": "t1",
        }
        assert rebuilt.pop_instance(instance.instance_id) == workload_id
        assert rebuilt.pop_request(request.request_id) == workload_id
        assert rebuilt.pop_instance(home.instance_id) == home_id

        gets = []
        original = provider.dynamodb.get_item

        def counting(*args, **kwargs):
            gets.append(args)
            return original(*args, **kwargs)

        provider.dynamodb.get_item = counting
        try:
            # The tombstone staged on shard 0, the routed shard, answers
            # before any shard is read.
            assert rebuilt.pop_instance(home.instance_id) is None
        finally:
            provider.dynamodb.get_item = original
        assert gets == []


class TestCapacityService:
    def make_controller(self, provider, policy=None):
        config = SpotVerseConfig(instance_type="m5.xlarge")
        policy = policy or SingleRegionPolicy(region="ca-central-1")
        return FleetController(provider, policy, config), config

    def test_untracked_fulfillment_is_discarded_with_telemetry(self, provider):
        controller, _ = self.make_controller(provider)
        capacity = controller.services["capacity"]
        request = provider.ec2.request_spot_instances(
            "us-east-1", "m5.xlarge", tag="ghost"
        )
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="ghost")
        capacity.on_spot_fulfilled(request, instance)
        assert instance.state is InstanceState.TERMINATED
        events = provider.telemetry.bus.events(EventType.CAPACITY_DISCARDED)
        assert len(events) == 1
        assert events[0].attrs["reason"] == "untracked-request"
        assert events[0].workload_id == "ghost"
        assert events[0].instance_id == instance.instance_id

    def test_satisfied_workload_fulfillment_is_discarded(self, provider):
        controller, _ = self.make_controller(provider)
        controller.submit([synthetic_workload("w", duration_hours=1.0)])
        # Give the workload on-demand capacity, so the late spot
        # fulfillment arrives for an already-satisfied workload.
        execution = controller.execution("w")
        execution.attach(provider.ec2.run_on_demand("ca-central-1", "m5.xlarge", tag="w"))
        request = provider.ec2.request_spot_instances("ca-central-1", "m5.xlarge", tag="w")
        controller.state_store.track_request(request, "w")
        late = provider.ec2.run_on_demand("ca-central-1", "m5.xlarge", tag="w")
        controller.services["capacity"].on_spot_fulfilled(request, late)
        assert late.state is InstanceState.TERMINATED
        events = provider.telemetry.bus.events(EventType.CAPACITY_DISCARDED)
        assert [e.attrs["reason"] for e in events] == ["workload-satisfied"]
        assert controller.state_store.pop_request(request.request_id) is None

    def test_sweep_prunes_requests_that_left_open_unfulfilled(self, provider):
        controller, _ = self.make_controller(provider)
        controller.submit([synthetic_workload("w", duration_hours=1.0)])
        (request_id, _), = controller.state_store.tracked_requests()
        # Cancelled outside the controller: the request leaves OPEN
        # without ever being fulfilled.  Pre-fix, its tracking entry
        # lingered forever; the sweep now prunes it.
        provider.ec2.cancel_spot_request(request_id)
        controller.services["capacity"].sweep_open_requests()
        assert controller.state_store.tracked_requests() == []

    def test_sweep_cancels_requests_nobody_needs(self, provider):
        controller, _ = self.make_controller(provider)
        controller.submit([synthetic_workload("w", duration_hours=1.0)])
        (request_id, _), = controller.state_store.tracked_requests()
        execution = controller.execution("w")
        execution.attach(provider.ec2.run_on_demand("ca-central-1", "m5.xlarge", tag="w"))
        assert not execution.needs_instance
        controller.services["capacity"].sweep_open_requests()
        request = next(
            r
            for r in provider.ec2.describe_spot_requests()
            if r.request_id == request_id
        )
        assert request.state is SpotRequestState.CANCELLED
        assert controller.state_store.tracked_requests() == []
        cancelled = provider.telemetry.bus.events(EventType.SPOT_REQUEST_CANCELLED)
        assert [e.request_id for e in cancelled] == [request_id]


class TestCheckpointBackends:
    def test_dynamo_backend_progress_and_artifacts(self, provider):
        provider.s3.create_bucket("results", "us-east-1")
        backend = DynamoCheckpointBackend(provider, "results")
        assert backend.name == "s3"
        assert backend.save_progress("w", 2, detail={"region": "us-east-1"})
        assert backend.load_progress("w") == 2
        assert backend.progress_detail("w") == {"region": "us-east-1"}
        backend.persist_artifact("w", 1, 512, region="us-east-1")
        assert provider.s3.list_objects("results", prefix="checkpoints/w/") == [
            "checkpoints/w/1.bin"
        ]

    def test_efs_backend_lazily_provisions_per_region(self, provider):
        backend = EFSCheckpointBackend(provider, results_region="us-east-1")
        assert backend.name == "efs"
        assert provider.efs.file_systems() == []
        backend.persist_artifact("w", 1, 1024, region="eu-west-1")
        backend.persist_artifact("w", 2, 1024, region="eu-west-1")
        # One file system per region, however many artifacts.
        assert len(provider.efs.file_systems()) == 1
        backend.persist_artifact("w", 3, 1024, region="ap-southeast-2")
        assert len(provider.efs.file_systems()) == 2

    def test_efs_backend_home_region_has_no_replica(self, provider):
        backend = EFSCheckpointBackend(provider, results_region="us-east-1")
        backend.persist_artifact("w", 1, 1024, region="us-east-1")
        (fs_id,) = provider.efs.file_systems()
        assert provider.efs.list_files(fs_id) == ["checkpoints/w/1.bin"]

    def test_efs_backend_durable_registry_survives_rebuild(self, provider):
        store = FleetStateStore(provider.dynamodb)
        registry = store.mapping("efs-filesystems")
        first = EFSCheckpointBackend(
            provider, results_region="us-east-1", fs_registry=registry
        )
        first.persist_artifact("w", 1, 1024, region="eu-west-1")
        assert len(provider.efs.file_systems()) == 1
        # A rebuilt control plane constructs a fresh backend over the
        # same durable registry: no new file system is provisioned.
        second = EFSCheckpointBackend(
            provider, results_region="us-east-1", fs_registry=store.mapping("efs-filesystems")
        )
        second.persist_artifact("w", 2, 1024, region="eu-west-1")
        assert len(provider.efs.file_systems()) == 1

    @pytest.mark.parametrize("backend_cls", [DynamoCheckpointBackend, EFSCheckpointBackend])
    def test_corrupt_newest_artifact_falls_back_to_older(self, provider, backend_cls):
        provider.s3.create_bucket("results", "us-east-1")
        target = "results" if backend_cls is DynamoCheckpointBackend else "us-east-1"
        backend = backend_cls(provider, target)
        corruption = Injection(
            kind="checkpoint-corruption", at=HOUR, duration=HOUR, rate=1.0
        )
        ChaosController(provider, CampaignSpec(name="corrupt", injections=(corruption,))).install()
        backend.persist_artifact("w", 1, 4096, region="eu-west-1", segments=2)
        # Only the second write lands inside the corruption window.
        provider.engine.run_until(provider.engine.now + 1.5 * HOUR)
        backend.persist_artifact("w", 2, 4096, region="eu-west-1", segments=4)
        check = backend.verify_artifacts("w")
        assert check.newest_valid is False
        assert check.valid_segments == 2
        assert check.corrupt_count == 1

    def test_efs_fleet_emits_efs_backend_events(self, provider):
        config = SpotVerseConfig(instance_type="m5.xlarge", checkpoint_backend="efs")
        controller = FleetController(
            provider, SingleRegionPolicy(region="ca-central-1"), config
        )
        workloads = [
            ngs_preprocessing_workload(f"w{i}", duration_hours=8.0) for i in range(6)
        ]
        result = controller.run(workloads, max_hours=72)
        assert result.all_complete
        saves = provider.telemetry.bus.events(EventType.CHECKPOINT_SAVED)
        assert saves, "expected at least one interruption-time checkpoint"
        assert {e.attrs["backend"] for e in saves} == {"efs"}
        assert len(provider.efs.file_systems()) >= 1


class TestControllerRestart:
    def test_rebuild_from_store_finishes_fleet(self, provider):
        config = SpotVerseConfig(instance_type="m5.xlarge")
        policy = SingleRegionPolicy(region="ca-central-1")
        controller = FleetController(provider, policy, config)
        workloads = [synthetic_workload(f"w{i}", duration_hours=4.0) for i in range(4)]
        controller.submit(workloads)
        provider.engine.run_until(provider.engine.now + HOUR)
        store = controller.state_store
        controller.teardown()
        rebuilt = FleetController(provider, policy, config, state_store=store)
        rebuilt.restore(workloads)
        result = rebuilt.wait(workloads, max_hours=72)
        assert result.all_complete
        assert {r.workload_id for r in result.records} == {w.workload_id for w in workloads}

    def test_teardown_leaves_cloud_wiring_deployed(self, provider):
        config = SpotVerseConfig()
        controller = FleetController(provider, OnDemandPolicy(), config)
        store = controller.state_store
        controller.teardown()
        assert "spotverse-open-request-sweep" in provider.cloudwatch.scheduled_rules()
        assert "spotverse-interruption-handler" in provider.lambda_.functions()
        # Rebuilding over the same store must not redeploy (the sweep
        # rule would double up / shift phase).
        FleetController(provider, OnDemandPolicy(), config, state_store=store)
        assert provider.cloudwatch.scheduled_rules().count(
            "spotverse-open-request-sweep"
        ) == 1

    def test_resume_requires_definitions_for_stored_workloads(self, provider):
        config = SpotVerseConfig()
        controller = FleetController(provider, OnDemandPolicy(), config)
        workloads = [synthetic_workload("w", duration_hours=1.0)]
        controller.submit(workloads)
        store = controller.state_store
        controller.teardown()
        rebuilt = FleetController(provider, OnDemandPolicy(), config, state_store=store)
        with pytest.raises(ExperimentError):
            rebuilt.restore([])

    def test_restore_rejected_on_populated_controller(self, provider):
        config = SpotVerseConfig()
        controller = FleetController(provider, OnDemandPolicy(), config)
        workloads = [synthetic_workload("w", duration_hours=1.0)]
        controller.submit(workloads)
        with pytest.raises(ExperimentError):
            controller.restore(workloads)

    def test_unbound_router_discards_fulfillments(self, provider):
        config = SpotVerseConfig(instance_type="m5.xlarge")
        policy = SingleRegionPolicy(region="ca-central-1")
        controller = FleetController(provider, policy, config)
        controller.submit([synthetic_workload("w", duration_hours=1.0)])
        controller.teardown()
        # With no control plane bound, a late fulfillment has no owner:
        # the router terminates it instead of leaking a running instance.
        request = provider.ec2.request_spot_instances("ca-central-1", "m5.xlarge", tag="w")
        instance = provider.ec2.run_on_demand("ca-central-1", "m5.xlarge", tag="w")
        controller.state_store.router.spot_fulfilled(request, instance)
        assert instance.state is InstanceState.TERMINATED


class _AlwaysThrottleBatch:
    """Chaos stub: throttle every batch write until switched off."""

    def __init__(self):
        self.active = True

    def dynamodb_fault(self, op, conditional):
        if self.active and op == "batch_write_item":
            return "throttle"
        return None


class TestStateStoreBatching:
    """The write-through overlay: staged reads, per-tick flush, chaos."""

    def test_mutations_stage_until_flush(self, provider):
        store = FleetStateStore(provider.dynamodb)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        store.bind_instance(instance, "w")
        # Visible through the overlay immediately, but nothing has hit
        # the simulated DynamoDB yet.
        assert store.instance_bindings() == {instance.instance_id: "w"}
        assert provider.dynamodb.scan(store.instances_table) == []
        store.flush()
        assert provider.dynamodb.scan(store.instances_table) == [
            {"instance_id": instance.instance_id, "workload_id": "w"}
        ]

    def test_engine_tick_flushes_pending_writes(self, provider):
        store = FleetStateStore(provider.dynamodb)
        store.mapping("s")["k"] = 42
        assert provider.dynamodb.query(store.meta_table, "s") == []
        provider.engine.run_until(provider.engine.now + 1.0)
        assert provider.dynamodb.query(store.meta_table, "s") == [
            {"section": "s", "key": "k", "value": 42}
        ]

    def test_delete_after_flush_stages_tombstone(self, provider):
        store = FleetStateStore(provider.dynamodb)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        store.bind_instance(instance, "w")
        store.flush()
        assert store.pop_instance(instance.instance_id) == "w"
        # The tombstone hides the durable row until it is flushed away.
        assert store.instance_bindings() == {}
        assert len(provider.dynamodb.scan(store.instances_table)) == 1
        store.flush()
        assert provider.dynamodb.scan(store.instances_table) == []

    def test_flush_batches_one_write_per_table_per_tick(self, provider):
        store = FleetStateStore(provider.dynamodb)
        calls = []
        original = provider.dynamodb.batch_write_item

        def counting(table_name, puts=(), deletes=()):
            calls.append((table_name, len(puts), len(deletes)))
            return original(table_name, puts=puts, deletes=deletes)

        provider.dynamodb.batch_write_item = counting
        try:
            mapping = store.mapping("s")
            for i in range(5):
                mapping[f"k{i}"] = i
            store.flush()
        finally:
            provider.dynamodb.batch_write_item = original
        assert calls == [(store.meta_table, 5, 0)]

    def test_throttled_flush_retains_pending_and_self_heals(self, provider):
        store = FleetStateStore(provider.dynamodb)
        chaos = _AlwaysThrottleBatch()
        provider.attach_chaos(chaos)
        store.mapping("s")["k"] = 1
        store.flush()  # exhausts retries, dead-letters the batch
        assert provider.dynamodb.query(store.meta_table, "s") == []
        # Staged state is still readable and still pending...
        assert store.mapping("s")["k"] == 1
        chaos.active = False
        store.flush()  # ...and lands once the throttle window closes
        assert provider.dynamodb.query(store.meta_table, "s") == [
            {"section": "s", "key": "k", "value": 1}
        ]

    def test_scans_merge_overlay_with_durable_rows(self, provider):
        store = FleetStateStore(provider.dynamodb)
        instances = [
            provider.ec2.run_on_demand("us-east-1", "m5.xlarge") for _ in range(3)
        ]
        store.bind_instance(instances[0], "w0")
        store.flush()
        store.bind_instance(instances[1], "w1")  # staged only
        assert store.pop_instance(instances[0].instance_id) == "w0"  # tombstone
        store.bind_instance(instances[2], "w2")
        assert store.instance_bindings() == {
            instances[1].instance_id: "w1",
            instances[2].instance_id: "w2",
        }

    def test_teardown_flushes_outstanding_state(self, provider):
        config = SpotVerseConfig(instance_type="m5.xlarge")
        controller = FleetController(provider, OnDemandPolicy(), config)
        store = controller.state_store
        store.mapping("s")["k"] = 1
        controller.teardown()
        assert provider.dynamodb.query(store.meta_table, "s") == [
            {"section": "s", "key": "k", "value": 1}
        ]
