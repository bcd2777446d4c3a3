"""Every client-side retry site, driven past its budget.

Each test opens a rate-1.0 fault window, so every attempt fails, and
checks the three things a site owes its caller when the budget runs
out: one ``resilience.retry`` per failed attempt but the last, then a
single ``resilience.dead_letter`` with the site's scope and detail (or,
for an in-place read, the last ``ThrottlingError``), and the site's
own give-up action.
"""

import pytest

from repro.chaos import CampaignSpec, ChaosController, Injection
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.fleet.checkpoint import DynamoCheckpointBackend, EFSCheckpointBackend
from repro.core.fleet.state import FleetStateStore
from repro.core.monitor import Monitor
from repro.errors import ThrottlingError
from repro.obs import EventType
from repro.sim.clock import HOUR
from repro.strategies import SingleRegionPolicy
from repro.workloads.base import synthetic_workload

#: Attempts of an in-place call (state store, monitor, progress rows).
IN_PLACE_ATTEMPTS = 5
#: Attempts of an engine-scheduled retry (spot filing, artifacts, EventBridge).
SCHEDULED_ATTEMPTS = 4


def faulty_provider(kind):
    """A provider whose *kind* window is open, failing every operation."""
    provider = CloudProvider(seed=3)
    campaign = CampaignSpec(
        name=kind, injections=(Injection(kind=kind, at=0.0, duration=HOUR, rate=1.0),)
    )
    ChaosController(provider, campaign).install()
    provider.engine.run_until(1.0)
    return provider


def resilience_events(provider, scope_prefix):
    bus = provider.telemetry.bus
    retries = [
        event for event in bus.events(EventType.RESILIENCE_RETRY)
        if event.attrs["scope"].startswith(scope_prefix)
    ]
    dead = [
        event for event in bus.events(EventType.RESILIENCE_DEAD_LETTER)
        if event.attrs["scope"].startswith(scope_prefix)
    ]
    return retries, dead


def assert_in_place_dead_letter(provider, scope):
    retries, dead = resilience_events(provider, scope)
    assert [event.attrs["attempt"] for event in retries] == list(range(1, IN_PLACE_ATTEMPTS))
    assert [event.attrs["scope"] for event in dead] == [scope]
    # The dead letter carries ``str(exc)`` of the last attempt's error.
    assert retries[-1].attrs["error"] == f"ThrottlingError: {dead[0].attrs['detail']}"
    assert "throttled" in dead[0].attrs["detail"]


def assert_in_place_raise(provider, scope, raised):
    retries, dead = resilience_events(provider, scope)
    assert [event.attrs["attempt"] for event in retries] == list(range(1, IN_PLACE_ATTEMPTS))
    assert dead == []
    assert retries[-1].attrs["error"] == f"ThrottlingError: {raised.value}"


class TestInPlaceSites:
    def test_store_write_dead_letters_and_stays_pending(self):
        provider = faulty_provider("dynamodb-throttle")
        store = FleetStateStore(provider.dynamodb)
        store.mapping("probe")["key"] = 1
        store.flush()
        assert_in_place_dead_letter(provider, "fleet-state:flush:meta")
        # Give-up action: the batch stays staged for the next flush.
        assert store.mapping("probe")["key"] == 1
        provider.chaos.deactivate()
        assert provider.dynamodb.scan(store.meta_table) == []

    def test_store_read_raises_the_last_throttle(self):
        provider = faulty_provider("dynamodb-throttle")
        store = FleetStateStore(provider.dynamodb)
        with pytest.raises(ThrottlingError) as raised:
            store.mapping("probe").get("absent")
        assert_in_place_raise(provider, "fleet-state:meta:probe", raised)

    def test_monitor_put_dead_letters_the_cycle(self):
        provider = faulty_provider("dynamodb-throttle")
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        assert monitor.collect() > 0
        assert_in_place_dead_letter(provider, "monitor:put-metrics")
        # Give-up action: the cycle's rows are dropped wholesale.
        provider.chaos.deactivate()
        assert provider.dynamodb.scan("spotverse-metrics") == []

    def test_monitor_snapshot_raises_the_last_throttle(self):
        provider = faulty_provider("dynamodb-throttle")
        monitor = Monitor(provider, ["m5.xlarge"], deploy=False)
        with pytest.raises(ThrottlingError) as raised:
            monitor.snapshot("m5.xlarge")
        assert_in_place_raise(provider, "monitor:snapshot", raised)

    def test_progress_save_returns_false(self):
        provider = faulty_provider("dynamodb-throttle")
        backend = DynamoCheckpointBackend(provider, "results")
        assert backend.save_progress("w0", 3) is False
        assert_in_place_dead_letter(provider, "checkpoint:progress-save")
        assert all(
            event.workload_id == "w0"
            for event in provider.telemetry.bus.events(
                (EventType.RESILIENCE_RETRY, EventType.RESILIENCE_DEAD_LETTER)
            )
        )

    def test_progress_load_raises_the_last_throttle(self):
        provider = faulty_provider("dynamodb-throttle")
        backend = DynamoCheckpointBackend(provider, "results")
        with pytest.raises(ThrottlingError) as raised:
            backend.load_progress("w0")
        assert_in_place_raise(provider, "checkpoint:progress-load", raised)

    def test_efs_registry_read_dead_letters_the_artifact(self):
        provider = faulty_provider("dynamodb-throttle")
        store = FleetStateStore(provider.dynamodb)
        backend = EFSCheckpointBackend(
            provider, "us-east-1", fs_registry=store.mapping("efs-filesystems")
        )
        backend.persist_artifact("w0", 1, 1 << 10, "us-west-2", segments=2)
        retries, _ = resilience_events(provider, "fleet-state:meta:efs-filesystems")
        assert [event.attrs["attempt"] for event in retries] == list(range(1, IN_PLACE_ATTEMPTS))
        # Give-up action: the registry read's last throttle dead-letters
        # the artifact; nothing is provisioned, written or persisted.
        _, dead = resilience_events(provider, "checkpoint:efs")
        assert [event.workload_id for event in dead] == ["w0"]
        assert retries[-1].attrs["error"] == f"ThrottlingError: {dead[0].attrs['detail']}"
        assert provider.telemetry.bus.events(EventType.CHECKPOINT_PERSISTED) == []
        provider.engine.run_until(HOUR)
        assert provider.efs.file_systems() == []


class TestScheduledSites:
    def test_spot_request_falls_back_to_on_demand(self):
        provider = faulty_provider("ec2-request-error")
        controller = FleetController(
            provider,
            SingleRegionPolicy(instance_type="m5.xlarge"),
            SpotVerseConfig(instance_type="m5.xlarge"),
        )
        controller.submit([synthetic_workload("w0", duration_hours=1.0, n_segments=1)])
        provider.engine.run_until(HOUR)
        retries, dead = resilience_events(provider, "ec2:request-spot:")
        assert [event.attrs["attempt"] for event in retries] == list(range(1, SCHEDULED_ATTEMPTS))
        assert len(dead) == 1
        assert dead[0].attrs["detail"] == "spot request API exhausted after 4 attempts"
        assert dead[0].workload_id == "w0"
        fallbacks = provider.telemetry.bus.events(EventType.FALLBACK_ON_DEMAND)
        assert [event.attrs.get("reason") for event in fallbacks] == ["spot-api-exhausted"]
        assert fallbacks[0].seq > dead[0].seq
        assert controller.execution("w0").instance.lifecycle.value == "on-demand"

    def test_sweep_leaves_a_pending_spot_retry_alone(self):
        provider = faulty_provider("ec2-request-error")
        controller = FleetController(
            provider,
            SingleRegionPolicy(instance_type="m5.xlarge"),
            SpotVerseConfig(instance_type="m5.xlarge"),
        )
        controller.submit([synthetic_workload("w0", duration_hours=1.0, n_segments=1)])
        started = []
        start_execution = provider.stepfunctions.start_execution

        def spy(name, input):
            started.append(input["workload_id"])
            return start_execution(name, input=input)

        provider.stepfunctions.start_execution = spy
        # ``capacity:retry-spot:w0`` is pending: the workload has no
        # tracked request, yet it is not stranded.
        controller.state_store.router.sweep()
        assert started == []
        assert controller.services["capacity"].retry_pending("w0")

    def test_artifact_write_is_lost_without_persisted_event(self):
        provider = faulty_provider("checkpoint-write-error")
        provider.s3.create_bucket("results", "us-east-1")
        backend = DynamoCheckpointBackend(provider, "results")
        backend.persist_artifact("w0", 1, 1 << 10, "us-east-1", segments=2)
        provider.engine.run_until(HOUR)
        retries, dead = resilience_events(provider, "checkpoint:s3")
        assert [event.attrs["attempt"] for event in retries] == list(range(1, SCHEDULED_ATTEMPTS))
        assert [event.attrs["detail"] for event in dead] == [
            "checkpoint artifact write lost after 4 attempts"
        ]
        assert provider.telemetry.bus.events(EventType.CHECKPOINT_PERSISTED) == []
        assert backend.verify_artifacts("w0") is None

    def test_artifact_write_cancelled_at_teardown_is_dead_lettered(self):
        provider = faulty_provider("checkpoint-write-error")
        provider.s3.create_bucket("results", "us-east-1")
        backend = DynamoCheckpointBackend(provider, "results")
        backend.persist_artifact("w0", 1, 1 << 10, "us-east-1", segments=2)
        # Attempt 2 is pending when the controller dies.
        backend.teardown()
        provider.engine.run_until(HOUR)
        retries, dead = resilience_events(provider, "checkpoint:s3")
        assert [event.attrs["attempt"] for event in retries] == [1]
        assert [(event.workload_id, event.attrs["detail"]) for event in dead] == [
            ("w0", "checkpoint artifact write cancelled at teardown after 1 attempts")
        ]
        assert provider.telemetry.bus.events(EventType.CHECKPOINT_PERSISTED) == []

    def test_eventbridge_delivery_is_dead_lettered(self):
        provider = faulty_provider("eventbridge-drop")
        bus = provider.eventbridge
        delivered = []
        bus.put_rule("probe", source="test", detail_type="ping")
        bus.add_target("probe", delivered.append)
        before = bus.dead_letter_count
        bus.put_event("test", "ping")
        provider.engine.run_until(HOUR)
        retries, dead = resilience_events(provider, "eventbridge:probe")
        assert [event.attrs["attempt"] for event in retries] == list(range(1, SCHEDULED_ATTEMPTS))
        assert [event.attrs["detail"] for event in dead] == ["delivery dropped after 4 attempts"]
        assert bus.dead_letter_count == before + 1
        assert delivered == []
