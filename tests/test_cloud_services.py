"""Integration-style tests for the simulated AWS services."""

import pytest

from repro.cloud.billing import CostCategory
from repro.cloud.provider import CloudProvider
from repro.cloud.retry import RetryPolicy
from repro.cloud.services.ec2 import InstanceLifecycle, InstanceState, SpotRequestState
from repro.cloud.services.stepfunctions import ExecutionStatus
from repro.errors import (
    CapacityError,
    ConditionalCheckFailedError,
    LambdaError,
    NoSuchBucketError,
    NoSuchKeyError,
    NoSuchTableError,
)
from repro.sim.clock import HOUR, MINUTE


@pytest.fixture()
def provider():
    return CloudProvider(seed=11)


class TestEC2:
    def test_on_demand_launch_runs_and_bills(self, provider):
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w1")
        provider.engine.run_until(2 * HOUR)
        provider.ec2.terminate_instances([instance.instance_id])
        assert instance.state is InstanceState.TERMINATED
        assert instance.accrued_cost == pytest.approx(0.192 * 2, rel=1e-6)
        assert provider.ledger.total_for_tag("w1") == pytest.approx(0.192 * 2, rel=1e-6)

    def test_spot_request_fulfills_and_is_cheaper_than_od(self, provider):
        launched = []
        provider.ec2.request_spot_instances(
            "us-west-1", "m5.xlarge", tag="w2", on_fulfilled=lambda req, inst: launched.append(inst)
        )
        provider.engine.run_until(HOUR)
        assert launched, "stable-region spot request should fulfill within an hour"
        instance = launched[0]
        assert instance.lifecycle is InstanceLifecycle.SPOT
        provider.engine.run_until(3 * HOUR)
        provider.ec2.terminate_instances([instance.instance_id])
        od_cost = provider.price_book.od_price("us-west-1", "m5.xlarge") * instance.uptime(
            provider.engine.now
        ) / HOUR
        assert instance.accrued_cost < od_cost

    def test_spot_unavailable_type_region_rejected(self, provider):
        with pytest.raises(CapacityError):
            provider.ec2.request_spot_instances("ca-central-1", "p3.2xlarge")

    def test_interruption_emits_notice_then_reclaims(self):
        # A very hazardous market makes the interruption deterministic
        # within a short horizon.
        provider = CloudProvider(seed=5)
        market = provider.market("us-east-1", "m5.xlarge")
        market.profile = type(market.profile)(
            region="us-east-1", instance_type="m5.xlarge", interruption_freq_pct=3000.0
        )
        market.force_frequency(3000.0)
        notices = []
        provider.ec2.on_interruption_notice(lambda inst: notices.append(provider.engine.now))
        instance = provider.ec2._launch(
            "us-east-1", "m5.xlarge", InstanceLifecycle.SPOT, tag="w3"
        )
        provider.engine.run_until(2 * HOUR)
        assert notices, "hazard of 21/hour must interrupt within two hours"
        assert instance.state is InstanceState.INTERRUPTED
        assert instance.end_time == pytest.approx(notices[0] + 2 * MINUTE)
        assert provider.ec2.interruption_count() == 1
        warning_events = [
            event
            for event in provider.eventbridge.event_log
            if event["detail-type"] == "EC2 Spot Instance Interruption Warning"
        ]
        assert warning_events and warning_events[0]["detail"]["instance-id"] == instance.instance_id

    def test_terminate_during_notice_window_prevents_interrupted_state(self):
        provider = CloudProvider(seed=5)
        market = provider.market("us-east-1", "m5.xlarge")
        market.force_frequency(3000.0)
        interrupted = []
        provider.ec2.on_interruption_notice(lambda inst: interrupted.append(inst))
        provider.ec2._launch("us-east-1", "m5.xlarge", InstanceLifecycle.SPOT, tag="w")
        provider.engine.run_until(2 * HOUR)
        assert interrupted
        # Terminating an INTERRUPTING instance during a later notice is
        # exercised by the controller; here we assert idempotence.
        instance = interrupted[0]
        provider.ec2.terminate_instances([instance.instance_id])
        provider.ec2.terminate_instances([instance.instance_id])
        assert instance.state in (InstanceState.TERMINATED, InstanceState.INTERRUPTED)

    def test_describe_filters(self, provider):
        provider.ec2.run_on_demand("us-east-1", "m5.large")
        provider.ec2.run_on_demand("eu-west-1", "m5.large")
        east = provider.ec2.describe_instances(region="us-east-1")
        assert len(east) == 1
        running = provider.ec2.describe_instances(states=[InstanceState.RUNNING])
        assert len(running) == 2

    def test_open_request_retry_path(self, provider):
        request = provider.ec2.request_spot_instances("us-east-1", "m5.xlarge", tag="w")
        if request.state is SpotRequestState.OPEN:
            provider.ec2.retry_open_request(request.request_id)
            assert request.attempts == 2

    def test_cancel_open_request(self, provider):
        request = provider.ec2.request_spot_instances("us-east-1", "m5.xlarge")
        if request.state is SpotRequestState.OPEN:
            provider.ec2.cancel_spot_request(request.request_id)
            assert request.state is SpotRequestState.CANCELLED
            provider.engine.run_until(HOUR)
            assert request.instance_id is None

    def test_spot_price_history_describe(self, provider):
        provider.engine.run_until(5 * HOUR)
        history = provider.ec2.describe_spot_price_history("us-east-1", "m5.xlarge")
        assert len(history) == 5


class TestS3:
    def test_put_get_roundtrip(self, provider):
        provider.s3.create_bucket("logs", "us-east-1")
        provider.s3.put_object("logs", "a/b.txt", b"hello")
        assert provider.s3.get_object("logs", "a/b.txt").body == b"hello"
        assert provider.s3.list_objects("logs", prefix="a/") == ["a/b.txt"]

    def test_cross_region_put_charges_transfer(self, provider):
        provider.s3.create_bucket("ckpt", "us-east-1")
        provider.s3.put_object(
            "ckpt", "k", b"x" * 1024, source_region="eu-west-1", tag="w"
        )
        assert provider.ledger.total(CostCategory.S3_TRANSFER) > 0

    def test_same_region_put_has_no_transfer_charge(self, provider):
        provider.s3.create_bucket("ckpt", "us-east-1")
        provider.s3.put_object("ckpt", "k", b"x" * 1024, source_region="us-east-1")
        assert provider.ledger.total(CostCategory.S3_TRANSFER) == 0

    def test_missing_bucket_and_key_raise(self, provider):
        with pytest.raises(NoSuchBucketError):
            provider.s3.put_object("ghost", "k", b"")
        provider.s3.create_bucket("b", "us-east-1")
        with pytest.raises(NoSuchKeyError):
            provider.s3.get_object("b", "missing")

    def test_delete_is_idempotent(self, provider):
        provider.s3.create_bucket("b", "us-east-1")
        provider.s3.put_object("b", "k", b"1")
        provider.s3.delete_object("b", "k")
        provider.s3.delete_object("b", "k")
        assert not provider.s3.head_object("b", "k")


class TestDynamoDB:
    def test_put_get_update_query(self, provider):
        provider.dynamodb.create_table("metrics", "region", sort_key="itype")
        provider.dynamodb.put_item(
            "metrics", {"region": "us-east-1", "itype": "m5.xlarge", "price": 0.05}
        )
        provider.dynamodb.update_item(
            "metrics", "us-east-1", "m5.xlarge", updates={"score": 4.2}
        )
        item = provider.dynamodb.get_item("metrics", "us-east-1", "m5.xlarge")
        assert item["price"] == 0.05 and item["score"] == 4.2
        provider.dynamodb.put_item(
            "metrics", {"region": "us-east-1", "itype": "a1.large", "price": 0.01}
        )
        rows = provider.dynamodb.query("metrics", "us-east-1")
        assert [row["itype"] for row in rows] == ["a1.large", "m5.xlarge"]

    def test_conditional_write_enforced(self, provider):
        provider.dynamodb.create_table("ckpt", "wid")
        provider.dynamodb.put_item("ckpt", {"wid": "w1", "segment": 5})
        with pytest.raises(ConditionalCheckFailedError):
            provider.dynamodb.put_item(
                "ckpt",
                {"wid": "w1", "segment": 3},
                condition=lambda old: old is None or old["segment"] < 3,
            )
        # A newer segment passes the same guard.
        provider.dynamodb.put_item(
            "ckpt",
            {"wid": "w1", "segment": 7},
            condition=lambda old: old is None or old["segment"] < 7,
        )
        assert provider.dynamodb.get_item("ckpt", "w1")["segment"] == 7

    def test_scan_with_predicate(self, provider):
        provider.dynamodb.create_table("t", "k")
        for i in range(5):
            provider.dynamodb.put_item("t", {"k": f"k{i}", "v": i})
        evens = provider.dynamodb.scan("t", predicate=lambda item: item["v"] % 2 == 0)
        assert len(evens) == 3

    def test_missing_table_raises(self, provider):
        with pytest.raises(NoSuchTableError):
            provider.dynamodb.get_item("ghost", "k")

    def test_operations_charge_request_units(self, provider):
        provider.dynamodb.create_table("t", "k")
        provider.dynamodb.put_item("t", {"k": "a"})
        provider.dynamodb.get_item("t", "a")
        assert provider.ledger.total(CostCategory.DYNAMODB) > 0


class TestLambdaAndStepFunctions:
    def test_invoke_returns_result_and_charges(self, provider):
        provider.lambda_.create_function("echo", lambda event, ctx: event["x"] * 2)
        assert provider.lambda_.invoke("echo", {"x": 21}) == 42
        assert provider.ledger.total(CostCategory.LAMBDA) > 0
        assert provider.lambda_.get_function("echo").invocations == 1

    def test_handler_exception_wrapped(self, provider):
        def boom(event, ctx):
            raise RuntimeError("nope")

        provider.lambda_.create_function("boom", boom)
        with pytest.raises(LambdaError):
            provider.lambda_.invoke("boom")
        assert provider.lambda_.get_function("boom").failures == 1

    def test_timeout_configuration_fails_invocation(self, provider):
        provider.lambda_.create_function(
            "slow", lambda e, c: None, timeout=1.0, simulated_duration=5.0
        )
        with pytest.raises(LambdaError):
            provider.lambda_.invoke("slow")

    def test_step_functions_retry_until_success(self, provider):
        attempts = []

        def flaky(event):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "done"

        provider.stepfunctions.create_state_machine(
            "retry-me", flaky, retry=RetryPolicy(max_attempts=5, interval=10.0)
        )
        results = []
        provider.stepfunctions.start_execution(
            "retry-me", on_success=lambda out: results.append(out)
        )
        provider.engine.run_until(5 * MINUTE)
        assert results == ["done"]
        assert len(attempts) == 3

    def test_step_functions_exhausts_retries(self, provider):
        def always_fails(event):
            raise RuntimeError("permanent")

        provider.stepfunctions.create_state_machine(
            "doomed", always_fails, retry=RetryPolicy(max_attempts=2, interval=5.0)
        )
        failures = []
        execution = provider.stepfunctions.start_execution(
            "doomed", on_failure=lambda err: failures.append(err)
        )
        provider.engine.run_until(MINUTE)
        assert execution.status is ExecutionStatus.FAILED
        assert "permanent" in failures[0]
        assert execution.attempts == 2


class TestEventBridgeAndCloudWatch:
    def test_rule_matching_and_delivery(self, provider):
        seen = []
        provider.eventbridge.put_rule("r", "aws.ec2", "TestEvent")
        provider.eventbridge.add_target("r", lambda event: seen.append(event["detail"]["k"]))
        provider.eventbridge.put_event("aws.ec2", "TestEvent", {"k": 1})
        provider.eventbridge.put_event("aws.ec2", "OtherEvent", {"k": 2})
        provider.engine.run_until(10.0)
        assert seen == [1]

    def test_detail_filter(self, provider):
        seen = []
        provider.eventbridge.put_rule("r", "src", "T", detail_filter={"region": "us-east-1"})
        provider.eventbridge.add_target("r", lambda event: seen.append(event))
        provider.eventbridge.put_event("src", "T", {"region": "eu-west-1"})
        provider.engine.run_until(10.0)
        assert seen == []

    def test_disabled_rule_matches_nothing(self, provider):
        seen = []
        provider.eventbridge.put_rule("r", "src", "T")
        provider.eventbridge.add_target("r", lambda event: seen.append(event))
        provider.eventbridge.disable_rule("r")
        provider.eventbridge.put_event("src", "T")
        provider.engine.run_until(10.0)
        assert seen == []

    def test_metric_statistics(self, provider):
        for value in (1.0, 2.0, 3.0):
            provider.cloudwatch.put_metric_data("SpotVerse", "price", value)
        assert provider.cloudwatch.get_metric_statistics("SpotVerse", "price") == 2.0
        assert (
            provider.cloudwatch.get_metric_statistics("SpotVerse", "price", statistic="Maximum")
            == 3.0
        )
        assert (
            provider.cloudwatch.get_metric_statistics(
                "SpotVerse", "price", statistic="SampleCount"
            )
            == 3.0
        )
        assert provider.cloudwatch.get_metric_statistics("SpotVerse", "missing") is None

    def test_alarm_fires_on_transition_only(self, provider):
        fired = []
        provider.cloudwatch.put_alarm(
            "price-high", "SpotVerse", "price", threshold=0.1, comparison=">",
            target=lambda value: fired.append(value),
        )
        provider.cloudwatch.put_metric_data("SpotVerse", "price", 0.05)
        assert fired == []
        provider.cloudwatch.put_metric_data("SpotVerse", "price", 0.15)
        provider.cloudwatch.put_metric_data("SpotVerse", "price", 0.20)  # still ALARM
        assert fired == [0.15]
        provider.cloudwatch.put_metric_data("SpotVerse", "price", 0.05)  # recovers
        provider.cloudwatch.put_metric_data("SpotVerse", "price", 0.30)
        assert fired == [0.15, 0.30]
        alarm = provider.cloudwatch.put_alarm(
            "other", "SpotVerse", "price", threshold=0.0, comparison="<", target=lambda v: None
        )
        assert not alarm.in_alarm

    def test_alarm_respects_dimensions(self, provider):
        fired = []
        provider.cloudwatch.put_alarm(
            "dim", "NS", "m", threshold=1.0, comparison=">=",
            target=lambda value: fired.append(value),
            dimensions={"region": "eu-west-1"},
        )
        provider.cloudwatch.put_metric_data("NS", "m", 5.0)  # no dimensions
        provider.cloudwatch.put_metric_data(
            "NS", "m", 5.0, dimensions={"region": "us-east-1"}
        )
        assert fired == []
        provider.cloudwatch.put_metric_data(
            "NS", "m", 5.0, dimensions={"region": "eu-west-1"}
        )
        assert fired == [5.0]

    def test_alarm_validation_and_lifecycle(self, provider):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            provider.cloudwatch.put_alarm(
                "bad", "NS", "m", threshold=1.0, comparison="!=", target=lambda v: None
            )
        provider.cloudwatch.put_alarm(
            "ok", "NS", "m", threshold=1.0, comparison="<=", target=lambda v: None
        )
        assert provider.cloudwatch.alarms() == ["ok"]
        provider.cloudwatch.delete_alarm("ok")
        provider.cloudwatch.delete_alarm("ok")  # idempotent
        assert provider.cloudwatch.alarms() == []

    def test_scheduled_rule_fires_periodically(self, provider):
        hits = []
        provider.cloudwatch.schedule_rule("sweep", 15 * MINUTE, lambda: hits.append(1))
        provider.engine.run_until(HOUR)
        assert len(hits) == 4
        provider.cloudwatch.remove_rule("sweep")
        provider.engine.run_until(2 * HOUR)
        assert len(hits) == 4


class _ThrottleOnce:
    """Chaos stub: throttle the first *n* matching DynamoDB ops."""

    def __init__(self, op, times=1):
        self._op = op
        self.remaining = times
        self.rolls = 0

    def dynamodb_fault(self, op, conditional):
        if op == self._op and self.remaining > 0:
            self.remaining -= 1
            self.rolls += 1
            return "throttle"
        return None


class TestDynamoDBBatch:
    def test_batch_write_puts_then_deletes(self, provider):
        provider.dynamodb.create_table("t", "k")
        provider.dynamodb.put_item("t", {"k": "stale"})
        applied = provider.dynamodb.batch_write_item(
            "t",
            puts=[{"k": "a", "v": 1}, {"k": "b", "v": 2}],
            deletes=[("stale", None)],
        )
        assert applied == 3
        assert provider.dynamodb.get_item("t", "a")["v"] == 1
        assert provider.dynamodb.get_item("t", "b")["v"] == 2
        assert provider.dynamodb.get_item("t", "stale") is None

    def test_batch_write_bills_per_item_in_order(self, provider):
        provider.dynamodb.create_table("t", "k")
        before = len(provider.ledger.entries)
        provider.dynamodb.batch_write_item(
            "t", puts=[{"k": "a"}, {"k": "b"}], deletes=[("a", None)]
        )
        tail = provider.ledger.entries[before:]
        assert [entry.detail for entry in tail] == [
            "batch-put t",
            "batch-put t",
            "batch-delete t",
        ]
        # Same request-unit price as the item-at-a-time calls.
        provider.dynamodb.put_item("t", {"k": "c"})
        per_item = provider.ledger.entries[-1].amount
        assert all(entry.amount == per_item for entry in tail)

    def test_empty_batch_is_free_and_skips_chaos(self, provider):
        provider.dynamodb.create_table("t", "k")
        chaos = _ThrottleOnce("batch_write_item", times=100)
        provider.attach_chaos(chaos)
        assert provider.dynamodb.batch_write_item("t") == 0
        assert chaos.rolls == 0
        assert provider.ledger.total(CostCategory.DYNAMODB) == 0.0

    def test_throttle_rejects_whole_batch_before_any_item_lands(self, provider):
        from repro.errors import ThrottlingError

        provider.dynamodb.create_table("t", "k")
        provider.attach_chaos(_ThrottleOnce("batch_write_item"))
        with pytest.raises(ThrottlingError):
            provider.dynamodb.batch_write_item("t", puts=[{"k": "a"}, {"k": "b"}])
        assert provider.ledger.total(CostCategory.DYNAMODB) == 0.0
        assert provider.dynamodb.get_item("t", "a") is None
        assert provider.dynamodb.get_item("t", "b") is None
        # The retried batch re-applies atomically.
        provider.dynamodb.batch_write_item("t", puts=[{"k": "a"}, {"k": "b"}])
        assert provider.dynamodb.get_item("t", "a") is not None

    def test_batch_get_aligns_results_with_keys(self, provider):
        provider.dynamodb.create_table("t", "k")
        provider.dynamodb.put_item("t", {"k": "a", "v": 1})
        provider.dynamodb.put_item("t", {"k": "c", "v": 3})
        results = provider.dynamodb.batch_get_item(
            "t", [("c", None), ("missing", None), ("a", None)]
        )
        assert [item and item["v"] for item in results] == [3, None, 1]
        assert provider.dynamodb.batch_get_item("t", []) == []

    def test_batch_get_charges_read_units_per_key(self, provider):
        provider.dynamodb.create_table("t", "k")
        before = len(provider.ledger.entries)
        provider.dynamodb.batch_get_item("t", [("a", None), ("b", None)])
        tail = provider.ledger.entries[before:]
        assert [entry.detail for entry in tail] == ["batch-get t", "batch-get t"]

    def test_batch_write_copies_items(self, provider):
        provider.dynamodb.create_table("t", "k")
        item = {"k": "a", "v": 1}
        provider.dynamodb.batch_write_item("t", puts=[item])
        item["v"] = 99  # caller mutation must not reach the table
        assert provider.dynamodb.get_item("t", "a")["v"] == 1


class TestCloudWatchBatch:
    def test_batch_put_equals_sequential_puts(self, provider):
        cw = provider.cloudwatch
        cw.put_metric_data_batch(
            "NS",
            [
                ("m", 1.0, {"region": "r1"}),
                ("m", 2.0, {"region": "r1"}),
                ("other", 5.0, None),
            ],
        )
        assert cw.metric_series("NS", "m", {"region": "r1"}) == [(0.0, 1.0), (0.0, 2.0)]
        assert cw.get_metric_statistics("NS", "other") == 5.0
        # Three data points, three put charges.
        puts = [e for e in provider.ledger.entries if e.category is CostCategory.CLOUDWATCH]
        assert len(puts) == 3

    def test_alarms_fire_from_batched_data(self, provider):
        cw = provider.cloudwatch
        seen = []
        cw.put_alarm(
            "high", "NS", "m", threshold=10.0, comparison=">", target=seen.append
        )
        cw.put_metric_data_batch("NS", [("m", 5.0, None), ("m", 11.0, None)])
        assert seen == [11.0]

    def test_put_alarm_replacement_reindexes(self, provider):
        cw = provider.cloudwatch
        first, second = [], []
        cw.put_alarm("a", "NS", "m", threshold=1.0, comparison=">", target=first.append)
        # Replacing re-points the watcher at a different metric; the old
        # index entry must not survive.
        cw.put_alarm("a", "NS", "n", threshold=1.0, comparison=">", target=second.append)
        cw.put_metric_data("NS", "m", 5.0)
        cw.put_metric_data("NS", "n", 5.0)
        assert first == []
        assert second == [5.0]

    def test_delete_alarm_stops_evaluation(self, provider):
        cw = provider.cloudwatch
        seen = []
        cw.put_alarm("a", "NS", "m", threshold=1.0, comparison=">", target=seen.append)
        cw.delete_alarm("a")
        cw.delete_alarm("a")  # absent: no-op
        cw.put_metric_data("NS", "m", 5.0)
        assert seen == []
        assert cw._alarms_by_key == {}
