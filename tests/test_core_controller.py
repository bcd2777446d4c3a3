"""Integration tests for workload executions and the fleet controller."""

import pytest

from repro.cloud.provider import CloudProvider
from repro.cloud.services.ec2 import InstanceState
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.execution import ExecutionState, WorkloadExecution
from repro.core.fleet import DynamoCheckpointBackend
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.result import FleetResult, WorkloadRecord
from repro.errors import ExperimentError, WorkloadError
from repro.sim.clock import HOUR, MINUTE
from repro.strategies import OnDemandPolicy, SingleRegionPolicy
from repro.workloads.base import Workload, WorkloadKind, synthetic_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload


@pytest.fixture()
def provider():
    p = CloudProvider(seed=4)
    p.warmup_markets(24)
    return p


def make_execution(provider, workload, completions, boot_delay=60.0, payloads=False):
    provider.s3.create_bucket("results", "us-east-1")
    backend = DynamoCheckpointBackend(provider, "results")
    execution = WorkloadExecution(
        workload=workload,
        provider=provider,
        backend=backend,
        results_bucket="results",
        boot_delay=boot_delay,
        execute_payloads=payloads,
        on_complete=lambda e: completions.append(e.workload.workload_id),
    )
    return execution, backend


class TestWorkloadExecution:
    def test_runs_to_completion_on_stable_instance(self, provider):
        completions = []
        workload = synthetic_workload("w", duration_hours=1.0, n_segments=4)
        execution, _ = make_execution(provider, workload, completions)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w")
        execution.attach(instance)
        provider.engine.run_until(2 * HOUR)
        assert completions == ["w"]
        assert execution.state is ExecutionState.DONE
        assert execution.record.completed_at == pytest.approx(3600 + 60, abs=1)
        assert instance.state is InstanceState.TERMINATED
        assert provider.s3.head_object("results", "runs/w/complete.json")

    def test_standard_interruption_resets_progress(self, provider):
        completions = []
        workload = synthetic_workload("w", duration_hours=1.0, n_segments=4)
        execution, _ = make_execution(provider, workload, completions)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w")
        execution.attach(instance)
        provider.engine.run_until(30 * MINUTE + 60)  # two segments done
        assert execution.completed_segments == 2
        region = execution.handle_interruption_notice()
        assert region == "us-east-1"
        assert execution.completed_segments == 0
        assert execution.state is ExecutionState.INTERRUPTED
        assert execution.record.n_interruptions == 1

    def test_checkpoint_interruption_keeps_progress(self, provider):
        completions = []
        workload = ngs_preprocessing_workload("w", duration_hours=1.0, n_segments=4)
        execution, backend = make_execution(provider, workload, completions)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w")
        execution.attach(instance)
        provider.engine.run_until(30 * MINUTE + 60)
        execution.handle_interruption_notice()
        assert execution.completed_segments == 2
        assert backend.load_progress("w") == 2
        # Checkpoint bytes landed in S3.
        keys = provider.s3.list_objects("results", prefix="checkpoints/w/")
        assert len(keys) == 1

    def test_resume_from_checkpoint_on_new_instance(self, provider):
        completions = []
        workload = ngs_preprocessing_workload("w", duration_hours=1.0, n_segments=4)
        execution, _ = make_execution(provider, workload, completions)
        first = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w")
        execution.attach(first)
        provider.engine.run_until(30 * MINUTE + 60)
        execution.handle_interruption_notice()
        second = provider.ec2.run_on_demand("eu-west-1", "m5.xlarge", tag="w")
        execution.attach(second)
        provider.engine.run_until(2 * HOUR)
        assert completions == ["w"]
        # Only the remaining two segments ran on the second instance:
        # 30 min work + boot, far less than a full re-run.
        assert second.uptime(provider.engine.now) < 45 * MINUTE

    def test_interruption_during_boot(self, provider):
        completions = []
        workload = synthetic_workload("w", duration_hours=1.0)
        execution, _ = make_execution(provider, workload, completions, boot_delay=600.0)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w")
        execution.attach(instance)
        provider.engine.run_until(300.0)  # still booting
        execution.handle_interruption_notice()
        assert execution.state is ExecutionState.INTERRUPTED
        provider.engine.run_until(2 * HOUR)
        assert completions == []  # boot event was cancelled

    def test_double_attach_rejected(self, provider):
        execution, _ = make_execution(provider, synthetic_workload("w"), [])
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        execution.attach(instance)
        with pytest.raises(WorkloadError):
            execution.attach(instance)

    def test_notice_without_instance_rejected(self, provider):
        execution, _ = make_execution(provider, synthetic_workload("w"), [])
        with pytest.raises(WorkloadError):
            execution.handle_interruption_notice()

    def test_payload_execution(self, provider):
        seen = []
        workload = Workload(
            workload_id="w",
            kind=WorkloadKind.STANDARD,
            segment_durations=(60.0, 60.0),
            payload=lambda index: seen.append(index),
        )
        completions = []
        execution, _ = make_execution(provider, workload, completions, payloads=True)
        execution.attach(provider.ec2.run_on_demand("us-east-1", "m5.xlarge"))
        provider.engine.run_until(HOUR)
        assert seen == [0, 1]

    def test_input_download_charged_cross_region_per_boot(self, provider):
        from repro.cloud.billing import CostCategory
        from repro.workloads.base import Workload, WorkloadKind

        workload = Workload(
            workload_id="w",
            kind=WorkloadKind.STANDARD,
            segment_durations=(600.0,),
            input_bytes=1024 ** 3,
        )
        execution, _ = make_execution(provider, workload, [])
        # Results bucket is in us-east-1; boot in eu-west-1 pays 1 GB.
        execution.attach(provider.ec2.run_on_demand("eu-west-1", "m5.xlarge", tag="w"))
        provider.engine.run_until(HOUR)
        assert provider.ledger.total(CostCategory.S3_TRANSFER) == pytest.approx(0.02)

    def test_input_download_free_in_home_region(self, provider):
        from repro.cloud.billing import CostCategory
        from repro.workloads.base import Workload, WorkloadKind

        workload = Workload(
            workload_id="w",
            kind=WorkloadKind.STANDARD,
            segment_durations=(600.0,),
            input_bytes=1024 ** 3,
        )
        execution, _ = make_execution(provider, workload, [])
        execution.attach(provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w"))
        provider.engine.run_until(HOUR)
        assert provider.ledger.total(CostCategory.S3_TRANSFER) == 0.0

    def test_on_demand_attempt_counted(self, provider):
        execution, _ = make_execution(provider, synthetic_workload("w"), [])
        execution.attach(provider.ec2.run_on_demand("us-east-1", "m5.xlarge"))
        assert execution.record.attempts == 1
        assert execution.record.on_demand_attempts == 1
        assert execution.record.regions == ["us-east-1"]


class TestFleetController:
    def run_fleet(self, policy, workloads, seed=4, config=None):
        provider = CloudProvider(seed=seed)
        provider.warmup_markets(24)
        config = config or SpotVerseConfig(instance_type="m5.xlarge")
        controller = FleetController(provider, policy, config)
        result = controller.run(workloads, max_hours=72)
        return provider, controller, result

    def test_on_demand_fleet_completes_exactly(self):
        workloads = [synthetic_workload(f"w{i}", duration_hours=2.0) for i in range(5)]
        provider, _, result = self.run_fleet(OnDemandPolicy(), workloads)
        assert result.all_complete
        assert result.total_interruptions == 0
        expected = 5 * (2.0 + 180 / 3600) * 0.192
        assert result.instance_cost == pytest.approx(expected, rel=0.01)

    def test_spot_fleet_survives_interruptions(self):
        workloads = [synthetic_workload(f"w{i}", duration_hours=8.0) for i in range(10)]
        provider, _, result = self.run_fleet(
            SingleRegionPolicy(region="ca-central-1"), workloads
        )
        assert result.all_complete
        assert result.total_interruptions > 0
        assert set(result.interruptions_by_region()) == {"ca-central-1"}

    def test_checkpoint_fleet_cheaper_than_standard(self):
        standard = [synthetic_workload(f"s{i}", duration_hours=8.0) for i in range(10)]
        checkpoint = [
            ngs_preprocessing_workload(f"c{i}", duration_hours=8.0) for i in range(10)
        ]
        _, _, standard_result = self.run_fleet(
            SingleRegionPolicy(region="ca-central-1"), standard
        )
        _, _, checkpoint_result = self.run_fleet(
            SingleRegionPolicy(region="ca-central-1"), checkpoint
        )
        assert checkpoint_result.total_cost < standard_result.total_cost
        assert checkpoint_result.makespan <= standard_result.makespan

    def test_spotverse_optimizer_migrates_away(self):
        provider = CloudProvider(seed=4)
        provider.warmup_markets(24)
        config = SpotVerseConfig(
            instance_type="m5.xlarge",
            initial_distribution=False,
            start_region="ca-central-1",
        )
        monitor = Monitor(provider, ["m5.xlarge"])
        policy = SpotVerseOptimizer(monitor, config)
        controller = FleetController(provider, policy, config, monitor=monitor)
        workloads = [synthetic_workload(f"w{i}", duration_hours=8.0) for i in range(10)]
        result = controller.run(workloads, max_hours=72)
        assert result.all_complete
        # At least one workload migrated out of the start region.
        assert len(result.regions_used()) > 1

    def test_empty_fleet_rejected(self):
        provider = CloudProvider(seed=4)
        controller = FleetController(provider, OnDemandPolicy(), SpotVerseConfig())
        with pytest.raises(ExperimentError):
            controller.run([])

    def test_duplicate_ids_rejected(self):
        provider = CloudProvider(seed=4)
        controller = FleetController(provider, OnDemandPolicy(), SpotVerseConfig())
        with pytest.raises(ExperimentError):
            controller.run([synthetic_workload("same"), synthetic_workload("same")])

    def test_deadline_returns_partial_result(self):
        workloads = [synthetic_workload(f"w{i}", duration_hours=10.0) for i in range(3)]
        provider = CloudProvider(seed=4)
        provider.warmup_markets(24)
        controller = FleetController(provider, OnDemandPolicy(), SpotVerseConfig())
        result = controller.run(workloads, max_hours=1.0)
        assert not result.all_complete
        assert result.ended_at == pytest.approx(HOUR)
        # Deadline cleanup terminated the instances.
        live = provider.ec2.describe_instances(states=[InstanceState.RUNNING])
        assert live == []

    def test_per_workload_cost_attribution(self):
        workloads = [synthetic_workload(f"w{i}", duration_hours=2.0) for i in range(3)]
        _, _, result = self.run_fleet(OnDemandPolicy(), workloads)
        for record in result.records:
            assert record.cost > 0
        assert sum(r.cost for r in result.records) <= result.total_cost + 1e-9

    def test_control_plane_resources_deployed(self):
        provider = CloudProvider(seed=4)
        FleetController(provider, OnDemandPolicy(), SpotVerseConfig())
        assert "spotverse-interruption-handler" in provider.lambda_.functions()
        assert "spotverse-reacquire" in provider.stepfunctions.machines()
        assert "spotverse-open-request-sweep" in provider.cloudwatch.scheduled_rules()
        rule_names = [rule.name for rule in provider.eventbridge.rules()]
        assert "spotverse-on-interruption" in rule_names


class TestFleetResult:
    def make_result(self):
        records = [
            WorkloadRecord(
                "a",
                WorkloadKind.STANDARD,
                submitted_at=0.0,
                completed_at=2 * HOUR,
                interruptions=[(HOUR, "r1")],
                regions=["r1", "r2"],
                attempts=2,
                cost=1.0,
            ),
            WorkloadRecord(
                "b",
                WorkloadKind.STANDARD,
                submitted_at=0.0,
                completed_at=3 * HOUR,
                interruptions=[(0.5 * HOUR, "r1"), (1.5 * HOUR, "r2")],
                regions=["r1", "r2", "r2"],
                attempts=3,
                on_demand_attempts=1,
                cost=2.0,
            ),
        ]
        return FleetResult(
            strategy="test",
            records=records,
            total_cost=3.5,
            instance_cost=3.0,
            overhead_cost=0.5,
            ended_at=3 * HOUR,
        )

    def test_aggregates(self):
        result = self.make_result()
        assert result.all_complete
        assert result.n_complete == 2
        assert result.total_interruptions == 3
        assert result.makespan_hours == pytest.approx(3.0)
        assert result.mean_completion_hours == pytest.approx(2.5)
        assert result.on_demand_share() == pytest.approx(1 / 5)

    def test_series(self):
        result = self.make_result()
        assert result.cumulative_interruptions() == [
            (0.5 * HOUR, 1),
            (HOUR, 2),
            (1.5 * HOUR, 3),
        ]
        assert result.completion_curve() == [(2 * HOUR, 1), (3 * HOUR, 2)]
        assert result.interruptions_by_region() == {"r1": 2, "r2": 1}
        assert result.regions_used() == {"r1": 2, "r2": 3}

    def test_summary_text(self):
        text = self.make_result().summary()
        assert "strategy" in text
        assert "interruption regions" in text

    def test_incomplete_makespan_uses_ended_at(self):
        result = self.make_result()
        result.records[0].completed_at = None
        assert result.makespan == result.ended_at
        assert not result.all_complete
