"""DAG-aware placement: golden equivalence plus fan-out integration.

Two gates on the DAG refactor:

* **Golden equivalence** — every scenario of the committed fixture,
  compiled to single-stage chains via
  :func:`repro.core.dag.compile_workload` and run through
  ``controller.run_dags``, must be *bit-identical* to the monolithic
  ``controller.run`` path (same floats, same interruption times, same
  regions).  The step refactor may add capability, not move bits.
* **Fan-out** — independent steps of a real DAG run concurrently on
  separate instances, cut makespan well below the serial path, pay
  cross-region egress per input edge, migrate only the interrupted
  step, and survive a controller teardown mid-DAG.
"""

import json

import pytest

from tests.golden_scenarios import (
    FIXTURE_PATH,
    MAX_HOURS,
    SCENARIOS,
    SEED,
    WARMUP_STEPS,
    _make_policy,
    _needs_monitor,
    _workloads,
    result_to_dict,
    run_scenario_dag_chain,
)

from repro.chaos import OnlineInvariantMonitor
from repro.cloud.billing import CostCategory, S3_CROSS_REGION_TRANSFER_PRICE
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.dag import (
    StepGraph,
    StepTask,
    compile_graph,
    compile_workflow,
    compile_workload,
)
from repro.core.monitor import Monitor
from repro.core.policy import Placement, PlacementPolicy, PurchasingOption
from repro.errors import ExperimentError
from repro.galaxy.history import History
from repro.galaxy.jobs import JobRunner
from repro.galaxy.tools import default_toolshed
from repro.galaxy.workflow import Invocation, StepInput, Workflow, WorkflowStep
from repro.obs import EventType, Telemetry, render_explanation
from repro.sim.clock import HOUR
from repro.sim.engine import SimulationEngine
from repro.strategies import OnDemandPolicy
from repro.workloads.base import WorkloadKind

GiB = 1024**3


# ----------------------------------------------------------------------
# Golden equivalence: the chain case moves zero bits
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture():
    assert FIXTURE_PATH.exists()
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_step_chains_replay_bit_identical(name, fixture):
    assert result_to_dict(run_scenario_dag_chain(name)) == fixture[name]


def test_chain_restart_mid_run_is_bit_identical(fixture):
    # Teardown the controller mid-DAG and resume from the store alone:
    # the chain case must still reproduce the fixture bit for bit.
    name = "single-region"
    config = SCENARIOS[name]()
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(WARMUP_STEPS)
    policy = _make_policy(name, config, None)
    controller = FleetController(provider, policy, config)
    dags = [compile_workload(workload) for workload in _workloads()]
    controller.submit_dags(dags)
    provider.engine.run_until(provider.engine.now + 3.0 * HOUR)
    store = controller.state_store
    controller.teardown()
    del controller
    rebuilt = FleetController(provider, policy, config, state_store=store)
    result = rebuilt.resume_dags(dags, max_hours=MAX_HOURS)
    provider.shutdown()
    assert result_to_dict(result) == fixture[name]


# ----------------------------------------------------------------------
# Fan-out integration
# ----------------------------------------------------------------------
def fan_out_graph(width: int = 8) -> StepGraph:
    steps = [StepTask("prep", 0.5 * HOUR, output_bytes=2 * GiB)]
    steps += [
        StepTask(f"sample{i}", 2.0 * HOUR, deps=("prep",), output_bytes=2 * GiB)
        for i in range(width)
    ]
    steps.append(
        StepTask("merge", 0.5 * HOUR, deps=tuple(f"sample{i}" for i in range(width)))
    )
    return StepGraph("fanout", steps)


def fan_out_workflow(width: int = 8) -> Workflow:
    """The Galaxy form of :func:`fan_out_graph`: prep -> samples -> merge."""
    steps = [WorkflowStep("prep", "cutadapt", duration=0.5 * HOUR)]
    steps += [
        WorkflowStep(
            f"sample{i}",
            "fastqc",
            inputs={"reads": StepInput("prep", "out")},
            duration=2.0 * HOUR,
        )
        for i in range(width)
    ]
    steps.append(
        WorkflowStep(
            "merge",
            "multiqc",
            inputs={f"report{i}": StepInput(f"sample{i}", "out") for i in range(width)},
            duration=0.5 * HOUR,
        )
    )
    return Workflow("fanout", steps)


def job_runner_makespan_hours(workflow: Workflow) -> float:
    """Makespan of *workflow* run step by step on one Galaxy JobRunner."""
    engine = SimulationEngine(seed=SEED)
    finished_at = []
    runner = JobRunner(
        engine,
        default_toolshed(),
        History("fanout"),
        execute_payloads=False,
        on_finished=lambda invocation: finished_at.append(engine.now),
    )
    invocation = Invocation(workflow, "serial")
    runner.start(invocation)
    engine.run_until(engine.now + 48 * HOUR)
    assert invocation.ok and finished_at
    return finished_at[0] / HOUR


def build_controller(policy_name: str, seed: int = SEED):
    config = SCENARIOS[policy_name]()
    provider = CloudProvider(seed=seed)
    provider.warmup_markets(WARMUP_STEPS)
    monitor = (
        Monitor(provider, [config.instance_type], collect_interval=config.collect_interval)
        if _needs_monitor(policy_name)
        else None
    )
    policy = _make_policy(policy_name, config, monitor)
    controller = FleetController(provider, policy, config, monitor=monitor)
    return provider, controller


class ScriptedPolicy(PlacementPolicy):
    """Pin every stage to a scripted on-demand region (deterministic)."""

    name = "scripted"

    def __init__(self, regions):
        self._regions = dict(regions)

    def _place(self, workload):
        return Placement(
            self._regions[workload.workload_id], PurchasingOption.ON_DEMAND
        )

    def initial_placements(self, workloads, ctx):
        return [self._place(workload) for workload in workloads]

    def migration_placement(self, workload, interrupted_region, ctx):
        return self._place(workload)


class TestFanOut:
    def test_fan_out_beats_serial_by_3x(self):
        provider, controller = build_controller("on-demand")
        dag = compile_graph(fan_out_graph(8), "run1")
        result = controller.run_dags([dag], max_hours=48.0)
        provider.shutdown()
        assert len(result.records) == dag.n_stages
        assert all(r.completed_at is not None for r in result.records)
        serial_hours = dag.serial_duration() / HOUR  # 17 h on one instance
        assert result.makespan_hours * 3 < serial_hours

    def test_fan_out_beats_serial_job_runner_by_3x(self):
        # The same workflow through Galaxy's serial JobRunner (one
        # instance, step by step) and through compile_workflow +
        # run_dags (ready samples fan out across instances).
        workflow = fan_out_workflow(8)
        serial_hours = job_runner_makespan_hours(workflow)
        provider, controller = build_controller("on-demand")
        dag = compile_workflow(workflow, "run1", output_bytes=2 * GiB)
        result = controller.run_dags([dag], max_hours=48.0)
        provider.shutdown()
        assert len(result.records) == dag.n_stages
        assert all(r.completed_at is not None for r in result.records)
        assert serial_hours >= workflow.total_duration() / HOUR  # 17 h of steps
        assert serial_hours >= 3 * result.makespan_hours

    def test_ready_set_places_in_one_batched_decision(self):
        # Only the SpotVerse optimizer writes the decision audit trail.
        provider, controller = build_controller("spotverse")
        dag = compile_graph(fan_out_graph(8), "run1")
        controller.run_dags([dag], max_hours=48.0)
        decisions = provider.telemetry.decisions.records("initial")
        batch = [d for d in decisions if d.ready_set_size == 8]
        assert len(batch) == 1  # the 8 samples: one Algorithm-1 round
        assert sorted(batch[0].steps.values()) == sorted(
            f"sample{i}" for i in range(8)
        )
        released = [
            e for e in provider.telemetry.bus if e.type is EventType.DAG_STEP_RELEASED
        ]
        assert len(released) == dag.n_stages
        assert {e.attrs["ready_set"] for e in released} == {1, 8}
        provider.shutdown()

    def test_explain_renders_the_per_step_chain(self):
        provider, controller = build_controller("on-demand")
        controller.run_dags([compile_graph(fan_out_graph(4), "run1")], max_hours=48.0)
        text = render_explanation(list(provider.telemetry.bus), "run1")
        provider.shutdown()
        assert "dag.submitted" in text
        assert "dag.step_released[run1:sample0]" in text
        assert "ready-set" in text
        assert "dag.done" in text

    @staticmethod
    def _egress_graph():
        # produce fans out to two consumers, so each consumer is its
        # own stage with a cross-stage edge (a linear produce->consume
        # pair would condense into one chain and ship nothing).
        return StepGraph(
            "fan",
            [
                StepTask("produce", 1.0 * HOUR, output_bytes=3 * GiB),
                StepTask("near", 1.0 * HOUR, deps=("produce",)),
                StepTask("far", 1.0 * HOUR, deps=("produce",)),
            ],
        )

    def _run_egress(self, far_region):
        config = SpotVerseConfig(instance_type="m5.xlarge")
        provider = CloudProvider(seed=SEED)
        provider.warmup_markets(WARMUP_STEPS)
        dag = compile_graph(self._egress_graph(), "run1", kind=WorkloadKind.STANDARD)
        policy = ScriptedPolicy(
            {
                "run1:produce": "us-east-1",
                "run1:near": "us-east-1",
                "run1:far": far_region,
            }
        )
        controller = FleetController(provider, policy, config)
        result = controller.run_dags([dag], max_hours=24.0)
        egress = provider.ledger.total(CostCategory.S3_TRANSFER)
        provider.shutdown()
        assert all(r.completed_at is not None for r in result.records)
        return egress

    def test_cross_region_edges_pay_egress_once_per_boot(self):
        # Only the far consumer pays: 3 GiB us-east-1 -> eu-west-1.
        egress = self._run_egress("eu-west-1")
        assert egress == pytest.approx(3 * S3_CROSS_REGION_TRANSFER_PRICE)

    def test_same_region_edges_are_free(self):
        assert self._run_egress("us-east-1") == 0.0

    def test_interruption_reschedules_only_the_interrupted_step(self):
        provider, controller = build_controller("spotverse")
        dag = compile_graph(fan_out_graph(8), "run1")
        result = controller.run_dags([dag], max_hours=48.0)
        provider.shutdown()
        assert all(r.completed_at is not None for r in result.records)
        assert result.total_interruptions > 0  # seed 11 interrupts a sample
        untouched = [r for r in result.records if not r.interruptions]
        assert untouched  # the rest of the fleet never moved
        assert all(r.attempts == 1 for r in untouched)
        for record in result.records:
            if record.interruptions:
                assert record.attempts > 1

    def test_teardown_mid_dag_resumes_to_completion(self):
        provider, controller = build_controller("on-demand")
        dag = compile_graph(fan_out_graph(8), "run1")
        controller.submit_dags([dag])
        # Stop mid-fan-out: prep is done, samples are running.
        provider.engine.run_until(provider.engine.now + 1.5 * HOUR)
        store = controller.state_store
        controller.teardown()
        del controller
        config = SCENARIOS["on-demand"]()
        rebuilt = FleetController(
            provider,
            OnDemandPolicy(instance_type=config.instance_type),
            config,
            state_store=store,
        )
        result = rebuilt.resume_dags([dag], max_hours=48.0)
        provider.shutdown()
        assert len(result.records) == dag.n_stages
        assert all(r.completed_at is not None for r in result.records)

    def test_submit_rejects_duplicate_and_reused_dag_ids(self):
        provider, controller = build_controller("on-demand")
        dag = compile_graph(fan_out_graph(2), "run1")
        with pytest.raises(ExperimentError, match="duplicate dag ids"):
            controller.submit_dags([dag, dag])
        controller.submit_dags([dag])
        with pytest.raises(ExperimentError, match="already used"):
            controller.submit_dags([compile_graph(fan_out_graph(2), "run1")])
        with pytest.raises(ExperimentError, match="at least one"):
            controller.submit_dags([])
        provider.shutdown()

    def test_restore_requires_stored_progress(self):
        provider, controller = build_controller("on-demand")
        with pytest.raises(ExperimentError, match="no stored progress"):
            controller.restore_dags([compile_graph(fan_out_graph(2), "run9")])
        provider.shutdown()


class TestDagDependenciesInvariant:
    def test_real_run_upholds_topological_release(self):
        provider, controller = build_controller("spotverse")
        monitor = OnlineInvariantMonitor()
        monitor.attach(provider.telemetry.bus)
        controller.run_dags([compile_graph(fan_out_graph(4), "run1")], max_hours=48.0)
        monitor.detach()
        provider.shutdown()
        assert not any(v.name == "dag-deps-ordered" for v in monitor.violations)

    def test_out_of_order_release_is_flagged(self):
        telemetry = Telemetry()
        monitor = OnlineInvariantMonitor()
        monitor.attach(telemetry.bus)
        telemetry.bus.emit(
            EventType.DAG_STEP_RELEASED,
            workload_id="run1:merge",
            deps=["run1:sample0"],
        )
        monitor.detach()
        flagged = [v for v in monitor.violations if v.name == "dag-deps-ordered"]
        assert len(flagged) == 1
        assert "run1:sample0" in flagged[0].detail

    def test_release_after_completion_passes(self):
        telemetry = Telemetry()
        monitor = OnlineInvariantMonitor()
        monitor.attach(telemetry.bus)
        telemetry.bus.emit(EventType.WORKLOAD_DONE, workload_id="run1:sample0")
        telemetry.bus.emit(
            EventType.DAG_STEP_RELEASED,
            workload_id="run1:merge",
            deps=["run1:sample0"],
        )
        monitor.detach()
        assert not any(v.name == "dag-deps-ordered" for v in monitor.violations)
