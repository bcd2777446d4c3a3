"""Unit tests for DAG-aware placement: graphs, condensation, planning.

Covers the pure layer of :mod:`repro.core.dag` (validation, chain
condensation, compilation, ready-set tracking), the per-edge egress
charge on :class:`~repro.core.execution.WorkloadExecution`, and the
per-provider determinism of the fleet-state namespace counter.
"""

import pytest

from repro.cloud.billing import CostCategory, S3_CROSS_REGION_TRANSFER_PRICE
from repro.cloud.provider import CloudProvider
from repro.core.dag import (
    DagWorkload,
    Stage,
    StageWorkload,
    StepGraph,
    StepPlanner,
    StepTask,
    compile_graph,
    compile_workflow,
    compile_workload,
    condense_chains,
)
from repro.core.execution import WorkloadExecution
from repro.core.fleet import DynamoCheckpointBackend
from repro.core.fleet.state import FleetStateStore
from repro.errors import DagValidationError
from repro.galaxy.workflow import StepInput, Workflow, WorkflowStep
from repro.sim.clock import HOUR
from repro.workloads.base import WorkloadKind, synthetic_workload

GiB = 1024**3


def diamond() -> StepGraph:
    """a -> (b, c) -> d."""
    return StepGraph(
        "diamond",
        [
            StepTask("a", 3600.0, output_bytes=GiB),
            StepTask("b", 3600.0, deps=("a",), output_bytes=GiB),
            StepTask("c", 3600.0, deps=("a",), output_bytes=2 * GiB),
            StepTask("d", 3600.0, deps=("b", "c")),
        ],
    )


def fan_out(width: int = 8) -> StepGraph:
    """prep -> width x sample -> merge."""
    steps = [StepTask("prep", 1800.0, output_bytes=GiB)]
    steps += [
        StepTask(f"sample{i}", 7200.0, deps=("prep",), output_bytes=GiB)
        for i in range(width)
    ]
    steps.append(
        StepTask("merge", 1800.0, deps=tuple(f"sample{i}" for i in range(width)))
    )
    return StepGraph("fanout", steps)


class TestStepGraphValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(DagValidationError, match="no steps"):
            StepGraph("empty", [])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DagValidationError, match="duplicate step label"):
            StepGraph("dup", [StepTask("a", 1.0), StepTask("a", 1.0)])

    def test_non_positive_duration_rejected(self):
        with pytest.raises(DagValidationError, match="must be positive"):
            StepGraph("zero", [StepTask("a", 0.0)])

    def test_self_dependency_rejected(self):
        with pytest.raises(DagValidationError, match="depends on itself"):
            StepGraph("self", [StepTask("a", 1.0, deps=("a",))])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(DagValidationError, match="unknown step"):
            StepGraph("dangling", [StepTask("a", 1.0, deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(DagValidationError, match="dependency cycle"):
            StepGraph(
                "loop",
                [
                    StepTask("a", 1.0, deps=("c",)),
                    StepTask("b", 1.0, deps=("a",)),
                    StepTask("c", 1.0, deps=("b",)),
                ],
            )

    def test_topological_order_respects_deps(self):
        order = diamond().topological_order()
        assert order[0] == "a" and order[-1] == "d"
        assert set(order[1:3]) == {"b", "c"}

    def test_successors_and_predecessors(self):
        graph = diamond()
        assert graph.successors("a") == ["b", "c"]
        assert graph.predecessors("d") == ["b", "c"]
        assert graph.serial_duration() == 4 * 3600.0
        assert len(graph) == 4


class TestCondenseChains:
    def test_linear_graph_is_one_chain(self):
        graph = StepGraph(
            "linear",
            [
                StepTask("a", 1.0),
                StepTask("b", 1.0, deps=("a",)),
                StepTask("c", 1.0, deps=("b",)),
            ],
        )
        chains = condense_chains(graph)
        assert [[t.label for t in chain] for chain in chains] == [["a", "b", "c"]]

    def test_diamond_keeps_branches_separate(self):
        chains = condense_chains(diamond())
        assert [[t.label for t in chain] for chain in chains] == [
            ["a"],
            ["b"],
            ["c"],
            ["d"],
        ]

    def test_fan_out_width_preserved(self):
        chains = condense_chains(fan_out(8))
        labels = [[t.label for t in chain] for chain in chains]
        assert len(labels) == 10  # prep + 8 samples + merge
        assert all(len(chain) == 1 for chain in labels)

    def test_tail_chain_condenses_behind_join(self):
        # (a, b) -> join -> tail: the join/tail pair is a sole-successor
        # sole-predecessor link, so they share one instance.
        graph = StepGraph(
            "join",
            [
                StepTask("a", 1.0),
                StepTask("b", 1.0),
                StepTask("join", 1.0, deps=("a", "b")),
                StepTask("tail", 1.0, deps=("join",)),
            ],
        )
        chains = condense_chains(graph)
        assert [[t.label for t in chain] for chain in chains] == [
            ["a"],
            ["b"],
            ["join", "tail"],
        ]


class TestCompileGraph:
    def test_stage_ids_deps_and_edges(self):
        dag = compile_graph(diamond(), "run1", input_bytes=GiB)
        assert dag.stage_ids() == ["run1:a", "run1:b", "run1:c", "run1:d"]
        a, b, c, d = (dag.stage(sid) for sid in dag.stage_ids())
        assert a.deps == () and a.input_edges == ()
        assert b.deps == ("run1:a",) and b.input_edges == (("run1:a", GiB),)
        assert d.deps == ("run1:b", "run1:c")
        # d pays each producer's own output size.
        assert dict(d.input_edges) == {"run1:b": GiB, "run1:c": 2 * GiB}

    def test_root_stages_carry_external_input_bytes(self):
        dag = compile_graph(fan_out(4), "run1", input_bytes=5 * GiB)
        assert dag.stage("run1:prep").workload.input_bytes == 5 * GiB
        assert all(
            dag.stage(sid).workload.input_bytes == 0
            for sid in dag.stage_ids()
            if sid != "run1:prep"
        )

    def test_duplicated_dependency_ships_its_bytes_once(self):
        # A step wiring the same upstream output into two parameters
        # downloads it once per boot, not once per reference.
        graph = StepGraph(
            "shared",
            [
                StepTask("src", 1.0, output_bytes=GiB),
                StepTask("sink", 1.0, deps=("src", "src")),
            ],
        )
        dag = compile_graph(graph, "run1")
        assert dag.stage("run1:sink").input_edges == (("run1:src", GiB),)

    def test_stage_workload_shape(self):
        dag = compile_graph(diamond(), "run1", checkpoint_bytes=123)
        stage = dag.stage("run1:a")
        workload = stage.workload
        assert isinstance(workload, StageWorkload)
        assert workload.dag_id == "run1"
        assert workload.step_labels == ("a",)
        assert workload.kind is WorkloadKind.CHECKPOINT
        assert workload.checkpoint_bytes == 123
        assert workload.segment_durations == (3600.0,)
        assert dag.n_stages == 4 and dag.n_steps == 4
        assert dag.serial_duration() == 4 * 3600.0

    def test_chain_payload_dispatches_per_step(self):
        ran = []
        graph = StepGraph(
            "payloads",
            [
                StepTask("a", 1.0, payload=lambda: ran.append("a")),
                StepTask("b", 1.0, deps=("a",), payload=lambda: ran.append("b")),
            ],
        )
        dag = compile_graph(graph, "run1")
        (stage,) = dag.stages
        stage.workload.payload(0)
        stage.workload.payload(1)
        assert ran == ["a", "b"]

    def test_dag_workload_validation(self):
        stage = Stage("s1", synthetic_workload("s1", 1.0, 1), ("s1",))
        with pytest.raises(DagValidationError, match="no stages"):
            DagWorkload("d", [])
        with pytest.raises(DagValidationError, match="duplicate stage id"):
            DagWorkload("d", [stage, stage])
        with pytest.raises(DagValidationError, match="unknown stage"):
            DagWorkload(
                "d",
                [Stage("s2", synthetic_workload("s2", 1.0, 1), ("s2",), deps=("ghost",))],
            )


class TestCompileWorkload:
    def test_degenerate_dag_reuses_the_workload_object(self):
        workload = synthetic_workload("wl-1", duration_hours=2.0, n_segments=4)
        dag = compile_workload(workload)
        assert dag.dag_id == "wl-1"
        (stage,) = dag.stages
        assert stage.stage_id == "wl-1"
        assert stage.workload is workload  # identity, not a copy
        assert stage.deps == () and stage.input_edges == ()


class TestCompileWorkflow:
    def test_galaxy_workflow_becomes_step_graph(self):
        workflow = Workflow(
            "wf",
            [
                WorkflowStep("fetch", "sra_fetch", duration=600.0),
                WorkflowStep(
                    "qc",
                    "fastqc",
                    inputs={"reads": StepInput("fetch", "out")},
                    duration=1200.0,
                ),
                WorkflowStep(
                    "trim",
                    "cutadapt",
                    inputs={"reads": StepInput("fetch", "out")},
                    duration=1800.0,
                ),
                WorkflowStep(
                    "report",
                    "multiqc",
                    inputs={
                        "qc": StepInput("qc", "out"),
                        "trimmed": StepInput("trim", "out"),
                    },
                    duration=600.0,
                ),
            ],
        )
        dag = compile_workflow(workflow, "inv1", output_bytes=GiB)
        assert dag.stage_ids() == ["inv1:fetch", "inv1:qc", "inv1:trim", "inv1:report"]
        report = dag.stage("inv1:report")
        assert set(report.deps) == {"inv1:qc", "inv1:trim"}
        assert dag.stage("inv1:qc").workload.total_duration == 1200.0
        assert dag.serial_duration() == workflow.total_duration()


class TestStepPlanner:
    def test_ready_release_done_lifecycle(self):
        planner = StepPlanner(compile_graph(diamond(), "run1"))
        assert [s.stage_id for s in planner.ready()] == ["run1:a"]
        planner.mark_released("run1:a")
        assert planner.ready() == []
        newly = planner.mark_done("run1:a")
        assert [s.stage_id for s in newly] == ["run1:b", "run1:c"]
        for sid in ("run1:b", "run1:c"):
            planner.mark_released(sid)
        assert planner.mark_done("run1:b") == []
        newly = planner.mark_done("run1:c")
        assert [s.stage_id for s in newly] == ["run1:d"]
        planner.mark_released("run1:d")
        assert not planner.all_done
        planner.mark_done("run1:d")
        assert planner.all_done
        assert planner.done == frozenset(planner.dag.stage_ids())

    def test_completion_without_release_rejected(self):
        planner = StepPlanner(compile_graph(diamond(), "run1"))
        with pytest.raises(DagValidationError, match="without being released"):
            planner.mark_done("run1:a")

    def test_mark_released_unknown_stage_rejected(self):
        planner = StepPlanner(compile_graph(diamond(), "run1"))
        with pytest.raises(DagValidationError, match="no stage"):
            planner.mark_released("run1:ghost")


class TestStepInputEgress:
    def _execution(self, provider, sources):
        provider.s3.create_bucket("results", "us-east-1")
        workload = synthetic_workload("w", duration_hours=1.0, n_segments=2)
        execution = WorkloadExecution(
            workload=workload,
            provider=provider,
            backend=DynamoCheckpointBackend(provider, "results"),
            results_bucket="results",
            boot_delay=60.0,
            execute_payloads=False,
            on_complete=lambda e: None,
        )
        execution.input_sources = sources
        return execution

    def test_cross_region_inputs_charged_at_boot(self):
        provider = CloudProvider(seed=4)
        provider.warmup_markets(8)
        execution = self._execution(provider, [("eu-west-1", 2 * GiB)])
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w")
        execution.attach(instance)
        provider.engine.run_until(2 * HOUR)
        assert provider.ledger.total(CostCategory.S3_TRANSFER) == pytest.approx(
            2 * S3_CROSS_REGION_TRANSFER_PRICE
        )
        provider.shutdown()

    def test_same_region_inputs_are_free(self):
        provider = CloudProvider(seed=4)
        provider.warmup_markets(8)
        execution = self._execution(provider, [("us-east-1", 2 * GiB)])
        instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w")
        execution.attach(instance)
        provider.engine.run_until(2 * HOUR)
        assert provider.ledger.total(CostCategory.S3_TRANSFER) == 0.0
        provider.shutdown()


class TestStoreNamespaceCounter:
    def test_counter_is_per_provider_not_process_global(self):
        first = CloudProvider(seed=1)
        assert first.dynamodb.next_store_namespace() == "ctl000"
        assert first.dynamodb.next_store_namespace() == "ctl001"
        second = CloudProvider(seed=1)
        # A fresh provider restarts the sequence: instrumented reruns
        # mint the same table names no matter how many controllers
        # earlier runs in this process created.
        assert second.dynamodb.next_store_namespace() == "ctl000"
        first.shutdown()
        second.shutdown()

    def test_fleet_state_stores_mint_distinct_tables(self):
        provider = CloudProvider(seed=1)
        a = FleetStateStore(provider.dynamodb)
        b = FleetStateStore(provider.dynamodb)
        assert a.workloads_table != b.workloads_table
        assert "ctl000" in a.workloads_table
        assert "ctl001" in b.workloads_table
        provider.shutdown()
