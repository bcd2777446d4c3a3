"""Unit tests for the job runner, checkpoint progress rows, Planemo, and
the Galaxy API facade."""

import pytest

from repro.cloud.provider import CloudProvider
from repro.core.fleet import DynamoCheckpointBackend, EFSCheckpointBackend
from repro.errors import GalaxyError, JobError
from repro.galaxy.api import GalaxyInstance
from repro.galaxy.history import History
from repro.galaxy.jobs import JobRunner, JobState
from repro.galaxy.planemo import PlanemoRunner
from repro.galaxy.tools import default_toolshed
from repro.galaxy.workflow import Invocation, StepState, Workflow, WorkflowStep
from repro.sim.engine import SimulationEngine


def sleep_workflow(n_steps=3, duration=100.0):
    steps = [
        WorkflowStep(label=f"s{i}", tool_id="sleep", duration=duration)
        for i in range(n_steps)
    ]
    return Workflow("sleepy", steps)


class TestJobRunner:
    def make_runner(self, **kwargs):
        engine = SimulationEngine()
        history = History("h")
        runner = JobRunner(engine, default_toolshed(), history, **kwargs)
        return engine, history, runner

    def test_runs_steps_serially_in_time(self):
        engine, _, runner = self.make_runner()
        invocation = Invocation(sleep_workflow(3, 100.0), "inv")
        runner.start(invocation)
        engine.run_until(150.0)
        assert invocation.completed_steps() == ["s0"]
        engine.run_until(350.0)
        assert invocation.finished and invocation.ok
        assert all(job.state is JobState.OK for job in runner.jobs)

    def test_on_finished_callback(self):
        engine, _, runner = self.make_runner()
        finished = []
        runner._on_finished = lambda inv: finished.append(inv.invocation_id)
        runner.start(Invocation(sleep_workflow(1), "inv"))
        engine.run_until_idle()
        assert finished == ["inv"]

    def test_outputs_land_in_history(self):
        engine, history, runner = self.make_runner()
        invocation = Invocation(sleep_workflow(1), "inv")
        runner.start(invocation)
        engine.run_until_idle()
        assert history.latest("s0/slept") is not None

    def test_pause_loses_inflight_step_only(self):
        engine, _, runner = self.make_runner()
        invocation = Invocation(sleep_workflow(3, 100.0), "inv")
        runner.start(invocation)
        engine.run_until(150.0)  # s0 done, s1 halfway
        runner.pause()
        assert invocation.results["s0"].state is StepState.OK
        assert invocation.results["s1"].state is StepState.NEW
        engine.run_until(1000.0)
        assert not invocation.finished  # nothing runs while paused
        runner.resume()
        engine.run_until_idle()
        assert invocation.ok

    def test_double_start_rejected(self):
        engine, _, runner = self.make_runner()
        runner.start(Invocation(sleep_workflow(), "a"))
        with pytest.raises(JobError):
            runner.start(Invocation(sleep_workflow(), "b"))

    def test_resume_without_start_rejected(self):
        _, _, runner = self.make_runner()
        with pytest.raises(JobError):
            runner.resume()

    def test_tool_error_marks_step_and_stops(self):
        engine = SimulationEngine()
        history = History("h")
        runner = JobRunner(engine, default_toolshed(), history)
        workflow = Workflow(
            "bad",
            [
                WorkflowStep(
                    label="explode",
                    tool_id="fastqc",
                    params={"fastq": "not valid fastq at all"},
                    duration=10.0,
                ),
                WorkflowStep(label="after", tool_id="sleep", duration=10.0),
            ],
        )
        invocation = Invocation(workflow, "inv")
        runner.start(invocation)
        engine.run_until_idle()
        assert invocation.results["explode"].state is StepState.ERROR
        assert invocation.results["explode"].error
        assert invocation.results["after"].state is StepState.NEW

    def test_skip_payloads_mode(self):
        engine, history, runner = self.make_runner(execute_payloads=False)
        workflow = Workflow(
            "skipped",
            [
                WorkflowStep(
                    label="explode",
                    tool_id="fastqc",
                    params={"fastq": "garbage"},
                    duration=5.0,
                )
            ],
        )
        invocation = Invocation(workflow, "inv")
        runner.start(invocation)
        engine.run_until_idle()
        # Payload skipped: step completes despite the bad params.
        assert invocation.ok
        assert len(history) == 0

    def test_step_complete_hook(self):
        engine, _, runner = self.make_runner()
        seen = []
        runner._on_step_complete = lambda label, outputs: seen.append(label)
        runner.start(Invocation(sleep_workflow(2), "inv"))
        engine.run_until_idle()
        assert seen == ["s0", "s1"]


class TestCheckpointStores:
    """Both checkpoint backends keep progress as DynamoDB rows."""

    @pytest.fixture(params=["dynamo", "efs"])
    def backend(self, request):
        provider = CloudProvider(seed=0)
        if request.param == "efs":
            return EFSCheckpointBackend(provider, "us-east-1")
        return DynamoCheckpointBackend(provider, "results")

    def test_monotonic_progress(self, backend):
        assert backend.load_progress("w") == 0
        assert backend.save_progress("w", 3, detail={"region": "x"})
        assert backend.load_progress("w") == 3
        assert backend.progress_detail("w") == {"region": "x"}
        # A stale instance cannot roll progress back.
        assert not backend.save_progress("w", 2)
        assert backend.load_progress("w") == 3
        assert backend.save_progress("w", 5)
        assert backend.load_progress("w") == 5

    def test_equal_progress_rejected(self, backend):
        backend.save_progress("w", 3)
        assert not backend.save_progress("w", 3)

    def test_independent_workloads(self, backend):
        backend.save_progress("a", 2)
        backend.save_progress("b", 7)
        assert backend.load_progress("a") == 2
        assert backend.load_progress("b") == 7

    def test_detail_empty_when_unsaved(self, backend):
        assert backend.progress_detail("ghost") == {}


class TestPlanemo:
    def test_private_engine_runs_to_completion(self):
        runner = PlanemoRunner()
        invocation = runner.run(sleep_workflow())
        assert invocation.ok

    def test_shared_engine_caller_drives_clock(self):
        engine = SimulationEngine()
        runner = PlanemoRunner(engine=engine)
        invocation = runner.run(sleep_workflow(2, 50.0))
        assert not invocation.finished
        engine.run_until_idle()
        assert invocation.ok

    def test_failed_workflow_raises(self):
        runner = PlanemoRunner()
        workflow = Workflow(
            "bad",
            [
                WorkflowStep(
                    label="x", tool_id="fastqc", params={"fastq": "junk"}, duration=1.0
                )
            ],
        )
        with pytest.raises(GalaxyError):
            runner.run(workflow)


class TestGalaxyInstance:
    def make_galaxy(self):
        galaxy = GalaxyInstance(admin_users=["admin@x.org"])
        return galaxy, galaxy.api_key_for("admin@x.org")

    def test_requires_admin_users(self):
        with pytest.raises(GalaxyError):
            GalaxyInstance(admin_users=[])

    def test_api_key_auth(self):
        galaxy, key = self.make_galaxy()
        with pytest.raises(GalaxyError):
            galaxy.api_key_for("random@user.org")
        with pytest.raises(GalaxyError):
            galaxy.create_history("wrong-key")
        assert galaxy.create_history(key, "mine").name == "mine"

    def test_register_and_invoke(self):
        galaxy, key = self.make_galaxy()
        galaxy.register_workflow(key, sleep_workflow())
        assert galaxy.workflows() == ["sleepy"]
        invocation = galaxy.invoke_workflow(key, "sleepy")
        assert invocation.ok

    def test_invoke_unknown_workflow(self):
        galaxy, key = self.make_galaxy()
        with pytest.raises(GalaxyError):
            galaxy.invoke_workflow(key, "nope")

    def test_history_lookup(self):
        galaxy, key = self.make_galaxy()
        galaxy.create_history(key, "h1")
        assert galaxy.history("h1").name == "h1"
        with pytest.raises(GalaxyError):
            galaxy.history("missing")

    def test_install_tool_requires_valid_key(self):
        from repro.galaxy.tools import Tool

        galaxy, key = self.make_galaxy()
        tool = Tool("custom", "Custom", "1", "", lambda p: {})
        with pytest.raises(GalaxyError):
            galaxy.install_tool("bad-key", tool)
        galaxy.install_tool(key, tool)
        assert "custom" in galaxy.toolshed
