"""Galaxy-style workflow management substrate.

A miniature of the Galaxy platform as the paper uses it: a toolshed of
installable tools (wrapping :mod:`repro.bio`), workflow DAGs with
invocations, histories holding datasets, a job runner that executes
steps in simulated time, a Planemo-style runner, and an admin/API
facade.  Galaxy has no native checkpointing; the DynamoDB progress rows
and artifact uploads the paper bolts on live in
:mod:`repro.core.fleet.checkpoint`.
"""

from repro.galaxy.api import GalaxyInstance
from repro.galaxy.history import Dataset, History
from repro.galaxy.jobs import Job, JobRunner, JobState
from repro.galaxy.planemo import PlanemoRunner
from repro.galaxy.tools import Tool, ToolShed, default_toolshed
from repro.galaxy.workflow import Invocation, StepState, Workflow, WorkflowStep

__all__ = [
    "Dataset",
    "GalaxyInstance",
    "History",
    "Invocation",
    "Job",
    "JobRunner",
    "JobState",
    "PlanemoRunner",
    "StepState",
    "Tool",
    "ToolShed",
    "Workflow",
    "WorkflowStep",
    "default_toolshed",
]
