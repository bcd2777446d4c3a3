"""Simulated AWS Step Functions.

The paper wraps its interruption-handler Lambda in a Step Functions
state machine so failed or delayed spot requests are retried with
backoff.  This substrate models exactly that: a single-task state
machine with a retry policy (max attempts, interval, backoff rate).
Executions charge state transitions and record their outcome.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.cloud.billing import STEP_FUNCTIONS_TRANSITION_PRICE, CostCategory
from repro.cloud.retry import RetryPolicy
from repro.errors import StateMachineError
from repro.obs.tracing import TraceContext, traced_resume

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider

Task = Callable[[Dict[str, Any]], Any]


class ExecutionStatus(enum.Enum):
    """Terminal and in-flight execution states."""

    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


__all__ = [
    "ExecutionStatus",
    "Execution",
    "StateMachine",
    "StepFunctionsService",
]


@dataclass
class Execution:
    """One state-machine execution.

    Attributes:
        execution_id: Unique id.
        input: Input event passed to every attempt.
        status: Current status.
        attempts: Attempts made so far.
        output: Task return value on success.
        error: Final error message on failure.
        on_success: Callback fired with the output on success.
        on_failure: Callback fired with the error message on failure.
    """

    execution_id: str
    input: Dict[str, Any]
    status: ExecutionStatus = ExecutionStatus.RUNNING
    attempts: int = 0
    output: Any = None
    error: str = ""
    on_success: Optional[Callable[[Any], None]] = None
    on_failure: Optional[Callable[[str], None]] = None
    #: Causal-trace context of the caller that started this execution;
    #: each attempt's hop parents under it when tracing is enabled.
    trace: Optional[TraceContext] = None


@dataclass
class StateMachine:
    """A single-task state machine with retries."""

    name: str
    task: Task
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    executions: List[Execution] = field(default_factory=list)


class StepFunctionsService:
    """State-machine registry and execution driver."""

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider
        self._engine = provider.engine
        self._machines: Dict[str, StateMachine] = {}
        self._execution_counter = itertools.count()

    def create_state_machine(
        self, name: str, task: Task, retry: Optional[RetryPolicy] = None
    ) -> StateMachine:
        """Register (or replace) a state machine."""
        machine = StateMachine(name=name, task=task, retry=retry or RetryPolicy())
        self._machines[name] = machine
        return machine

    def get_state_machine(self, name: str) -> StateMachine:
        """Return the machine called *name*."""
        machine = self._machines.get(name)
        if machine is None:
            raise StateMachineError(f"no such state machine: {name!r}")
        return machine

    def start_execution(
        self,
        name: str,
        input: Optional[Dict[str, Any]] = None,
        on_success: Optional[Callable[[Any], None]] = None,
        on_failure: Optional[Callable[[str], None]] = None,
    ) -> Execution:
        """Start an execution; attempts run asynchronously with backoff."""
        machine = self.get_state_machine(name)
        tracer = self._provider.telemetry.tracer
        execution = Execution(
            execution_id=f"exec-{next(self._execution_counter):08d}",
            input=dict(input or {}),
            on_success=on_success,
            on_failure=on_failure,
            trace=tracer.current if tracer is not None else None,
        )
        machine.executions.append(execution)
        self._schedule_attempt(machine, execution)
        return execution

    def _charge_transition(self, machine_name: str) -> None:
        self._provider.ledger.charge(
            time=self._engine.now,
            category=CostCategory.STEP_FUNCTIONS,
            amount=STEP_FUNCTIONS_TRANSITION_PRICE,
            detail=f"sfn {machine_name}",
        )

    def _schedule_attempt(self, machine: StateMachine, execution: Execution) -> None:
        attempt = execution.attempts + 1
        delay = machine.retry.delay_before_attempt(attempt)
        self._engine.call_in(
            delay,
            lambda: self._run_attempt(machine, execution),
            label=f"sfn:{machine.name}:attempt{attempt}",
        )

    def _run_attempt(self, machine: StateMachine, execution: Execution) -> None:
        if execution.status is not ExecutionStatus.RUNNING:
            return
        execution.attempts += 1
        self._charge_transition(machine.name)
        tracer = self._provider.telemetry.tracer
        ctx = None
        if tracer is not None and execution.trace is not None:
            ctx = tracer.begin(
                f"sfn:{machine.name}",
                "sfn",
                parent=execution.trace,
                attempt=execution.attempts,
                execution_id=execution.execution_id,
            )
        try:
            with traced_resume(tracer, ctx):
                result = machine.task(execution.input)
        except Exception as exc:
            if execution.attempts >= machine.retry.max_attempts:
                if tracer is not None:
                    tracer.end(ctx, status="dead_letter", error=exc.__class__.__name__)
                execution.status = ExecutionStatus.FAILED
                execution.error = f"{exc.__class__.__name__}: {exc}"
                if execution.on_failure is not None:
                    execution.on_failure(execution.error)
                return
            if tracer is not None:
                tracer.end(ctx, status="retry", error=exc.__class__.__name__)
            self._schedule_attempt(machine, execution)
            return
        if tracer is not None:
            tracer.end(ctx)
        execution.status = ExecutionStatus.SUCCEEDED
        execution.output = result
        if execution.on_success is not None:
            execution.on_success(result)

    def machines(self) -> List[str]:
        """Return registered machine names, sorted."""
        return sorted(self._machines)
