"""CapacityService: spot requests, the open-request sweep, fallback.

Owns every path that turns a policy :class:`~repro.core.policy.Placement`
into running capacity:

* **on-demand fallback** — launch immediately and attach;
* **spot requests** — file the request and track it durably in the
  :class:`~repro.core.fleet.state.FleetStateStore`; the EC2 fulfillment
  callback routes back in through the store's
  :class:`~repro.core.fleet.state.ControlPlaneRouter`, so a request
  filed by one controller incarnation can be consumed by the next;
* **the 15-minute sweep** (Section 4) — retry requests that stayed
  ``open`` and prune or cancel the ones nobody needs any more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cloud.retry import RetryPolicy, ScheduledRetries, note_dead_letter, retry_or_dead_letter
from repro.cloud.services.ec2 import Instance, SpotRequest, SpotRequestState
from repro.core.policy import Placement, PurchasingOption
from repro.errors import RequestLimitExceededError, ThrottlingError
from repro.obs import EventType
from repro.obs.tracing import TraceContext, traced_hop, traced_resume

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.core.config import SpotVerseConfig
    from repro.core.execution import WorkloadExecution
    from repro.core.fleet.lifecycle import LifecycleService
    from repro.core.fleet.state import FleetStateStore

#: Backoff schedule for ``RequestSpotInstances`` calls rejected by an
#: injected EC2 API fault; past ``max_attempts`` the workload falls back
#: to on-demand so it still reaches a terminal state.
SPOT_REQUEST_RETRY_POLICY = RetryPolicy(
    max_attempts=4, interval=30.0, backoff_rate=2.0, jitter=0.5
)


class CapacityService:
    """Acquires and recycles instances for the fleet.

    Args:
        provider: The simulated cloud.
        config: Control-plane configuration.
        store: Durable fleet state (request tracking, bindings).
        lifecycle: Registry resolving workload ids to live executions.
    """

    def __init__(
        self,
        provider: "CloudProvider",
        config: "SpotVerseConfig",
        store: "FleetStateStore",
        lifecycle: "LifecycleService",
    ) -> None:
        self._provider = provider
        self._config = config
        self._store = store
        self._lifecycle = lifecycle
        self._telemetry = provider.telemetry
        self._retries = ScheduledRetries(provider.engine)

    def teardown(self) -> None:
        """Cancel pending spot-request refilings (they die with the controller).

        The next controller's sweep re-files each restored execution
        that still needs an instance, so a dead controller's refiling
        must not drive its own, forgotten execution onto a second
        instance (the workload would complete twice).
        """
        self._retries.cancel()

    def retry_pending(self, workload_id: str) -> bool:
        """Whether a spot-request refiling for *workload_id* is scheduled."""
        return self._retries.has(f"capacity:retry-spot:{workload_id}")

    def deploy(self) -> None:
        """Schedule the CloudWatch open-request sweep (once per router)."""
        self._provider.cloudwatch.schedule_rule(
            "spotverse-open-request-sweep",
            interval=self._config.sweep_interval,
            target=self._store.router.sweep,
        )

    # ------------------------------------------------------------------
    # Acquisition paths
    # ------------------------------------------------------------------
    def acquire(
        self, execution: "WorkloadExecution", placement: Placement, phase: str = "initial"
    ) -> None:
        """Turn a placement into capacity for *execution*."""
        workload_id = execution.workload.workload_id
        with traced_hop(
            self._telemetry.tracer,
            "capacity:acquire",
            "capacity",
            trace_id=workload_id,
            phase=phase,
            region=placement.region,
        ):
            if placement.option is PurchasingOption.ON_DEMAND:
                self._launch_on_demand(execution, placement, phase)
                return
            self._file_spot_request(execution, placement, phase)

    def _launch_on_demand(
        self, execution: "WorkloadExecution", placement: Placement, phase: str
    ) -> None:
        workload_id = execution.workload.workload_id
        fallback_attrs = {"phase": phase}
        if placement.reason:
            fallback_attrs["reason"] = placement.reason
        self._telemetry.bus.emit(
            EventType.FALLBACK_ON_DEMAND,
            workload_id=workload_id,
            region=placement.region,
            option=PurchasingOption.ON_DEMAND._value_,
            **fallback_attrs,
        )
        self._telemetry.metrics.counter(
            "fallback_on_demand_total", "placements that resolved to on-demand"
        ).inc(region=placement.region)
        instance = self._provider.ec2.run_on_demand(
            placement.region, self._config.instance_type, tag=workload_id
        )
        tracer = self._telemetry.tracer
        if tracer is not None:
            ctx = tracer.event(
                "ec2:run-on-demand",
                "capacity",
                trace_id=workload_id,
                region=placement.region,
                instance_id=instance.instance_id,
            )
            tracer.link(("instance", instance.instance_id), ctx)
        # On-demand instances join the same instance bindings spot
        # fulfillments use, so spans and terminations see one
        # uniform view of running capacity.
        self._store.bind_instance(instance, workload_id)
        execution.attach(instance)

    def _file_spot_request(
        self,
        execution: "WorkloadExecution",
        placement: Placement,
        phase: str,
        attempt: int = 1,
        resume_ctx: Optional[TraceContext] = None,
    ) -> None:
        """File a spot request, backing off on injected API rejections.

        Retries are scheduled through the engine (the real call would be
        retried by a later Lambda/Step Functions attempt) and resume the
        first filing's trace context; a retry whose workload no longer
        needs an instance does nothing.  When the schedule is exhausted
        the workload falls back to on-demand with reason
        ``"spot-api-exhausted"`` so it still terminates.
        """
        if attempt > 1 and not execution.needs_instance:
            return
        workload_id = execution.workload.workload_id
        tracer = self._telemetry.tracer
        with traced_resume(tracer, resume_ctx):
            try:
                request = self._provider.ec2.request_spot_instances(
                    placement.region,
                    self._config.instance_type,
                    tag=workload_id,
                    on_fulfilled=self._store.router.spot_fulfilled,
                )
            except RequestLimitExceededError as exc:
                delay = retry_or_dead_letter(
                    self._provider,
                    SPOT_REQUEST_RETRY_POLICY,
                    attempt,
                    exc,
                    f"ec2:request-spot:{placement.region}",
                    "spot request API exhausted",
                    workload_id,
                    leg=("ec2:request-spot", "capacity"),
                    status="throttled",
                    trace_id=workload_id,
                    region=placement.region,
                )
                if delay is None:
                    self._launch_on_demand(
                        execution,
                        Placement(
                            region=placement.region,
                            option=PurchasingOption.ON_DEMAND,
                            reason="spot-api-exhausted",
                        ),
                        phase,
                    )
                    return
                resume = tracer.current if tracer is not None else None
                self._retries.call_in(
                    delay,
                    lambda: self._file_spot_request(
                        execution, placement, phase, attempt + 1, resume
                    ),
                    label=f"capacity:retry-spot:{workload_id}",
                )
                return
            if tracer is not None:
                ctx = tracer.begin(
                    "spot:await-fulfillment",
                    "capacity",
                    trace_id=workload_id,
                    region=placement.region,
                    request_id=request.request_id,
                    attempt=attempt,
                )
                tracer.link(("spot-request", request.request_id), ctx)
            self._store.track_request(request, workload_id)

    def on_spot_fulfilled(self, request: SpotRequest, instance: Instance) -> None:
        """A tracked spot request launched an instance; attach or discard."""
        tracer = self._telemetry.tracer
        await_ctx = (
            tracer.take(("spot-request", request.request_id))
            if tracer is not None
            else None
        )
        # The tag names the workload the request was filed for.
        workload_id = request.tag
        execution = self._lifecycle.find(workload_id)
        if execution is None:
            if tracer is not None:
                tracer.end(await_ctx, status="discarded", reason="untracked-request")
            self._discard(request, instance, reason="untracked-request")
            return
        self._store.drop_request(request.request_id, workload_id)
        if not execution.needs_instance:
            if tracer is not None:
                tracer.end(await_ctx, status="discarded", reason="workload-satisfied")
            self._discard(request, instance, reason="workload-satisfied")
            return
        if tracer is not None:
            tracer.end(await_ctx, instance_id=instance.instance_id)
        with traced_resume(tracer, await_ctx):
            with traced_hop(
                tracer,
                "capacity:attach",
                "capacity",
                trace_id=workload_id,
                region=instance.region,
                instance_id=instance.instance_id,
            ) as attach_ctx:
                if tracer is not None:
                    tracer.link(("instance", instance.instance_id), attach_ctx)
                self._store.bind_instance(instance, workload_id)
                execution.attach(instance)

    def _discard(self, request: SpotRequest, instance: Instance, reason: str) -> None:
        """Terminate a late fulfillment nothing is waiting for."""
        self._telemetry.bus.emit(
            EventType.CAPACITY_DISCARDED,
            workload_id=request.tag,
            region=instance.region,
            instance_id=instance.instance_id,
            request_id=request.request_id,
            option=instance.lifecycle._value_,
            reason=reason,
        )
        self._telemetry.metrics.counter(
            "capacity_discarded_total", "late fulfillments terminated unused"
        ).inc(region=instance.region)
        self._provider.ec2.terminate_instances([instance.instance_id])

    # ------------------------------------------------------------------
    # The 15-minute sweep
    # ------------------------------------------------------------------
    def sweep_open_requests(self) -> None:
        """The CloudWatch check for requests that stayed ``open``.

        One ``describe_spot_requests`` call per sweep, indexed by id —
        not one per tracked request, which made large fleets quadratic.
        Tracked requests that left ``open`` without being fulfilled
        (cancelled or failed) are pruned, so dead entries no longer
        accumulate across the run.
        """
        try:
            self._sweep_once()
        except ThrottlingError as exc:
            # The store stayed throttled through every retry: skip this
            # tick; the next sweep sees the same durable state.
            note_dead_letter(self._telemetry, "capacity:sweep", str(exc))

    def _sweep_once(self) -> None:
        open_by_id = {
            request.request_id: request
            for request in self._provider.ec2.describe_spot_requests(
                states=[SpotRequestState.OPEN]
            )
        }
        for request_id, workload_id in self._store.tracked_requests():
            request = open_by_id.get(request_id)
            if request is None:
                # Fulfillments are untracked on attach, so a tracked
                # request that is no longer open was cancelled or
                # failed: drop the stale entry.
                self._store.drop_request(request_id, workload_id)
                continue
            execution = self._lifecycle.find(workload_id)
            if execution is None or not execution.needs_instance:
                self._provider.ec2.cancel_spot_request(request_id)
                self._store.drop_request(request_id, workload_id)
                continue
            self._provider.ec2.retry_open_request(
                request_id, on_fulfilled=self._store.router.spot_fulfilled
            )
