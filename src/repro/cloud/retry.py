"""Bounded retry with exponential backoff and jitter.

:class:`RetryPolicy` started life inside the Step Functions substrate
(the paper's reacquire machine retries with backoff).  The chaos
subsystem generalises it into the client-side resilience primitive used
by every fleet service that talks to a fallible substrate, and this
module runs every client-side retry.  There are two entry points:

* **In place** (:func:`call_with_retries`): the caller is inside an
  engine callback and cannot advance sim time, so the
  :data:`IN_PLACE_ATTEMPTS` attempts against an injected DynamoDB
  throttle run back-to-back.  This models a client library's tight
  retry loop, whose wall-clock delays are far below the engine's event
  granularity.  Used by the state store, the monitor and checkpoint
  progress rows.
* **Engine-scheduled** (:func:`retry_or_dead_letter`): the caller owns
  an engine handle and reschedules the failed attempt itself after the
  returned jittered delay — used where redelivery genuinely takes sim
  time (spot-request refiling, checkpoint-artifact writes, EventBridge
  redelivery).  What a site does once the budget is spent stays at the
  site.  Controller-owned clients (spot refiling, artifact writes)
  schedule through :class:`ScheduledRetries`, so their pending retries
  die with the controller; EventBridge redelivery is cloud-side and
  outlives it.

Both record each retry (``resilience.retry``) and each give-up
(``resilience.dead_letter``) the same way.  The Step Functions machine
keeps its own retry loop: it is the paper's cloud-side reacquire
machine, not a client, and emits no resilience events.

With ``jitter == 0`` (the default) and no RNG the schedule is exactly
the pre-chaos Step Functions one, which keeps zero-fault runs
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.errors import ThrottlingError
from repro.obs.events import EventType
from repro.sim.clock import SECOND

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.obs import Telemetry
    from repro.sim.engine import SimulationEngine
    from repro.sim.events import Event


@dataclass
class RetryPolicy:
    """Retry configuration shared by Step Functions and chaos clients.

    Attributes:
        max_attempts: Total attempts including the first.
        interval: Seconds before the first retry.
        backoff_rate: Multiplier applied to the interval per retry.
        jitter: Fraction of the backoff delay added uniformly at random
            (``0.5`` adds up to +50%).  Requires an ``rng`` at call
            time; without one the delay is deterministic.
    """

    max_attempts: int = 3
    interval: float = 10 * SECOND
    backoff_rate: float = 2.0
    jitter: float = 0.0

    def delay_before_attempt(self, attempt: int, rng=None) -> float:
        """Delay preceding *attempt* (attempt 2 waits ``interval``).

        Args:
            attempt: 1-based attempt number; attempt 1 never waits.
            rng: Optional ``numpy.random.Generator`` for jitter.  Only
                consulted when both *rng* and ``jitter`` are set, so
                jitter-free callers draw nothing.
        """
        if attempt <= 1:
            return 0.0
        base = self.interval * (self.backoff_rate ** (attempt - 2))
        if self.jitter > 0.0 and rng is not None:
            return base * (1.0 + self.jitter * float(rng.random()))
        return base


#: Attempt budget of an in-place call, the first attempt included.
IN_PLACE_ATTEMPTS = 5


def call_with_retries(
    fn: Callable[[], Any],
    telemetry: "Telemetry",
    scope: str,
    workload_id: str = "",
    drop: bool = False,
) -> Any:
    """Call *fn*, retrying an injected ``ThrottlingError`` in place.

    Every failed attempt but the last is recorded as a retry of
    *scope*.  Once :data:`IN_PLACE_ATTEMPTS` attempts have failed, the
    last error is re-raised, or with *drop* the call is dead-lettered
    with ``str(error)`` and returns ``None``.  Any other error
    propagates at once.  A call that succeeds first time records
    nothing and allocates nothing here.
    """
    attempt = 1
    while True:
        try:
            return fn()
        except ThrottlingError as exc:
            if attempt >= IN_PLACE_ATTEMPTS:
                if not drop:
                    raise
                note_dead_letter(telemetry, scope, str(exc), workload_id=workload_id)
                return None
            _note_retry(telemetry, scope, attempt, exc, workload_id)
            attempt += 1


def retry_or_dead_letter(
    provider: "CloudProvider",
    policy: RetryPolicy,
    attempt: int,
    error: BaseException,
    scope: str,
    detail: str,
    workload_id: str = "",
    leg: Optional[Tuple[str, str]] = None,
    status: str = "retry",
    **leg_attrs: Any,
) -> Optional[float]:
    """Record engine-scheduled attempt *attempt*'s failure; the delay to the next.

    Within *policy*'s budget the failure is a retry of *scope*: the
    returned delay before attempt ``attempt + 1`` carries jitter drawn
    from the chaos controller's ``chaos:retry`` stream, and the caller
    schedules that attempt.  Past the budget it is dead-lettered with
    ``"<detail> after <attempt> attempts"`` and ``None`` is returned;
    the caller's give-up action (a fallback, a counter) follows.

    Args:
        leg: ``(name, service)`` of the tracer hop recording this
            attempt (status *status*, or ``"dead_letter"``), or ``None``
            for no hop.  *leg_attrs* go to ``tracer.event`` after
            ``attempt``: its ``parent`` or ``trace_id``, and hop
            attributes.
    """
    tracer = provider.telemetry.tracer
    exhausted = attempt >= policy.max_attempts
    if tracer is not None and leg is not None:
        tracer.event(
            leg[0],
            leg[1],
            status="dead_letter" if exhausted else status,
            attempt=attempt,
            **leg_attrs,
        )
    if exhausted:
        note_dead_letter(
            provider.telemetry, scope, f"{detail} after {attempt} attempts", workload_id=workload_id
        )
        return None
    _note_retry(provider.telemetry, scope, attempt, error, workload_id)
    chaos = provider.chaos
    return policy.delay_before_attempt(
        attempt + 1, rng=chaos.retry_rng if chaos is not None else None
    )


class ScheduledRetries:
    """The engine-scheduled retries one client has pending.

    A client's pending retries are in-process state: they die with the
    client, as a controller's boot and segment timers do.  Whether the
    work a cancelled retry would have redone survives is the site's
    business: a spot request is re-filed by the next incarnation's
    sweep, but no one writes a lost checkpoint artifact again, so that
    site passes an *on_cancel* that dead-letters it.  A retry leaves the
    set when it fires.
    """

    def __init__(self, engine: "SimulationEngine") -> None:
        self._engine = engine
        # Insertion-ordered, so cancellation order is deterministic.
        self._pending: Dict["Event", Optional[Callable[[], None]]] = {}

    def call_in(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        """Schedule *callback* after *delay* seconds as a pending retry.

        *on_cancel* runs instead if the retry is cancelled before it fires.
        """

        def fire() -> None:
            del self._pending[event]
            callback()

        event = self._engine.call_in(delay, fire, label=label)
        self._pending[event] = on_cancel

    def has(self, label: str) -> bool:
        """Whether a retry scheduled under *label* is still pending."""
        return any(event.label == label for event in self._pending)

    def cancel(self) -> None:
        """Cancel every pending retry (the client is going away)."""
        pending, self._pending = self._pending, {}
        for event, on_cancel in pending.items():
            event.cancel()
            if on_cancel is not None:
                on_cancel()


def _note_retry(telemetry, scope: str, attempt: int, error: BaseException, workload_id: str) -> None:
    """Record one client-side retry in the telemetry stream."""
    telemetry.bus.emit(
        EventType.RESILIENCE_RETRY,
        workload_id=workload_id,
        scope=scope,
        attempt=attempt,
        error=f"{error.__class__.__name__}: {error}",
    )
    telemetry.metrics.counter(
        "resilience_retries_total", "client-side retries against chaos faults"
    ).inc(scope=scope)


def note_dead_letter(telemetry, scope: str, detail: str, workload_id: str = "") -> None:
    """Record work abandoned past its retry budget (dead-letter accounting)."""
    telemetry.bus.emit(
        EventType.RESILIENCE_DEAD_LETTER,
        workload_id=workload_id,
        scope=scope,
        detail=detail,
    )
    telemetry.metrics.counter(
        "resilience_dead_letters_total", "operations dropped past max retry attempts"
    ).inc(scope=scope)
