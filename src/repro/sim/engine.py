"""The discrete-event simulation engine.

:class:`SimulationEngine` owns the virtual clock and the event queue.
Components schedule work with :meth:`~SimulationEngine.call_at` /
:meth:`~SimulationEngine.call_in` and periodic work with
:meth:`~SimulationEngine.every`.  :meth:`~SimulationEngine.run_until`
pops events in time order, advancing the clock to each event's
timestamp before invoking its callback.

The engine is deliberately synchronous and single-threaded: callbacks
run to completion and may schedule further events, which is all the
concurrency a middleware control plane needs at simulation fidelity.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Callback, Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.trace import EngineTracer


class SimulationEngine:
    """Single-clock discrete-event simulator.

    Args:
        seed: Master seed for the engine's :class:`RandomStreams`.
        tracer: Record every fired event into this
            :class:`~repro.sim.trace.EngineTracer` — a labeled,
            filterable trace with per-callback wall timings.  Also
            settable later through :attr:`tracer`; ``None`` (the
            default) keeps :meth:`_fire` on its untraced fast path.
    """

    def __init__(
        self,
        seed: int = 0,
        tracer: Optional[EngineTracer] = None,
    ) -> None:
        #: Current virtual time in seconds.  A plain attribute, read on
        #: every event; only the engine advances it.
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self.streams = RandomStreams(seed)
        self.tracer = tracer
        #: Called with ``(exc, event)`` when a callback raises, before
        #: the exception propagates — the flight recorder's last-gasp
        #: snapshot hook.  ``None`` (the default) keeps :meth:`_fire`
        #: on its zero-overhead path.
        self.error_hook: Optional[Callable[[BaseException, Event], None]] = None
        self._fired_events = 0
        self._tick_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def fired_events(self) -> int:
        """Total number of callbacks executed so far."""
        return self._fired_events

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callback, label: str = "") -> Event:
        """Schedule *callback* at absolute virtual *time*.

        Raises:
            SchedulingError: If *time* is in the past.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule {label or callback!r} at t={time:.3f}; now is t={self.now:.3f}"
            )
        return self._queue.push(time, callback, label)

    def call_in(self, delay: float, callback: Callback, label: str = "") -> Event:
        """Schedule *callback* after *delay* seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r} for {label or callback!r}")
        return self._queue.push(self.now + delay, callback, label)

    def every(
        self,
        interval: float,
        callback: Callback,
        label: str = "",
        start_at: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run *callback* every *interval* seconds until cancelled.

        Args:
            interval: Seconds between invocations.
            callback: Zero-argument callable.
            label: Trace label.
            start_at: Absolute time of the first invocation; defaults
                to ``now + interval``.

        Returns:
            A handle whose :meth:`PeriodicTask.cancel` stops the task.
        """
        if interval <= 0:
            raise SchedulingError(f"periodic interval must be positive, got {interval!r}")
        task = PeriodicTask(self, interval, callback, label)
        first = start_at if start_at is not None else self.now + interval
        task._arm(first)
        return task

    # ------------------------------------------------------------------
    # Tick hooks
    # ------------------------------------------------------------------
    def add_tick_hook(self, hook: Callable[[], None]) -> None:
        """Run *hook* whenever the clock is about to advance.

        Hooks fire (in registration order) just before the engine moves
        from one distinct timestamp to a later one, and once more at the
        end of every :meth:`run_until` / :meth:`run_until_idle` call.
        They are *not* events: no sequence numbers are consumed, nothing
        is traced, and :attr:`fired_events` does not move — event
        streams stay bit-identical whether hooks are installed or not.

        This is the coalescing point for per-tick write batching: the
        fleet state store flushes its pending DynamoDB batches here, so
        any number of same-timestamp mutations become one batched write
        per table per tick.  Hooks must not schedule events.
        """
        self._tick_hooks.append(hook)

    def remove_tick_hook(self, hook: Callable[[], None]) -> None:
        """Unregister *hook* (no-op when absent)."""
        try:
            self._tick_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> None:
        """Execute events in order until the clock reaches *time*.

        The clock is left exactly at *time* even if the queue drains
        earlier, so subsequent ``call_in`` calls are relative to the
        requested horizon.
        """
        if time < self.now:
            raise SimulationError(
                f"run_until target t={time:.3f} is before now t={self.now:.3f}"
            )
        if self._running:
            raise SimulationError("run_until called re-entrantly from a callback")
        self._running = True
        tracer = self.tracer
        hooks = self._tick_hooks
        run_started = perf_counter() if tracer is not None else 0.0
        fired_before = self._fired_events
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > time:
                    break
                if hooks and next_time > self.now:
                    for hook in hooks:
                        hook()
                event = self._queue.pop()
                assert event is not None and event.callback is not None
                self.now = event.time
                self._fired_events += 1
                self._fire(event)
            self.now = time
            for hook in hooks:
                hook()
        finally:
            self._running = False
            if tracer is not None:
                tracer.note_run(
                    perf_counter() - run_started, self._fired_events - fired_before
                )

    def run_until_idle(self, max_time: Optional[float] = None) -> None:
        """Execute events until the queue is empty (or *max_time*)."""
        if self._running:
            raise SimulationError("run_until_idle called re-entrantly from a callback")
        self._running = True
        tracer = self.tracer
        hooks = self._tick_hooks
        run_started = perf_counter() if tracer is not None else 0.0
        fired_before = self._fired_events
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if max_time is not None and next_time > max_time:
                    self.now = max_time
                    break
                if hooks and next_time > self.now:
                    for hook in hooks:
                        hook()
                event = self._queue.pop()
                assert event is not None and event.callback is not None
                self.now = event.time
                self._fired_events += 1
                self._fire(event)
            for hook in hooks:
                hook()
        finally:
            self._running = False
            if tracer is not None:
                tracer.note_run(
                    perf_counter() - run_started, self._fired_events - fired_before
                )

    def _fire(self, event: Event) -> None:
        """Invoke one callback, recording it when tracing is on.

        With a tracer attached, each record carries the callback's wall
        time *and* its heap churn (events it scheduled); with tracing
        off, the callback is invoked directly — no timing, no counters,
        so untraced runs stay bit-identical to pre-instrumentation
        builds.
        """
        tracer = self.tracer
        if tracer is None:
            if self.error_hook is None:
                event.callback()
                return
            try:
                event.callback()
            except BaseException as exc:
                self.error_hook(exc, event)
                raise
            return
        pushed_before = self._queue.pushes
        started = perf_counter()
        try:
            event.callback()
        except BaseException as exc:
            if self.error_hook is not None:
                self.error_hook(exc, event)
            raise
        finally:
            tracer.record(
                event.time,
                event.label,
                perf_counter() - started,
                self._queue.pushes - pushed_before,
            )

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        A reset engine reports zero :attr:`fired_events` and an empty
        trace.  Random streams are *not* reset; build a fresh engine
        for a fully independent run.
        """
        self._queue.clear()
        self.now = 0.0
        self._fired_events = 0
        if self.tracer is not None:
            self.tracer.clear()


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`SimulationEngine.every`."""

    def __init__(
        self,
        engine: SimulationEngine,
        interval: float,
        callback: Callback,
        label: str,
    ) -> None:
        self._engine = engine
        self._interval = interval
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None
        self._cancelled = False
        self.invocations = 0

    def _arm(self, at: float) -> None:
        if self._cancelled:
            return
        self._event = self._engine.call_at(at, self._fire, label=self._label)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.invocations += 1
        try:
            self._callback()
        finally:
            if not self._cancelled:
                self._arm(self._engine.now + self._interval)

    def cancel(self) -> None:
        """Stop the task; any queued next invocation is cancelled."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

