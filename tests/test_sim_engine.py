"""Unit tests for the simulation engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import HOUR, MINUTE, format_duration, hours, minutes
from repro.sim.engine import SimulationEngine
from repro.sim.trace import EngineTracer


def test_clock_starts_at_zero():
    assert SimulationEngine().now == 0.0


def test_call_at_fires_at_requested_time():
    engine = SimulationEngine()
    seen = []
    engine.call_at(10.0, lambda: seen.append(engine.now))
    engine.run_until(20.0)
    assert seen == [10.0]
    assert engine.now == 20.0


def test_call_in_is_relative_to_now():
    engine = SimulationEngine()
    seen = []
    engine.call_at(5.0, lambda: engine.call_in(3.0, lambda: seen.append(engine.now)))
    engine.run_until(100.0)
    assert seen == [8.0]


def test_scheduling_into_the_past_rejected():
    engine = SimulationEngine()
    engine.run_until(10.0)
    with pytest.raises(SchedulingError):
        engine.call_at(5.0, lambda: None)
    with pytest.raises(SchedulingError):
        engine.call_in(-1.0, lambda: None)


def test_run_until_does_not_fire_future_events():
    engine = SimulationEngine()
    seen = []
    engine.call_at(50.0, lambda: seen.append("late"))
    engine.run_until(49.0)
    assert seen == []
    engine.run_until(50.0)
    assert seen == ["late"]


def test_run_until_backwards_rejected():
    engine = SimulationEngine()
    engine.run_until(10.0)
    with pytest.raises(SimulationError):
        engine.run_until(5.0)


def test_run_until_idle_drains_queue():
    engine = SimulationEngine()
    seen = []
    engine.call_at(1.0, lambda: engine.call_in(1.0, lambda: seen.append("nested")))
    engine.run_until_idle()
    assert seen == ["nested"]
    assert engine.pending_events == 0


def test_run_until_idle_respects_max_time():
    engine = SimulationEngine()
    task = engine.every(10.0, lambda: None)
    engine.run_until_idle(max_time=35.0)
    assert engine.now == 35.0
    assert task.invocations == 3


def test_periodic_task_fires_on_interval():
    engine = SimulationEngine()
    times = []
    engine.every(MINUTE, lambda: times.append(engine.now))
    engine.run_until(5 * MINUTE)
    assert times == [60.0, 120.0, 180.0, 240.0, 300.0]


def test_periodic_task_start_at_override():
    engine = SimulationEngine()
    times = []
    engine.every(10.0, lambda: times.append(engine.now), start_at=0.0)
    engine.run_until(25.0)
    assert times == [0.0, 10.0, 20.0]


def test_periodic_task_cancel_stops_firing():
    engine = SimulationEngine()
    count = []
    task = engine.every(10.0, lambda: count.append(1))
    engine.run_until(25.0)
    task.cancel()
    engine.run_until(100.0)
    assert len(count) == 2
    assert task.cancelled


def test_periodic_interval_must_be_positive():
    with pytest.raises(SchedulingError):
        SimulationEngine().every(0.0, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = SimulationEngine()
    seen = []
    event = engine.call_at(5.0, lambda: seen.append("x"))
    event.cancel()
    engine.run_until(10.0)
    assert seen == []


def test_fired_events_counter():
    engine = SimulationEngine()
    for t in (1.0, 2.0, 3.0):
        engine.call_at(t, lambda: None)
    engine.run_until(10.0)
    assert engine.fired_events == 3


def test_trace_records_labels():
    engine = SimulationEngine(tracer=EngineTracer())
    engine.call_at(1.0, lambda: None, label="one")
    engine.run_until(2.0)
    assert engine.tracer.as_tuples() == [(1.0, "one")]


def test_reset_rewinds_clock_and_drops_events():
    engine = SimulationEngine()
    engine.call_at(5.0, lambda: None)
    engine.run_until(2.0)
    engine.reset()
    assert engine.now == 0.0
    assert engine.pending_events == 0


def test_named_streams_are_reproducible():
    a = SimulationEngine(seed=3).streams.get("x").random()
    b = SimulationEngine(seed=3).streams.get("x").random()
    c = SimulationEngine(seed=4).streams.get("x").random()
    assert a == b
    assert a != c


def test_clock_helpers():
    assert hours(2) == 2 * HOUR
    assert minutes(3) == 3 * MINUTE
    assert format_duration(93784) == "1d 02:03:04"
    assert format_duration(42.9) == "00:00:42"


# ----------------------------------------------------------------------
# Batched periodic work
# ----------------------------------------------------------------------
def test_every_batch_fires_callbacks_in_registration_order():
    engine = SimulationEngine()
    fired = []
    task = engine.every_batch(
        10.0, [lambda: fired.append("a"), lambda: fired.append("b")], label="batch"
    )
    engine.run_until(25.0)
    assert fired == ["a", "b", "a", "b"]
    assert task.invocations == 2  # ticks, not callback runs
    assert task.batch_size == 2


def test_every_batch_is_one_engine_event_per_tick():
    engine = SimulationEngine()
    callbacks = [lambda: None for _ in range(5)]
    engine.every_batch(10.0, callbacks)
    engine.run_until(30.0)
    assert engine.fired_events == 3  # one event per tick, not per callback


def test_every_batch_add_remove_live():
    engine = SimulationEngine()
    fired = []
    late = lambda: fired.append("late")  # noqa: E731
    task = engine.every_batch(10.0, [lambda: fired.append("base")])
    engine.run_until(10.0)
    task.add(late)
    engine.run_until(20.0)
    task.remove(late)
    task.remove(late)  # absent: no-op
    engine.run_until(30.0)
    assert fired == ["base", "base", "late", "base"]


def test_every_batch_rejects_bad_input():
    engine = SimulationEngine()
    with pytest.raises(SchedulingError):
        engine.every_batch(0.0, [lambda: None])
    with pytest.raises(SchedulingError):
        engine.every_batch(5.0, [lambda: None, None])
    task = engine.every_batch(5.0, [lambda: None])
    with pytest.raises(SchedulingError):
        task.add(None)


def test_every_batch_cancel_stops_firing():
    engine = SimulationEngine()
    fired = []
    task = engine.every_batch(10.0, [lambda: fired.append(engine.now)])
    engine.run_until(15.0)
    task.cancel()
    engine.run_until(60.0)
    assert fired == [10.0]


# ----------------------------------------------------------------------
# Tick hooks
# ----------------------------------------------------------------------
def test_tick_hooks_fire_between_distinct_timestamps():
    engine = SimulationEngine()
    log = []
    engine.add_tick_hook(lambda: log.append(("hook", engine.now)))
    engine.call_at(5.0, lambda: log.append(("a", 5.0)))
    engine.call_at(5.0, lambda: log.append(("b", 5.0)))
    engine.call_at(9.0, lambda: log.append(("c", 9.0)))
    engine.run_until(9.0)
    # Same-timestamp events share one hook boundary; a final hook runs
    # when run_until returns.
    assert log == [
        ("hook", 0.0),
        ("a", 5.0),
        ("b", 5.0),
        ("hook", 5.0),
        ("c", 9.0),
        ("hook", 9.0),
    ]


def test_tick_hooks_do_not_perturb_event_stream():
    def drive(install_hook):
        engine = SimulationEngine(tracer=EngineTracer())
        if install_hook:
            engine.add_tick_hook(lambda: None)
        engine.every(7.0, lambda: None, label="tick")
        engine.call_at(10.0, lambda: None, label="once")
        engine.run_until(50.0)
        return engine.fired_events, engine.tracer.as_tuples()

    assert drive(False) == drive(True)


def test_remove_tick_hook():
    engine = SimulationEngine()
    log = []
    hook = lambda: log.append(engine.now)  # noqa: E731
    engine.add_tick_hook(hook)
    engine.remove_tick_hook(hook)
    engine.remove_tick_hook(hook)  # absent: no-op
    engine.call_at(5.0, lambda: None)
    engine.run_until(10.0)
    assert log == []


def test_tick_hooks_fire_in_run_until_idle():
    engine = SimulationEngine()
    log = []
    engine.add_tick_hook(lambda: log.append(engine.now))
    engine.call_at(5.0, lambda: None)
    engine.run_until_idle()
    assert log == [0.0, 5.0]
