"""Unit tests for the engine's event queue."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import COMPACT_MIN_ENTRIES, EventQueue


@pytest.fixture
def queue():
    return EventQueue()


def test_push_and_pop_in_time_order(queue):
    fired = []
    queue.push(5.0, lambda: fired.append("b"), label="b")
    queue.push(1.0, lambda: fired.append("a"), label="a")
    queue.push(9.0, lambda: fired.append("c"), label="c")
    order = []
    while queue:
        order.append(queue.pop().label)
    assert order == ["a", "b", "c"]


def test_equal_times_fire_in_scheduling_order(queue):
    for name in ("first", "second", "third"):
        queue.push(2.0, lambda: None, label=name)
    assert [queue.pop().label for _ in range(3)] == ["first", "second", "third"]


def test_len_counts_live_events(queue):
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    first.cancel()
    assert len(queue) == 1


def test_cancelled_event_is_skipped_by_pop(queue):
    doomed = queue.push(1.0, lambda: None, label="doomed")
    queue.push(2.0, lambda: None, label="live")
    doomed.cancel()
    assert queue.pop().label == "live"
    assert queue.pop() is None


def test_cancel_twice_is_idempotent(queue):
    event = queue.push(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert len(queue) == 0


def test_peek_time_skips_cancelled_head(queue):
    head = queue.push(1.0, lambda: None)
    queue.push(3.0, lambda: None)
    head.cancel()
    assert queue.peek_time() == 3.0


def test_peek_time_empty_returns_none(queue):
    assert queue.peek_time() is None


def test_push_none_callback_rejected(queue):
    with pytest.raises(SchedulingError):
        queue.push(1.0, None)


def test_clear_empties_queue(queue):
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert not queue
    assert queue.pop() is None


def test_cancelled_flag_exposed(queue):
    event = queue.push(1.0, lambda: None)
    assert not event.cancelled
    event.cancel()
    assert event.cancelled


def test_pushes_odometer_counts_lifetime_schedules(queue):
    queue.push(1.0, lambda: None)
    doomed = queue.push(2.0, lambda: None)
    doomed.cancel()
    queue.pop()
    assert queue.pushes == 2


# ----------------------------------------------------------------------
# Lazy-cancel compaction
# ----------------------------------------------------------------------
def test_compaction_reclaims_cancelled_entries(queue):
    events = [queue.push(float(i % 7), lambda: None, label=str(i)) for i in range(400)]
    for event in events[:300]:
        event.cancel()
    # Compaction keeps storage proportional to the live set (it fires
    # whenever more than half the stored entries are dead), so the 300
    # cancelled entries cannot all still be resident.
    assert len(queue) == 100
    assert len(queue._heap) <= 2 * len(queue)
    order = []
    while queue:
        order.append(queue.pop().label)
    assert order == [event.label for event in sorted(events[300:], key=lambda e: (e.time, e.seq))]


def test_small_queues_skip_compaction(queue):
    events = [queue.push(float(i), lambda: None) for i in range(COMPACT_MIN_ENTRIES // 2)]
    for event in events:
        event.cancel()
    # Below the compaction floor the dead entries stay until popped over.
    assert len(queue) == 0
    assert queue.pop() is None


# ----------------------------------------------------------------------
# Cancelling an event that already left the queue
# ----------------------------------------------------------------------
def test_cancel_after_pop_keeps_live_count(queue):
    fired = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is fired
    fired.cancel()
    assert fired.cancelled
    assert len(queue) == 1
    assert queue
    assert queue.pop().time == 2.0


def test_cancel_after_clear_keeps_live_count(queue):
    dropped = queue.push(1.0, lambda: None)
    queue.clear()
    dropped.cancel()
    assert len(queue) == 0
    queue.push(2.0, lambda: None)
    assert len(queue) == 1

