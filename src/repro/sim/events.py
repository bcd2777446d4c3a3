"""Event objects and the time-ordered event queue.

:class:`EventQueue` is a binary min-heap whose pops are ordered by
``(time, sequence)``, where the sequence number is a monotonically
increasing counter assigned at scheduling time, which makes pops
deterministic when several events share a timestamp: they fire in
scheduling order.

Cancellation is lazy — ``Event.cancel`` is O(1) and the entry is
discarded when encountered — and the heap is compacted when more than
half the stored entries are dead, so cancel-heavy runs (reclaim storms
re-arming timers, chaos campaigns) do not balloon memory.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SchedulingError

Callback = Callable[[], Any]

#: Entry count below which lazy-cancel compaction is never attempted —
#: rebuilding tiny queues costs more than the dead entries they hold.
COMPACT_MIN_ENTRIES = 64


class Event:
    """A scheduled callback.

    Attributes:
        time: Absolute virtual time at which the callback fires.
        seq: Scheduling-order tie-breaker assigned by the queue.
        callback: Zero-argument callable run by the engine.
        label: Human-readable tag used in traces and error messages.
    """

    __slots__ = ("time", "seq", "callback", "label", "_cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Optional[Callback],
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self._cancelled = False
        self._queue = queue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"Event(t={self.time:.3f}, seq={self.seq}, label={self.label!r}, {state})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Cancellation is O(1); the entry stays in the heap until its
        timestamp is reached and is then discarded.  Cancelling twice
        is a no-op, and cancelling an event that already left its
        queue (fired, or dropped by :meth:`EventQueue.clear`) leaves
        that queue's live count alone.
        """
        if self._cancelled:
            return
        self._cancelled = True
        self.callback = None  # break reference cycles promptly
        if self._queue is not None:
            self._queue._note_cancel()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects.

    Attributes:
        pushes: Lifetime count of scheduled events — the heap-churn
            odometer the engine profiler diffs around each callback.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        self.pushes = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def _note_cancel(self) -> None:
        self._live -= 1
        # Rebuild without cancelled entries once more than half the
        # stored entries are dead, so reclaim-storm runs that cancel
        # thousands of timers keep the heap proportional to the *live*
        # set.
        heap = self._heap
        if len(heap) > COMPACT_MIN_ENTRIES and self._live * 2 < len(heap):
            self._heap = [entry for entry in heap if not entry[2]._cancelled]
            heapq.heapify(self._heap)

    def push(self, time: float, callback: Callback, label: str = "") -> Event:
        """Schedule *callback* at absolute *time* and return its event."""
        if callback is None:
            raise SchedulingError("cannot schedule a None callback")
        seq = next(self._counter)
        event = Event(time, seq, callback, label, self)
        # ``seq`` is unique, so entries compare without reaching the event.
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        self.pushes += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None``.

        Cancelled events at the head of the heap are dropped eagerly so
        the returned time always refers to an event that will fire.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2]._cancelled:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` when empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event._cancelled:
                continue
            self._live -= 1
            event._queue = None  # no longer counted live
            return event
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[2]._queue = None
        self._heap.clear()
        self._live = 0
