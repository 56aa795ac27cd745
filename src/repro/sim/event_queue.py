"""Event calendar: a stable, cancellable binary-heap priority queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering *stable*: two events scheduled for the same time and
priority fire in the order they were scheduled, which keeps the simulation
deterministic.  Cancellation is lazy — cancelled entries stay in the heap
and are skipped on pop — which is the standard O(log n) approach and, per
the HPC guides, is both the simple and the fast choice here.

Performance notes
-----------------
Heap entries are plain ``(time, priority, seq, event)`` tuples rather
than wrapper objects: ``seq`` is unique, so tuple comparison resolves in
C without ever comparing the trailing :class:`Event`, and every sift
during push/pop avoids a Python-level ``__lt__`` call.  The engine's hot
loop uses :meth:`EventQueue.pop_ready`, which fuses the peek + pop pair
into a single pass over the cancelled prefix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SimulationError

EventCallback = Callable[["Event"], None]


@dataclass(slots=True)
class Event:
    """A scheduled occurrence in virtual time.

    Attributes:
        time: firing time in integer microseconds.
        priority: tie-break rank for events at the same time (lower fires
            first).  Kernel-internal events use low values so that, e.g.,
            a timer expiry is processed before same-instant user activity.
        seq: global scheduling sequence number (stable tie break).
        callback: function invoked with the event when it fires.
        payload: arbitrary data for the callback.
        tag: short human-readable label used by tracing and debugging.
    """

    time: int
    priority: int
    seq: int
    callback: EventCallback
    payload: Any = None
    tag: str = ""
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.time, self.priority, self.seq)


class EventHandle:
    """Opaque handle returned by :meth:`EventQueue.schedule`.

    Holding a handle allows the scheduler of an event to cancel it later
    (e.g. a kernel callout that is no longer needed).
    """

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: "EventQueue") -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> int:
        """Scheduled firing time of the underlying event."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the event is pending (not fired, not cancelled)."""
        return not self._event.cancelled and not self._event.fired

    def cancel(self) -> None:
        """Cancel the event.  Cancelling twice (or after firing) is harmless."""
        if not self._event.cancelled and not self._event.fired:
            self._event.cancelled = True
            self._queue._live -= 1


class EventQueue:
    """Binary-heap event calendar with stable ordering and lazy deletion."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        # Entries are (time, priority, seq, event); seq is unique so
        # comparisons never reach the Event object.
        self._heap: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return self._live

    def schedule(
        self,
        time: int,
        callback: EventCallback,
        priority: int = 0,
        payload: Any = None,
        tag: str = "",
    ) -> EventHandle:
        """Insert an event and return a cancellable handle.

        ``priority``/``payload``/``tag`` accept positional calls too:
        the kernel's burst/callout arming is hot enough that keyword
        binding shows up in profiles.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        self._seq += 1
        seq = self._seq
        event = Event(time, priority, seq, callback, payload, tag)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def peek_time(self) -> Optional[int]:
        """Firing time of the next pending event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next pending event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        event = heapq.heappop(heap)[3]
        self._live -= 1
        event.fired = True
        return event

    def pop_ready(self, until: int) -> Optional[Event]:
        """Pop the next pending event if it fires at or before ``until``.

        Fuses ``peek_time`` + ``pop`` into one cancelled-prefix scan —
        the engine run loop's fast path.  Returns None when the queue is
        empty or the next event fires after ``until``.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].cancelled:
                heapq.heappop(heap)
                continue
            if head[0] > until:
                return None
            event = heapq.heappop(heap)[3]
            self._live -= 1
            event.fired = True
            return event
        return None

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._live = 0
