"""The event queue of the discrete-event simulator.

Events are ordered by (time, sequence number) so simultaneous events fire in
scheduling order, which keeps runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "EventQueue"]


@dataclass(order=True, frozen=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Virtual time at which the event fires.
    sequence:
        Monotonic tie-breaker assigned by the queue.
    action:
        Zero-argument callable executed when the event fires.
    """

    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at ``time``; returns the event handle."""
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        event = Event(time=time, sequence=next(self._counter), action=action)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event | None:
        """Pop and return the next event, or None if the queue is empty."""
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self) -> float | None:
        """Return the time of the next event without removing it."""
        return self._heap[0].time if self._heap else None
