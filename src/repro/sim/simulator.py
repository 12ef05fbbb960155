"""The virtual clock and run loop of the discrete-event simulator."""

from __future__ import annotations

from typing import Callable

from repro.sim.events import Event, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """A simple discrete-event simulator.

    Events are callables scheduled a delay after the current virtual time; the
    run loop pops them in time order and executes them.  The simulator is
    deliberately minimal -- protocol behaviour lives in the agents, and the
    network fabric (:class:`repro.sim.network.Network`) is what schedules
    message deliveries.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._queue)

    def schedule_in(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self._queue.push(self._now + delay, action)

    def run(
        self,
        *,
        until: float | None = None,
        max_events: int | None = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the virtual time at which the run stopped.
        """
        while True:
            if max_events is not None and self._events_processed >= max_events:
                break
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            event = self._queue.pop()
            if event is None:
                break
            self._now = event.time
            event.action()
            self._events_processed += 1
        return self._now
