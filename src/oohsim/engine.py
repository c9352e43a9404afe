"""Deterministic discrete-event core: virtual clock and ordered event queue.

Events are totally ordered by ``(time, seq)`` where ``seq`` is assigned
monotonically at insertion, so identical runs replay identically regardless
of handler complexity.  All simulated state changes flow through event
handlers; a handler may schedule further events but never in the past.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

__all__ = ["EventKind", "Event", "SimEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on violations of the event-ordering contract."""


class EventKind(Enum):
    WRITE = "Write"
    VMEXIT = "VmExit"
    MIGRATION_ROUND = "MigrationRound"


@dataclass(order=True)
class Event:
    """One scheduled event, handed to its handler when it runs.

    Events compare by ``(time, seq)``; the engine's queue orders them by the
    same key, kept beside each event, so running one compares no events.
    """

    time: float
    seq: int
    kind: EventKind = field(compare=False)
    handler: Callable[["Event"], None] = field(compare=False, repr=False)
    payload: Any = field(compare=False, default=None)


class SimEngine:
    """Virtual-time event loop.

    ``horizon_us`` bounds execution: events at or beyond the horizon are not
    executed (a zero horizon therefore runs nothing).  ``now`` only moves
    forward; scheduling into the past raises :class:`SimulationError`.

    The queue is a heap of ``(time, seq, event)`` tuples.  ``event_counts``
    counts the events run by their kind's value, read as ``_value_``: the
    ``value`` property and an enum member's hash are Python calls.

    A handler may apply, in one step, work that falls strictly before
    :meth:`next_time` (and the horizon) and schedules nothing: no other event
    can run in between, so everything happens in the order one event per step
    would give.  The migration applies its writes between events this way.
    """

    def __init__(self, horizon_us: float | None = None):
        self.now: float = 0.0
        self.horizon_us = horizon_us
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.processed = 0
        self.event_counts: dict[str, int] = {}

    def schedule(
        self,
        delay_us: float,
        kind: EventKind,
        handler: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        return self.schedule_at(self.now + delay_us, kind, handler, payload)

    def schedule_at(
        self,
        time_us: float,
        kind: EventKind,
        handler: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        if time_us < self.now:
            raise SimulationError(
                f"cannot schedule {kind} at {time_us} before now={self.now}"
            )
        seq = next(self._seq)
        ev = Event(time_us, seq, kind, handler, payload)
        heapq.heappush(self._queue, (time_us, seq, ev))
        return ev

    def next_time(self) -> float:
        """The time of the next queued event, or ``inf`` when none is queued."""
        return self._queue[0][0] if self._queue else math.inf

    def run(self) -> None:
        queue, counts, horizon = self._queue, self.event_counts, self.horizon_us
        pop = heapq.heappop
        last_time, last_seq = -1.0, -1
        while queue:
            time, seq, ev = pop(queue)
            if horizon is not None and time >= horizon:
                # Horizon reached: remaining events are abandoned; the clock
                # parks at the horizon so reports reflect the truncation.
                self.now = horizon
                queue.clear()
                return
            if time < last_time or (time == last_time and seq <= last_seq):
                raise SimulationError(f"event order violation at {(time, seq)}")
            last_time, last_seq = time, seq
            self.now = time
            self.processed += 1
            kind = ev.kind._value_
            counts[kind] = counts.get(kind, 0) + 1
            ev.handler(ev)
