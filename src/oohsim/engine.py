"""Deterministic discrete-event core: virtual clock and ordered event queue.

Events are totally ordered by ``(time, seq)`` where ``seq`` is assigned
monotonically at insertion, so identical runs replay identically regardless
of handler complexity.  All simulated state changes flow through event
handlers; a handler may schedule further events but never in the past.
"""

from __future__ import annotations

import heapq
import itertools
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
    """

    def __init__(self, horizon_us: float | None = None):
        self.now: float = 0.0
        self.horizon_us = horizon_us
        self._queue: list[Event] = []
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
        ev = Event(time=time_us, seq=next(self._seq), kind=kind, handler=handler, payload=payload)
        heapq.heappush(self._queue, ev)
        return ev

    def run(self) -> None:
        last_key = (-1.0, -1)
        while self._queue:
            ev = heapq.heappop(self._queue)
            if self.horizon_us is not None and ev.time >= self.horizon_us:
                # Horizon reached: remaining events are abandoned; the clock
                # parks at the horizon so reports reflect the truncation.
                self.now = self.horizon_us
                self._queue.clear()
                return
            key = (ev.time, ev.seq)
            if key <= last_key:
                raise SimulationError(f"event order violation at {key}")
            last_key = key
            self.now = ev.time
            self.processed += 1
            self.event_counts[ev.kind.value] = (
                self.event_counts.get(ev.kind.value, 0) + 1
            )
            ev.handler(ev)
