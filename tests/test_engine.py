"""Event-loop ordering and horizon semantics."""

from __future__ import annotations

import numpy as np
import pytest

from oohsim.engine import Event, EventKind, SimEngine, SimulationError


def test_events_run_in_time_order():
    eng = SimEngine()
    seen = []
    for t in (5.0, 1.0, 3.0, 2.0, 4.0):
        eng.schedule_at(t, EventKind.WRITE, lambda ev: seen.append(ev.time))
    eng.run()
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert eng.now == 5.0
    assert eng.processed == 5


def test_ties_break_by_insertion_order():
    eng = SimEngine()
    seen = []
    for label in "abcde":
        eng.schedule_at(7.0, EventKind.WRITE, lambda ev: seen.append(ev.payload), label)
    eng.run()
    assert seen == list("abcde")


def test_handler_may_schedule_forward():
    eng = SimEngine()
    seen = []

    def chain(ev: Event) -> None:
        seen.append(eng.now)
        if ev.payload > 0:
            eng.schedule(2.0, EventKind.MIGRATION_ROUND, chain, ev.payload - 1)

    eng.schedule_at(1.0, EventKind.MIGRATION_ROUND, chain, 3)
    eng.run()
    assert seen == [1.0, 3.0, 5.0, 7.0]


def test_scheduling_into_the_past_raises():
    eng = SimEngine()

    def bad(ev: Event) -> None:
        eng.schedule_at(ev.time - 1.0, EventKind.WRITE, lambda e: None)

    eng.schedule_at(10.0, EventKind.WRITE, bad)
    with pytest.raises(SimulationError):
        eng.run()


def test_horizon_is_exclusive():
    eng = SimEngine(horizon_us=10.0)
    seen = []
    eng.schedule_at(9.999, EventKind.WRITE, lambda ev: seen.append(ev.time))
    eng.schedule_at(10.0, EventKind.WRITE, lambda ev: seen.append(ev.time))
    eng.schedule_at(11.0, EventKind.WRITE, lambda ev: seen.append(ev.time))
    eng.run()
    assert seen == [9.999]
    assert eng.now == 10.0  # clock parks at the horizon


def test_zero_horizon_runs_nothing():
    eng = SimEngine(horizon_us=0.0)
    seen = []
    eng.schedule_at(0.0, EventKind.WRITE, lambda ev: seen.append(1))
    eng.run()
    assert seen == []
    assert eng.processed == 0


def test_event_counts_by_kind():
    eng = SimEngine()
    for _ in range(3):
        eng.schedule(1.0, EventKind.WRITE, lambda ev: None)
    for _ in range(2):
        eng.schedule(2.0, EventKind.VMEXIT, lambda ev: None)
    eng.run()
    assert eng.event_counts == {"Write": 3, "VmExit": 2}


def test_kind_names_are_stable():
    assert {k.value for k in EventKind} == {"Write", "VmExit", "MigrationRound"}


def test_randomized_order_is_deterministic():
    rng = np.random.default_rng(42)
    times = rng.uniform(0.0, 100.0, size=500)
    runs = []
    for _ in range(2):
        eng = SimEngine()
        seen: list[tuple[float, int]] = []
        for i, t in enumerate(times):
            eng.schedule_at(float(t), EventKind.WRITE, lambda ev: seen.append((ev.time, ev.payload)), i)
        eng.run()
        runs.append(seen)
    assert runs[0] == runs[1]
    assert [t for t, _ in runs[0]] == sorted(t for t, _ in runs[0])
