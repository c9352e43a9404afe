"""Tracker engines: per-technique costs, ordering, and engine equivalence."""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import reduce
from itertools import accumulate, repeat
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oohsim import trackers
from oohsim.checkpoint import CheckpointSession
from oohsim.costs import PAGE_SIZE, CostTable
from oohsim.experiments import ConfigError, ExperimentConfig
from oohsim.guest import TECHNIQUES
from oohsim.memory import AlreadyMapped, GuestPageTable, UnknownMapping, _PageMap
from oohsim.pml import BUFFER_SLOTS
from oohsim.trackers import (
    TRACKED_PID,
    TrackerConfig,
    TrackerPhaseReport,
    WrongTechnique,
    drain_ring,
    run_tracker,
    spml_bottleneck_breakdown,
    to_run_row,
    tracked_machine,
)
from oohsim.vm import VirtualMachine
from oohsim.workloads import KvWorkloadSpec, TraceWorkload, churn_trace, random_trace

import knobs
from helpers import time_doubled

MB = 1 << 20
GB = 1000 * MB


def cfg(technique, memory_bytes, **kw):
    return TrackerConfig(technique=technique, memory_bytes=memory_bytes, **kw)


def _suspension_fraction(rep: TrackerPhaseReport) -> float:
    """The share of the monitored span the tracked process spent suspended."""
    return rep.tracked_suspension_total_us / rep.monitor_span_us


# --------------------------------------------------------------------- config


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrackerConfig(technique="pml")
    with pytest.raises(ValueError):
        TrackerConfig(technique="proc", rounds=-1)
    with pytest.raises(ValueError):
        TrackerConfig(technique="proc", quantum_us=0)
    with pytest.raises(ValueError, match="'panic'"):
        TrackerConfig(technique="spml", ring_capacity=1024, ring_full_policy="panic")


def test_config_rejects_a_ring_that_can_never_take_an_spml_flush():
    with pytest.raises(ValueError, match="ring_capacity"):
        TrackerConfig(technique="spml", ring_capacity=256)
    # dropping, or a technique that never flushes to the ring, stays valid
    TrackerConfig(technique="spml", ring_capacity=256, ring_full_policy="drop")
    TrackerConfig(technique="epml", ring_capacity=256)
    TrackerConfig(technique="spml", ring_capacity=512)


# how ExperimentConfig spells a TrackerConfig field, where it differs
_EXPERIMENT_KEY = {"technique": "techniques", "memory_bytes": "memory_sizes"}
_SESSION_FIELDS = {"technique", "memory_bytes", "ring_capacity"}


@pytest.mark.parametrize(
    "field, bad",
    [
        ("technique", {"technique": "pml"}),
        ("rounds", {"rounds": -1}),
        ("memory_bytes", {"memory_bytes": 0}),
        ("quantum_us", {"quantum_us": 0}),
        ("quantum_us", {"quantum_us": float("nan")}),
        ("collection_interval_us", {"collection_interval_us": 0}),
        ("collection_interval_us", {"collection_interval_us": float("nan")}),
        ("ring_capacity", {"ring_capacity": 0}),
        ("ring_capacity", {"ring_capacity": -4}),
        ("ring_full_policy", {"ring_full_policy": "panic"}),
        ("ring_capacity", {"technique": "spml", "ring_capacity": 256}),
        ("horizon_us", {"horizon_us": -1}),
        ("horizon_us", {"horizon_us": float("nan")}),
        ("collection_interval_us", {"collection_interval_us": math.inf}),
        ("collection_interval_us", {"technique": "spml", "collection_interval_us": math.inf}),
    ],
)
def test_bad_run_field_is_rejected_by_every_entry_point(field, bad):
    # each rule lives in TrackerConfig; the experiment config and the
    # checkpoint session must reject the same value at construction
    kwargs = {"technique": "epml", "memory_bytes": 16 * PAGE_SIZE, **bad}
    with pytest.raises(ValueError, match=f"^{field}:"):
        TrackerConfig(**kwargs)
    mapping = {_EXPERIMENT_KEY.get(k, k): str(v) for k, v in kwargs.items()}
    with pytest.raises(ConfigError, match=f"^{_EXPERIMENT_KEY.get(field, field)}:"):
        ExperimentConfig.from_mapping(mapping)
    if set(bad) <= _SESSION_FIELDS:
        with pytest.raises(ValueError, match=f"^{field}:"):
            CheckpointSession(**kwargs)


@pytest.mark.parametrize("mechanical", [False, True])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_an_infinite_interval_is_rejected_where_a_collector_ticks(technique, mechanical):
    # spml and epml runs tick at the interval: an infinite one once crashed
    # both engines' tick arithmetic; proc and uffd runs schedule no tick
    def report(interval_us):
        config = cfg(technique, 4 * MB, rounds=2, collection_interval_us=interval_us,
                     mechanical=mechanical)
        return _field_bits(run_tracker(config))

    if technique in ("spml", "epml"):
        with pytest.raises(ValueError, match="^collection_interval_us: must be finite"):
            report(math.inf)
    else:
        assert report(math.inf) == report(1_000.0)


def test_pages_rounding():
    assert TrackerConfig(technique="proc", memory_bytes=1).pages == 1
    assert TrackerConfig(technique="proc", memory_bytes=GB).pages == 256_000


# ------------------------------------------------- per-technique cost shapes


def test_softdirty_one_gb_overhead_and_suspension():
    rep = run_tracker(cfg("proc", GB))
    assert rep.ideal_us == pytest.approx(13 * 256_000 * 0.9)
    assert rep.overhead_tracked_pct == pytest.approx(273.44, abs=0.5)
    assert _suspension_fraction(rep) == pytest.approx(0.6932, abs=0.005)
    assert rep.vmexits == 0 and rep.dropped == 0
    assert not rep.truncated
    # collection walk+clear happen once per round
    assert rep.collect_parts["walk_us"] == pytest.approx(13 * 594_187.0)
    assert rep.collect_parts["other_us"] == pytest.approx(13 * 2_234.0)


def test_writeprotect_one_gb_overhead_and_suspension():
    rep = run_tracker(cfg("uffd", GB))
    assert rep.overhead_tracked_pct == pytest.approx(1526.3, abs=1.0)
    assert _suspension_fraction(rep) == pytest.approx(0.9385, abs=0.002)
    # the monitor thread resolves every fault: busy time == suspension
    assert rep.tracker_busy_us == pytest.approx(rep.tracked_suspension_total_us)
    assert not rep.truncated


def test_extended_log_one_gb_stays_under_one_percent():
    rep = run_tracker(cfg("epml", GB))
    assert 0.05 < rep.overhead_tracked_pct < 1.0
    assert rep.vmexits == 0  # never exits to the hypervisor
    assert rep.dropped == 0
    assert rep.softirq_copies > 6_000  # ~500 buffer-full copies per round
    assert rep.n_sched_events >= 2


def test_ring_log_50mb_throttled_by_collector():
    rep = run_tracker(cfg("spml", 50 * MB))
    assert 1_400 < rep.overhead_tracked_pct < 1_800
    # most full events exit; quantum-boundary flushes absorb the remainder
    assert 250 <= rep.vmexits <= 13 * 12_800 // 512
    assert _suspension_fraction(rep) > 0.8  # mostly stalled on the full ring
    assert not rep.truncated


def test_ring_log_one_gb_hits_the_horizon():
    rep = run_tracker(cfg("spml", GB))
    assert rep.truncated
    assert rep.monitor_span_us == pytest.approx(60_000_000.0)
    assert rep.writes_done < 13 * 256_000
    assert 6_000 < rep.overhead_tracked_pct < 7_600


def test_overhead_ordering_at_50_and_100_mb():
    for size in (50 * MB, 100 * MB):
        by_tech = {
            t: run_tracker(cfg(t, size)).overhead_tracked_pct
            for t in ("proc", "uffd", "spml", "epml")
        }
        assert (
            by_tech["epml"] < by_tech["proc"] < by_tech["uffd"] < by_tech["spml"]
        ), f"ordering broken at {size}: {by_tech}"


# ------------------------------------------------------- engine equivalence


@pytest.mark.parametrize(
    ("technique", "mb", "ring"),
    [  # the 4 MB shape is named by its technique alone
        pytest.param(tech, mb, ring, id=f"{tech}-{mb}MB-ring{ring}" if mb > 4 else tech)
        for mb, ring in ((4, 16384), (16, 16384), (16, 2048))
        for tech in TECHNIQUES
    ],
)
def test_segment_engine_matches_mechanical_engine(technique, mb, ring):
    kw = dict(
        memory_bytes=mb * MB,  # 1024 or 4096 pages
        rounds=3,
        quantum_us=2_000.0,
        collection_interval_us=1_000.0,
        ring_capacity=ring,
    )
    seg = run_tracker(cfg(technique, **kw))
    mech = run_tracker(cfg(technique, mechanical=True, **kw))
    pages = mb * MB // PAGE_SIZE
    assert mech.writes_done == seg.writes_done == 3 * pages
    assert mech.rounds_done == seg.rounds_done == 3
    assert mech.vmexits == seg.vmexits
    assert mech.softirq_copies == seg.softirq_copies
    assert mech.n_sched_events == seg.n_sched_events
    assert mech.dropped == seg.dropped == 0
    # both engines charge each collection event at one price, so where every
    # count agrees the collector's µs agree bit for bit; uffd's fault µs are
    # added per write on one engine and per stretch on the other
    assert mech.init_time_us == seg.init_time_us
    assert mech.collect_time_us == seg.collect_time_us
    assert mech.collect_parts == seg.collect_parts
    rel = 1e-6
    if technique == "uffd":
        assert mech.tracker_busy_us == pytest.approx(seg.tracker_busy_us, rel=rel, abs=1e-6)
    else:
        assert mech.tracker_busy_us == seg.tracker_busy_us
    assert mech.monitor_span_us == pytest.approx(seg.monitor_span_us, rel=rel)
    assert mech.tracked_suspension_total_us == pytest.approx(
        seg.tracked_suspension_total_us, rel=rel, abs=1e-6
    )


def _overridden_table() -> CostTable:
    table = CostTable.default()
    table.apply_overrides(
        {"M1": 0.5, "M8": 1.2, "M9": 6000.0, "M5@4MB": 0.05, "M15@4MB": 0.06, "M18@4MB": 0.02}
    )
    return table


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize(
    ("size", "calibrated"), [(MB, False), (4 * MB, False), (GB, False), (4 * MB, True)]
)
def test_every_charge_is_read_from_the_price_list(technique, size, calibrated):
    table = _overridden_table() if calibrated else CostTable.default()
    prices = table.prices(size)
    assert prices.m15 == table.cost_us("M15", size)
    assert prices.m18_pp == table.per_page_us("M18", size)
    assert prices.uffd_fault == table.per_page_us("M5", size) + table.per_page_us("M6", size)
    seg, mech = (
        run_tracker(cfg(technique, size, rounds=0, table=table, mechanical=m)) for m in (False, True)
    )
    assert seg.init_time_us == mech.init_time_us == prices.init_us(technique)

    vm, gvas = tracked_machine(cfg(technique, size, table=table))
    kern = vm.kernel
    assert kern.uio.prices == prices
    assert kern.on_schedule(TRACKED_PID, "in") == prices.sched_us(technique, "in")
    for gva in gvas[:5]:
        vm.write_one(TRACKED_PID, gva)
    if technique == "epml":
        assert kern.deliver_guest_buffer_full(TRACKED_PID) == (5, prices.copy_us(5))
    if technique == "proc":
        assert kern.read_pagemap(TRACKED_PID)[1] == prices.m16
        assert kern.clear_soft_dirty(TRACKED_PID)[1] == prices.m15
    assert kern.on_schedule(TRACKED_PID, "out") == prices.sched_us(technique, "out")


@settings(deadline=None)
# spml ticks on both engines, deferred ones, and epml copies into a small tool ring
@example(config=cfg("spml", 4 * MB, rounds=3, ring_capacity=1024))
@example(config=cfg("spml", 4 * MB, rounds=3, ring_capacity=512, mechanical=True))
@example(config=cfg("spml", 4 * MB, rounds=3, defer_reverse_map=True, mechanical=True))
@example(config=cfg("epml", 4 * MB, rounds=3, collection_interval_us=40.0, ring_capacity=512,
                    mechanical=True))
@given(config=st.one_of(*map(knobs.runs, knobs.ENGINES)))
def test_tracker_times_scale_with_every_price(config):
    """Doubling every µs and ms price, the quantum, the collection interval and
    the horizon doubles every µs of the report exactly (a double of a float is
    exact through every sum, difference and product, and a quotient of two
    doubled values is unchanged), and changes no count, flag or page set.  A
    µs literal outside the price list, or a time compared with an absolute
    epsilon, breaks it."""
    doubled = replace(
        config, table=time_doubled(config.cost_table()), quantum_us=2 * config.quantum_us,
        collection_interval_us=2 * config.collection_interval_us,
        horizon_us=2 * config.horizon_us,
    )
    base, twice = run_tracker(config), run_tracker(doubled)
    for f in fields(base):
        want, got = getattr(base, f.name), getattr(twice, f.name)
        if isinstance(want, float):
            assert got == 2 * want, f.name
        elif f.name == "collect_parts":
            assert got == {part: 2 * us for part, us in want.items()}
        else:
            assert got == want, f.name


@settings(deadline=None)
@given(config=st.one_of(*(knobs.runs(engine, ("spml", "epml")) for engine in knobs.ENGINES)))
def test_untruncated_runs_do_the_same_writes_under_every_technique(config):
    """The tracker changes what a run costs, not what it does: an untruncated
    run reports the same ``writes_done`` and ``ideal_us`` under all four
    techniques.  The knobs are drawn for a ticking technique, so every
    technique accepts them (``proc`` and ``uffd`` schedule no tick); where the
    drawn horizon truncates a run, the four run again with none."""
    reports = [run_tracker(replace(config, technique=tech)) for tech in TECHNIQUES]
    if any(report.truncated for report in reports):
        reports = [
            run_tracker(replace(config, technique=tech, horizon_us=math.inf))
            for tech in TECHNIQUES
        ]
    done = [(report.truncated, report.writes_done, report.ideal_us) for report in reports]
    assert done == [(False, reports[0].writes_done, reports[0].ideal_us)] * len(TECHNIQUES)


@pytest.mark.parametrize("technique", ["proc", "uffd", "spml", "epml"])
def test_mechanical_collects_exact_dirty_set(technique):
    rep = run_tracker(cfg(technique, 4 * MB, rounds=2, mechanical=True))
    assert rep.dirty_set is not None
    assert len(rep.dirty_set) == 1024
    assert rep.missed == set()
    assert rep.inaccurate == set()


# ------------------------------------------- mechanical output, pinned values

# Recorded from the mechanical engine while its per-write results were still
# frozen dataclasses.  A speed-up of the write path must reproduce every row;
# a row may only change with a deliberate change of the per-write semantics.
# Row layout:
_PINNED_FIELDS = (
    "writes_done",
    "vmexits",
    "softirq_copies",
    "dropped",
    "n_sched_events",
    "dirty_pages",
    "missed",
    "monitor_span_us",
    "tracker_busy_us",
)


def _pinned_row(rep):
    return (
        rep.writes_done,
        rep.vmexits,
        rep.softirq_copies,
        rep.dropped,
        rep.n_sched_events,
        rep.dirty_pages,
        len(rep.missed),
        rep.monitor_span_us,
        rep.tracker_busy_us,
    )


def _mechanical_grid():
    """(technique, MB, ring, policy, defer_reverse_map) over the knob space.

    A ring smaller than the 512-entry buffer can never take an spml flush
    under ``stall``, so that corner is rejected by the config and left out.
    """
    for tech in TECHNIQUES:
        for mb in (1, 4):
            for ring in (256, 1024, 16384):
                for policy in ("stall", "drop"):
                    if tech == "spml" and ring < BUFFER_SLOTS and policy == "stall":
                        continue
                    for defer in (False, True) if tech == "spml" else (False,):
                        yield tech, mb, ring, policy, defer


# (technique, MB, ring_capacity, ring_full_policy, defer_reverse_map) -> row
_PINNED_MECHANICAL = {
    ("proc", 1, 256, "stall", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 256, "drop", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 1024, "stall", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 1024, "drop", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 16384, "stall", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 16384, "drop", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 4, 256, "stall", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 256, "drop", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 1024, "stall", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 1024, "drop", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 16384, "stall", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 16384, "drop", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("uffd", 1, 256, "stall", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 256, "drop", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 1024, "stall", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 1024, "drop", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 16384, "stall", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 16384, "drop", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 4, 256, "stall", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 256, "drop", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 1024, "stall", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 1024, "drop", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 16384, "stall", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 16384, "drop", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("spml", 1, 256, "drop", False): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 256, "drop", True): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 1024, "stall", False): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 1024, "stall", True): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 1024, "drop", False): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 1024, "drop", True): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 16384, "stall", False): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 16384, "stall", True): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 16384, "drop", False): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 1, 16384, "drop", True): (768, 0, 0, 0, 2, 256, 0, 733.5, 8098.0),
    ("spml", 4, 256, "drop", False): (3072, 5, 0, 1664, 2, 768, 256, 13267.1, 23075.375),
    ("spml", 4, 256, "drop", True): (3072, 5, 0, 1280, 2, 768, 256, 13267.1, 27704.75),
    ("spml", 4, 1024, "stall", False): (3072, 5, 0, 0, 2, 1024, 0, 26595.2333333, 43136.0),
    ("spml", 4, 1024, "stall", True): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 1024, "drop", False): (3072, 5, 0, 896, 2, 1024, 0, 13267.1, 32334.125),
    ("spml", 4, 1024, "drop", True): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "stall", False): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "stall", True): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "drop", False): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "drop", True): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("epml", 1, 256, "stall", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 256, "drop", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 1024, "stall", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 1024, "drop", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 16384, "stall", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 16384, "drop", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 4, 256, "stall", False): (3072, 0, 7, 512, 2, 512, 512, 2778.029, 0.0),
    ("epml", 4, 256, "drop", False): (3072, 0, 7, 512, 2, 512, 512, 2778.029, 0.0),
    ("epml", 4, 1024, "stall", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 1024, "drop", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 16384, "stall", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 16384, "drop", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
}

# The segment engine's rows over the same grid (keys as above) and over the
# ``_EDGE_SHAPES`` below (keyed (shape, technique); 4 MB, three rounds),
# recorded before its run loop and the mechanical engine's shared one
# skeleton.  The engines differ on some of these rows (ROADMAP open item 3);
# each is pinned to itself.  The grid's deferred spml keys have no row: a
# deferred sweep runs on the mechanical engine, whichever engine it asks for.
_PINNED_SEGMENT = {
    ("proc", 1, 256, "stall", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 256, "drop", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 1024, "stall", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 1024, "drop", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 16384, "stall", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 1, 16384, "drop", False): (768, 0, 0, 0, 2, 256, 0, 6532.2, 5832.0),
    ("proc", 4, 256, "stall", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 256, "drop", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 1024, "stall", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 1024, "drop", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 16384, "stall", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("proc", 4, 16384, "drop", False): (3072, 0, 0, 0, 4, 1024, 0, 21529.0, 18458.2),
    ("uffd", 1, 256, "stall", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 256, "drop", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 1024, "stall", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 1024, "drop", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 16384, "stall", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 1, 16384, "drop", False): (768, 0, 0, 0, 2, 256, 0, 8200.2, 7509.0),
    ("uffd", 4, 256, "stall", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 256, "drop", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 1024, "stall", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 1024, "drop", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 16384, "stall", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("uffd", 4, 16384, "drop", False): (3072, 0, 0, 0, 2, 1024, 0, 35370.8, 32606.0),
    ("spml", 1, 256, "drop", False): (768, 1, 0, 256, 2, 256, 0, 2823.5, 14284.0),
    ("spml", 1, 1024, "stall", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 1024, "drop", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 16384, "stall", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 16384, "drop", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 4, 256, "drop", False): (3072, 5, 0, 1664, 2, 1024, 0, 13267.1, 23075.375),
    ("spml", 4, 1024, "stall", False): (3072, 5, 0, 0, 2, 1024, 0, 26595.2333333, 43136.0),
    ("spml", 4, 1024, "drop", False): (3072, 5, 0, 896, 2, 1024, 0, 13267.1, 32334.125),
    ("spml", 4, 16384, "stall", False): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "drop", False): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("epml", 1, 256, "stall", False): (768, 0, 3, 512, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 256, "drop", False): (768, 0, 3, 512, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 1024, "stall", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 1024, "drop", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 16384, "stall", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 1, 16384, "drop", False): (768, 0, 3, 0, 2, 256, 0, 704.484, 0.0),
    ("epml", 4, 256, "stall", False): (3072, 0, 6, 2304, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 256, "drop", False): (3072, 0, 6, 2304, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 1024, "stall", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 1024, "drop", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 16384, "stall", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
    ("epml", 4, 16384, "drop", False): (3072, 0, 6, 0, 2, 1024, 0, 2786.029, 0.0),
    ("midround", "proc"): (2048, 0, 0, 0, 2, 1024, 0, 7500.0, 12305.4666667),
    ("midround", "uffd"): (2048, 0, 0, 0, 2, 1024, 0, 17685.4, 21737.3333333),
    ("midround", "spml"): (1537, 3, 0, 0, 2, 1024, 0, 6633.5, 5400.9375),
    ("midround", "epml"): (1537, 0, 4, 0, 2, 1024, 0, 1393.0, 0.0),
    ("roundend", "proc"): (1024, 0, 0, 0, 2, 1024, 0, 1023.1, 6152.73333333),
    ("roundend", "uffd"): (1024, 0, 0, 0, 2, 1024, 0, 11784.51, 10868.6666667),
    ("roundend", "spml"): (1024, 1, 0, 0, 2, 1024, 0, 3013.117, 2314.6875),
    ("roundend", "epml"): (1024, 0, 2, 0, 2, 1024, 0, 925.734, 0.0),
    ("early", "proc"): (1024, 0, 0, 0, 2, 1024, 0, 300.0, 6152.73333333),
    ("early", "uffd"): (1024, 0, 0, 0, 2, 1024, 0, 300.0, 10868.6666667),
    ("early", "spml"): (513, 1, 0, 0, 2, 513, 0, 300.0, 1543.125),
    ("early", "epml"): (513, 0, 2, 0, 2, 513, 0, 300.0, 0.0),
    ("stall", "proc"): (1024, 0, 0, 0, 2, 1024, 0, 5000.0, 6152.73333333),
    ("stall", "uffd"): (1024, 0, 0, 0, 2, 1024, 0, 5000.0, 10868.6666667),
    ("stall", "spml"): (1025, 1, 0, 0, 2, 1024, 0, 5000.0, 3086.25),
    ("stall", "epml"): (3072, 0, 6, 1536, 2, 1024, 0, 2786.029, 0.0),
    ("events", "proc"): (3072, 0, 0, 0, 124, 1024, 0, 21529.0, 18458.2),
    ("events", "uffd"): (3072, 0, 0, 0, 112, 1024, 0, 35370.8, 32606.0),
    ("events", "spml"): (3072, 0, 0, 0, 112, 1024, 0, 5226.93333333, 43136.0),
    ("events", "epml"): (3072, 0, 58, 0, 112, 1024, 0, 2986.054, 0.0),
}

# (seed, technique, ring_capacity) -> row; random_trace(seed), default policy
_PINNED_TRACES = {
    (0, "proc", 1024): (163, 0, 0, 0, 2, 160, 0, 166.196502869, 16949.8520508),
    (0, "proc", 16384): (163, 0, 0, 0, 2, 160, 0, 166.196502869, 16949.8520508),
    (0, "uffd", 1024): (163, 0, 0, 0, 2, 160, 0, 1971.55923209, 1824.85923209),
    (0, "uffd", 16384): (163, 0, 0, 0, 2, 160, 0, 1971.55923209, 1824.85923209),
    (0, "spml", 1024): (163, 0, 0, 0, 2, 160, 0, 202.220214844, 18332.9977646),
    (0, "spml", 16384): (163, 0, 0, 0, 2, 160, 0, 202.220214844, 18332.9977646),
    (0, "epml", 1024): (163, 0, 1, 0, 2, 160, 0, 150.896055237, 0.0),
    (0, "epml", 16384): (163, 0, 1, 0, 2, 160, 0, 150.896055237, 0.0),
    (1, "proc", 1024): (166, 0, 0, 0, 2, 158, 0, 167.322628449, 11091.8007812),
    (1, "proc", 16384): (166, 0, 0, 0, 2, 158, 0, 167.322628449, 11091.8007812),
    (1, "uffd", 1024): (166, 0, 0, 0, 2, 158, 0, 1933.15725648, 1783.75725648),
    (1, "uffd", 16384): (166, 0, 0, 0, 2, 158, 0, 1933.15725648, 1783.75725648),
    (1, "spml", 1024): (166, 0, 0, 0, 2, 157, 1, 195.35234375, 12695.6654707),
    (1, "spml", 16384): (166, 0, 0, 0, 2, 157, 1, 195.35234375, 12695.6654707),
    (1, "epml", 1024): (166, 0, 1, 0, 2, 158, 0, 153.71511317, 0.0),
    (1, "epml", 16384): (166, 0, 1, 0, 2, 158, 0, 153.71511317, 0.0),
    (2, "proc", 1024): (155, 0, 0, 0, 2, 153, 0, 158.11243704, 16805.6077148),
    (2, "proc", 16384): (155, 0, 0, 0, 2, 153, 0, 158.11243704, 16805.6077148),
    (2, "uffd", 1024): (155, 0, 0, 0, 2, 153, 0, 1871.99906357, 1732.49906357),
    (2, "uffd", 16384): (155, 0, 0, 0, 2, 153, 0, 1871.99906357, 1732.49906357),
    (2, "spml", 1024): (155, 0, 0, 0, 2, 153, 0, 194.540332031, 18134.8340773),
    (2, "spml", 16384): (155, 0, 0, 0, 2, 153, 0, 194.540332031, 18134.8340773),
    (2, "epml", 1024): (155, 0, 1, 0, 2, 153, 0, 143.67579519, 0.0),
    (2, "epml", 16384): (155, 0, 1, 0, 2, 153, 0, 143.67579519, 0.0),
    (3, "proc", 1024): (164, 0, 0, 0, 2, 163, 0, 167.360118175, 16519.7902344),
    (3, "proc", 16384): (164, 0, 0, 0, 2, 163, 0, 167.360118175, 16519.7902344),
    (3, "uffd", 1024): (164, 0, 0, 0, 2, 163, 0, 1974.54879099, 1826.94879099),
    (3, "uffd", 16384): (164, 0, 0, 0, 2, 163, 0, 1974.54879099, 1826.94879099),
    (3, "spml", 1024): (164, 0, 0, 0, 2, 162, 1, 201.689453125, 17950.4866153),
    (3, "spml", 16384): (164, 0, 0, 0, 2, 162, 1, 201.689453125, 17950.4866153),
    (3, "epml", 1024): (164, 0, 1, 0, 2, 163, 0, 151.817545897, 0.0),
    (3, "epml", 16384): (164, 0, 1, 0, 2, 163, 0, 151.817545897, 0.0),
    (4, "proc", 1024): (175, 0, 0, 0, 2, 171, 0, 177.959236391, 15590.215625),
    (4, "proc", 16384): (175, 0, 0, 0, 2, 171, 0, 177.959236391, 15590.215625),
    (4, "uffd", 1024): (175, 0, 0, 0, 2, 171, 0, 2082.39341818, 1924.89341818),
    (4, "uffd", 16384): (175, 0, 0, 0, 2, 171, 0, 2082.39341818, 1924.89341818),
    (4, "spml", 1024): (175, 0, 0, 0, 2, 171, 0, 208.496875, 17148.5314138),
    (4, "spml", 16384): (175, 0, 0, 0, 2, 171, 0, 208.496875, 17148.5314138),
    (4, "epml", 1024): (175, 0, 1, 0, 2, 171, 0, 161.775282762, 0.0),
    (4, "epml", 16384): (175, 0, 1, 0, 2, 171, 0, 161.775282762, 0.0),
    (5, "proc", 1024): (162, 0, 0, 0, 2, 159, 0, 164.624022585, 14981.1839844),
    (5, "proc", 16384): (162, 0, 0, 0, 2, 159, 0, 164.624022585, 14981.1839844),
    (5, "uffd", 1024): (162, 0, 0, 0, 2, 159, 0, 1909.65799331, 1763.85799331),
    (5, "uffd", 16384): (162, 0, 0, 0, 2, 159, 0, 1909.65799331, 1763.85799331),
    (5, "spml", 1024): (162, 0, 0, 0, 2, 158, 1, 194.770703125, 16472.4424638),
    (5, "spml", 16384): (162, 0, 0, 0, 2, 158, 1, 194.770703125, 16472.4424638),
    (5, "epml", 1024): (162, 0, 1, 0, 2, 159, 0, 150.053848185, 0.0),
    (5, "epml", 16384): (162, 0, 1, 0, 2, 159, 0, 150.053848185, 0.0),
    (6, "proc", 1024): (161, 0, 0, 0, 2, 153, 0, 162.104828494, 10459.0872396),
    (6, "proc", 16384): (161, 0, 0, 0, 2, 153, 0, 162.104828494, 10459.0872396),
    (6, "uffd", 1024): (161, 0, 0, 0, 2, 153, 0, 1873.42090357, 1728.52090357),
    (6, "uffd", 16384): (161, 0, 0, 0, 2, 153, 0, 1873.42090357, 1728.52090357),
    (6, "spml", 1024): (161, 0, 0, 0, 2, 153, 0, 190.600607639, 12032.9482581),
    (6, "spml", 16384): (161, 0, 0, 0, 2, 153, 0, 190.600607639, 12032.9482581),
    (6, "epml", 1024): (161, 0, 1, 0, 2, 153, 0, 149.20534951, 0.0),
    (6, "epml", 16384): (161, 0, 1, 0, 2, 153, 0, 149.20534951, 0.0),
    (7, "proc", 1024): (159, 0, 0, 0, 2, 157, 0, 162.433093334, 17980.9319336),
    (7, "proc", 16384): (159, 0, 0, 0, 2, 157, 0, 162.433093334, 17980.9319336),
    (7, "uffd", 1024): (159, 0, 0, 0, 2, 157, 0, 1941.35244557, 1798.25244557),
    (7, "uffd", 16384): (159, 0, 0, 0, 2, 157, 0, 1941.35244557, 1798.25244557),
    (7, "spml", 1024): (159, 0, 0, 0, 2, 156, 1, 202.050488281, 19295.2789033),
    (7, "spml", 16384): (159, 0, 0, 0, 2, 156, 1, 202.050488281, 19295.2789033),
    (7, "epml", 1024): (159, 0, 1, 0, 2, 157, 0, 147.263430602, 0.0),
    (7, "epml", 16384): (159, 0, 1, 0, 2, 157, 0, 147.263430602, 0.0),
}


def _check_pinned(key, rep, want):
    got = _pinned_row(rep)
    msg = f"{key}: got {dict(zip(_PINNED_FIELDS, got))}, pinned {dict(zip(_PINNED_FIELDS, want))}"
    assert got[:7] == want[:7], msg
    assert got[7:] == pytest.approx(want[7:], rel=1e-9), msg


def test_mechanical_engine_output_pinned_across_knob_grid():
    grid = list(_mechanical_grid())
    assert sorted(grid) == sorted(_PINNED_MECHANICAL)
    for mechanical, pinned in ((True, _PINNED_MECHANICAL), (False, _PINNED_SEGMENT)):
        for key in grid:
            tech, mb, ring, policy, defer = key
            rep = run_tracker(
                cfg(
                    tech,
                    mb * MB,
                    rounds=3,
                    quantum_us=3_000.0,
                    ring_capacity=ring,
                    ring_full_policy=policy,
                    defer_reverse_map=defer,
                    mechanical=mechanical,
                )
            )
            # a deferred sweep runs on the mechanical engine, whichever it asks for
            want = _PINNED_MECHANICAL[key] if defer else pinned[key]
            _check_pinned((mechanical, *key), rep, want)


def test_trace_runs_pinned_across_seeds_and_rings():
    keys = [(s, t, r) for s in range(8) for t in TECHNIQUES for r in (1024, 16384)]
    assert sorted(keys) == sorted(_PINNED_TRACES)
    for seed in range(8):
        trace = random_trace(seed)
        for tech in TECHNIQUES:
            for ring in (1024, 16384):
                rep = run_tracker(
                    cfg(tech, trace.memory_bytes, ring_capacity=ring, trace=trace)
                )
                key = (seed, tech, ring)
                _check_pinned(key, rep, _PINNED_TRACES[key])


# Runs that end by truncation or have events between writes, where an
# engine that batches quiet writes is most likely to slip.  Recorded from
# the mechanical engine before its driver loop kept the clock in locals.
# "midround": a horizon that cuts round two; "roundend": a horizon that
# round one's last write crosses, so round one still counts; "early": a
# horizon before the first collection tick and quantum; "stall":
# ring_capacity=512 under "stall" with a 5000 µs horizon, which the spml
# producer reaches while stalled on a full ring; "events": a 50 µs quantum
# and a 37 µs collection interval, so schedule and tick events land
# between writes.
_EDGE_HORIZON_MIDROUND = {"proc": 7500.0, "uffd": 17685.4, "spml": 6633.5, "epml": 1393.0}
_EDGE_HORIZON_ROUNDEND = {"proc": 1023.1, "uffd": 11784.51, "spml": 3013.117, "epml": 925.734}
_EDGE_SHAPES = {
    "midround": lambda tech: {"horizon_us": _EDGE_HORIZON_MIDROUND[tech]},
    "roundend": lambda tech: {"horizon_us": _EDGE_HORIZON_ROUNDEND[tech]},
    "early": lambda tech: {"horizon_us": 300.0},
    "stall": lambda tech: {"ring_capacity": 512, "horizon_us": 5000.0},
    "events": lambda tech: {"quantum_us": 50.0, "collection_interval_us": 37.0},
}
_EDGE_EXACT = (
    "writes_done",
    "rounds_done",
    "n_sched_events",
    "vmexits",
    "softirq_copies",
    "dropped",
    "truncated",
    "dirty_pages",
)
_EDGE_US = (
    "init_time_us",
    "monitor_span_us",
    "collect_time_us",
    "exploit_time_us",
    "tracked_suspension_total_us",
    "ideal_us",
    "tracker_busy_us",
)
_EDGE_PARTS = ("reverse_mapping_us", "walk_us", "copy_us", "other_us")

# (shape, technique) -> (exact fields, µs fields, collect_parts, dirty_set
# runs, missed runs, inaccurate); a run (a, b) stands for the pages a, a +
# 0x1000, ... below b.  Every run is 4 MB, three rounds, mechanical.
_PINNED_EDGE = {
    ("midround", "proc"): (
        (1348, 1, 2, 0, 0, 0, True, 1024),
        (
            52.04833333333334,
            7500.0,
            6152.733333333334,
            0.0,
            6152.733333333334,
            1213.2,
            6152.733333333334,
        ),
        (0.0, 6101.0, 0.0, 51.73333333333334),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("midround", "uffd"): (
        (1536, 1, 2, 0, 0, 0, True, 0),
        (0.315, 17685.4, 0.0, 0.0, 16302.99999999963, 1382.4, 16302.99999999963),
        (0.0, 0.0, 0.0, 0.0),
        (),
        ((0x1000, 0x401000),),
        (),
    ),
    ("midround", "spml"): (
        (1537, 1, 2, 3, 0, 0, True, 448),
        (5495.0, 6633.5, 5400.937499999996, 0.0, 6275.0, 1383.3, 5400.937499999996),
        (5398.604166666663, 0.0, 2.333333333333334, 0.0),
        ((0x1000, 0x1c1000),),
        ((0x1c1000, 0x401000),),
        (),
    ),
    ("midround", "epml"): (
        (1537, 1, 2, 0, 4, 0, True, 1024),
        (5878.0, 1393.0, 0.0, 0.0, 9.265208333333334, 1383.3, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("roundend", "proc"): (
        (1024, 1, 2, 0, 0, 0, True, 1024),
        (52.04833333333334, 1023.1, 6152.733333333334, 0.0, 1023.1, 921.6, 6152.733333333334),
        (0.0, 6101.0, 0.0, 51.73333333333334),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("roundend", "uffd"): (
        (1024, 1, 2, 0, 0, 0, True, 0),
        (0.315, 11784.51, 0.0, 0.0, 10868.666666666608, 921.6, 10868.666666666608),
        (0.0, 0.0, 0.0, 0.0),
        (),
        ((0x1000, 0x401000),),
        (),
    ),
    ("roundend", "spml"): (
        (1024, 1, 2, 1, 0, 0, True, 192),
        (5495.0, 3013.117, 2314.6874999999986, 0.0, 2091.6666666666665, 921.6, 2314.6874999999986),
        (2313.6874999999986, 0.0, 1.0, 0.0),
        ((0x1000, 0xc1000),),
        ((0xc1000, 0x401000),),
        (),
    ),
    ("roundend", "epml"): (
        (1024, 1, 2, 0, 2, 0, True, 1024),
        (5878.0, 925.734, 0.0, 0.0, 5.963333333333334, 921.6, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("early", "proc"): (
        (301, 0, 2, 0, 0, 0, True, 0),
        (52.04833333333334, 300.0, 0.0, 0.0, 0.0, 270.90000000000003, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (),
        ((0x1000, 0x12e000),),
        (),
    ),
    ("early", "uffd"): (
        (27, 0, 2, 0, 0, 0, True, 0),
        (0.315, 300.0, 0.0, 0.0, 286.576171875, 24.3, 286.576171875),
        (0.0, 0.0, 0.0, 0.0),
        (),
        ((0x1000, 0x1c000),),
        (),
    ),
    ("early", "spml"): (
        (333, 0, 2, 0, 0, 0, True, 0),
        (5495.0, 300.0, 0.0, 0.0, 0.0, 299.7, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (),
        ((0x1000, 0x14e000),),
        (),
    ),
    ("early", "epml"): (
        (332, 0, 2, 0, 1, 0, True, 332),
        (5878.0, 300.0, 0.0, 0.0, 2.044166666666667, 298.8, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        ((0x1000, 0x14d000),),
        (),
        (),
    ),
    ("stall", "proc"): (
        (1024, 1, 2, 0, 0, 0, True, 1024),
        (52.04833333333334, 5000.0, 6152.733333333334, 0.0, 5000.0, 921.6, 6152.733333333334),
        (0.0, 6101.0, 0.0, 51.73333333333334),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("stall", "uffd"): (
        (435, 0, 2, 0, 0, 0, True, 0),
        (0.315, 5000.0, 0.0, 0.0, 4617.060546874992, 391.5, 4617.060546874992),
        (0.0, 0.0, 0.0, 0.0),
        (),
        ((0x1000, 0x1b4000),),
        (),
    ),
    ("stall", "spml"): (
        (1025, 1, 2, 1, 0, 0, True, 256),
        (5495.0, 5000.0, 3086.249999999998, 0.0, 3077.1999999999575, 922.5, 3086.249999999998),
        (3084.9166666666647, 0.0, 1.3333333333333335, 0.0),
        ((0x1000, 0x101000),),
        ((0x101000, 0x401000),),
        (),
    ),
    ("stall", "epml"): (
        (3072, 3, 2, 0, 9, 0, False, 1024),
        (5878.0, 2786.0290000001582, 0.0, 0.0, 17.89, 2764.8, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("events", "proc"): (
        (3072, 3, 124, 0, 0, 0, False, 1024),
        (52.04833333333334, 21528.99999999924, 18458.2, 0.0, 18458.2, 2764.8, 18458.2),
        (0.0, 18303.0, 0.0, 155.20000000000002),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("events", "uffd"): (
        (3072, 3, 112, 0, 0, 0, False, 1024),
        (0.315, 35370.79999999897, 0.0, 0.0, 32606.00000000148, 2764.8, 32606.00000000148),
        (0.0, 0.0, 0.0, 0.0),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("events", "spml"): (
        (3072, 3, 112, 0, 0, 0, False, 1024),
        (5495.0, 5226.933333333269, 43135.99999999999, 0.0, 0.0, 2764.8, 43135.99999999999),
        (37019.0, 6101.0, 16.00000000000001, 0.0),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
    ("events", "epml"): (
        (3072, 3, 112, 0, 58, 0, False, 1024),
        (5878.0, 2986.054000000164, 0.0, 0.0, 34.26999999999998, 2764.8, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        ((0x1000, 0x401000),),
        (),
        (),
    ),
}


def _expand(runs):
    return [gva for a, b in runs for gva in range(a, b, 0x1000)]


def test_truncated_and_event_dense_runs_pinned():
    covered = {"technique", "memory_bytes", "collect_parts", "dirty_set", "missed", "inaccurate"}
    assert {f.name for f in fields(TrackerPhaseReport)} == covered | set(_EDGE_EXACT + _EDGE_US)
    assert sorted(_PINNED_EDGE) == sorted((s, t) for s in _EDGE_SHAPES for t in TECHNIQUES)
    segment_grid = [key for key in _mechanical_grid() if not key[4]]  # a deferred one is mechanical
    assert sorted(_PINNED_SEGMENT) == sorted(segment_grid + list(_PINNED_EDGE))
    for (shape, tech), want in _PINNED_EDGE.items():
        exact, us, parts, dirty, missed, inaccurate = want
        knobs = _EDGE_SHAPES[shape](tech)
        rep = run_tracker(cfg(tech, 4 * MB, rounds=3, mechanical=True, **knobs))
        key = (shape, tech)
        assert (rep.technique, rep.memory_bytes) == (tech, 4 * MB), key
        assert tuple(getattr(rep, f) for f in _EDGE_EXACT) == exact, key
        assert tuple(getattr(rep, f) for f in _EDGE_US) == pytest.approx(us, rel=1e-9), key
        assert sorted(rep.collect_parts) == sorted(_EDGE_PARTS), key
        got_parts = tuple(rep.collect_parts[p] for p in _EDGE_PARTS)
        assert got_parts == pytest.approx(parts, rel=1e-9), key
        assert sorted(rep.dirty_set) == _expand(dirty), key
        assert sorted(rep.missed) == _expand(missed), key
        assert sorted(rep.inaccurate) == list(inaccurate), key
        seg = run_tracker(cfg(tech, 4 * MB, rounds=3, **knobs))
        _check_pinned(key, seg, _PINNED_SEGMENT[key])


# ------------------------------------------------------------- ring details


def _flushed_spml_vm(n_pages: int) -> tuple[VirtualMachine, list[int]]:
    vm = VirtualMachine()
    vm.create_process(1)
    gvas = list(vm.allocate(1, n_pages))
    vm.kernel.register_tracked(1, "spml", CostTable.default().prices(4 * MB))
    vm.kernel.on_schedule(1, "in")
    for gva in gvas:
        vm.write_one(1, gva)
    vm.kernel.on_schedule(1, "out")  # coordination flush moves entries to the ring
    return vm, gvas


def test_drain_ring_reverse_maps_batch():
    # a mechanical spml tick charges its batch, and the entries come off the
    # ring when something next reads it (_settle), to be mapped as parked pairs
    vm, gvas = _flushed_spml_vm(5)
    run = trackers._MechanicalRun(cfg("spml", 4 * MB))
    _cost, rm_us, copy_us = run._drain_charge(3)
    t = CostTable.default()
    assert rm_us == pytest.approx(3 * t.per_page_us("M17", 4 * MB))
    assert copy_us == pytest.approx(3 * t.per_page_us("M18", 4 * MB))
    rows = np.concatenate([rows for _pid, rows in vm.hv.ring.consume(3)])
    res = trackers.reverse_map_pairs(vm.kernel.processes[1].table, rows)
    assert res.gvas.tolist() == gvas[:3]
    assert res.lost == [] and res.inaccurate == []
    assert vm.hv.ring.used == 2


def test_drain_ring_deferred_keeps_raw_addresses():
    vm, gvas = _flushed_spml_vm(4)
    res = drain_ring(vm)
    assert res.consumed == 4 and vm.hv.ring.used == 0
    assert res.gvas.tolist() == [] and res.rm_us == 0.0
    assert res.copy_us == pytest.approx(4 * CostTable.default().per_page_us("M18", 4 * MB))
    assert [meta for _gpa, meta in res.raw.tolist()] == gvas


def test_drain_ring_reports_lost_and_inaccurate():
    vm, gvas = _flushed_spml_vm(3)
    # lose one mapping; alias another at a lower address so the reverse
    # mapping resolves to the wrong name
    vm.unmap(1, gvas[0])
    proc = vm.kernel.processes[1]
    gpa1 = proc.table.entry(gvas[1]).gpa
    alias = 0x800
    proc.table.map_page(alias, gpa1)
    res = trackers.reverse_map_raw(vm, drain_ring(vm).raw)
    assert [meta for _gpa, meta in res.lost] == [gvas[0]]
    assert (alias, gvas[1]) in res.inaccurate
    assert gvas[2] in res.gvas
    assert res.rm_us == pytest.approx(3 * CostTable.default().per_page_us("M17", 4 * MB))


def _aliased_spml_vm(n_pages):
    """A flushed ring whose first page is unmapped and second aliased lower."""
    vm, gvas = _flushed_spml_vm(n_pages)
    vm.unmap(1, gvas[0])
    proc = vm.kernel.processes[1]
    proc.table.map_page(0x800, proc.table.entry(gvas[1]).gpa)
    return vm, gvas


def test_parked_pairs_are_charged_and_mapped_as_a_drain_maps_them():
    # two batches mapped as they come off the ring, against the same two
    # charged by ticks, parked by _settle and mapped together later
    vm, gvas = _aliased_spml_vm(6)
    rm_pp = vm.kernel.uio.prices.m17_pp
    batches = [vm.hv.ring.consume(4), vm.hv.ring.consume(4)]
    table = vm.kernel.processes[1].table
    mapped = [
        trackers.reverse_map_pairs(table, np.concatenate([pairs for _pid, pairs in blocks]), rm_pp)
        for blocks in batches
    ]
    vm, _ = _aliased_spml_vm(6)
    run = trackers._MechanicalRun(cfg("spml", 4 * MB))
    run.vm = vm
    for blocks, res in zip(batches, mapped):
        k = sum(len(pairs) for _pid, pairs in blocks)
        assert run._drain_charge(k)[1].hex() == res.rm_us.hex()
        run._owed = k
        run._settle()
    # the parked rows are the six drained ones, in drain order, every block
    # carrying the tracked process's pid, as one list keeps them
    assert {pid for blocks in batches for pid, _rows in blocks} == {1}
    parked = np.concatenate(run.drained)
    drained = [row for blocks in batches for _pid, rows in blocks for row in rows.tolist()]
    assert parked.tolist() == drained and len(drained) == 6
    assert vm.hv.ring.used == 0
    res = trackers.reverse_map_pairs(vm.kernel.processes[1].table, parked)
    assert sorted(res.gvas.tolist()) == sorted(mapped[0].gvas.tolist() + mapped[1].gvas.tolist())
    assert sorted(res.lost) == sorted(mapped[0].lost + mapped[1].lost)
    assert sorted(res.inaccurate) == sorted(mapped[0].inaccurate + mapped[1].inaccurate)
    assert res.rm_us == 0.0


# --------------------------------------------------------------- bottleneck


def test_bottleneck_breakdown_dominated_by_reverse_mapping():
    rep = run_tracker(cfg("spml", 100 * MB))
    parts = spml_bottleneck_breakdown(rep)
    assert sum(parts.values()) == pytest.approx(1.0)
    assert parts["reverse_mapping_frac"] >= 0.55
    assert parts["walk_frac"] > 0


def test_bottleneck_breakdown_deferred_mapping_still_dominates():
    rep = run_tracker(cfg("spml", 100 * MB, defer_reverse_map=True))
    parts = spml_bottleneck_breakdown(rep)
    assert parts["reverse_mapping_frac"] >= 0.55


def test_bottleneck_requires_ring_technique():
    rep = run_tracker(cfg("proc", 10 * MB, rounds=1))
    with pytest.raises(WrongTechnique):
        spml_bottleneck_breakdown(rep)


def test_bottleneck_zero_work_is_all_other():
    rep = run_tracker(cfg("spml", 10 * MB, rounds=0))
    parts = spml_bottleneck_breakdown(rep)
    assert parts["other_frac"] == pytest.approx(1.0)


# --------------------------------------------------------------- trace runs


def _base_gvas(n=4):
    # allocation in a fresh machine hands out 0x1000, 0x2000, ...
    return [0x1000 * (i + 1) for i in range(n)]


@pytest.mark.parametrize("technique", ["proc", "uffd", "epml"])
def test_trace_unmap_churn_collected_exactly(technique):
    a, b, c, d = _base_gvas(4)
    ops = [("write", a), ("write", b), ("write", c), ("unmap", b), ("write", d)]
    rep = run_tracker(cfg(technique, 16 * 4096, trace=TraceWorkload(ops)))
    assert rep.dirty_set == {a, b, c, d}
    assert rep.missed == set()


def test_trace_unmap_churn_ring_misses_only_unmapped():
    a, b, c, d = _base_gvas(4)
    ops = [("write", a), ("write", b), ("write", c), ("unmap", b), ("write", d)]
    rep = run_tracker(cfg("spml", 16 * 4096, trace=TraceWorkload(ops)))
    assert rep.missed == {b}
    assert rep.dirty_set == {a, c, d}


def test_trace_remap_moves_or_misnames_the_page():
    a = 0x1000
    e = 0x200000
    ops = [("write", a), ("remap", a, e)]
    proc_rep = run_tracker(cfg("proc", 16 * 4096, trace=TraceWorkload(ops)))
    assert proc_rep.dirty_set == {e}  # the bit travelled with the mapping
    epml_rep = run_tracker(cfg("epml", 16 * 4096, trace=TraceWorkload(ops)))
    assert epml_rep.dirty_set == {a}  # logged under the name used at write time
    spml_rep = run_tracker(cfg("spml", 16 * 4096, trace=TraceWorkload(ops)))
    assert spml_rep.dirty_set == {e}
    assert (e, a) in spml_rep.inaccurate  # reverse map found the new name


def test_trace_determinism():
    a, b, _c, _d = _base_gvas(4)
    fresh = 0x20000  # beyond the 16 pre-allocated pages
    ops = [("write", a), ("write", b), ("unmap", a), ("map", fresh), ("write", fresh)]
    r1 = run_tracker(cfg("uffd", 16 * 4096, trace=TraceWorkload(ops)))
    r2 = run_tracker(cfg("uffd", 16 * 4096, trace=TraceWorkload(ops)))
    assert r1.dirty_set == r2.dirty_set
    assert r1.monitor_span_us == r2.monitor_span_us


# ------------------------------------------------------------------ reports


def test_to_run_row_maps_fields():
    rep = run_tracker(cfg("proc", 10 * MB, rounds=2))
    row = to_run_row(rep, checkpoint_ms=1.5)
    assert row.technique == "proc"
    assert row.memory_bytes == 10 * MB
    assert row.tracked_us == rep.monitor_span_us
    assert row.overhead_tracked_pct == rep.overhead_tracked_pct
    assert row.checkpoint_ms == 1.5


def test_zero_rounds_has_zero_overhead():
    rep = run_tracker(cfg("epml", 10 * MB, rounds=0))
    assert rep.writes_done == 0
    assert rep.overhead_tracked_pct == 0.0
    row = to_run_row(rep)
    assert row.ideal_us == 0.0


def test_zero_horizon_truncates_immediately():
    rep = run_tracker(cfg("uffd", 10 * MB, horizon_us=0.0))
    assert rep.truncated
    assert rep.writes_done == 0
    assert rep.monitor_span_us == 0.0


# ----------------------------------------------- report fields, bit for bit


def _field_bits(report: TrackerPhaseReport) -> dict:
    """Every report field, floats as their exact hex form."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: exact(v) for k, v in value.items()}
        return value

    return {f.name: exact(getattr(report, f.name)) for f in fields(report)}


def _digest(report: TrackerPhaseReport) -> str:
    """A short hash of every report field, floats exact and sets sorted."""
    canon = [(k, sorted(v) if isinstance(v, set) else v) for k, v in _field_bits(report).items()]
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]


# (technique, MB, quantum µs) -> (monitored span as hex, _digest) of a 13-round
# mechanical sweep, recorded when every collection tick still cut a stretch;
# ``trace`` rows are knobs.stretch_trace(11, 700, 2_500, 0.002, 1_000) at 40 µs ticks
# and a 300 µs quantum.  proc and uffd runs schedule no collection tick, so
# no interval may move a field
_PINNED_NO_OP_TICKS = {
    ("proc", 1, 300.0): ("0x1.ba48cccccce3ap+14", "dc881f73a88ff410"),
    ("proc", 1, 10_000.0): ("0x1.ba48cccccce3ap+14", "26275f35a0affb4c"),
    ("proc", 2, 300.0): ("0x1.86607d27d2ab1p+15", "8f95e76be98f30c3"),
    ("proc", 2, 10_000.0): ("0x1.86607d27d2ab1p+15", "31310ba6fe55538a"),
    ("proc", 16, 300.0): ("0x1.2274a70a3cfdcp+18", "540ced0c7727f2fd"),
    ("proc", 16, 10_000.0): ("0x1.2274a70a3cfdcp+18", "3bec6758f7fde9db"),
    ("uffd", 1, 300.0): ("0x1.159c666666797p+15", "7dcdcb16cf2435bd"),
    ("uffd", 1, 10_000.0): ("0x1.159c666666797p+15", "46d34bc09b7d49a0"),
    ("uffd", 2, 300.0): ("0x1.241c9f49f4bd2p+16", "7b9b6e9528f1f4ae"),
    ("uffd", 2, 10_000.0): ("0x1.241c9f49f4bd2p+16", "3f7a2cc215ecf2dd"),
    ("uffd", 16, 300.0): ("0x1.3eed866667c5bp+19", "8b6063c1566e9af7"),
    ("uffd", 16, 10_000.0): ("0x1.3eed866667c5bp+19", "9b3a69ab267ef1a6"),
    ("proc", "trace"): ("0x1.206e1f15f16e1p+11", "bc0843bdaef3212e"),
    ("uffd", "trace"): ("0x1.b8c6709c09ddbp+14", "16bc5ff5432044a1"),
}


@pytest.mark.parametrize(
    "key", [k for k in _PINNED_NO_OP_TICKS if k[1] != "trace"], ids="{0[0]}-{0[1]}MB-q{0[2]:g}".format
)
def test_no_op_ticks_move_no_float_of_a_sweep(key):
    technique, mb, quantum_us = key
    for interval_us in (40.0, 250.0, 1_000.0, 2_100.0):
        rep = run_tracker(
            cfg(technique, mb * MB, quantum_us=quantum_us,
                collection_interval_us=interval_us, mechanical=True)
        )
        assert (rep.monitor_span_us.hex(), _digest(rep)) == _PINNED_NO_OP_TICKS[key], interval_us


@pytest.mark.parametrize("technique", ["proc", "uffd"])
def test_no_op_ticks_move_no_float_of_a_trace(technique):
    ops = knobs.stretch_trace(11, 700, 2_500, 0.002, 1_000)
    rep = run_tracker(
        cfg(technique, 700 * PAGE_SIZE, quantum_us=300.0, collection_interval_us=40.0,
            trace=TraceWorkload(ops))
    )
    assert (rep.monitor_span_us.hex(), _digest(rep)) == _PINNED_NO_OP_TICKS[technique, "trace"]


def _spml_tick_runs(pages: int, ring: int):
    """The spml mechanical sweeps of one (pages, ring) group of the tick pin:
    stall and drop, deferred mapping or not, two quanta, two intervals, and a
    horizon that cuts the run short (at 12 ms, some runs stop in the middle of
    a stall) or lets it finish."""
    for policy in ("stall", "drop"):
        for defer in (False, True):
            for quantum_us in (300.0, 10_000.0):
                for interval_us in (40.0, 1_000.0):
                    for horizon_us in (3_000.0, 12_000.0, 6e7):
                        yield cfg(
                            "spml", pages * PAGE_SIZE, rounds=3, quantum_us=quantum_us,
                            collection_interval_us=interval_us, ring_capacity=ring,
                            ring_full_policy=policy, defer_reverse_map=defer,
                            horizon_us=horizon_us, mechanical=True,
                        )


def _runs_digest(configs) -> str:
    """SHA-256 of every report field, floats exact, of the runs in order."""
    canon = [
        [(k, sorted(v) if isinstance(v, set) else v)
         for k, v in _field_bits(run_tracker(config)).items()]
        for config in configs
    ]
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def _spml_tick_digest(pages: int, ring: int) -> str:
    return _runs_digest(_spml_tick_runs(pages, ring))


# (pages, ring) -> _spml_tick_digest, recorded while every spml collection
# tick took its batch off the ring itself, and again once both engines
# charged a tick k (M18 + M17) and made it last as long as its charge (every
# count, flag and page set of the 432 runs unchanged, every float within
# 1.7e-13 relative).  The stall wait and the final harvest are shared by the
# stretched and the stepped path, so the stretch twin tests cannot see an
# error in how back-to-back ticks take the ring
_PINNED_SPML_TICKS = {
    (300, 512): "d47e98275bc620b6f190c0f80edf656a7f1476a62d63f8422d911c5c86b7e2c7",
    (300, 1024): "d47e98275bc620b6f190c0f80edf656a7f1476a62d63f8422d911c5c86b7e2c7",
    (300, 16384): "d47e98275bc620b6f190c0f80edf656a7f1476a62d63f8422d911c5c86b7e2c7",
    (513, 512): "0ded7ba8267b2453d74531b3d9fb1ed893f9bb3081f226f4d361d7b191452d33",
    (513, 1024): "4edb03e3832ed926323b91dc32c97487b55eb93bb231ddd861f8a5d98aae3fe4",
    (513, 16384): "664b953ff237daac8060714ddc02bed26d23e127da1086fe1a339c8ec2a2b2f4",
    (4096, 512): "beddc7f7775c29d8a05b014f3fcc0b00858d31feec9897eb6d13fa2dcd6a26b9",
    (4096, 1024): "44dbd62bb8bda3fba36511382b8b14c27d24e378b4367eccbe19e55c2de271cb",
    (4096, 16384): "93ddd44c46425d1eca44002cbe170ee7ec3a401ac757afebc78802512e1eabf5",
}


@pytest.mark.parametrize("key", list(_PINNED_SPML_TICKS), ids="{0[0]}p-ring{0[1]}".format)
def test_spml_ticks_pinned(key):
    assert _spml_tick_digest(*key) == _PINNED_SPML_TICKS[key]


# ---------------------------------- back-to-back spml ticks run in one loop


def _segment_tick_runs(policy: str, defer: bool):
    """The segment-engine spml sweeps of one (policy, defer) group of the pin:
    two rings, three intervals, 1 to 250 MB, and horizons of 3 ms and 250 ms
    that cut runs short (25 of the 288 in the middle of a stall) or of 60 s."""
    for ring in (1024, 16384):
        for interval_us in (40.0, 1_000.0, 5_000.0):
            for mb in (1, 5, 50, 250):
                for horizon_us in (3_000.0, 250_000.0, 6e7):
                    yield cfg(
                        "spml", mb * MB, ring_capacity=ring, ring_full_policy=policy,
                        collection_interval_us=interval_us, defer_reverse_map=defer,
                        horizon_us=horizon_us,
                    )


# (policy, defer) -> _runs_digest of _segment_tick_runs, recorded while every
# tick of a stall, of the final harvest and of the catch-up after an event
# was one _tick call; a deferred sweep runs on the mechanical engine, so only
# the groups that are not deferred are the segment engine's
_PINNED_SEGMENT_TICKS = {
    ("stall", False): "b7a611a479feedf0a19b47023f144f063289489d7e57e2ec1a3a9ebbb5397663",
    ("drop", False): "359e1c3bdd31428f99b897e329d60dee72cc8a8e691888fe5df73e87f0c6e502",
}


@pytest.mark.parametrize("key", list(_PINNED_SEGMENT_TICKS), ids="{0[0]}-defer{0[1]}".format)
def test_segment_spml_ticks_pinned(key):
    assert _runs_digest(_segment_tick_runs(*key)) == _PINNED_SEGMENT_TICKS[key]


# ------------------------------------------- a segment round runs on locals


def _segment_round_runs(technique: str):
    """The segment-engine sweeps of one technique of the round pin: 1, 300,
    512 and 513 pages and 5 and 50 MB, 3 and 13 rounds, three quanta (one
    infinite), two intervals, both rings (the spml ring, the epml tool ring),
    stall and drop for spml, and horizons of 0, of 3 ms (which stops some runs
    in the middle of a round or of a stall) and of 60 s."""
    rings = (1024, 16384) if technique in ("spml", "epml") else (16384,)
    spml = technique == "spml"
    sizes = [pages * PAGE_SIZE for pages in (1, 300, 512, 513)] + [5 * MB, 50 * MB]
    for rounds in (3, 13):
        for size in sizes:
            for quantum_us in (300.0, 10_000.0, math.inf):
                for interval_us in (40.0, 1_000.0):
                    for ring in rings:
                        for policy in ("stall", "drop") if spml else ("stall",):
                            for horizon_us in (0.0, 3_000.0, 6e7):
                                yield cfg(
                                    technique, size, rounds=rounds, quantum_us=quantum_us,
                                    collection_interval_us=interval_us, ring_capacity=ring,
                                    ring_full_policy=policy, horizon_us=horizon_us,
                                )


# technique -> _runs_digest of _segment_round_runs, recorded while a segment
# round called _swap_and_tick after every stretch, _epml_copy for every epml
# buffer copy and _spml_vmexit for every spml buffer-full vmexit.  spml's was
# recorded again over its runs that are not deferred, before the segment
# engine lost its deferred mode, so it shows that those runs did not change
_PINNED_SEGMENT_ROUNDS = {
    "proc": "91c852aae80bd396e8521318a6634cd2a5d2e354008d7e4836567dd4adb46d81",
    "uffd": "54633db2980f326e62cf62fe8e772a1fcab98dbb9feeee9e46140d742bb2b8ca",
    "spml": "c819713a7c96136824534639a653a2dad8dc37ece015f9f5fe88677745aa2821",
    "epml": "0e9f692a60af4afbca18b6c8f38725eb6e730c6fd991974f3c33a1d31a1e7846",
}


@pytest.mark.parametrize("technique", list(_PINNED_SEGMENT_ROUNDS))
def test_segment_rounds_pinned(technique):
    assert _runs_digest(_segment_round_runs(technique)) == _PINNED_SEGMENT_ROUNDS[technique]


# ------------------------------------------ each engine against its reference


def _next_tick_after(busy_end: float, prev_tick: float, interval: float) -> float:
    candidate = prev_tick + interval
    aligned = interval * math.ceil(busy_end / interval)
    return max(candidate, aligned)


class _PerTick:
    """The collection chain of both references: every tick of a stall, of the
    final harvest and of the catch-up after an event is one ``_tick`` call,
    which drains through the reference's own ``_drain``, charged by
    ``_charge_drain``, and places the next tick with :func:`_next_tick_after`."""

    def _charge_drain(self, k: int) -> float:
        """Charge a tick that drains ``k`` ring entries: M18 each, and M17 each
        unless the mapping is deferred; return the charge, the tick's length."""
        c = self.c
        rm_pp = 0.0 if self.cfg.defer_reverse_map else c.m17_pp
        cost = k * (c.m18_pp + rm_pp)
        self.parts["copy_us"] += k * c.m18_pp
        self.parts["reverse_mapping_us"] += k * rm_pp
        self.tracker_busy += cost
        self.collect_us += cost
        return cost

    def _tick(self) -> None:
        interval = self.cfg.collection_interval_us
        if self.tech == "spml":
            start = self.next_tick
            self.next_tick = _next_tick_after(start + self._drain(), start, interval)
        else:
            self._consume_tool_ring()
            self.next_tick += interval

    def _stall(self, flushed) -> bool:
        while True:
            if self.next_tick > self.t:
                if self.next_tick >= self.cfg.horizon_us:
                    self.t = self.cfg.horizon_us
                    self.truncated = True
                    return False
                self.suspension += self.next_tick - self.t
                self.t = self.next_tick
            self._tick()
            if flushed():
                return True

    def _swap_and_tick(self) -> None:
        if self.run_acc >= self.cfg.quantum_us:
            self._sched("out")
            self._sched("in")
            self.run_acc -= self.cfg.quantum_us
        while self.t >= self.next_tick:
            self._tick()

    def _harvest(self) -> None:
        if self.tech != "spml":
            super()._harvest()
        elif self.writes_done:
            while self.ring_used > 0:
                if self.t < self.next_tick:
                    self.t = self.next_tick
                self._tick()
            if self.cfg.defer_reverse_map:
                self._charge("reverse_mapping_us", self._map_drained(harvest=True))
            self._charge("walk_us", self.c.m16)


class _MechanicalReference(_PerTick, trackers._MechanicalRun):
    """The mechanical engine's reference: every tick is one call and every
    drain maps its pairs at once.  :func:`_assert_as_reference` also runs it
    with every write through ``write_one`` and one op per call."""

    def _drain(self) -> float:
        if self.cfg.defer_reverse_map:
            res = drain_ring(self.vm)
            self.drained.append(res.raw)
            k = res.consumed
        else:
            k = min(self.c.drain_batch, self.ring_used)
            self._owed += k
        cost = self._charge_drain(k)
        self._map_drained()
        return cost

    def _swap_and_tick(self) -> None:
        super()._swap_and_tick()
        self._settle()

    def _event(self, res, wall: float, run: float) -> None:
        c = self.c
        if res.softirq_copied or res.softirq_us:
            wall += res.softirq_us
            self.suspension += res.softirq_us
            self.softirqs += 1
        if res.vmexit is not None and not res.stalled:
            wall += c.vmexit_service
            self.suspension += c.vmexit_service
            self.vmexits += 1
        self.t += wall
        self.run_acc += run
        if res.stalled:
            hv, refused = self.vm.hv, res.refused
            ring, pending = hv.ring, len(hv.pml.hv_buffer.entries)

            def flushed() -> bool:
                if max(0, ring.capacity - self.ring_used) < pending:
                    hv.vmexit_stalls += 1
                    return False
                self._settle()
                return not hv.handle_pml_full_vmexit(refused=refused).stalled

            if not self._stall(flushed):
                return
            self._vmexit()
        self._swap_and_tick()


class _SegmentReference(_PerTick, trackers._SegmentRun):
    """The segment engine's reference: every tick is one call, every stretch
    ends in a ``_swap_and_tick`` call, every epml buffer copy in an
    ``_epml_copy`` call and every spml buffer-full vmexit in an
    ``_spml_vmexit`` call."""

    def _drain(self) -> float:
        k = min(self.c.drain_batch, self.ring_used)
        self.ring_used -= k
        return self._charge_drain(k)

    def _spml_vmexit(self) -> None:
        """Buffer-full during a write: stall if needed, flush, replay."""
        pending, cap = 512, self.cfg.ring_capacity
        if self.cfg.ring_full_policy == "stall":
            if cap - self.ring_used < pending and not self._stall(
                lambda: cap - self.ring_used >= pending
            ):
                return
            self.ring_used += pending
        else:  # drop
            sent = min(pending, max(0, cap - self.ring_used))
            self.ring_used += sent
            self.dropped += pending - sent
        self._vmexit()
        self.buf_fill = 1  # the refused entry, replayed after the reset

    def _round(self) -> None:
        """One sweep over every page, a stretch of writes at a time."""
        cfg, c = self.cfg, self.c
        logging = self.tech in ("spml", "epml")
        w_run = c.write
        if self.tech == "proc":
            w_run += c.softdirty_fault  # every post-clear write microfaults
        w_wall = w_run + (c.uffd_fault if self.tech == "uffd" else 0.0)
        swaps = cfg.quantum_us < math.inf  # an infinite quantum never ends: it bounds nothing
        left = self.P
        while left > 0:
            if self.t >= cfg.horizon_us:
                self.truncated = True
                return
            n_event = (512 - self.buf_fill) + 1 if logging else left + 1
            n_quant = (
                math.ceil(max(0.0, cfg.quantum_us - self.run_acc) / w_run) if swaps else left + 1
            )
            n_tick = (
                math.ceil(max(0.0, self.next_tick - self.t) / w_wall) if logging else left + 1
            )
            n = min(left, n_event, max(1, n_quant), max(1, n_tick))
            self.t += n * w_wall
            self.run_acc += n * w_run
            if self.tech == "uffd":
                self.suspension += n * c.uffd_fault
                self.tracker_busy += n * c.uffd_fault
            self.writes_done += n
            left -= n
            if logging:
                self.buf_fill += n
            if logging and n == n_event:
                self.buf_fill = 512  # the 513th attempt was refused
                if self.tech == "spml":
                    self._spml_vmexit()
                    if self.truncated:
                        return
                else:
                    self.t += self._epml_copy(512)
                    self.buf_fill = 1
            self._swap_and_tick()


def _one_op_per_call(self, pid, ops):
    """apply_ops as one map_fresh, unmap or remap call per op."""
    for op in ops:
        if op[0] == "map":
            self.map_fresh(pid, op[1])
        elif op[0] == "unmap":
            self.unmap(pid, op[1])
        elif op[0] == "remap":
            self.remap(pid, op[1], op[2])
        else:
            raise ValueError(f"unknown trace op {op[0]!r}")


@contextmanager
def _ops_one_at_a_time():
    """One op per call, and every page mapped singly a one-page region."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VirtualMachine, "apply_ops", _one_op_per_call)
        mp.setattr(_PageMap, "_join", lambda self, *args: False)
        yield mp


def _run_fields(run) -> tuple[TrackerPhaseReport, dict]:
    """Run ``run``: its report, and every field of it with the mechanical
    machine's stall count."""
    report = run.run()
    out = _field_bits(report)
    if isinstance(run, trackers._MechanicalRun):
        out["vmexit_stalls"] = run.vm.hv.vmexit_stalls
    return report, out


def _assert_as_reference(config) -> TrackerPhaseReport:
    """The engine that runs ``config`` leaves every field as its reference
    does, and return the engine's report.  The mechanical reference writes
    every page through ``write_one``, runs every tick as one call, maps
    every drain at once, applies one op per call and joins no region; its
    stall count must agree too, and the mechanical engine must match it
    with every stretch batched (``STRETCH_MIN = 1``) and at the default.
    The segment reference steps one event at a time; the clock, buffers,
    rings and next tick, which no report shows, must agree too."""
    segment = not config.mechanical and config.trace is None
    engine, reference = (
        (trackers._SegmentRun, _SegmentReference) if segment
        else (trackers._MechanicalRun, _MechanicalReference)
    )
    with _ops_one_at_a_time() as mp:
        mp.setattr(trackers, "STRETCH_MIN", math.inf)  # no stretch: every write by write_one
        ref = reference(config)
        want = _run_fields(ref)[1]
    for stretch_min in (trackers.STRETCH_MIN,) if segment else (1, trackers.STRETCH_MIN):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trackers, "STRETCH_MIN", stretch_min)
            run = engine(config)
            report, fields = _run_fields(run)
        assert fields == want, stretch_min
    if segment:
        for name in ("t", "run_acc", "next_tick", "buf_fill", "ring_used", "tool_ring"):
            assert getattr(run, name) == getattr(ref, name), name
    return report


def _batch_charge_us(pages: int) -> float:
    """What an spml tick that drains a whole batch charges, on either engine."""
    prices = CostTable.default().prices(pages * PAGE_SIZE)
    return prices.drain_batch * (prices.m18_pp + prices.m17_pp)


def _spml_sweep(pages: int, mechanical: bool, **kw) -> TrackerConfig:
    """A three-round spml sweep of ``pages`` pages."""
    return cfg("spml", pages * PAGE_SIZE, rounds=3, mechanical=mechanical, **kw)


def _at_buffer_gaps(test):
    """``test``, with examples of three-round 4,096-page segment sweeps whose
    quantum is 512 to 515 writes' µs (``knobs.BUFFER_GAPS_US``), around the gap
    past which the round skips a bound, and whose interval is one write
    shorter (515 for 512): spml under stall (its ring of two buffers stalls)
    and under drop (one buffer's ring drops), and epml, at each; and proc and
    uffd at a quantum below 514 writes, whose gaps the round always computes.
    A round that skipped gaps of 512 writes would fail at a 512-write quantum
    and at a 512-write interval, where a stretch after a swap can end one
    write before its buffer fills."""
    gaps = knobs.BUFFER_GAPS_US
    for quantum, interval in zip(gaps, gaps[-1:] + gaps[:-1]):
        for technique, ring, policy in (
            ("spml", 1024, "stall"), ("spml", 512, "drop"), ("epml", 16384, "stall")
        ):
            test = example(config=cfg(
                technique, 4096 * PAGE_SIZE, rounds=3, quantum_us=quantum,
                collection_interval_us=interval, ring_capacity=ring, ring_full_policy=policy,
            ))(test)
    for gap in gaps[:2]:
        for technique in ("proc", "uffd"):
            test = example(config=cfg(technique, 4096 * PAGE_SIZE, rounds=3, quantum_us=gap))(test)
    return test


@settings(max_examples=110, deadline=None)
# epml stretches that cross guest-buffer fills, and with a small ring and
# sparse ticks copies that saturate the tool ring
@example(config=cfg("epml", 2048 * PAGE_SIZE, rounds=3, mechanical=True))
@example(config=cfg("epml", 4096 * PAGE_SIZE, rounds=3, mechanical=True))
@example(config=cfg("epml", 4096 * PAGE_SIZE, rounds=3, collection_interval_us=2_000.0,
                    ring_capacity=512, mechanical=True))
@example(config=cfg("epml", 2048 * PAGE_SIZE, rounds=3, collection_interval_us=2_000.0,
                    ring_capacity=1024, mechanical=True))
# a one-buffer ring under stall: 137 stalled retries, 7 before a horizon that
# lands in a stall, and deferred mapping, whose ticks take the whole ring,
# stalling 22 times and ending in a stall
@example(config=_spml_sweep(4096, True, ring_capacity=512))
@example(config=_spml_sweep(4096, True, ring_capacity=512, horizon_us=12_000.0))
@example(config=_spml_sweep(4096, True, collection_interval_us=5_000.0, ring_capacity=512,
                            defer_reverse_map=True))
@example(config=_spml_sweep(513, True, collection_interval_us=5_000.0, ring_capacity=512,
                            defer_reverse_map=True, horizon_us=12_000.0))
# an interval of one batch's charge: a drain then spans exactly an interval,
# and the next tick lands on the next multiple, skipping none
@example(config=_spml_sweep(1_500, True, collection_interval_us=_batch_charge_us(1_500),
                            ring_capacity=512))
@given(config=knobs.runs("mechanical"))
def test_quiet_stretches_leave_every_report_field_as_write_by_write(config):
    # a mechanical sweep: its stretches, back-to-back ticks and parked pairs
    # (a drain maps its pairs at once in the reference)
    _assert_as_reference(config)


# stretches of a trace that reach a full buffer
_LONG_STRETCHES = dict(
    shape="stretch", pages=700, n_ops=2_500, p_churn=0.002, hot=1_000, seed=5, ring_capacity=1024
)
# spml stretches that pass unmaps and end at a tick that drains pairs of
# the pages they unmapped
_LATE_UNMAPS = {
    **_LONG_STRETCHES, "pages": 3, "p_churn": 0.05, "hot": 1, "seed": 0, "quantum_us": 300.0,
    "collection_interval_us": 40.0,
}
# churn-ckpt's traces: random_trace's 10% maps and 10% unmaps over a region
# pre-mapped whole, at the default config, with the bench's seed-1 first seed
_CHURN_CKPT = {
    **_LONG_STRETCHES, "shape": "premapped", "n_ops": 200, "p_churn": 0.2, "seed": 1_000_003,
    "ring_capacity": 16384,
}


@settings(max_examples=60, deadline=None)
@example(config=knobs.trace_run("spml", **_LONG_STRETCHES))
@example(config=knobs.trace_run("epml", **_LONG_STRETCHES))
# epml stretches that cross guest-buffer fills among hot pages, which a copy
# re-arms and the stretch then writes again
@example(config=knobs.trace_run("epml", **{**_LONG_STRETCHES, "hot": 40, "ring_capacity": 16384}))
@example(config=knobs.trace_run(
    "epml", **{**_LONG_STRETCHES, "hot": 300, "n_ops": 6_000, "ring_capacity": 16384}
))
@example(config=knobs.trace_run("spml", **_LATE_UNMAPS))
# a write to the page a move took away, in the window the move would end
@example(config=knobs.trace_run("proc", **{**_LATE_UNMAPS, "pages": 40, "n_ops": 700, "hot": 40}))
@example(config=knobs.trace_run("proc", **{**_CHURN_CKPT, "pages": 64}))
@example(config=knobs.trace_run("uffd", **{**_CHURN_CKPT, "pages": 64}))
@example(config=knobs.trace_run("spml", **{**_CHURN_CKPT, "pages": 64}))
@example(config=knobs.trace_run("epml", **{**_CHURN_CKPT, "pages": 64}))
@example(config=knobs.trace_run("proc", **{**_CHURN_CKPT, "pages": 4096}))
@example(config=knobs.trace_run("uffd", **{**_CHURN_CKPT, "pages": 4096}))
@example(config=knobs.trace_run("spml", **{**_CHURN_CKPT, "pages": 4096}))
@example(config=knobs.trace_run("epml", **{**_CHURN_CKPT, "pages": 4096}))
@given(config=knobs.runs("trace"))
def test_trace_stretches_leave_every_report_field_as_write_by_write(config):
    # a "stretch" trace's windows end at moves, at rewrites of an unmapped
    # page and at maps of a page written before; a "premapped" trace's run
    # through its maps and unmaps, as churn-ckpt's do
    _assert_as_reference(config)


@settings(max_examples=130, deadline=None)
# long epml rounds with no quantum, where a tick gap alone sometimes ends a
# stretch one write before the buffer would, and a full spml ring under
# stall, where every buffer-full vmexit waits for ticks
@example(config=cfg("epml", 50 * MB, rounds=13, quantum_us=math.inf, ring_capacity=1024))
@example(config=cfg("spml", 50 * MB, rounds=3, ring_capacity=1024))
# a swap's forced flush of a partly filled spml buffer into a ring that has
# no room for it, under stall (114 such swaps)
@example(config=cfg("spml", 50 * MB, rounds=3, quantum_us=300.0, ring_capacity=512))
# a swap's copy of a partly filled epml buffer into a tool ring without
# room for it, so entries drop (79 such swaps)
@example(config=cfg("epml", 50 * MB, rounds=3, quantum_us=300.0, ring_capacity=512))
# a stall that the horizon cuts short
@example(config=_spml_sweep(513, False, collection_interval_us=40.0, ring_capacity=512,
                            horizon_us=3_000.0))
@example(config=_spml_sweep(4096, False, ring_capacity=512, horizon_us=12_000.0))
# a swap and a due tick after the same stretch (70 times for spml, 13 for epml)
@example(config=cfg("spml", 50 * MB, rounds=3, quantum_us=300.0, collection_interval_us=40.0,
                    ring_capacity=1024))
@example(config=cfg("epml", 50 * MB, rounds=3, quantum_us=300.0, collection_interval_us=40.0))
# an interval of one batch's charge (see the mechanical sweeps)
@example(config=_spml_sweep(1_500, False, collection_interval_us=_batch_charge_us(1_500),
                            ring_capacity=512))
@_at_buffer_gaps
@given(config=knobs.runs("segment"))
def test_a_segment_round_on_locals_leaves_every_field_as_one_event_at_a_time(config):
    _assert_as_reference(config)


def _deferred_spml(mb: int, rounds: int, ring: int, policy: str, **kw) -> TrackerConfig:
    return cfg("spml", mb * MB, rounds=rounds, ring_capacity=ring, ring_full_policy=policy,
               defer_reverse_map=True, **kw)


@settings(max_examples=40, deadline=None)
# where the segment engine's own deferred mode disagreed: a deferred tick
# drained one batch, not the whole ring (225,438 against 64,859 µs of
# suspension; 10,280 drops against 0), and the report's reverse map charged
# every written page, dropped ones included (119,755 against 73,402 µs busy)
@example(config=_deferred_spml(5, 13, 1024, "stall"))
@example(config=_deferred_spml(5, 13, 1024, "drop"))
@example(config=_deferred_spml(16, 3, 512, "drop", collection_interval_us=5_000.0))
@given(config=knobs.runs("mechanical", ("spml",)))
def test_a_deferred_sweep_leaves_every_field_as_the_mechanical_engine(config):
    config = replace(config, defer_reverse_map=True)
    segment, mechanical = (
        _field_bits(run_tracker(replace(config, mechanical=engine))) for engine in (False, True)
    )
    assert segment == mechanical
    with pytest.raises(ValueError, match="defer_reverse_map"):
        trackers._SegmentRun(config)


def _tracker_config(run: str, technique: str, interval_us: float, **kw) -> TrackerConfig:
    """A short run of ``run``'s kind: a segment or mechanical sweep, or a trace."""
    if run == "trace":
        trace = random_trace(kw.pop("seed", 3), 512, 2_000)
        return cfg(technique, trace.memory_bytes, collection_interval_us=interval_us,
                   trace=trace, **kw)
    return cfg(technique, kw.pop("pages", 700) * PAGE_SIZE, rounds=2,
               collection_interval_us=interval_us, mechanical=run == "mechanical", **kw)


@pytest.mark.parametrize("run", ["segment", "mechanical", "trace"])
@pytest.mark.parametrize("technique", ["proc", "uffd"])
def test_a_proc_or_uffd_run_makes_no_tick(technique, run):
    ticks = []

    def counting(method):
        def counted(self, *args):
            ticks.append(self.tech)
            return method(self, *args)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        # epml ticks one at a time, spml a run of back-to-back ticks at a time
        for name in ("_tick", "_spml_ticks"):
            mp.setattr(trackers._Run, name, counting(getattr(trackers._Run, name)))
        # a short quantum: each swap is an event exit, where due ticks would run
        config = _tracker_config(run, technique, 40.0, quantum_us=300.0)
        if run == "segment":
            # the segment round runs epml's ticks inline, where no count sees
            # them: the run's clock must still have no tick scheduled
            segment = trackers._SegmentRun(config)
            assert segment.run().writes_done
            assert segment.next_tick == math.inf
        else:
            assert run_tracker(config).writes_done
        assert ticks == []
        run_tracker(_tracker_config(run, "spml", 40.0))  # the count sees ticks that happen
    assert ticks and set(ticks) == {"spml"}


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    engine=st.sampled_from(knobs.ENGINES),
    technique=st.sampled_from(["proc", "uffd"]),
)
def test_the_interval_moves_no_field_of_a_proc_or_uffd_report(data, engine, technique):
    config = data.draw(knobs.runs(engine, [technique]))
    intervals = data.draw(st.lists(knobs.intervals(technique), min_size=2, max_size=3))
    reports = [
        _field_bits(run_tracker(replace(config, collection_interval_us=interval_us)))
        for interval_us in intervals
    ]
    assert all(report == reports[0] for report in reports[1:])


class _ReadCountingOps(list):
    """A trace's ops that count how often they are read through."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_a_trace_is_decoded_once_for_all_its_runs():
    trace = random_trace(4, 256, 600)
    trace.ops = ops = _ReadCountingOps(trace.ops)
    run_tracker(cfg("proc", trace.memory_bytes, trace=trace))
    first = ops.reads
    for technique in ("uffd", "spml"):
        run_tracker(cfg(technique, trace.memory_bytes, trace=trace))
    assert first and ops.reads == first


@pytest.mark.parametrize("rounds", [2, 3])
@pytest.mark.parametrize("interval_us", [1_900.0, 2_000.0, 2_100.0, 2_200.0])
def test_a_round_that_starts_past_the_tick_is_exact(rounds, interval_us):
    # proc's pagemap walk moves the clock without a tick; these intervals put
    # a round's start past where a tick would be, but proc runs schedule no
    # tick, so its stretches run on
    config = cfg(
        "proc", 256 * PAGE_SIZE, rounds=rounds, collection_interval_us=interval_us, mechanical=True
    )
    _assert_as_reference(config)


@pytest.mark.parametrize("rounds", [2, 3])
@pytest.mark.parametrize(
    ("pages", "interval_us"), [(77, 72.0), (77, 36.0), (300, 273.0), (300, 91.0), (700, 636.0)]
)
def test_an_epml_round_that_starts_past_the_tick_is_exact(pages, interval_us, rounds):
    # epml's round-end leftover delivery moves the clock without a tick: at
    # these intervals it carries the clock over the tick, so the next round's
    # first write meets a stretch limit the clock has passed
    late = []
    drive = trackers._MechanicalRun._drive

    def watched(self, ops=None):
        late.append(self.t >= self.next_tick)
        return drive(self, ops)

    config = cfg(
        "epml", pages * PAGE_SIZE, rounds=rounds, collection_interval_us=interval_us,
        mechanical=True,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trackers._MechanicalRun, "_drive", watched)
        _assert_as_reference(config)
    assert any(late)


# ------------------------------------------------ a trace's stretches and windows


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_a_trace_is_truncated_when_an_op_is_left_at_the_horizon(technique):
    # the horizon falls on the last write: a trace that ends there is whole,
    # one with an unmap after it is truncated, whether a stretch passed the
    # unmap or not
    writes = [("write", (i % 8 + 1) * PAGE_SIZE) for i in range(64)]
    ends = []
    workload = trackers._MechanicalRun._workload

    def watched(self):
        workload(self)
        ends.append(self.t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trackers._MechanicalRun, "_workload", watched)
        run_tracker(cfg(technique, 8 * PAGE_SIZE, trace=TraceWorkload(writes)))
    for ops, truncated in ((writes, False), (writes + [("unmap", PAGE_SIZE)], True)):
        for stretch_min in (1, math.inf):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(trackers, "STRETCH_MIN", stretch_min)
                rep = run_tracker(
                    cfg(technique, 8 * PAGE_SIZE, horizon_us=ends[0], trace=TraceWorkload(ops))
                )
            assert (rep.writes_done, rep.truncated) == (64, truncated), stretch_min


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_a_churn_trace_writes_through_stretches(technique):
    # churn-ckpt's trace shape: a map or an unmap every ~5 ops, none of which
    # may end a stretch, so the writes reach write_one only where a stretch
    # cannot take them
    trace = random_trace(1, max_pages=1024)
    trace = TraceWorkload(trace.ops, initial_pages=1024)
    calls = {"write_one": 0, "quiet_run": 0, "written": 0}
    write_one, quiet_run, write_run = (
        VirtualMachine.write_one, VirtualMachine.quiet_run, VirtualMachine.write_run
    )

    def counted(name, method):
        def call(self, *args):
            calls[name] += 1
            return method(self, *args)
        return call

    def applied(self, pid, stretch, count):
        calls["written"] += count
        return write_run(self, pid, stretch, count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VirtualMachine, "write_one", counted("write_one", write_one))
        mp.setattr(VirtualMachine, "quiet_run", counted("quiet_run", quiet_run))
        mp.setattr(VirtualMachine, "write_run", applied)
        rep = run_tracker(cfg(technique, trace.memory_bytes, trace=trace))
    assert rep.writes_done == trace.n_writes > 100
    assert calls["quiet_run"] >= 1 and calls["write_one"] <= 4
    assert calls["written"] + calls["write_one"] == trace.n_writes


def _window_stops(ops: list[tuple]) -> list[int]:
    """The window ends of ``decoded``, by a scan of every op: a window is cut
    before a remap, a map of a page it named and any op on a page it unmapped."""
    stops, seen, writes = [], {}, 0
    for kind, gva, *_ in ops:
        if kind == "remap" or seen.get(gva) == "unmap" or kind == "map" and gva in seen:
            stops.append(writes)
            seen = {}
        if kind == "write":
            writes += 1
            seen.setdefault(gva, kind)
        else:
            seen[gva] = kind
    return stops + [writes]


@pytest.mark.parametrize("seed", range(12))
def test_windows_are_cut_where_a_scan_of_every_op_cuts_them(seed):
    # decoded scans only the pages a map, unmap or remap names
    traces = [
        knobs.stretch_trace(seed, 40, 2_000, 0.2, 40, stale=True),
        knobs.stretch_trace(seed, 3, 700, 0.05, 1, stale=True),
        random_trace(seed, 64, 400).ops,
        churn_trace(300, 40, seed=seed).ops,
        KvWorkloadSpec("kv", 8 * MB, churn_rate=20_000.0, n_ops=3_000, seed=seed).make_trace().ops,
    ]
    stops = [TraceWorkload(ops).decoded[4] for ops in traces]
    assert stops == list(map(_window_stops, traces))
    assert len(stops[0]) > 1  # moves, stale writes and maps of written pages cut


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_an_unaligned_trace_address_is_rejected(technique):
    ops = [("map", 0x100800), ("write", 0x100800)]
    with pytest.raises(ValueError, match=r"op 0: address 0x100800"):
        run_tracker(cfg(technique, 16 * PAGE_SIZE, trace=TraceWorkload(ops)))
    ops = [("write", _base_gvas(1)[0]), ("map", 0x20000), ("write", 0x1010)]
    with pytest.raises(ValueError, match=r"op 2: address 0x1010 "):
        run_tracker(cfg(technique, 16 * PAGE_SIZE, trace=TraceWorkload(ops)))


# ------------------------- spml maps a drained pair once per mapping epoch


@pytest.mark.parametrize("policy", ["stall", "drop"])
@pytest.mark.parametrize("ring", [512, 16384])
@pytest.mark.parametrize("pages", [300, 513, 4096])
def test_parked_pairs_leave_every_field_of_an_spml_sweep(pages, ring, policy):
    config = cfg("spml", pages * PAGE_SIZE, rounds=3, collection_interval_us=40.0,
                 ring_capacity=ring, ring_full_policy=policy, mechanical=True)
    assert _assert_as_reference(config).writes_done


@pytest.mark.parametrize("ring", [512, 16384])
def test_parked_pairs_leave_every_field_of_an_spml_trace_with_moves(ring):
    # maps, unmaps and moves between drains: a pair parked before an op must
    # be mapped against the mappings it was logged under.  A short quantum
    # flushes the log buffer at each swap, so the ticks drain pairs between ops
    lost = 0
    for seed in range(8):
        trace = knobs.with_remaps(random_trace(7 * seed + 1, 256, 1_500), seed)
        assert {op[0] for op in trace.ops} == {"write", "map", "unmap", "remap"}
        config = cfg("spml", trace.memory_bytes, quantum_us=100.0, collection_interval_us=40.0,
                     ring_capacity=ring, trace=trace)
        report = _assert_as_reference(config)
        lost += len(report.missed) + len(report.inaccurate)
    assert lost  # the traces reach pairs whose mapping an op changed


# ---------------------------------- NumPy's prefix sum adds in Python's order

# lengths up to 10**6, around the widths a SIMD loop would unroll by
_SUM_LENGTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257,
                1_000, 4_095, 4_096, 4_097, 65_537, 10**6]


def _byte_tables() -> tuple[np.ndarray, ...]:
    """Every technique's (wall, run) µs by state byte, as a stretch reads them."""
    tables = []
    for technique in TECHNIQUES:
        tables += trackers._MechanicalRun(cfg(technique, PAGE_SIZE, mechanical=True))._byte_us
    return tuple(tables)


@pytest.mark.parametrize("n", _SUM_LENGTHS)
def test_numpy_cumsum_adds_write_costs_as_accumulate_does(n):
    # a stretch's clock is exact only while np.cumsum adds one term at a time,
    # left to right; a NumPy that reorders the sum must fail here, not move
    # pinned floats
    rng = np.random.default_rng(n)
    start = float(rng.uniform(0.0, 6e7))
    for table in _byte_tables():
        taken = table.take(rng.integers(0, 256, n, dtype=np.uint8))
        costs = taken.tolist()
        want = np.array(list(accumulate(costs)))
        assert np.cumsum(taken).tobytes() == want.tobytes()
        assert np.cumsum(np.array(costs)).tobytes() == want.tobytes()
        seeded = np.array(list(accumulate(costs, initial=start)))
        assert trackers._sums(start, taken, n).tobytes() == seeded.tobytes()


@pytest.mark.parametrize("n", _SUM_LENGTHS)
def test_numpy_cumsum_adds_repeated_faults_as_reduce_does(n):
    uffd_fault = trackers._MechanicalRun(cfg("uffd", PAGE_SIZE, mechanical=True)).c.uffd_fault
    for start in (0.0, 1234.5678, 5.9e7 + 0.1):
        want = reduce(add, repeat(uffd_fault, n), start)
        full = np.full(n + 1, uffd_fault)
        full[0] = start
        assert np.cumsum(full)[-1].hex() == want.hex()
        assert float(trackers._sums(start, uffd_fault, n)[-1]).hex() == want.hex()


# ------------------------------------- collected pages merge to one array

_PAGE_RUNS = st.lists(
    st.tuples(st.lists(st.integers(0, 300), max_size=40), st.booleans()),
    min_size=1, max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(runs=_PAGE_RUNS)
def test_merged_pages_are_the_sorted_distinct_union(runs):
    """Whichever arrays are in order and whichever are not, the merge of a
    round's collected arrays is their sorted, distinct union."""
    arrays = [np.array(sorted(v) if ordered else v, dtype=np.int64) for v, ordered in runs]
    want = sorted({v for a in arrays for v in a.tolist()})
    merged = trackers._merged(arrays)
    assert merged.dtype == np.int64
    assert merged.tolist() == want


# ----------------------------------------------- an infinite horizon is legal


@pytest.mark.parametrize("run", ["segment", "mechanical", "trace"])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_an_infinite_horizon_runs_as_a_long_finite_one(technique, run):
    # the stretch peek must not size itself from an infinite limit or quantum;
    # little churn, so a trace's runs of writes are long enough to peek at
    def report(**kw):
        if run == "trace":
            trace = random_trace(5, 512, 2_000, p_unmap=0.01, p_map=0.01)
            config = cfg(technique, trace.memory_bytes, collection_interval_us=40.0,
                         trace=trace, **kw)
        else:
            config = cfg(technique, 300 * PAGE_SIZE, rounds=3, collection_interval_us=40.0,
                         mechanical=run == "mechanical", **kw)
        return _field_bits(run_tracker(config))

    finite = report(horizon_us=6e7)
    assert not finite["truncated"] and report(horizon_us=math.inf) == finite
    assert report(horizon_us=math.inf, quantum_us=math.inf) == report(quantum_us=1e12)


# ------------------------- a window's maps and unmaps apply in one call each


def _batch_traces(seed: int) -> dict[str, TraceWorkload]:
    """Four trace shapes with runs of maps; a premapped trace's maps go right
    after its region."""
    sizes = {"random": 256, "premapped": 256, "remap": 256, "churn": 300}
    return {
        shape: knobs.trace(shape, pages, 120 if shape == "churn" else 600, 0.2, 1, seed)
        for shape, pages in sizes.items()
    }


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_batched_ops_leave_every_report_field_of_one_op_per_call(technique, seed):
    joined = [0]
    join_pages = GuestPageTable.join_pages

    def counted(self, gva, gpa, count, **flags):
        done = join_pages(self, gva, gpa, count, **flags)
        joined[0] += done and count > 1
        return done

    for trace in _batch_traces(seed).values():
        with pytest.MonkeyPatch.context() as mp:
            # the reference joins no region, so the count sees the engine's joins only
            mp.setattr(GuestPageTable, "join_pages", counted)
            _assert_as_reference(cfg(technique, trace.memory_bytes, quantum_us=300.0, trace=trace))
    assert joined[0]  # runs of maps joined their region in one slice


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_batched_ops_leave_the_checkpoint_images_of_one_op_per_call(technique):
    def session(trace):
        sess = CheckpointSession(technique, trace.memory_bytes)
        step = -(-len(trace.ops) // 4)
        for k in range(4):
            sess.run_ops(trace.ops[k * step : (k + 1) * step])
            sess.checkpoint("full" if k == 0 else "incremental")
        return sess.images, sess.lost, sess.inaccurate

    for kind, trace in _batch_traces(3).items():
        batched = session(trace)
        with _ops_one_at_a_time():
            assert session(trace) == batched, kind


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_a_bad_op_inside_a_batch_raises_with_the_ops_before_it_applied(technique):
    base = (64 + 1) * PAGE_SIZE  # right after the 64 pages mapped at the start
    bad_unmap = [("unmap", PAGE_SIZE), ("unmap", 9 * PAGE_SIZE), ("unmap", PAGE_SIZE),
                 ("unmap", 3 * PAGE_SIZE)]
    bad_map = [("map", base), ("map", base + PAGE_SIZE), ("map", 5 * PAGE_SIZE),
               ("map", base + 2 * PAGE_SIZE)]

    def state(vm):
        table = vm.kernel.processes[TRACKED_PID].table
        gvas = range(PAGE_SIZE, base + 4 * PAGE_SIZE, PAGE_SIZE)
        gpas = range(0, vm._next_gpa, PAGE_SIZE)
        return (
            [table.entry(g) for g in gvas], vm.kernel.processes[TRACKED_PID].softdirty_residue,
            [vm.ept.translate(g) for g in gpas], vm._next_gva, vm._next_gpa, vm._next_hpa,
        )

    for ops, error in ((bad_unmap, UnknownMapping), (bad_map, AlreadyMapped)):
        ops = [("write", PAGE_SIZE), ("write", 9 * PAGE_SIZE)] + ops + [("write", 3 * PAGE_SIZE)]
        trace = TraceWorkload(ops, initial_pages=64)
        with pytest.raises(error) as raised:
            run_tracker(cfg(technique, trace.memory_bytes, trace=trace))
        with _ops_one_at_a_time(), pytest.raises(error) as once:
            run_tracker(cfg(technique, trace.memory_bytes, trace=trace))
        assert raised.value.args == once.value.args
        runs = []
        for apply in (VirtualMachine.apply_ops, _one_op_per_call):
            vm, _ = tracked_machine(cfg(technique, trace.memory_bytes, trace=trace))
            vm.write_one(TRACKED_PID, PAGE_SIZE)
            with pytest.raises(error) as raised:
                apply(vm, TRACKED_PID, [op for op in ops if op[0] != "write"])
            runs.append((raised.value.args, state(vm)))
        assert runs[0] == runs[1]
