"""Tracker engines: per-technique costs, ordering, and engine equivalence."""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oohsim.checkpoint import CheckpointSession
from oohsim.costs import PAGE_SIZE, CostTable
from oohsim.experiments import ConfigError, ExperimentConfig
from oohsim.guest import TECHNIQUES
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
from oohsim.workloads import random_trace

MB = 1 << 20
GB = 1000 * MB


def cfg(technique, memory_bytes, **kw):
    return TrackerConfig(technique=technique, memory_bytes=memory_bytes, **kw)


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


def test_pages_rounding():
    assert TrackerConfig(technique="proc", memory_bytes=1).pages == 1
    assert TrackerConfig(technique="proc", memory_bytes=GB).pages == 256_000


# ------------------------------------------------- per-technique cost shapes


def test_softdirty_one_gb_overhead_and_suspension():
    rep = run_tracker(cfg("proc", GB))
    assert rep.ideal_us == pytest.approx(13 * 256_000 * 0.9)
    assert rep.overhead_tracked_pct == pytest.approx(273.44, abs=0.5)
    assert rep.suspension_fraction == pytest.approx(0.6932, abs=0.005)
    assert rep.vmexits == 0 and rep.dropped == 0
    assert not rep.truncated
    # collection walk+clear happen once per round
    assert rep.collect_parts["walk_us"] == pytest.approx(13 * 594_187.0)
    assert rep.collect_parts["other_us"] == pytest.approx(13 * 2_234.0)


def test_writeprotect_one_gb_overhead_and_suspension():
    rep = run_tracker(cfg("uffd", GB))
    assert rep.overhead_tracked_pct == pytest.approx(1526.3, abs=1.0)
    assert rep.suspension_fraction == pytest.approx(0.9385, abs=0.002)
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
    assert rep.suspension_fraction > 0.8  # mostly stalled on the full ring
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


@pytest.mark.parametrize("technique", ["proc", "uffd", "spml", "epml"])
def test_segment_engine_matches_mechanical_engine(technique):
    kw = dict(
        memory_bytes=4 * MB,  # 1024 pages
        rounds=3,
        quantum_us=2_000.0,
        collection_interval_us=1_000.0,
    )
    seg = run_tracker(cfg(technique, **kw))
    mech = run_tracker(cfg(technique, mechanical=True, **kw))
    assert mech.writes_done == seg.writes_done == 3 * 1024
    assert mech.rounds_done == seg.rounds_done == 3
    assert mech.vmexits == seg.vmexits
    assert mech.softirq_copies == seg.softirq_copies
    assert mech.n_sched_events == seg.n_sched_events
    assert mech.dropped == seg.dropped == 0
    rel = 1e-6
    assert mech.monitor_span_us == pytest.approx(seg.monitor_span_us, rel=rel)
    assert mech.tracked_suspension_total_us == pytest.approx(
        seg.tracked_suspension_total_us, rel=rel, abs=1e-6
    )
    assert mech.tracker_busy_us == pytest.approx(seg.tracker_busy_us, rel=rel, abs=1e-6)
    assert mech.collect_time_us == pytest.approx(seg.collect_time_us, rel=rel, abs=1e-6)
    assert mech.init_time_us == pytest.approx(seg.init_time_us)


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

    vm, gvas, init_us = tracked_machine(cfg(technique, size, table=table))
    kern = vm.kernel
    assert kern.uio.prices == prices
    assert init_us == prices.init_us(technique)
    assert kern.on_schedule(TRACKED_PID, "in") == prices.sched_us(technique, "in")
    for gva in gvas[:5]:
        vm.write_one(TRACKED_PID, gva)
    if technique == "epml":
        assert kern.deliver_guest_buffer_full(TRACKED_PID) == (5, prices.copy_us(5))
    if technique == "proc":
        assert kern.read_pagemap(TRACKED_PID)[1] == prices.m16
        assert kern.clear_soft_dirty(TRACKED_PID)[1] == prices.m15
    assert kern.on_schedule(TRACKED_PID, "out") == prices.sched_us(technique, "out")


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
# skeleton.  The engines differ on some of these rows (ROADMAP open item 2);
# each is pinned to itself.
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
    ("spml", 1, 256, "drop", True): (768, 1, 0, 256, 2, 256, 0, 2823.5, 20467.0),
    ("spml", 1, 1024, "stall", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 1024, "stall", True): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 1024, "drop", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 1024, "drop", True): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 16384, "stall", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 16384, "stall", True): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 16384, "drop", False): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 1, 16384, "drop", True): (768, 1, 0, 0, 2, 256, 0, 2823.5, 20470.0),
    ("spml", 4, 256, "drop", False): (3072, 5, 0, 1664, 2, 1024, 0, 13267.1, 23075.375),
    ("spml", 4, 256, "drop", True): (3072, 5, 0, 1664, 2, 1024, 0, 13267.1, 43127.3333333),
    ("spml", 4, 1024, "stall", False): (3072, 5, 0, 0, 2, 1024, 0, 26595.2333333, 43136.0),
    ("spml", 4, 1024, "stall", True): (3072, 5, 0, 0, 2, 1024, 0, 26595.2333333, 43136.0),
    ("spml", 4, 1024, "drop", False): (3072, 5, 0, 896, 2, 1024, 0, 13267.1, 32334.125),
    ("spml", 4, 1024, "drop", True): (3072, 5, 0, 896, 2, 1024, 0, 13267.1, 43131.3333333),
    ("spml", 4, 16384, "stall", False): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "stall", True): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "drop", False): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
    ("spml", 4, 16384, "drop", True): (3072, 5, 0, 0, 2, 1024, 0, 13267.1, 43136.0),
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
            _check_pinned((mechanical, *key), rep, pinned[key])


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
    assert sorted(_PINNED_SEGMENT) == sorted(list(_mechanical_grid()) + list(_PINNED_EDGE))
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
    vm = VirtualMachine(CostTable.default())
    vm.create_process(1)
    gvas = list(vm.allocate(1, n_pages))
    vm.kernel.register_tracked(1, "spml", 4 * MB)
    vm.kernel.on_schedule(1, "in")
    for gva in gvas:
        vm.write_one(1, gva)
    vm.kernel.on_schedule(1, "out")  # coordination flush moves entries to the ring
    return vm, gvas


def test_drain_ring_reverse_maps_batch():
    vm, gvas = _flushed_spml_vm(5)
    res = drain_ring(vm, batch=3)
    assert res.consumed == 3
    assert res.gvas == gvas[:3]
    assert res.lost == [] and res.inaccurate == []
    t = vm.costs
    assert res.rm_us == pytest.approx(3 * t.per_page_us("M17", 4 * MB))
    assert res.copy_us == pytest.approx(3 * t.per_page_us("M18", 4 * MB))
    assert vm.hv.ring.used == 2


def test_drain_ring_deferred_keeps_raw_addresses():
    vm, gvas = _flushed_spml_vm(4)
    res = drain_ring(vm, defer_reverse_map=True)
    assert res.consumed == 4
    assert res.gvas == [] and res.rm_us == 0.0
    assert [meta for _gpa, meta in res.raw] == gvas


def test_drain_ring_reports_lost_and_inaccurate():
    vm, gvas = _flushed_spml_vm(3)
    # lose one mapping; alias another at a lower address so the reverse
    # mapping resolves to the wrong name
    vm.unmap(1, gvas[0])
    proc = vm.kernel.processes[1]
    gpa1 = proc.table.entry(gvas[1]).gpa
    alias = 0x800
    proc.table.map_page(alias, gpa1)
    res = drain_ring(vm)
    assert [meta for _gpa, meta in res.lost] == [gvas[0]]
    assert (alias, gvas[1]) in res.inaccurate
    assert gvas[2] in res.gvas


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


class _Trace:
    def __init__(self, ops):
        self.ops = ops


def _base_gvas(n=4):
    # allocation in a fresh machine hands out 0x1000, 0x2000, ...
    return [0x1000 * (i + 1) for i in range(n)]


@pytest.mark.parametrize("technique", ["proc", "uffd", "epml"])
def test_trace_unmap_churn_collected_exactly(technique):
    a, b, c, d = _base_gvas(4)
    ops = [("write", a), ("write", b), ("write", c), ("unmap", b), ("write", d)]
    rep = run_tracker(cfg(technique, 16 * 4096, trace=_Trace(ops)))
    assert rep.dirty_set == {a, b, c, d}
    assert rep.missed == set()


def test_trace_unmap_churn_ring_misses_only_unmapped():
    a, b, c, d = _base_gvas(4)
    ops = [("write", a), ("write", b), ("write", c), ("unmap", b), ("write", d)]
    rep = run_tracker(cfg("spml", 16 * 4096, trace=_Trace(ops)))
    assert rep.missed == {b}
    assert rep.dirty_set == {a, c, d}


def test_trace_remap_moves_or_misnames_the_page():
    a = 0x1000
    e = 0x200000
    ops = [("write", a), ("remap", a, e)]
    proc_rep = run_tracker(cfg("proc", 16 * 4096, trace=_Trace(ops)))
    assert proc_rep.dirty_set == {e}  # the bit travelled with the mapping
    epml_rep = run_tracker(cfg("epml", 16 * 4096, trace=_Trace(ops)))
    assert epml_rep.dirty_set == {a}  # logged under the name used at write time
    spml_rep = run_tracker(cfg("spml", 16 * 4096, trace=_Trace(ops)))
    assert spml_rep.dirty_set == {e}
    assert (e, a) in spml_rep.inaccurate  # reverse map found the new name


def test_trace_determinism():
    a, b, _c, _d = _base_gvas(4)
    fresh = 0x20000  # beyond the 16 pre-allocated pages
    ops = [("write", a), ("write", b), ("unmap", a), ("map", fresh), ("write", fresh)]
    r1 = run_tracker(cfg("uffd", 16 * 4096, trace=_Trace(ops)))
    r2 = run_tracker(cfg("uffd", 16 * 4096, trace=_Trace(ops)))
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


# ------------------------------------------------ quiet stretches are exact


def _field_bits(report: TrackerPhaseReport) -> dict:
    """Every report field, floats as their exact hex form."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: exact(v) for k, v in value.items()}
        return value

    return {f.name: exact(getattr(report, f.name)) for f in fields(report)}


def _assert_stretches_exact(config) -> None:
    """The run gives the report it gives with every write by ``write_one``."""
    stretched = run_tracker(config)
    with pytest.MonkeyPatch.context() as mp:
        # no quiet run: every write goes through write_one
        mp.setattr(VirtualMachine, "quiet_run", lambda self, pid, gva, n: b"")
        stepped = run_tracker(config)
    assert _field_bits(stretched) == _field_bits(stepped)


@settings(max_examples=80, deadline=None)
@given(
    technique=st.sampled_from(TECHNIQUES),
    pages=st.sampled_from([1, 77, 512, 513, 700]),
    rounds=st.integers(min_value=0, max_value=3),
    quantum_us=st.sampled_from([0.5, 300.0, 3_000.0, 10_000.0]),
    interval_us=st.sampled_from([40.0, 250.0, 1_000.0, 2_000.0]),
    ring=st.sampled_from([512, 1024, 16384]),
    policy=st.sampled_from(["stall", "drop"]),
    defer=st.booleans(),
    horizon_us=st.sampled_from([0.0, 350.0, 3_000.0, 6e7]),
)
def test_quiet_stretches_leave_every_report_field_as_write_by_write(
    technique, pages, rounds, quantum_us, interval_us, ring, policy, defer, horizon_us
):
    config = cfg(
        technique,
        pages * PAGE_SIZE,
        rounds=rounds,
        quantum_us=quantum_us,
        collection_interval_us=interval_us,
        ring_capacity=ring,
        ring_full_policy=policy,
        defer_reverse_map=defer,
        horizon_us=horizon_us,
        mechanical=True,
    )
    _assert_stretches_exact(config)


@pytest.mark.parametrize("rounds", [2, 3])
@pytest.mark.parametrize("interval_us", [1_900.0, 2_000.0, 2_100.0, 2_200.0])
def test_a_round_that_starts_past_the_tick_is_exact(rounds, interval_us):
    # proc's pagemap walk is not ticked, so at these intervals a round starts
    # with the clock already past the next collection tick
    config = cfg(
        "proc", 256 * PAGE_SIZE, rounds=rounds, collection_interval_us=interval_us, mechanical=True
    )
    _assert_stretches_exact(config)
