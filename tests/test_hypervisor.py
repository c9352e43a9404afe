"""Ring framing, coordination protocol, service core, and migration rounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oohsim.engine import EventKind, SimEngine
from oohsim.hypervisor import (
    CoexistenceFlags,
    FlushResult,
    HvCore,
    Hypervisor,
    MigrationJob,
    ProtocolError,
    SpmlRingBuffer,
    model_check_coordination,
    run_migration,
)
from oohsim.memory import _HAS_DIRTY, PAGE_SIZE, Ept


def _dirty_gpas(ept: Ept) -> set[int]:
    """The frames whose EPT dirty bit is set."""
    return ept._pages(_HAS_DIRTY)


def _retrievable(buf) -> int:
    """The entries a drain of ``buf`` would take: fresh - index (0 when disabled)."""
    return 0 if buf.index == buf.disabled_index else buf.fresh_index - buf.index

# ----------------------------------------------------------------- ring


def test_ring_append_merges_same_pid_blocks():
    ring = SpmlRingBuffer(capacity=100)
    ring.append(7, [(1, 1), (2, 2)])
    ring.append(7, [(3, 3)])
    ring.append(9, [(4, 4)])
    assert [(b.pid, len(b.entries)) for b in ring.blocks] == [(7, 3), (9, 1)]
    assert ring.used == 4
    assert ring.free == 96


def test_ring_consume_is_fifo_and_decrements_counts():
    ring = SpmlRingBuffer(capacity=100)
    ring.append(7, [(1, 1), (2, 2), (3, 3)])
    ring.append(9, [(4, 4)])
    got = ring.consume(2)
    assert got == [(7, [(1, 1), (2, 2)])]  # the head block, cut
    assert ring.used == 2
    got = ring.consume(10)
    assert got == [(7, [(3, 3)]), (9, [(4, 4)])]
    assert ring.used == 0 and ring.blocks == []
    assert ring.consume(5) == []


def test_ring_capacity_counts_addresses_only():
    ring = SpmlRingBuffer(capacity=3)
    ring.append(1, [(1, 1)])
    ring.append(2, [(2, 2)])
    ring.append(3, [(3, 3)])  # three blocks, three addresses: exactly full
    assert ring.used == ring.capacity and ring.free == 0
    with pytest.raises(ValueError):
        ring.append(4, [(4, 4)])
    ring.append(4, [(4, 4)], force=True)  # coordination flushes may overfill
    assert ring.used == 4 and ring.free == 0


# ------------------------------------------------------------- hypercalls


def test_enable_logging_before_init_rejected():
    hv = Hypervisor()
    with pytest.raises(ProtocolError):
        hv.hypercall("enable_logging", pid=7)
    with pytest.raises(ProtocolError):
        hv.hypercall("disable_logging")
    with pytest.raises(ProtocolError):
        hv.hypercall("deactivate_pml")
    with pytest.raises(ProtocolError):
        hv.hypercall("frobnicate")


def test_double_init_rejected():
    hv = Hypervisor()
    hv.hypercall("init_pml")
    with pytest.raises(ProtocolError):
        hv.hypercall("init_pml")
    with pytest.raises(ProtocolError):
        hv.hypercall("init_shadow_vmcs")


def test_init_arms_only_once_scheduled_in():
    hv = Hypervisor()
    res = hv.hypercall("init_pml")
    assert hv.flags.enable_by_guest and not hv.flags.sched_in
    assert res.new_index == 512  # registered but off-cpu: device stays off
    res = hv.hypercall("enable_logging", pid=7)
    assert hv.flags.sched_in and hv.current_pid == 7
    assert res.new_index == 511


def test_shadow_vmcs_init_flags_extended_mode():
    hv = Hypervisor()
    hv.hypercall("init_shadow_vmcs")
    assert hv.pml.epml_enabled
    hv.hypercall("deactivate_shadow_vmcs")
    assert not hv.pml.epml_enabled and not hv.flags.enable_by_guest


# ------------------------------------------------------------ coordination


def _armed_guest_hv(**kw) -> Hypervisor:
    hv = Hypervisor(**kw)
    hv.hypercall("init_pml")
    hv.hypercall("enable_logging", pid=7)
    return hv


def test_guest_disable_with_vmm_active_keeps_device_armed():
    hv = _armed_guest_hv()
    hv.vmm_enable()
    for i in range(3):
        hv.log_write(100 + i, 200 + i)
    res = hv.hypercall("deactivate_pml")
    # departing entries reached both sides before the flag flip
    assert res.flush.delivered_ring == 3
    assert res.flush.delivered_migration == 3
    assert not hv.flags.enable_by_guest
    assert res.new_index == 511  # vmm still owns the device


def test_sched_out_without_vmm_disables_device():
    hv = _armed_guest_hv()
    hv.log_write(1, 2)
    res = hv.hypercall("disable_logging")
    assert res.flush.delivered_ring == 1
    assert res.new_index == 512
    assert hv.pml.hv_buffer.armed is False


def test_sched_in_with_vmm_flushes_to_migration_before_reset():
    hv = Hypervisor()
    hv.vmm_enable()
    hv.current_pid = 3
    hv.log_write(10, 11)
    hv.log_write(20, 21)
    hv.hypercall("init_pml")
    res = hv.hypercall("enable_logging", pid=7)
    assert (3, 10) in hv.migration_log and (3, 20) in hv.migration_log
    assert res.new_index == 511
    assert hv.ring.used == 0  # off-cpu entries never reach the guest ring


def test_log_write_tags_by_current_entitlement():
    hv = _armed_guest_hv()
    hv.log_write(1, 1)
    hv.vmm_enable()
    hv.log_write(2, 2)
    assert hv._entry_tags == [(True, True)]  # first entry flushed by vmm_enable
    assert hv.logged_guest_tagged == 2 and hv.logged_vmm_tagged == 1


# ----------------------------------------------------------- vmexit handler


def _fill_small_buffer(hv: Hypervisor, n: int) -> tuple[int, int]:
    """Log until the refused attempt; returns the refused entry."""
    for i in range(n):
        out = hv.log_write(1000 + i, 2000 + i)
        assert out.hv == "logged"
    refused = (1000 + n, 2000 + n)
    out = hv.log_write(*refused)
    assert out.hv_full
    return refused


def test_vmexit_flush_fills_ring_and_replays_refusal():
    hv = _armed_guest_hv(buffer_slots=4)
    refused = _fill_small_buffer(hv, 4)
    res = hv.handle_pml_full_vmexit(refused=refused)
    assert not res.stalled
    assert res.flush.delivered_ring == 4
    assert res.replayed == "logged"
    assert hv.vmexit_count == 1
    assert _retrievable(hv.pml.hv_buffer) == 1  # the replayed entry
    assert [(b.pid, len(b.entries)) for b in hv.ring.blocks] == [(7, 4)]


def test_vmexit_with_both_owners_delivers_both_sides():
    hv = _armed_guest_hv(buffer_slots=4)
    hv.vmm_enable()
    refused = _fill_small_buffer(hv, 4)
    res = hv.handle_pml_full_vmexit(refused=refused)
    assert res.flush.delivered_ring == 4
    assert res.flush.delivered_migration == 4
    assert len(hv.migration_log) == 4


def test_stall_policy_refuses_flush_until_ring_drains():
    hv = _armed_guest_hv(buffer_slots=4, ring_capacity=5, ring_full_policy="stall")
    hv.ring.append(7, [(i, i) for i in range(3)])  # 2 free < 4 needed
    refused = _fill_small_buffer(hv, 4)
    res = hv.handle_pml_full_vmexit(refused=refused)
    assert res.stalled
    assert hv.vmexit_stalls == 1
    assert hv.pml.hv_buffer.full  # untouched, still awaiting service
    hv.ring.consume(3)
    res = hv.handle_pml_full_vmexit(refused=refused)
    assert not res.stalled and res.flush.delivered_ring == 4
    assert hv.dropped_total == 0


def test_drop_policy_drops_overflow_and_injects_interrupt():
    hv = _armed_guest_hv(buffer_slots=4, ring_capacity=2, ring_full_policy="drop")
    refused = _fill_small_buffer(hv, 4)
    res = hv.handle_pml_full_vmexit(refused=refused)
    assert not res.stalled
    assert res.flush.delivered_ring == 2
    assert res.flush.dropped == 2
    assert res.interrupt_injected
    assert hv.interrupts_injected == 1
    assert hv.dropped_total == 2


def _flush_per_entry(taken, tags, now, epml, ring_free, allow_drop, pid):
    """The flush's routing one entry at a time: the result, the ring entries
    appended and the migration log entries appended."""
    ring, migration = [], []
    discarded = mismatches = 0
    for (gpa, gva), tag in zip(taken, tags):
        guest, vmm = tag
        if tag != now:
            mismatches += 1
        if vmm:
            migration.append((pid, gpa))
        if guest and not epml:
            ring.append((gpa, gva))
        if not guest and not vmm:
            discarded += 1
    dropped = 0
    if allow_drop and len(ring) > ring_free:
        dropped = len(ring) - ring_free
        ring = ring[:ring_free]
    result = FlushResult(len(ring), len(migration), discarded, dropped, mismatches)
    return result, ring, migration


_owner_flags = st.tuples(st.booleans(), st.booleans(), st.booleans())  # guest, sched_in, vmm
_COUNTERS = (
    "tag_mismatches",
    "discarded_total",
    "dropped_total",
    "ring_delivered_total",
    "migration_delivered_total",
)


@settings(max_examples=300, deadline=None)
@given(
    logs=st.lists(
        st.tuples(_owner_flags, st.integers(0, 24), st.integers(1, 6)), max_size=8
    ),
    now=_owner_flags,
    epml=st.booleans(),
    policy=st.sampled_from(["stall", "drop"]),
    capacity=st.integers(1, 16),
    queued=st.integers(0, 16),
)
def test_flush_routes_tag_runs_like_a_per_entry_loop(logs, now, epml, policy, capacity, queued):
    # runs of consecutive frames, each logged under its own flags, then
    # flushed under ``now``: tags that differ from it are mismatches
    base, pid = 0x10_0000, 7
    ept = Ept()
    ept.map_region(base, 0x1000_0000, 32)
    for i in range(32):
        ept.set_dirty(base + i * PAGE_SIZE)
    hv = Hypervisor(ring_capacity=capacity, ring_full_policy=policy, buffer_slots=64, ept=ept)
    hv.current_pid = pid
    hv.pml.epml_enabled = epml
    hv.ring.append(3, [(i, i) for i in range(min(queued, capacity))])
    hv.migration_log.append((3, 1))
    hv.pml.hv_buffer.reset(hv.pml.hv_buffer.fresh_index)
    for (guest, sched_in, vmm), start, n in logs:
        hv.flags = CoexistenceFlags(enable_by_vmm=vmm, enable_by_guest=guest, sched_in=sched_in)
        for i in range(start, start + n):
            assert hv.log_write(base + i * PAGE_SIZE, 0x40_0000 + i * PAGE_SIZE).hv == "logged"
    guest, sched_in, vmm = now
    hv.flags = CoexistenceFlags(enable_by_vmm=vmm, enable_by_guest=guest, sched_in=sched_in)

    taken, tags = list(hv.pml.hv_buffer.entries), list(hv._entry_tags)
    ring_before = [(b.pid, e) for b in hv.ring.blocks for e in b.entries]
    migration_before = list(hv.migration_log)
    counters_before = {name: getattr(hv, name) for name in _COUNTERS}
    allow_drop = policy == "drop"
    want, ring, migration = _flush_per_entry(
        taken, tags, (guest and sched_in, vmm), epml, hv.ring.free, allow_drop, pid
    )

    assert hv._flush_buffer(allow_drop=allow_drop) == want
    assert [(b.pid, e) for b in hv.ring.blocks for e in b.entries] == ring_before + [
        (pid, e) for e in ring
    ]
    assert hv.ring.used == len(ring_before) + len(ring)
    assert hv.migration_log == migration_before + migration
    assert {name: getattr(hv, name) for name in _COUNTERS} == {
        "tag_mismatches": counters_before["tag_mismatches"] + want.tag_mismatches,
        "discarded_total": counters_before["discarded_total"] + want.discarded,
        "dropped_total": counters_before["dropped_total"] + want.dropped,
        "ring_delivered_total": counters_before["ring_delivered_total"] + want.delivered_ring,
        "migration_delivered_total": (
            counters_before["migration_delivered_total"] + want.delivered_migration
        ),
    }
    assert hv.pml.hv_buffer.entries == [] and hv._entry_tags == []
    # every flushed frame is re-armed, and no other
    flushed = {gpa for gpa, _gva in taken}
    assert _dirty_gpas(ept) == {base + i * PAGE_SIZE for i in range(32)} - flushed


def test_extended_mode_keeps_hv_buffer_off_without_vmm():
    hv = Hypervisor(buffer_slots=4)
    hv.hypercall("init_shadow_vmcs")
    res = hv.hypercall("enable_logging", pid=7)
    # guest consumes via its dual-logged buffer: the hypervisor-level buffer
    # stays disabled, so tracked writes never take buffer-full vmexits
    assert res.new_index == 4  # disabled for this geometry
    assert hv.log_write(1, 1).hv == "disabled"


def test_extended_mode_vmexit_serves_vmm_and_skips_ring():
    hv = Hypervisor(buffer_slots=4)
    hv.hypercall("init_shadow_vmcs")
    hv.hypercall("enable_logging", pid=7)
    hv.vmm_enable()  # migration wants the hv-level log
    refused = _fill_small_buffer(hv, 4)
    res = hv.handle_pml_full_vmexit(refused=refused)
    assert res.flush.delivered_ring == 0
    assert res.flush.delivered_migration == 4
    assert res.flush.discarded == 0
    assert hv.ring.used == 0


# ------------------------------------------------------------- model check


def test_model_check_finds_no_violations():
    res = model_check_coordination(depth=8, buffer_slots=2)
    assert res.ok, res.violations[:5]
    assert res.states_explored > 10
    assert res.transitions > 100


def test_model_check_detects_reconfigure_before_flush():
    class FaultyHypervisor(Hypervisor):
        # unsets sched_in *before* flushing: buffered guest-entitled entries
        # are then routed under the wrong flags
        def coordinate(self, request, pid=None):
            if request == "sched_out":
                self.flags.sched_in = False
            return super().coordinate(request, pid=pid)

    res = model_check_coordination(depth=4, buffer_slots=2, hv_factory=FaultyHypervisor)
    assert not res.ok
    assert any("tag mismatch" in v or "lost" in v for v in res.violations)


def test_armed_expected_property():
    assert not CoexistenceFlags().armed_expected
    assert CoexistenceFlags(enable_by_vmm=True).armed_expected
    assert not CoexistenceFlags(enable_by_guest=True).armed_expected
    assert CoexistenceFlags(enable_by_guest=True, sched_in=True).armed_expected


# ------------------------------------------------------------ service core


def test_background_job_alone_runs_in_wall_time():
    eng = SimEngine()
    core = HvCore(eng)
    done = []
    core.start_background(100.0, done.append)
    eng.run()
    assert done == [100.0]


def test_priority_service_stretches_background_job():
    eng = SimEngine()
    core = HvCore(eng)
    done = []
    core.start_background(100.0, done.append)
    eng.schedule_at(10.0, EventKind.VMEXIT, lambda ev: core.service(30.0))
    eng.run()
    # job ran [0,10], blocked [10,40], ran [40,130]
    assert done == [130.0]


def test_back_to_back_services_serialize():
    eng = SimEngine()
    core = HvCore(eng)
    done = []
    core.start_background(100.0, done.append)
    eng.schedule_at(10.0, EventKind.VMEXIT, lambda ev: core.service(30.0))
    eng.schedule_at(20.0, EventKind.VMEXIT, lambda ev: core.service(50.0))
    eng.run()
    # busy [10,40] then [40,90]; job ran [0,10] and [90,180]
    assert done == [180.0]
    assert core.busy_until == 90.0


def test_job_started_while_core_busy_waits():
    eng = SimEngine()
    core = HvCore(eng)
    done = []

    def kick(ev):
        core.service(50.0)
        core.start_background(100.0, done.append)

    eng.schedule_at(0.0, EventKind.VMEXIT, kick)
    eng.run()
    assert done == [150.0]


def test_only_one_background_job_at_a_time():
    eng = SimEngine()
    core = HvCore(eng)
    core.start_background(10.0, lambda t: None)
    with pytest.raises(RuntimeError):
        core.start_background(10.0, lambda t: None)


# --------------------------------------------------------------- migration


def test_migration_baseline_converges_quickly():
    rep = run_migration(MigrationJob())
    assert rep.stop_reason == "threshold"
    assert rep.rounds[0].pages_sent == 25600
    assert rep.rounds[0].duration_ms == pytest.approx(64.0, rel=0.05)
    assert 2 <= len(rep.rounds) <= 7
    assert 64.0 < rep.total_ms < 85.0
    assert rep.downtime_ms < 1.0


def test_migration_is_deterministic():
    a = run_migration(MigrationJob(seed=11))
    b = run_migration(MigrationJob(seed=11))
    assert a.total_ms == b.total_ms
    assert [r.pages_sent for r in a.rounds] == [r.pages_sent for r in b.rounds]


def test_concurrent_load_inflates_total_time():
    base = run_migration(MigrationJob())
    loaded = run_migration(MigrationJob(), concurrent_load=(8000.0, 2186.0))
    inflation = 100.0 * (loaded.total_ms / base.total_ms - 1.0)
    assert 15.0 < inflation < 90.0


def test_write_storm_hits_round_cap_not_livelock():
    # small hot set redirtied faster than it can be sent: never converges
    job = MigrationJob(
        vm_pages=2048, hot_pages=256, writes_per_s=1_000_000.0, max_rounds=10
    )
    rep = run_migration(job)
    assert rep.stop_reason == "max_rounds"
    assert len(rep.rounds) == 11  # 10 pre-copy rounds plus the stop-and-copy
