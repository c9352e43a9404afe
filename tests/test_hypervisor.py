"""Ring framing, coordination protocol, service core, and migration rounds."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oohsim.costs import CostTable
from oohsim.hypervisor import (
    COORD_REQUESTS,
    CoexistenceFlags,
    FlushResult,
    HvCore,
    Hypervisor,
    MigrationJob,
    MigrationReport,
    MigrationRoundStat,
    ModelCheckResult,
    ProtocolError,
    SpmlRingBuffer,
    _DRAW_BLOCK,
    _hv_from_state,
    _state_of,
    model_check_coordination,
    run_migration,
)
from oohsim.memory import PAGE_SIZE, Ept

from helpers import dirty_gpas, retrievable, time_doubled


# ----------------------------------------------------------------- ring


def _pairs(rows) -> list[tuple[int, int]]:
    """An ``(n, 2)`` array of ``(gpa, meta_gva)`` rows as a list of pairs."""
    return list(map(tuple, rows.tolist()))


def _ring_entries(ring) -> list[tuple[int, tuple[int, int]]]:
    """Each entry on ``ring``, in order, with its block's pid."""
    return [(b.pid, e) for b in ring.blocks for e in _pairs(b.entries)]


def _tags(hv) -> list[tuple[bool, bool]]:
    """The buffered entries' tags, one per entry (``_entry_tags`` holds runs)."""
    return [tag for tag, n in hv._entry_tags for _ in range(n)]


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
    assert [(pid, _pairs(rows)) for pid, rows in got] == [(7, [(1, 1), (2, 2)])]  # head, cut
    assert ring.used == 2
    got = ring.consume(10)
    assert [(pid, _pairs(rows)) for pid, rows in got] == [(7, [(3, 3)]), (9, [(4, 4)])]
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
    assert _tags(hv) == [(True, True)]  # first entry flushed by vmm_enable
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
    assert retrievable(hv.pml.hv_buffer) == 1  # the replayed entry
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

_log = st.tuples(st.just("log"))
_log_ops = st.one_of(
    _log, _log, _log, _log,  # logs weigh most: each other op empties or reconfigures
    st.tuples(st.just("log_run"), st.integers(1, 5)),
    st.tuples(st.just("drain"), st.none() | st.integers(0, 6)),
    st.tuples(st.just("flags"), _owner_flags),  # a reconfigure with no flush: mixed tags
    st.tuples(st.just("reset"), st.booleans()),
    st.tuples(st.just("coordinate"), st.sampled_from(COORD_REQUESTS), st.integers(1, 3)),
    st.tuples(st.just("vmexit"), st.booleans()),
    st.tuples(st.just("consume"), st.integers(1, 6)),
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

    taken, tags = _pairs(hv.pml.hv_buffer.entries), _tags(hv)
    ring_before = _ring_entries(hv.ring)
    migration_before = list(hv.migration_log)
    counters_before = {name: getattr(hv, name) for name in _COUNTERS}
    allow_drop = policy == "drop"
    want, ring, migration = _flush_per_entry(
        taken, tags, (guest and sched_in, vmm), epml, hv.ring.free, allow_drop, pid
    )

    assert hv._flush_buffer(allow_drop=allow_drop) == want
    assert _ring_entries(hv.ring) == ring_before + [
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
    assert hv.pml.hv_buffer.entries.tolist() == [] and _tags(hv) == []
    # every flushed frame is re-armed, and no other
    flushed = {gpa for gpa, _gva in taken}
    assert dirty_gpas(ept) == {base + i * PAGE_SIZE for i in range(32)} - flushed


class _ListLog:
    """The hypervisor's log path one entry at a time on lists of tuples: the
    reference the array-backed buffers, tag runs and ring blocks are held to."""

    def __init__(self, slots, capacity, policy, epml):
        self.slots, self.capacity, self.policy, self.epml = slots, capacity, policy, epml
        self.index, self.entries, self.tags, self.drops = slots, [], [], 0
        # the guest buffer logs in extended mode, armed from the start
        self.g_index, self.g_entries, self.g_drops = (slots - 1 if epml else slots), [], 0
        self.guest = self.vmm = self.sched_in = False
        self.pid = None
        self.blocks, self.migration = [], []
        self.dropped = self.discarded = self.mismatches = self.stalls = self.vmexits = 0

    def _log(self, index, entries, entry):
        if index == self.slots:
            return index, "disabled", 0
        if index < 0:
            return index, "full", 1
        entries.append(entry)
        return index - 1, "logged", 0

    def log(self, gpa, gva):
        self.index, hv, drop = self._log(self.index, self.entries, (gpa, gva))
        self.drops += drop
        if hv == "logged":
            self.tags.append((self.guest and self.sched_in, self.vmm))
        if not self.epml:
            return hv, None
        self.g_index, guest, drop = self._log(self.g_index, self.g_entries, gva)
        self.g_drops += drop
        return hv, guest

    def drain(self, n=None):
        n = len(self.entries) if n is None else n
        taken, self.entries = self.entries[:n], self.entries[n:]
        if not self.entries and self.index != self.slots:
            self.index = self.slots - 1
        return taken

    def flush(self, allow_drop):
        taken, tags, self.tags = self.drain(), self.tags, []
        now, ring = (self.guest and self.sched_in, self.vmm), []
        for (gpa, gva), tag in zip(taken, tags):
            self.mismatches += tag != now
            if tag[1]:
                self.migration.append((self.pid, gpa))
            if tag[0] and not self.epml:
                ring.append((gpa, gva))
            elif not tag[0] and not tag[1]:
                self.discarded += 1
        free = max(0, self.capacity - self.used)
        if allow_drop and len(ring) > free:
            self.dropped += len(ring) - free
            ring = ring[:free]
        if ring and self.blocks and self.blocks[-1][0] == self.pid:
            self.blocks[-1][1].extend(ring)
        elif ring:
            self.blocks.append((self.pid, ring))

    @property
    def used(self):
        return sum(len(entries) for _pid, entries in self.blocks)

    def coordinate(self, request, pid):
        self.flush(allow_drop=False)
        if request in ("guest_enable", "guest_disable"):
            self.guest = request == "guest_enable"
        elif request in ("vmm_enable", "vmm_disable"):
            self.vmm = request == "vmm_enable"
        else:
            self.sched_in = request == "sched_in"
            if self.sched_in:
                self.pid = pid
        armed = self.vmm or (self.guest and self.sched_in and not self.epml)
        self.index, self.entries = (self.slots - 1 if armed else self.slots), []

    def vmexit(self, refused):
        uses_ring = self.guest and self.sched_in and not self.epml
        free = max(0, self.capacity - self.used)
        if uses_ring and self.policy == "stall" and free < len(self.entries):
            self.stalls += 1
            return
        self.flush(allow_drop=self.policy == "drop")
        self.vmexits += 1
        if refused is not None:
            self.log(*refused)

    def consume(self, k):
        out = []
        while self.blocks and k > 0:
            pid, entries = self.blocks[0]
            out.append((pid, entries[:k]))
            del entries[:k]
            if not entries:
                self.blocks.pop(0)
            k -= len(out[-1][1])
        return out


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(_log_ops, min_size=20, max_size=60),
    slots=st.integers(2, 6),
    capacity=st.integers(2, 12),
    policy=st.sampled_from(["stall", "drop"]),
    epml=st.booleans(),
    start=st.sampled_from([(), ("guest_enable", "sched_in"), ("vmm_enable",),
                           ("guest_enable", "sched_in", "vmm_enable")]),
)
def test_array_log_path_matches_a_list_of_tuples_model(ops, slots, capacity, policy, epml, start):
    hv = Hypervisor(ring_capacity=capacity, ring_full_policy=policy, buffer_slots=slots)
    model = _ListLog(slots, capacity, policy, epml)
    if epml:
        hv.pml.epml_enabled = True
        hv.pml.guest_buffer.reset(hv.pml.guest_buffer.fresh_index)
    buf, gbuf = hv.pml.hv_buffer, hv.pml.guest_buffer
    addr = 0x10_0000
    for request in start:
        hv.coordinate(request, pid=1)
        model.coordinate(request, 1)
    for op in ops:
        kind = op[0]
        if kind == "log":
            addr += PAGE_SIZE
            out = hv.log_write(addr, addr + 1)
            assert (out.hv, out.guest) == model.log(addr, addr + 1), op
        elif kind == "log_run":
            free = hv.pml.free_slots()
            if free is None or free < op[1]:
                continue  # a run is logged only where each entry finds a slot
            gpas = addr + PAGE_SIZE * np.arange(1, op[1] + 1)
            addr += op[1] * PAGE_SIZE
            hv.log_writes(gpas, gpas + 1)
            for gpa in gpas.tolist():
                model.log(gpa, gpa + 1)
        elif kind == "drain":
            assert _pairs(buf.drain(op[1])) == model.drain(op[1])
        elif kind == "flags":
            guest, sched_in, vmm = op[1]
            hv.flags = CoexistenceFlags(enable_by_vmm=vmm, enable_by_guest=guest, sched_in=sched_in)
            model.guest, model.sched_in, model.vmm = guest, sched_in, vmm
        elif kind == "reset":
            value = buf.fresh_index if op[1] else buf.disabled_index
            buf.reset(value)
            model.index, model.entries = value, []
        elif kind == "coordinate":
            hv.coordinate(op[1], pid=op[2])
            model.coordinate(op[1], op[2])
        elif kind == "vmexit":
            refused = (addr + PAGE_SIZE, addr + PAGE_SIZE + 1) if op[1] else None
            addr += PAGE_SIZE
            hv.handle_pml_full_vmexit(refused=refused)
            model.vmexit(refused)
        else:
            got = hv.ring.consume(op[1])
            assert [(pid, _pairs(rows)) for pid, rows in got] == model.consume(op[1])
        assert (buf.index, _pairs(buf.entries), buf.drops_while_full) == (
            model.index, model.entries, model.drops
        ), op
        assert _tags(hv) == model.tags
        assert (gbuf.index, gbuf.entries.tolist(), gbuf.drops_while_full) == (
            (model.g_index, model.g_entries, model.g_drops) if epml else (slots, [], 0)
        )
        assert [(b.pid, _pairs(b.entries)) for b in hv.ring.blocks] == [
            (pid, list(entries)) for pid, entries in model.blocks
        ]
        assert hv.ring.used == model.used and hv.migration_log == model.migration
        assert (hv.dropped_total, hv.discarded_total, hv.tag_mismatches) == (
            model.dropped, model.discarded, model.mismatches
        )
        assert (hv.vmexit_stalls, hv.vmexit_count) == (model.stalls, model.vmexits)


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


class FaultyHypervisor(Hypervisor):
    # unsets sched_in *before* flushing: buffered guest-entitled entries
    # are then routed under the wrong flags
    def coordinate(self, request, pid=None):
        if request == "sched_out":
            self.flags.sched_in = False
        return super().coordinate(request, pid=pid)


def test_model_check_detects_reconfigure_before_flush():
    res = model_check_coordination(depth=4, buffer_slots=2, hv_factory=FaultyHypervisor)
    assert not res.ok
    assert any("tag mismatch" in v or "lost" in v for v in res.violations)


def _model_check_rebuilding(
    depth: int, buffer_slots: int, hv_factory: type
) -> ModelCheckResult:
    """``model_check_coordination`` as it was written first, the reference: a
    machine rebuilt from its state for every transition."""
    start = (False, False, False, buffer_slots, ())
    expanded: set[tuple] = set()
    frontier: list[tuple] = [start]
    violations: list[str] = []
    transitions = 0

    for _ in range(depth):
        if not frontier:
            break
        next_frontier: list[tuple] = []
        for state in frontier:
            if state in expanded:
                continue
            expanded.add(state)
            for request in COORD_REQUESTS:
                for n_writes in range(buffer_slots + 2):
                    transitions += 1
                    hv = _hv_from_state(state, buffer_slots, hv_factory)
                    hv.coordinate(request, pid=1)
                    for i in range(n_writes):
                        out = hv.log_write(1000 + i, 1000 + i)
                        if out.hv_full:
                            hv.handle_pml_full_vmexit(refused=(1000 + i, 1000 + i))
                    ctx = f"state={state} req={request} writes={n_writes}"
                    f = hv.flags
                    buf = hv.pml.hv_buffer
                    enabled = buf.index != buf.disabled_index
                    if enabled != f.armed_expected:
                        violations.append(f"arming invariant broken: {ctx}")
                    if not (-1 <= buf.index <= buf.disabled_index):
                        violations.append(f"index out of range ({buf.index}): {ctx}")
                    if hv.tag_mismatches:
                        violations.append(f"entitlement tag mismatch at flush: {ctx}")
                    if hv.discarded_total or hv.dropped_total:
                        violations.append(f"entitled entry lost: {ctx}")
                    buffered_g = sum(n for (g, _), n in hv._entry_tags if g)
                    buffered_v = sum(n for (_, v), n in hv._entry_tags if v)
                    if hv.logged_guest_tagged != hv.ring_delivered_total + buffered_g:
                        violations.append(f"guest-entitled conservation broken: {ctx}")
                    if hv.logged_vmm_tagged != hv.migration_delivered_total + buffered_v:
                        violations.append(f"vmm-entitled conservation broken: {ctx}")
                    new_state = _state_of(hv)
                    if new_state not in expanded:
                        next_frontier.append(new_state)
        frontier = next_frontier

    return ModelCheckResult(
        states_explored=len(expanded),
        transitions=transitions,
        violations=violations,
    )


@pytest.mark.parametrize("hv_factory", [Hypervisor, FaultyHypervisor], ids=lambda f: f.__name__)
@pytest.mark.parametrize("buffer_slots", [1, 2, 3])
@pytest.mark.parametrize("depth", [4, 8, 12])
def test_model_check_equals_a_machine_rebuilt_per_transition(depth, buffer_slots, hv_factory):
    """One machine per (state, request), written to one write at a time, finds
    what a machine rebuilt for every transition finds, in the same order."""
    got = model_check_coordination(depth, buffer_slots, hv_factory)
    want = _model_check_rebuilding(depth, buffer_slots, hv_factory)
    assert got.states_explored == want.states_explored
    assert got.transitions == want.transitions
    assert got.violations == want.violations


def test_armed_expected_property():
    assert not CoexistenceFlags().armed_expected
    assert CoexistenceFlags(enable_by_vmm=True).armed_expected
    assert not CoexistenceFlags(enable_by_guest=True).armed_expected
    assert CoexistenceFlags(enable_by_guest=True, sched_in=True).armed_expected


# ------------------------------------------------------------ service core


def test_background_job_alone_runs_in_wall_time():
    core = HvCore()
    core.start_background(0.0, 100.0)
    assert core.done_at == 100.0


def test_priority_service_stretches_background_job():
    core = HvCore()
    core.start_background(0.0, 100.0)
    core.service(10.0, 30.0)
    # job ran [0,10], blocked [10,40], ran [40,130]
    assert core.done_at == 130.0


def test_back_to_back_services_serialize():
    core = HvCore()
    core.start_background(0.0, 100.0)
    core.service(10.0, 30.0)
    core.service(20.0, 50.0)
    # busy [10,40] then [40,90]; job ran [0,10] and [90,180]
    assert core.done_at == 180.0
    assert core.busy_until == 90.0


def test_job_started_while_core_busy_waits():
    core = HvCore()
    core.service(0.0, 50.0)
    core.start_background(0.0, 100.0)
    assert core.done_at == 150.0


def test_only_one_background_job_at_a_time():
    core = HvCore()
    core.start_background(0.0, 10.0)
    with pytest.raises(RuntimeError):
        core.start_background(0.0, 10.0)


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


# (hot_pages, seed, concurrent_load, the job's other non-default fields) ->
# each round's (pages sent, start ms, duration ms), total ms, downtime ms, stop
# reason and vmexits, recorded while every write drew its hot page with one
# scalar ``rng.integers`` call; the last two were recorded while the migration
# ran on an event heap: the first's 1 µs writes tie with every burst, the
# second is the write storm's ``max_rounds`` stop
_PINNED_MIGRATIONS = {
    (1, 0, None, ()): (
        [(25600, 0.0, 64.00765000000001), (1, 64.00765000000001, 0.0025)],
        64.01015000000001, 0.0025, "threshold", 6,
    ),
    (1, 11, (8000.0, 2186.0), ()): (
        [(25600, 0.0, 85.8702), (1, 85.8702, 0.0025)],
        85.8727, 0.0025, "threshold", 8,
    ),
    (1 << 20, 0, (8000.0, 2186.0), ()): (
        [(25600, 0.0, 85.8702), (4288, 85.8702, 15.093274999999995),
         (755, 100.96347499999999, 1.888774999999994), (94, 102.85224999999998, 0.235),
         (12, 103.08724999999998, 0.03)],
        103.11724999999998, 0.03, "threshold", 10,
    ),
    (1 << 20, 11, None, ()): (
        [(25600, 0.0, 64.00765000000001), (3191, 64.00765000000001, 7.978774999999994),
         (398, 71.986425, 0.995), (50, 72.981425, 0.125)],
        73.106425, 0.125, "threshold", 7,
    ),
    (4514, 96, (8000.0, 2186.0), (("vm_pages", 6270), ("writes_per_s", 1e6), ("max_rounds", 14))): (
        [(6270, 0.0, 20.11420844497607), (4465, 20.11420844497607, 15.586198803827735),
         (4367, 35.700407248803806, 15.34119880382782), (4355, 51.04160605263163, 15.311198803827777),
         (4392, 66.3528048564594, 13.210805629983923), (4285, 79.56361048644332, 15.134475510366682),
         (4375, 94.69808599681001, 15.361198803827603), (4359, 110.05928480063761, 15.321198803827603),
         (4356, 125.38048360446521, 15.31369880382788), (4377, 140.6941824082931, 15.36619880382804),
         (4366, 156.06038121212114, 15.33869880382804), (4363, 171.39908001594918, 15.33119880382804),
         (4361, 186.73027881977723, 13.133305629984301), (4255, 199.8635844497615, 15.059475510367106),
         (4354, 214.92305996012863, 15.257)],
        230.18005996012863, 15.257, "max_rounds", 419,
    ),
    (256, 7, None, (("vm_pages", 2048), ("writes_per_s", 1e6), ("max_rounds", 10))): (
        [(2048, 0.0, 5.144261111111109), (256, 5.144261111111109, 0.6424261111111109),
         (237, 5.78668722222222, 0.5949261111111109), (233, 6.381613333333331, 0.5849261111111109),
         (229, 6.966539444444442, 0.5749261111111109), (225, 7.541465555555553, 0.5649261111111109),
         (231, 8.106391666666664, 0.5799261111111109), (231, 8.686317777777775, 0.5823522222222236),
         (226, 9.268669999999998, 0.5674261111111119), (229, 9.836096111111111, 0.5749261111111118),
         (221, 10.411022222222222, 0.5525)],
        10.963522222222222, 0.5525, "max_rounds", 20,
    ),
}


@pytest.mark.parametrize(
    "key", list(_PINNED_MIGRATIONS),
    ids=lambda key: f"hot{key[0]}-seed{key[1]}-{'loaded' if key[2] else 'solo'}",
)
def test_migration_reports_pinned(key):
    hot_pages, seed, load, other = key
    job = MigrationJob(hot_pages=hot_pages, seed=seed, **dict(other))
    rep = run_migration(job, concurrent_load=load)
    rounds = [(r.pages_sent, r.started_ms, r.duration_ms) for r in rep.rounds]
    got = (rounds, rep.total_ms, rep.downtime_ms, rep.stop_reason, rep.vmexits)
    assert got == _PINNED_MIGRATIONS[key]
    assert [r.round_no for r in rep.rounds] == list(range(len(rep.rounds)))


def _migration_per_write(
    job: MigrationJob,
    table: CostTable | None = None,
    *,
    concurrent_load: tuple[float, float] | None = None,
) -> MigrationReport:
    """``run_migration`` as it was written first, the reference: every guest
    write, vmexit burst and job completion is an event of its own on a heap
    ordered by ``(time, seq)``.  Each service queues the job's completion
    again, and the completions it moved are void."""
    table = table or CostTable.default()
    core = HvCore()
    rng = np.random.default_rng(job.seed)

    flush_service_us = table.prices(job.vm_pages * 4096).copy_us(512)
    write_period_us = 1e6 / job.writes_per_s
    queue: list = []
    seqs = itertools.count()

    def schedule(time_us, handler) -> int:
        seq = next(seqs)
        heapq.heappush(queue, (time_us, seq, handler))
        return seq

    def draws():  # the written hot pages, drawn a block at a time
        while True:
            yield from rng.integers(job.hot_pages, size=_DRAW_BLOCK).tolist()

    hot = draws()
    dirty: set[int] = set()
    rounds: list[MigrationRoundStat] = []
    state = {
        "round": 0,
        "writes": 0,
        "vmexits": 0,
        "migrating": True,
        "paused": False,
        "round_start": 0.0,
        "stop_reason": "",
        "downtime_start": 0.0,
        "downtime_ms": 0.0,
        "total_ms": 0.0,
        "done_seq": -1,  # the completion event that is not void
        "on_finish": None,  # what the job's completion runs
    }

    def service(now, duration_us) -> None:
        core.service(now, duration_us)
        state["done_seq"] = schedule(core.done_at, on_done)

    def start_background(now, work_us, on_finish) -> None:
        core.start_background(now, work_us)
        state["on_finish"] = on_finish
        state["done_seq"] = schedule(core.done_at, on_done)

    def on_done(now, seq) -> None:
        if seq != state["done_seq"]:
            return  # moved by later priority work
        core.finish()
        state["on_finish"](now)

    def on_write(now, seq) -> None:
        if not state["migrating"] or state["paused"]:
            return
        dirty.add(next(hot))
        state["writes"] += 1
        if state["writes"] % 512 == 0:
            state["vmexits"] += 1
            service(now, flush_service_us)
        schedule(now + write_period_us, on_write)

    def start_round(now, pages: int) -> None:
        state["round_start"] = now
        start_background(now, pages * job.page_xfer_us, lambda t: on_round_done(pages, t))

    def on_round_done(pages_sent: int, now: float) -> None:
        rounds.append(
            MigrationRoundStat(
                round_no=state["round"],
                pages_sent=pages_sent,
                started_ms=state["round_start"] / 1000.0,
                duration_ms=(now - state["round_start"]) / 1000.0,
            )
        )
        residue = len(dirty)
        dirty.clear()  # harvest re-arms the dirty bits
        state["round"] += 1
        if residue < job.stop_threshold_pages or state["round"] >= job.max_rounds:
            state["stop_reason"] = (
                "threshold" if residue < job.stop_threshold_pages else "max_rounds"
            )
            state["paused"] = True  # source stopped: no more dirtying
            state["downtime_start"] = now
            start_background(
                now, residue * job.page_xfer_us, lambda t: on_stopcopy_done(residue, t)
            )
        else:
            start_round(now, residue)

    def on_stopcopy_done(pages_sent: int, now: float) -> None:
        rounds.append(
            MigrationRoundStat(
                round_no=state["round"],
                pages_sent=pages_sent,
                started_ms=state["downtime_start"] / 1000.0,
                duration_ms=(now - state["downtime_start"]) / 1000.0,
            )
        )
        state["downtime_ms"] = (now - state["downtime_start"]) / 1000.0
        state["total_ms"] = now / 1000.0
        state["migrating"] = False

    if concurrent_load is not None:
        period_us, service_us = concurrent_load

        def on_burst(now, seq) -> None:
            if not state["migrating"]:
                return
            service(now, service_us)
            schedule(now + period_us, on_burst)

        schedule(period_us, on_burst)

    schedule(write_period_us, on_write)
    start_round(0.0, job.vm_pages)
    while queue:
        time_us, seq, handler = heapq.heappop(queue)
        handler(time_us, seq)

    return MigrationReport(
        rounds=rounds,
        total_ms=state["total_ms"],
        downtime_ms=state["downtime_ms"],
        stop_reason=state["stop_reason"],
        vmexits=state["vmexits"],
    )

# periods of 20 µs, 12.857… µs, 3 µs and 33.3… µs
_PERIODIC_WRITES = st.sampled_from([50_000.0, 77_777.0, 1e6 / 3, 30_000.0])


@settings(max_examples=100, deadline=None)
# the (20, 5) load ties with every write at 50,000 writes/s
@example(seed=7, hot_pages=2048, writes_per_s=50_000.0, page_xfer_us=2.5,
         stop_threshold_pages=64, max_rounds=30, load=(20.0, 5.0))
# round 0 ends at 10,240 µs, as the 256th write comes: the round's end runs
# first, so the write is dirtied in round 1
@example(seed=3, hot_pages=1 << 20, writes_per_s=25_000.0, page_xfer_us=2.5,
         stop_threshold_pages=64, max_rounds=3, load=None)
@example(seed=11, hot_pages=1 << 20, writes_per_s=1e6 / 3, page_xfer_us=1.0,
         stop_threshold_pages=64, max_rounds=4, load=(333.3, 150.0))
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    hot_pages=st.sampled_from([1, 64, 2048, 1 << 20]),
    writes_per_s=st.one_of(_PERIODIC_WRITES, st.floats(min_value=1_000.0, max_value=1e6 / 3)),
    page_xfer_us=st.floats(min_value=0.25, max_value=3.0),
    stop_threshold_pages=st.integers(min_value=1, max_value=600),
    max_rounds=st.integers(min_value=1, max_value=5),
    load=st.sampled_from([None, (8000.0, 2186.0), (20.0, 5.0), (333.3, 150.0)]),
)
def test_migration_equals_one_event_per_write(
    seed, hot_pages, writes_per_s, page_xfer_us, stop_threshold_pages, max_rounds, load
):
    """Applying the writes between events in the event before them gives the
    report of one event per write, field by field and to the last bit."""
    job = MigrationJob(
        vm_pages=4096, hot_pages=hot_pages, writes_per_s=writes_per_s,
        page_xfer_us=page_xfer_us, stop_threshold_pages=stop_threshold_pages,
        max_rounds=max_rounds, seed=seed,
    )
    got = run_migration(job, concurrent_load=load)
    want = _migration_per_write(job, concurrent_load=load)
    for f in fields(MigrationReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@settings(max_examples=60, deadline=None)
# the default hot set, a 32-bit bound past 2**31 and the largest bound, in
# the blocks the migration draws
@example(seed=7, bound=2048, block=_DRAW_BLOCK, blocks=3)
@example(seed=0, bound=2**31 + 5, block=_DRAW_BLOCK, blocks=2)
@example(seed=11, bound=2**40, block=_DRAW_BLOCK, blocks=2)
@example(seed=1, bound=1, block=7, blocks=3)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bound=st.integers(min_value=1, max_value=2**40),
    block=st.integers(min_value=1, max_value=2 * _DRAW_BLOCK),
    blocks=st.integers(min_value=1, max_value=3),
)
def test_block_draws_equal_scalar_draws(seed, bound, block, blocks):
    """``run_migration`` draws its hot pages a block at a time: the draws must
    be those of one ``rng.integers(bound)`` call per write."""
    one_at_a_time = np.random.default_rng(seed)
    scalar = [int(one_at_a_time.integers(bound)) for _ in range(block * blocks)]
    in_blocks = np.random.default_rng(seed)
    drawn = [v for _ in range(blocks) for v in in_blocks.integers(bound, size=block).tolist()]
    assert drawn == scalar, (
        f"NumPy {np.__version__}: rng.integers({bound}, size={block}) does not yield "
        f"the stream of {block} scalar draws"
    )


@settings(max_examples=100, deadline=None)
# 1 µs writes that tie with every burst, and the write storm's max_rounds stop
@example(seed=96, vm_pages=6270, hot_pages=4514, writes_per_s=1e6, page_xfer_us=2.5,
         stop_threshold_pages=64, max_rounds=14, load=(8000.0, 2186.0))
@example(seed=7, vm_pages=2048, hot_pages=256, writes_per_s=1e6, page_xfer_us=2.5,
         stop_threshold_pages=64, max_rounds=10, load=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vm_pages=st.integers(min_value=512, max_value=8192),
    hot_pages=st.sampled_from([1, 64, 2048, 1 << 20]),
    writes_per_s=st.one_of(_PERIODIC_WRITES, st.floats(min_value=1_000.0, max_value=1e6 / 3)),
    page_xfer_us=st.floats(min_value=0.25, max_value=3.0),
    stop_threshold_pages=st.integers(min_value=1, max_value=600),
    max_rounds=st.integers(min_value=1, max_value=8),
    load=st.sampled_from([None, (8000.0, 2186.0), (20.0, 5.0), (333.3, 150.0)]),
)
def test_migration_times_scale_with_every_price(
    seed, vm_pages, hot_pages, writes_per_s, page_xfer_us, stop_threshold_pages, max_rounds, load
):
    """Doubling every µs and ms price, the per-page transfer time, the write
    period and both load terms doubles every time of the report exactly (a
    double of a float is exact through every sum, difference and quotient),
    and changes no page count, vmexit count or stop reason."""
    job = MigrationJob(
        vm_pages=vm_pages, hot_pages=hot_pages, writes_per_s=writes_per_s,
        page_xfer_us=page_xfer_us, stop_threshold_pages=stop_threshold_pages,
        max_rounds=max_rounds, seed=seed,
    )
    slow = MigrationJob(**{
        **vars(job), "writes_per_s": writes_per_s / 2, "page_xfer_us": 2 * page_xfer_us,
    })
    base = run_migration(job, concurrent_load=load)
    doubled = run_migration(
        slow, time_doubled(CostTable.default()),
        concurrent_load=load and (2 * load[0], 2 * load[1]),
    )
    assert doubled.total_ms == 2 * base.total_ms
    assert doubled.downtime_ms == 2 * base.downtime_ms
    assert [(r.round_no, r.pages_sent, r.started_ms / 2, r.duration_ms / 2)
            for r in doubled.rounds] == [
        (r.round_no, r.pages_sent, r.started_ms, r.duration_ms) for r in base.rounds
    ]
    assert (doubled.vmexits, doubled.stop_reason) == (base.vmexits, base.stop_reason)
