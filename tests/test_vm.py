"""Whole-machine write pipeline: faults, logging, full events, payloads."""

from __future__ import annotations

import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oohsim.guest import TECHNIQUES
from oohsim.memory import write_faults
from oohsim.vm import VirtualMachine

MB = 1 << 20


def make_vm(technique: str | None = None, pages: int = 8, **kw) -> VirtualMachine:
    vm = VirtualMachine(**kw)
    vm.create_process(7)
    vm.allocate(7, pages)
    if technique:
        vm.kernel.register_tracked(7, technique, pages * 4096)
    return vm


def gva(i: int) -> int:
    return 0x1000 + i * 0x1000


# ------------------------------------------------------------- allocation


def test_addresses_are_never_reused():
    vm = VirtualMachine()
    vm.create_process(1)
    vm.create_process(2)
    a = vm.allocate(1, 3)
    b = vm.allocate(2, 3)
    gpas = [vm.kernel.processes[1].table.entry(g).gpa for g in a]
    gpas += [vm.kernel.processes[2].table.entry(g).gpa for g in b]
    assert len(set(gpas)) == 6
    vm.unmap(1, a[0])
    c = vm.map_fresh(1)
    assert c not in a  # virtual address moves on
    assert vm.kernel.processes[1].table.entry(c).gpa not in gpas


@pytest.mark.parametrize(
    "technique, writable, soft_dirty",
    [("proc", True, False), ("uffd", False, True), ("spml", True, True), ("epml", True, True)],
)
def test_map_fresh_joins_the_tracked_baseline_clean(technique, writable, soft_dirty):
    vm = make_vm(technique)
    vm.create_process(8)
    flags = vm.kernel.processes[7].table.entry(vm.map_fresh(7)).flags
    assert (flags.writable, flags.soft_dirty) == (writable, soft_dirty)
    untracked = vm.kernel.processes[8].table.entry(vm.map_fresh(8)).flags
    assert (untracked.writable, untracked.soft_dirty) == (True, True)


def test_unknown_trace_op_rejected():
    vm = make_vm("epml")
    with pytest.raises(ValueError, match="unknown trace op 'fork'"):
        vm.apply_op(7, ("fork", gva(0)))


def test_remap_moves_dirty_state():
    vm = make_vm("proc")
    vm.kernel.clear_soft_dirty(7)
    vm.write_one(7, gva(0))
    vm.remap(7, gva(0), 0x900000)
    dirty, _ = vm.kernel.read_pagemap(7)
    assert dirty == {0x900000}
    assert vm.kernel.processes[7].softdirty_residue == set()



def test_unmap_keeps_residue_only_for_a_soft_dirty_region_page():
    vm = make_vm("proc")
    vm.kernel.clear_soft_dirty(7)
    vm.write_one(7, gva(0))  # soft-dirty again, still a region page
    vm.unmap(7, gva(0))
    vm.unmap(7, gva(1))  # clean
    table = vm.kernel.processes[7].table
    assert table.entries == {}  # both came straight out of the region
    assert gva(0) not in table and gva(1) not in table
    assert vm.kernel.processes[7].softdirty_residue == {gva(0)}
    dirty, _ = vm.kernel.read_pagemap(7)
    assert dirty == {gva(0)}

# ----------------------------------------------------------- write pipeline


def test_plain_write_sets_all_dirty_layers():
    vm = make_vm("proc")
    res = vm.write_one(7, gva(0))
    assert res.completed
    assert res.outcome.ept_dirty_set
    entry = vm.kernel.processes[7].table.entry(gva(0))
    assert entry.flags.dirty and entry.flags.soft_dirty
    assert entry.gpa in vm.ept.dirty_gpas()


def test_second_write_does_not_relog():
    vm = make_vm("spml")
    vm.kernel.on_schedule(7, "in")
    first = vm.write_one(7, gva(0))
    second = vm.write_one(7, gva(0))
    assert first.log is not None
    assert second.log is None  # dirty bit already set: hardware stays silent
    assert len(vm.hv.pml.hv_buffer.entries) == 1


def test_uffd_write_records_and_stays_protected():
    vm = make_vm("uffd")
    res = vm.write_one(7, gva(0))
    assert res.completed and res.uffd_recorded
    res2 = vm.write_one(7, gva(0))
    assert res2.uffd_recorded  # re-protected: every write faults
    assert vm.kernel.uffd_harvest(7) == {gva(0)}


def test_wp_fault_without_monitor_is_an_error():
    vm = make_vm("proc")
    vm.kernel.processes[7].table.set_write_protect([gva(0)], True)
    with pytest.raises(RuntimeError):
        vm.write_one(7, gva(0))


def test_write_to_unmapped_page_does_not_complete():
    vm = make_vm("proc")
    res = vm.write_one(7, 0x77000)
    assert not res.completed
    assert res.outcome.fault == "not_present"
    assert res.log is None


def test_hv_buffer_full_flushes_to_ring_and_replays():
    vm = make_vm("spml", buffer_slots=4)
    vm.kernel.on_schedule(7, "in")
    results = [vm.write_one(7, gva(i)) for i in range(5)]
    assert all(r.completed for r in results)
    assert results[4].vmexit is not None and not results[4].stalled
    assert vm.hv.ring.used == 4
    assert len(vm.hv.pml.hv_buffer.entries) == 1  # the replayed fifth entry
    assert vm.hv.vmexit_count == 1


def test_stall_policy_surfaces_refused_entry():
    vm = make_vm("spml", buffer_slots=4, ring_capacity=4, ring_full_policy="stall")
    vm.hv.ring.append(9, [(0, 0)])  # stale entry leaves only 3 slots free
    vm.kernel.on_schedule(7, "in")
    for i in range(4):
        vm.write_one(7, gva(i))
    res = vm.write_one(7, gva(4))
    assert res.stalled and res.refused is not None
    assert vm.hv.pml.hv_buffer.full
    vm.hv.ring.consume(1)  # tracker drains, then replays the refusal
    retry = vm.hv.handle_pml_full_vmexit(refused=res.refused)
    assert not retry.stalled
    assert retry.replayed == "logged"
    assert vm.hv.dropped_total == 0


def test_drop_policy_counts_losses():
    vm = make_vm("spml", buffer_slots=4, ring_capacity=2, ring_full_policy="drop")
    vm.kernel.on_schedule(7, "in")
    for i in range(5):
        res = vm.write_one(7, gva(i))
    assert res.vmexit.flush.dropped == 2
    assert vm.hv.interrupts_injected == 1


def test_guest_buffer_full_copies_and_replays():
    vm = make_vm("epml", buffer_slots=4)
    vm.kernel.on_schedule(7, "in")
    results = [vm.write_one(7, gva(i)) for i in range(5)]
    assert results[4].softirq_copied == 4
    assert results[4].softirq_us > 0
    assert len(vm.kernel.uio.ring) == 4
    # replayed fifth entry sits in the re-armed guest buffer
    assert vm.hv.pml.guest_buffer.entries == [gva(4)]
    assert results[4].guest_dropped == 0


def test_guest_buffer_overflow_with_saturated_ring_counts_drops():
    vm = make_vm("epml", buffer_slots=4, ring_capacity=2)
    vm.kernel.on_schedule(7, "in")
    for i in range(5):
        res = vm.write_one(7, gva(i))
    # softirq copied what fit (2), holds 2, and the refused fifth was dropped
    assert res.softirq_copied == 2
    assert res.guest_dropped == 1
    assert vm.kernel.uio.ring_dropped == 1
    assert len(vm.hv.pml.guest_buffer.entries) == 2


def test_epml_relogs_after_consumption_rearm():
    vm = make_vm("epml", buffer_slots=8)
    vm.kernel.on_schedule(7, "in")
    vm.write_one(7, gva(0))
    vm.kernel.deliver_guest_buffer_full(7)  # copies 1 entry, re-arms D bit
    res = vm.write_one(7, gva(0))
    assert res.log is not None  # same page logs again after harvest


def test_payload_round_trip():
    vm = make_vm("proc")
    vm.write_one(7, gva(0), payload=b"hello")
    page = vm.read_page(7, gva(0))
    assert page.startswith(b"hello")
    assert len(page) == 4096


def test_untracked_process_writes_log_nothing():
    vm = VirtualMachine()
    vm.create_process(9)
    vm.allocate(9, 2)
    res = vm.write_one(9, 0x1000)
    assert res.completed
    assert res.log.hv == "disabled"


def test_allocation_makes_entries_only_for_touched_pages():
    # fig8's key-value footprint: 614,400 pages mapped, 3 of them written
    tracemalloc.start()
    try:
        vm = VirtualMachine()
        vm.create_process(1)
        gvas = vm.allocate(1, 614_400)
        vm.kernel.register_tracked(1, "proc", len(gvas) * 4096)
        vm.kernel.clear_soft_dirty(1)
        written = {gvas[0], gvas[307_200], gvas[-1]}
        for g in written:
            assert vm.write_one(1, g).completed
        dirty, _ = vm.kernel.read_pagemap(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = vm.kernel.processes[1].table
    assert dirty == written
    assert len(table) == 614_400
    # a written page stays a byte in its region
    assert table.entries == {}
    assert vm.ept.entries == {}
    assert table.dirty_set() == written
    assert peak < 4 * MB


# ------------------------------------------------------------ quiet runs

P = 0x1000
TWIN_PAGES = 24


def _twin_machine(technique, sched_in, hole, single, protect, prewrites, rearm):
    """A tracked machine with an unmapped hole, a singly mapped page, a protected
    page and partly filled buffers; the same arguments build the same machine."""
    vm = VirtualMachine(ring_capacity=64, ring_full_policy="drop", buffer_slots=8)
    vm.create_process(7)
    pages = vm.allocate(7, TWIN_PAGES)
    vm.unmap(7, pages[hole])
    if single != hole:
        vm.unmap(7, pages[single])
        vm.map_fresh(7, pages[single])
    vm.kernel.register_tracked(7, technique, TWIN_PAGES * P)
    if protect not in (hole, single):
        vm.kernel.processes[7].table.set_write_protect([pages[protect]])
    if sched_in:
        vm.kernel.on_schedule(7, "in")
    for i in prewrites:
        if i != hole and (i != protect or technique == "uffd"):
            vm.write_one(7, pages[i])
    table = vm.kernel.processes[7].table
    vm.ept.clear_dirty(table.gpas_of([pages[i] for i in rearm]))
    return vm, pages


def _machine_state(vm):
    def regions(tab):  # the runs, then the one-page regions of single pages
        return [
            (r.base, r.target, bytes(r.bits), r.live)
            for r in chain(tab._regions, tab.entries.values())
        ]

    proc = vm.kernel.processes[7]
    hv, pml = vm.hv, vm.hv.pml
    return (
        regions(proc.table), proc.table._rmap, regions(vm.ept),
        [(b.entries, b.index, b.drops_while_full) for b in (pml.hv_buffer, pml.guest_buffer)],
        hv._entry_tags, hv.logged_guest_tagged, hv.logged_vmm_tagged,
        proc.uffd_dirty, vm.kernel.uio.ring, [(b.pid, b.entries) for b in hv.ring.blocks],
    )


_page = st.integers(min_value=0, max_value=TWIN_PAGES - 1)


@settings(max_examples=150, deadline=None)
@given(
    technique=st.sampled_from(TECHNIQUES),
    sched_in=st.booleans(),
    hole=_page,
    single=_page,
    protect=_page,
    prewrites=st.lists(_page, max_size=14),
    rearm=st.lists(_page, max_size=6),
    start=_page,
    n=st.integers(min_value=1, max_value=TWIN_PAGES),
    data=st.data(),
)
def test_write_run_leaves_the_state_of_one_write_one_per_write(
    technique, sched_in, hole, single, protect, prewrites, rearm, start, n, data
):
    args = (technique, sched_in, hole, single, protect, prewrites, rearm)
    (bulk, pages), (single_steps, _) = _twin_machine(*args), _twin_machine(*args)
    first = pages[start]
    bits = bulk.quiet_run(7, first, n)
    assert len(bits) <= n
    assert _machine_state(bulk) == _machine_state(single_steps)  # the peek changes nothing
    if bits:
        k = data.draw(st.integers(min_value=1, max_value=len(bits)), label="k")
        bulk.write_run(7, first, k)
    else:
        k = 0
    for i in range(k):
        res = single_steps.write_one(7, first + i * P)
        assert res.completed and res.vmexit is None and not res.softirq_copied
        assert not res.stalled and not res.guest_dropped
        assert (res.outcome.softdirty_fault, res.uffd_recorded) == write_faults(bits[i])
    assert _machine_state(bulk) == _machine_state(single_steps)

    # the run stopped for a reason: the page after it is no region page, a
    # protect fault no monitor takes, or a write that finds a buffer full
    if k == len(bits) < n and start + k < TWIN_PAGES:
        gva_next = first + k * P
        table = single_steps.kernel.processes[7].table
        entry = table.entry(gva_next)
        if entry is None or gva_next in table.entries or entry.gpa in single_steps.ept.entries:
            return
        if not entry.flags.writable and technique != "uffd":
            return
        log = single_steps.write_one(7, gva_next).log
        assert log is not None and (log.hv_full or log.guest_full)


@pytest.mark.parametrize("n", [0, -1, -200])
def test_quiet_run_rejects_a_run_of_no_pages(n):
    # a slice with a negative length would count from the region's end
    vm, pages = _twin_machine("spml", True, 0, 0, 0, [], [])
    with pytest.raises(ValueError):
        vm.quiet_run(7, pages[1], n)
