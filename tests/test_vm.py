"""Whole-machine write pipeline: faults, logging, full events, payloads."""

from __future__ import annotations

import tracemalloc
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oohsim.costs import CostTable
from oohsim.guest import GUEST_RING_GPA, GUEST_RING_HPA, TECHNIQUES
from oohsim.memory import _HAS_DIRTY, MappingError, write_faults
from oohsim.vm import VirtualMachine

from helpers import dirty_gpas, page_list, set_write_protect, unmap_gpa


MB = 1 << 20


def make_vm(technique: str | None = None, pages: int = 8, **kw) -> VirtualMachine:
    vm = VirtualMachine(**kw)
    vm.create_process(7)
    vm.allocate(7, pages)
    if technique:
        vm.kernel.register_tracked(7, technique, CostTable.default().prices(pages * 4096))
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
        vm.apply_ops(7, [("fork", gva(0))])


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_a_run_of_maps_maps_as_one_map_fresh_per_page(technique):
    # a run of 12 maps right after 1,785 pages joins both tables' regions, as
    # twelve one-page maps do; its frames reach past 0x7F_F000, the 1,792nd
    # frame handed out, and leave the epml guest ring's frame mapped
    machines = [make_vm(technique, pages=1_785) for _ in range(2)]
    runs = [[gva(1_785 + i) for i in range(12)], [gva(2_000), gva(2_001), gva(1_797)]]
    for vm, batched in zip(machines, (True, False)):
        for run in runs:
            if batched:
                vm.apply_ops(7, [("map", g) for g in run])
            else:
                for g in run:
                    vm.map_fresh(7, g)
    states = []
    for vm in machines:
        table = vm.kernel.processes[7].table
        gpas = range(0x10_0000, vm._next_gpa + 0x1000, 0x1000)
        states.append((
            [table.entry(gva(i)) for i in range(2_100)], [vm.ept.translate(g) for g in gpas],
            vm._next_gva, vm._next_gpa, vm._next_hpa,
        ))
    assert states[0] == states[1]
    table = machines[0].kernel.processes[7].table
    assert len(table.entries) == 3  # the maps after the first run stay apart
    if technique == "epml":
        assert all(vm.ept.translate(GUEST_RING_GPA) == GUEST_RING_HPA for vm in machines)


def test_the_epml_ring_frame_is_no_page_of_a_large_tracked_process():
    # 2,048 pages reach past 0x7F_F000, the 1,792nd frame handed out: the
    # ring's frame must be none of them, in the EPT and in host memory
    vm = make_vm("epml", pages=2_048)
    table = vm.kernel.processes[7].table
    gpas = [table.gpa_of(gva(i)) for i in range(2_048)]
    assert vm.ept.translate(GUEST_RING_GPA) == GUEST_RING_HPA
    assert GUEST_RING_GPA not in gpas
    assert GUEST_RING_HPA not in [vm.ept.translate(g) for g in gpas]


_fresh_ops = st.one_of(
    # map ``count`` pages from a slot: slots 0-7 hold the allocation, 8 comes
    # right after it, and the slots past it come after a map or stand apart
    st.tuples(st.just("map"), st.integers(min_value=0, max_value=20), st.integers(1, 5)),
    st.tuples(st.just("next"), st.integers(1, 4)),  # from the next free address
    st.tuples(st.just("unmap"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("other"), st.integers(0, 3)),  # process 8 allocates pages
)


def _fresh_state(vm):
    table = vm.kernel.processes[7].table
    gpas = chain((GUEST_RING_GPA,), range(0x10_0000, vm._next_gpa + P, P))
    return (
        [table.entry(gva(i)) for i in range(-1, 32)], [vm.ept.translate(g) for g in gpas],
        dict(vm._next_gva), vm._next_gpa, vm._next_hpa,
    )


def _raised(call):
    try:
        call()
    except MappingError as exc:
        return type(exc), exc.args
    return None


@settings(max_examples=150, deadline=None)
@given(
    technique=st.sampled_from((None, *TECHNIQUES)),
    ops=st.lists(_fresh_ops, max_size=12),
)
def test_map_fresh_of_a_run_leaves_the_state_of_one_page_per_call(technique, ops):
    """``map_fresh(pid, gva, count)`` against ``count`` one-page calls with the run
    join turned off: every entry, EPT translation, address counter and raised
    error alike after each op.  When the page table's join succeeds, the EPT's
    must too (both grow in lockstep), or ``map_fresh`` raises."""
    run, single = make_vm(technique), make_vm(technique)
    single.kernel.processes[7].table.join_pages = lambda *args, **flags: False
    for vm in (run, single):
        vm.create_process(8)

    def one_per_call(first, count):
        for i in range(count):
            single.map_fresh(7, None if first is None else first + i * P)

    for op in ops:
        if op[0] in ("map", "next"):
            first, count = (gva(op[1]), op[2]) if op[0] == "map" else (None, op[1])
            got = _raised(lambda: run.map_fresh(7, first, count))
            assert got == _raised(lambda: one_per_call(first, count)), op
        elif op[0] == "unmap":
            got = _raised(lambda: run.unmap(7, gva(op[1])))
            assert got == _raised(lambda: single.unmap(7, gva(op[1]))), op
        else:
            run.allocate(8, op[1])
            single.allocate(8, op[1])
        assert _fresh_state(run) == _fresh_state(single), op


def test_remap_moves_dirty_state():
    vm = make_vm("proc")
    vm.kernel.clear_soft_dirty(7)
    vm.write_one(7, gva(0))
    vm.remap(7, gva(0), 0x900000)
    dirty, _ = vm.kernel.read_pagemap(7)
    assert page_list(dirty) == [0x900000 // 4096]
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
    assert vm.kernel.processes[7].softdirty_residue == {gva(0) // 4096}
    dirty, _ = vm.kernel.read_pagemap(7)
    assert page_list(dirty) == [gva(0) // 4096]

def test_pagemap_after_an_unmap_reports_live_pages_and_residue_by_number():
    vm = make_vm("proc")
    vm.kernel.clear_soft_dirty(7)
    for i in (0, 2, 3):
        vm.write_one(7, gva(i))
    vm.unmap(7, gva(2))  # soft-dirty: kept as residue
    vm.unmap(7, gva(1))  # clean: gone
    dirty, _ = vm.kernel.read_pagemap(7)
    assert page_list(dirty) == [gva(0) // 4096, gva(2) // 4096, gva(3) // 4096]
    assert vm.kernel.processes[7].softdirty_residue == {gva(2) // 4096}
    # the page table's own soft-dirty pages leave the residue out
    table = vm.kernel.processes[7].table
    assert page_list(table.soft_dirty_pages()) == [gva(0) // 4096, gva(3) // 4096]
    # gva(2) mapped again and written: in the residue and live, reported once
    vm.map_fresh(7, gva(2))
    vm.write_one(7, gva(2))
    assert page_list(table.soft_dirty_pages()) == [gva(i) // 4096 for i in (0, 2, 3)]
    dirty, _ = vm.kernel.read_pagemap(7)
    assert page_list(dirty) == [gva(i) // 4096 for i in (0, 2, 3)]


# ----------------------------------------------------------- write pipeline


def test_plain_write_sets_all_dirty_layers():
    vm = make_vm("proc")
    res = vm.write_one(7, gva(0))
    assert res.completed
    assert res.outcome.ept_dirty_set
    entry = vm.kernel.processes[7].table.entry(gva(0))
    assert entry.flags.dirty and entry.flags.soft_dirty
    assert entry.gpa in dirty_gpas(vm.ept)


def test_second_write_does_not_relog():
    vm = make_vm("spml")
    vm.kernel.on_schedule(7, "in")
    first = vm.write_one(7, gva(0))
    second = vm.write_one(7, gva(0))
    assert first.log is not None
    assert second.log is None  # dirty bit already set: hardware stays silent
    assert len(vm.hv.pml.hv_buffer.entries) == 1


def test_uffd_write_records_and_stays_protected():
    vm = make_vm("uffd", pages=16)
    res = vm.write_one(7, gva(8))
    assert res.completed and res.uffd_recorded
    res2 = vm.write_one(7, gva(8))
    assert res2.uffd_recorded  # re-protected: every write faults
    # a stretch's writes fault again, on gva(8) and on a page it writes twice
    stretch = vm.quiet_run(7, [gva(1), gva(0), gva(8), gva(1)], 4)
    assert len(stretch) == 4 and vm.write_run(7, stretch, 4) == 0
    assert page_list(vm.kernel.uffd_harvest(7)) == [gva(i) // 4096 for i in (0, 1, 8)]


def test_wp_fault_without_monitor_is_an_error():
    vm = make_vm("proc")
    set_write_protect(vm.kernel.processes[7].table, [gva(0)])
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
    assert [g for chunk in vm.kernel.uio.ring for g in chunk.tolist()] == [gva(i) for i in range(4)]
    # replayed fifth entry sits in the re-armed guest buffer
    assert vm.hv.pml.guest_buffer.entries.tolist() == [gva(4)]
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


def test_read_pages_reads_each_page_as_read_page_does():
    # written and unwritten region pages, a page mapped singly, a moved page,
    # an unmapped one and an address never mapped
    vm = make_vm("proc", pages=16)
    for i in (0, 3, 4, 9):
        vm.write_one(7, gva(i), payload=bytes([i + 1]))
    single = vm.map_fresh(7)
    vm.write_one(7, single, payload=b"single")
    vm.remap(7, gva(4), gva(40))
    vm.unmap(7, gva(9))
    missing = b"\x00" * 4096

    def read_page(addr):
        try:
            return vm.read_page(7, addr)
        except KeyError:  # UnknownMapping is one too
            return missing

    addrs = [gva(i) for i in range(16)] + [single, gva(40), gva(60)]
    assert vm.read_pages(7, addrs, missing) == list(map(read_page, addrs))
    assert sum(page != missing for page in vm.read_pages(7, addrs, missing)) == 4


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
        vm.kernel.register_tracked(1, "proc", CostTable.default().prices(len(gvas) * 4096))
        vm.kernel.clear_soft_dirty(1)
        written = {gvas[0], gvas[307_200], gvas[-1]}
        for g in written:
            assert vm.write_one(1, g).completed
        dirty, _ = vm.kernel.read_pagemap(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = vm.kernel.processes[1].table
    assert page_list(dirty) == sorted(g // 4096 for g in written)
    assert len(table) == 614_400
    # a written page stays a byte in its region
    assert table.entries == {}
    assert vm.ept.entries == {}
    assert page_list(table._pages(_HAS_DIRTY)) == sorted(g // 4096 for g in written)
    assert peak < 4 * MB


# ------------------------------------------------------------ quiet runs

P = 0x1000
TWIN_PAGES = 24
TWIN_SLOTS = 8


def _twin_machine(technique, sched_in, hole, single, protect, prewrites, rearm, ring=64):
    """A tracked machine with an unmapped hole, a singly mapped page, a protected
    page and partly filled buffers; the same arguments build the same machine."""
    vm = VirtualMachine(ring_capacity=ring, ring_full_policy="drop", buffer_slots=TWIN_SLOTS)
    vm.create_process(7)
    pages = vm.allocate(7, TWIN_PAGES)
    vm.unmap(7, pages[hole])
    if single != hole:
        vm.unmap(7, pages[single])
        vm.map_fresh(7, pages[single])
    vm.kernel.register_tracked(7, technique, CostTable.default().prices(TWIN_PAGES * P))
    if protect not in (hole, single):
        set_write_protect(vm.kernel.processes[7].table, [pages[protect]])
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
        [(b.entries.tolist(), b.index, b.drops_while_full)
         for b in (pml.hv_buffer, pml.guest_buffer)],
        [tag for tag, n in hv._entry_tags for _ in range(n)],  # one tag per entry
        hv.logged_guest_tagged, hv.logged_vmm_tagged, proc.uffd_dirty,
        [g for chunk in vm.kernel.uio.ring for g in chunk.tolist()], vm.kernel.uio.ring_used,
        vm.kernel.uio.ring_dropped,
        [(b.pid, b.entries.tolist()) for b in hv.ring.blocks],
    )


def _step_twin(vm, gvas, stretch):
    """One write_one per write of ``stretch``'s applied writes: each is quiet
    but the ones the stretch names as filling, each a whole guest-buffer copy.
    Returns the frames the guest buffer held before them and those they wrote:
    a copy re-arms them."""
    frames = set(vm.kernel.processes[7].table.gpas_of(vm.hv.pml.guest_buffer.entries))
    for i, gva_i in enumerate(gvas):
        res = vm.write_one(7, gva_i)
        assert res.completed and res.vmexit is None
        assert res.softirq_copied == (TWIN_SLOTS if i in stretch.fills else 0)
        assert not res.stalled and not res.guest_dropped
        assert (res.outcome.softdirty_fault, res.uffd_recorded) == write_faults(stretch.bits[i])
        frames.add(res.outcome.gpa)
    return frames


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
    stretch = bulk.quiet_run(7, first, n)
    bits = stretch.bits
    assert len(bits) <= n
    assert _machine_state(bulk) == _machine_state(single_steps)  # the peek changes nothing
    if bits:
        k = data.draw(st.integers(min_value=1, max_value=len(bits)), label="k")
        assert bulk.write_run(7, stretch, k) == sum(q < k for q in stretch.fills)
    else:
        k = 0
    rearmed = _step_twin(single_steps, range(first, first + k * P, P), stretch)
    assert _machine_state(bulk) == _machine_state(single_steps)

    # the run stopped for a reason: the page after it is no region page, a
    # protect fault no monitor takes, a write that finds a buffer full with no
    # whole copy left, or one to a frame that a copy in the run re-armed
    if k == len(bits) < n and start + k < TWIN_PAGES:
        gva_next = first + k * P
        table = single_steps.kernel.processes[7].table
        entry = table.entry(gva_next)
        if entry is None or gva_next in table.entries or entry.gpa in single_steps.ept.entries:
            return
        if not entry.flags.writable and technique != "uffd":
            return
        log = single_steps.write_one(7, gva_next).log
        assert log is not None and (
            log.hv_full or log.guest_full or stretch.fills and entry.gpa in rearmed
        )


@pytest.mark.parametrize("n", [0, -1, -200])
def test_quiet_run_rejects_a_run_of_no_pages(n):
    # a slice with a negative length would count from the region's end
    vm, pages = _twin_machine("spml", True, 0, 0, 0, [], [])
    with pytest.raises(ValueError):
        vm.quiet_run(7, pages[1], n)


@pytest.mark.parametrize("consecutive", [True, False])
def test_a_stretch_applies_once_with_one_to_all_of_its_writes(consecutive):
    vm, pages = _twin_machine("spml", True, 20, 5, 21, [], [])
    stretch = vm.quiet_run(7, pages[1] if consecutive else list(pages[1:5]), 4)
    assert len(stretch) == 4
    before = _machine_state(vm)
    for k in (0, -1, 5):
        with pytest.raises(ValueError):
            vm.write_run(7, stretch, k)
    assert _machine_state(vm) == before
    vm.write_run(7, stretch, 2)
    applied = _machine_state(vm)
    with pytest.raises(ValueError):
        vm.write_run(7, stretch, 1)  # a stretch applies once
    assert _machine_state(vm) == applied


_target = st.integers(min_value=0, max_value=TWIN_PAGES + 1)  # the last two are not mapped


@settings(max_examples=150, deadline=None)
@example(  # repeated pages, soft-dirty faults and a buffer that fills
    technique="epml", sched_in=True, hole=20, single=5, protect=21, prewrites=[1, 2],
    rearm=[], lacking=None, soft_clear=True, targets=[3, 5, 3, 5, 6, 7, 8, 9, 10, 11, 3], n=11,
    cut=0,
)
@example(  # six free slots end the run before its seventh transition; apply four of its writes
    technique="spml", sched_in=True, hole=20, single=5, protect=21, prewrites=[1, 2],
    rearm=[], lacking=None, soft_clear=False, targets=[3, 4, 3, 6, 7, 8, 9, 10, 11, 12], n=10,
    cut=4,
)
@example(  # the guest buffer's five free slots end the run; apply three of its writes
    technique="epml", sched_in=True, hole=20, single=5, protect=21, prewrites=[1, 2, 3],
    rearm=[], lacking=None, soft_clear=False, targets=[5, 4, 5, 6, 4, 7, 8, 9, 10, 11], n=10,
    cut=3,
)
@given(
    technique=st.sampled_from(TECHNIQUES),
    sched_in=st.booleans(),
    hole=_page,
    single=_page,
    protect=_page,
    prewrites=st.lists(_page, max_size=14),
    rearm=st.lists(_page, max_size=6),
    lacking=st.none() | _page,
    soft_clear=st.booleans(),
    targets=st.lists(_target, min_size=1, max_size=40),
    n=st.integers(min_value=1, max_value=40),
    cut=st.integers(min_value=0, max_value=40),
)
def test_write_run_of_any_pages_leaves_the_state_of_one_write_one_per_write(
    technique, sched_in, hole, single, protect, prewrites, rearm, lacking, soft_clear, targets,
    n, cut,
):
    # pages in any order, written again, singly mapped, unmapped or with no EPT
    # frame; with soft-dirty bits clear, a page's first write takes the fault
    args = (technique, sched_in, hole, single, protect, prewrites, rearm)
    (bulk, pages), (single_steps, _) = _twin_machine(*args), _twin_machine(*args)
    for vm in (bulk, single_steps):
        if soft_clear:
            vm.kernel.processes[7].table.clear_soft_dirty()
        gpa = vm.kernel.processes[7].table.gpa_of(pages[lacking]) if lacking is not None else None
        if gpa is not None:
            unmap_gpa(vm.ept, gpa)
    gvas = [pages[0] + i * P for i in targets]
    stretch = bulk.quiet_run(7, gvas, n)
    bits = stretch.bits
    assert len(bits) <= min(n, len(gvas))
    assert _machine_state(bulk) == _machine_state(single_steps)  # the peek changes nothing
    k = min(cut, len(bits)) if cut else len(bits)  # 0: the whole run
    if k:
        assert bulk.write_run(7, stretch, k) == sum(q < k for q in stretch.fills)
    rearmed = _step_twin(single_steps, gvas[:k], stretch)
    assert _machine_state(bulk) == _machine_state(single_steps)

    # the run stopped for a reason: the next write is to a page that is not
    # mapped, a protect fault no monitor takes, a frame the EPT lacks, one
    # that finds a buffer full with no whole copy left, or one to a frame that
    # a copy in the run re-armed
    if k == len(bits) < min(n, len(gvas)):
        try:
            res = single_steps.write_one(7, gvas[k])
        except KeyError:  # the EPT lacks the frame
            return
        except RuntimeError:  # a protect fault no monitor takes
            assert technique != "uffd"
            return
        if res.outcome.fault is not None:
            assert res.outcome.fault == "not_present"
            return
        assert res.log is not None and (
            res.log.hv_full or res.log.guest_full or stretch.fills and res.outcome.gpa in rearmed
        )


# (prewrites, first page of a range or None, pages in any order, tool ring,
# positions of the filling writes, length of the stretch).  The twin machine's
# region pages run 6..19 unbroken (5 is mapped singly, 20 is the hole, 21 is
# protected); its guest buffer of 8 slots holds the prewrites' transitions
_FILL_SHAPES = {
    "range-one-fill": ([1, 2], 6, None, 64, [6], 14),
    "range-several-fills": ([1, 2, 3, 4, 22, 23], 6, None, 64, [2, 10], 14),
    "range-held-page-rewritten": ([15], 6, None, 64, [7], 9),
    "range-ring-takes-one-copy": ([1, 22, 23], 6, None, 12, [5], 13),
    # a page first written by a filling write may be written again
    "trace-one-fill": ([], None, [6, 7, 6, 8, 9, 10, 11, 12, 13, 14, 15, 14], 64, [9], 12),
    "trace-page-rewritten-after-its-rearm": ([], None, [6, 7, 8, 9, 10, 11, 12, 13, 14, 6], 64,
                                             [8], 9),
    "trace-several-fills": ([1], None, list(range(6, 20)) + [22, 23, 0, 2, 3, 4, 5, 6], 64,
                            [7, 15], 21),
    "trace-held-page-rewritten": ([3], None, [6, 3, 7, 8, 9, 10, 11, 12, 13, 3, 14], 64, [8], 9),
    "trace-ring-takes-no-copy": ([], None, [6, 7, 8, 9, 10, 11, 12, 13, 14], 4, [], 8),
    # a full buffer whose pages were all unmapped since (the copy re-arms
    # nothing of them), and one whose page came back on a fresh, clean frame
    # that the filling write dirties and its copy re-arms
    "trace-held-pages-unmapped": ([0, 1, 2, 3, 4, 6, 7, 8], None, [9, 10, 11], 64, [0], 3, "unmap"),
    "trace-held-page-mapped-afresh": ([0, 1, 2, 3, 4, 6, 7, 8], None, [1, 9, 1], 64, [0], 2,
                                      "remap"),
}


@pytest.mark.parametrize(
    ("prewrites", "start", "targets", "ring", "fills", "length", "churn"),
    [shape + (None,) * (7 - len(shape)) for shape in _FILL_SHAPES.values()], ids=list(_FILL_SHAPES),
)
def test_a_stretch_crosses_whole_guest_buffer_copies_as_write_one_does(
    prewrites, start, targets, ring, fills, length, churn
):
    args = ("epml", True, 20, 5, 21, prewrites, [], ring)
    (bulk, pages), (single_steps, _) = _twin_machine(*args), _twin_machine(*args)
    for vm in (bulk, single_steps) if churn else ():
        for i in prewrites if churn == "unmap" else [1]:
            vm.unmap(7, pages[i])
        if churn == "remap":
            vm.map_fresh(7, pages[1])
    if targets is None:
        gvas, stretch = range(pages[start], pages[20], P), bulk.quiet_run(7, pages[start], 14)
    else:
        gvas = [pages[i] for i in targets]
        stretch = bulk.quiet_run(7, gvas, len(gvas))
    assert (stretch.fills, len(stretch)) == (fills, length)
    assert bulk.write_run(7, stretch, length) == len(fills)
    _step_twin(single_steps, gvas[:length], stretch)
    assert _machine_state(bulk) == _machine_state(single_steps)
