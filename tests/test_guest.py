"""Guest-kernel services: registration, scheduling, softirq copy, soft-dirty."""

from __future__ import annotations

import pytest

from oohsim.costs import CostTable, Prices
from oohsim.guest import (
    GUEST_RING_GPA,
    AlreadyRegistered,
    GuestKernel,
    NotRegistered,
)
from oohsim.hypervisor import Hypervisor
from oohsim.memory import PAGE_SIZE, Ept

from helpers import dirty_gpas, page_list


MB = 1 << 20


def _prices(memory_bytes: int) -> Prices:
    """The default price list of a run that tracks ``memory_bytes``."""
    return CostTable.default().prices(memory_bytes)


def make_kernel(ring_capacity: int = 16384):
    hv = Hypervisor(ring_capacity=ring_capacity)
    kern = GuestKernel(hv, Ept())
    return kern, hv


def map_pages(kern: GuestKernel, pid: int, n: int, base: int = 0x1000):
    proc = kern.processes[pid]
    for i in range(n):
        gva = base + i * 0x1000
        gpa = 0x100000 + i * 0x1000
        kern.ept.map_gpa(gpa, 0x9000000 + i * 0x1000)
        proc.table.map_page(gva, gpa)
    return proc


# -------------------------------------------------------------- registration


def test_register_charges_the_init_hypercall():
    prices = CostTable.default().prices(100 * MB)
    for technique, expected in (("spml", prices.m9), ("epml", prices.m10)):
        kern, hv = make_kernel()
        kern.new_process(7)
        assert kern.register_tracked(7, technique, prices) == expected
        assert kern.uio.prices == prices
        assert hv.flags.enable_by_guest
    kern, hv = make_kernel()
    kern.new_process(7)
    assert kern.register_tracked(7, "proc", prices) == prices.m1  # no hypercall


def test_register_twice_rejected():
    kern, _ = make_kernel()
    kern.new_process(7)
    kern.new_process(8)
    kern.register_tracked(7, "proc", _prices(MB))
    with pytest.raises(AlreadyRegistered):
        kern.register_tracked(8, "proc", _prices(MB))


def test_register_unknown_technique_rejected():
    kern, _ = make_kernel()
    kern.new_process(7)
    with pytest.raises(ValueError):
        kern.register_tracked(7, "carrier-pigeon", _prices(MB))


def test_duplicate_pid_rejected():
    kern, _ = make_kernel()
    kern.new_process(7)
    with pytest.raises(AlreadyRegistered):
        kern.new_process(7)


def test_epml_register_maps_the_guest_ring_page():
    kern, hv = make_kernel()
    kern.new_process(7)
    kern.register_tracked(7, "epml", _prices(MB))
    assert hv.pml.epml_enabled
    assert kern.ept.translate(GUEST_RING_GPA) is not None


# ---------------------------------------------------------------- scheduling


def test_untracked_pid_schedules_for_free():
    kern, _ = make_kernel()
    kern.new_process(7)
    kern.new_process(9)
    kern.register_tracked(7, "spml", _prices(MB))
    assert kern.on_schedule(9, "in") == 0.0
    assert kern.on_schedule(9, "out") == 0.0


def test_spml_schedule_pair_charges_hypercalls():
    table = CostTable.default()
    kern, hv = make_kernel()
    kern.new_process(7)
    kern.register_tracked(7, "spml", _prices(100 * MB))
    us_in = kern.on_schedule(7, "in")
    assert us_in == table.cost_us("M13")
    assert hv.pml.hv_buffer.armed
    us_out = kern.on_schedule(7, "out")
    assert us_out == table.cost_us("M14", 100 * MB)
    assert not hv.pml.hv_buffer.armed
    assert us_in == kern.uio.prices.sched_us("spml", "in")
    assert us_out == kern.uio.prices.sched_us("spml", "out")


def test_epml_schedule_pair_is_three_writes_one_read():
    table = CostTable.default()
    kern, hv = make_kernel()
    kern.new_process(7)
    kern.register_tracked(7, "epml", _prices(100 * MB))
    us_in = kern.on_schedule(7, "in")
    assert us_in == pytest.approx(2 * table.cost_us("M8"))
    assert hv.pml.guest_buffer.armed
    us_out = kern.on_schedule(7, "out")
    assert us_out == pytest.approx(table.cost_us("M7") + table.cost_us("M8"))
    assert not hv.pml.guest_buffer.armed
    total = us_in + us_out
    assert total == pytest.approx(3 * table.cost_us("M8") + table.cost_us("M7"))
    assert total == pytest.approx(3.339)


def _tool_ring(kern) -> list[int]:
    """The GVAs on the tool ring, in copy order."""
    return [gva for chunk in kern.uio.ring for gva in chunk.tolist()]


def test_epml_sched_out_drains_leftovers_to_tool_ring():
    kern, hv = make_kernel()
    kern.new_process(7)
    map_pages(kern, 7, 3)
    kern.register_tracked(7, "epml", _prices(MB))
    kern.on_schedule(7, "in")
    for i in range(3):
        hv.pml.log_dirty(0x100000 + i * 0x1000, 0x1000 + i * 0x1000)
    kern.on_schedule(7, "out")
    assert sorted(_tool_ring(kern)) == [0x1000, 0x2000, 0x3000]
    assert kern.uio.ring_dropped == 0


def test_bad_direction_rejected():
    kern, _ = make_kernel()
    kern.new_process(7)
    kern.register_tracked(7, "proc", _prices(MB))
    with pytest.raises(ValueError):
        kern.on_schedule(7, "sideways")


# ------------------------------------------------------------ softirq copies


def _epml_kernel_with_entries(n: int, ring_capacity: int = 16384):
    kern, hv = make_kernel(ring_capacity=ring_capacity)
    kern.new_process(7)
    map_pages(kern, 7, n)
    kern.register_tracked(7, "epml", _prices(MB))
    kern.on_schedule(7, "in")
    for i in range(n):
        gva = 0x1000 + i * 0x1000
        gpa = 0x100000 + i * 0x1000
        kern.ept.set_dirty(gpa)
        hv.pml.log_dirty(gpa, gva)
    return kern, hv


def test_softirq_copy_charges_ring_copy_rate():
    kern, hv = _epml_kernel_with_entries(5)
    copied, us = kern.deliver_guest_buffer_full(7)
    assert copied == 5
    table = CostTable.default()
    assert us == pytest.approx(
        table.cost_us("M1") + 5 * table.per_page_us("M18", MB)
    )
    assert len(_tool_ring(kern)) == 5 == kern.uio.ring_used
    assert hv.pml.guest_buffer.armed  # fully drained: re-armed
    assert us == kern.uio.prices.copy_us(5)


def test_softirq_copy_rearms_ept_dirty_bits():
    kern, _ = _epml_kernel_with_entries(2)
    assert 0x100000 in dirty_gpas(kern.ept)
    kern.deliver_guest_buffer_full(7)
    assert 0x100000 not in dirty_gpas(kern.ept)
    assert 0x101000 not in dirty_gpas(kern.ept)


def test_softirq_partial_copy_holds_remainder():
    kern, hv = _epml_kernel_with_entries(6, ring_capacity=4)
    copied, _ = kern.deliver_guest_buffer_full(7)
    assert copied == 4
    assert len(hv.pml.guest_buffer.entries) == 2  # held, logging still paused
    copied, us = kern.deliver_guest_buffer_full(7)
    assert copied == 0 and us == 0.0  # ring still saturated
    kern.epml_consume_ring()
    copied, _ = kern.deliver_guest_buffer_full(7)
    assert copied == 2
    assert sorted(kern.epml_consume_ring()) == [0x5000, 0x6000]


def test_spurious_softirq_is_a_no_op():
    kern, _ = make_kernel()
    kern.new_process(7)
    kern.register_tracked(7, "epml", _prices(MB))
    assert kern.deliver_guest_buffer_full(7) == (0, 0.0)


def test_consume_ring_requires_extended_mode():
    kern, _ = make_kernel()
    kern.new_process(7)
    kern.register_tracked(7, "proc", _prices(MB))
    with pytest.raises(NotRegistered):
        kern.epml_consume_ring()


# ------------------------------------------------------- soft-dirty services


def test_pagemap_reports_live_and_residue_pages():
    kern, _ = make_kernel()
    kern.new_process(7)
    proc = map_pages(kern, 7, 4)
    kern.register_tracked(7, "proc", _prices(MB))
    kern.clear_soft_dirty(7)  # allocation marks pages soft-dirty: start clean
    ept = kern.ept
    for gva in (0x1000, 0x2000, 0x3000):
        proc.table.write_page(gva, ept)
    kern.unmap_pages(7, [0x1000, 0x2000])
    # page 1 mapped again at its address and written: in the residue and live
    proc.table.map_page(0x1000, 0x100000)
    proc.table.write_page(0x1000, ept)
    assert page_list(proc.table.soft_dirty_pages()) == [1, 3]
    dirty, us = kern.read_pagemap(7)
    assert page_list(dirty) == [1, 2, 3]  # unmapped page 2 survives via residue
    assert us == CostTable.default().cost_us("M16", MB)


def test_clear_soft_dirty_resets_everything():
    kern, _ = make_kernel()
    kern.new_process(7)
    proc = map_pages(kern, 7, 3)
    kern.register_tracked(7, "proc", _prices(MB))
    count, us = kern.clear_soft_dirty(7)
    assert count == 3  # allocation had marked all three
    assert us == CostTable.default().cost_us("M15", MB)
    dirty, _ = kern.read_pagemap(7)
    assert page_list(dirty) == []
    proc.table.write_page(0x1000, kern.ept)
    kern.unmap_pages(7, [0x1000])
    kern.clear_soft_dirty(7)  # also clears the residue
    dirty, _ = kern.read_pagemap(7)
    assert page_list(dirty) == []


def test_soft_dirty_services_require_tracked_pid():
    kern, _ = make_kernel()
    kern.new_process(7)
    kern.new_process(9)
    kern.register_tracked(7, "proc", _prices(MB))
    with pytest.raises(NotRegistered):
        kern.clear_soft_dirty(9)
    with pytest.raises(NotRegistered):
        kern.read_pagemap(9)


# ------------------------------------------------------------- fault records


def test_uffd_record_and_harvest():
    kern, _ = make_kernel()
    kern.new_process(7)
    map_pages(kern, 7, 9)
    kern.register_tracked(7, "uffd", _prices(MB))
    kern.uffd_record_run(7, [9])  # first: a set of 9, 2 and 1 iterates unsorted
    kern.uffd_record_run(7, [2, 1, 9])  # page 9 faults again
    assert page_list(kern.uffd_harvest(7)) == [1, 2, 9]
    assert page_list(kern.uffd_harvest(7)) == []


def test_uffd_record_of_an_address_inside_a_page_records_its_number_once():
    kern, _ = make_kernel()
    kern.new_process(7)
    map_pages(kern, 7, 2)
    kern.register_tracked(7, "uffd", _prices(MB))
    for gva in (0x2000, 0x2008, 0x2FFF):
        kern.uffd_record_run(7, (gva // PAGE_SIZE,))  # as VirtualMachine.write_one records
    assert page_list(kern.uffd_harvest(7)) == [2]


def test_uffd_register_write_protects_existing_pages():
    kern, _ = make_kernel()
    kern.new_process(7)
    proc = map_pages(kern, 7, 2)
    kern.register_tracked(7, "uffd", _prices(MB))
    outcome = proc.table.write_page(0x1000, kern.ept)
    assert outcome.fault == "write_protect"


def test_uffd_record_requires_registration():
    kern, _ = make_kernel()
    kern.new_process(7)
    with pytest.raises(NotRegistered):
        kern.uffd_record_run(7, [1])
    with pytest.raises(NotRegistered):
        kern.uffd_harvest(7)

