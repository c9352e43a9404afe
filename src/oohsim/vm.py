"""Whole-machine assembly: page tables + EPT + log device + guest kernel.

:class:`VirtualMachine` wires the layers together and provides the one
operation everything else builds on: :meth:`VirtualMachine.write_one`, the
full per-write pipeline from the store instruction down to device logging,
buffer-full handling, and softirq delivery.  It runs once per simulated
write, so what it returns is cheap to make: a :class:`WriteResult` named
tuple around the page table's :class:`~oohsim.memory.WriteOutcome` tuple
and one of the shared :class:`~oohsim.pml.LogOutcome` instances.  Most
writes are quiet: the write logged nothing, or logged with neither buffer
full.  ``write_one`` returns one of those as soon as it knows, with every
device field at its default, and only a full buffer takes the flush,
softirq and replay path.

:meth:`VirtualMachine.quiet_run` and :meth:`VirtualMachine.write_run` are
the bulk form of ``write_one`` for writes to consecutive pages: the first
says how many of the next writes would be quiet and how each would fault,
the second applies them as slice operations on the two tables and bulk
appends to the log buffers, entry tags and uffd record, leaving exactly the
state that one ``write_one`` per write leaves.

Allocation hands out fresh guest-physical and host-physical frames —
addresses are never reused, so a page remapped after churn is always
distinguishable from its predecessor.

:meth:`VirtualMachine.allocate` maps its pages as one region in the page
table and one in the EPT: one byte of state per page in each, and no
per-page object.  A write flips bits in those bytes; a page gets stored
entries only when moved or mapped singly (see :mod:`oohsim.memory`).  The
address counters advance exactly as if every page had been mapped singly.
:meth:`VirtualMachine.read_page` and the epml re-arm look a page's GPA up
without building an entry for it.

A trace's ``map``/``unmap``/``remap`` ops, for the tracker engine and for
checkpoint sessions alike, go through :meth:`VirtualMachine.apply_op`, and
:meth:`VirtualMachine.map_fresh` maps a tracked process's new page clean.
"""

from __future__ import annotations

from typing import NamedTuple

from .costs import PAGE_SIZE as PAGE
from .costs import CostTable
from .guest import GuestKernel, Process
from .hypervisor import Hypervisor, VmexitResult
from .memory import Ept, PageStore, WriteOutcome
from .pml import LogOutcome

__all__ = ["WriteResult", "VirtualMachine"]


class WriteResult(NamedTuple):
    """Everything one write did across the stack.

    A named tuple, like :class:`~oohsim.memory.WriteOutcome`: immutable,
    compared by value, and cheap to build once per write.
    """

    outcome: WriteOutcome
    log: LogOutcome | None = None
    vmexit: VmexitResult | None = None
    softirq_copied: int = 0
    softirq_us: float = 0.0
    guest_dropped: int = 0
    stalled: bool = False
    refused: tuple[int, int] | None = None
    uffd_recorded: bool = False

    @property
    def completed(self) -> bool:
        return self.outcome.completed


class VirtualMachine:
    """One tracked machine: memory, device, and kernel glued together."""

    def __init__(
        self,
        table: CostTable | None = None,
        *,
        ring_capacity: int = 16384,
        ring_full_policy: str = "stall",
        buffer_slots: int = 512,
    ):
        self.costs = table or CostTable.default()
        self.ept = Ept()
        self.store = PageStore()
        self.hv = Hypervisor(
            ring_capacity=ring_capacity,
            ring_full_policy=ring_full_policy,
            buffer_slots=buffer_slots,
            ept=self.ept,
        )
        self.kernel = GuestKernel(self.hv, self.costs, self.ept, ring_capacity=ring_capacity)
        self._next_gpa = 0x10_0000
        self._next_hpa = 0x1000_0000
        self._next_gva: dict[int, int] = {}

    # ----------------------------------------------------------- allocation

    def create_process(self, pid: int) -> Process:
        proc = self.kernel.new_process(pid)
        self._next_gva[pid] = 0x1000
        return proc

    def _fresh_gpa(self) -> int:
        gpa = self._next_gpa
        self._next_gpa += PAGE
        return gpa

    def map_fresh(self, pid: int, gva: int | None = None) -> int:
        """Map one new page at ``gva`` (or the next free address); returns its address.

        A page mapped into the tracked process joins the monitoring baseline
        clean, so only writes after the mapping show up as dirty: it is
        write-protected under ``uffd`` and has its soft-dirty bit clear
        under ``proc``.  Any other page gets the default flags.
        """
        proc = self.kernel._proc(pid)
        uio = self.kernel.uio
        technique = uio.technique if uio is not None and uio.pid == pid else None
        if gva is None:
            gva = self._next_gva[pid]
        self._next_gva[pid] = max(self._next_gva.get(pid, 0x1000), gva + PAGE)
        gpa = self._fresh_gpa()
        hpa = self._next_hpa
        self._next_hpa += PAGE
        self.ept.map_gpa(gpa, hpa)
        proc.table.map_page(gva, gpa, writable=technique != "uffd", soft_dirty=technique != "proc")
        return gva

    def allocate(self, pid: int, n_pages: int) -> range:
        """Map ``n_pages`` new pages at the next free addresses; returns them."""
        proc = self.kernel._proc(pid)
        n_pages = max(n_pages, 0)
        gva, gpa, hpa = self._next_gva[pid], self._next_gpa, self._next_hpa
        span = n_pages * PAGE
        self.ept.map_region(gpa, hpa, n_pages)
        proc.table.map_region(gva, gpa, n_pages)
        self._next_gva[pid] += span
        self._next_gpa += span
        self._next_hpa += span
        return range(gva, gva + span, PAGE)

    def unmap(self, pid: int, gva: int) -> None:
        """Unmap a page, preserving the kernel's soft-dirty residue."""
        self.kernel.unmap(pid, gva)

    def remap(self, pid: int, old_gva: int, new_gva: int) -> None:
        """Move a mapping; dirty state travels with it (mremap-style)."""
        self.kernel._proc(pid).table.remap(old_gva, new_gva)
        self._next_gva[pid] = max(self._next_gva.get(pid, 0x1000), new_gva + PAGE)

    def apply_op(self, pid: int, op: tuple) -> None:
        """Apply a trace's ``("map", gva)``, ``("unmap", gva)`` or ``("remap", old, new)`` op."""
        kind = op[0]
        if kind == "map":
            self.map_fresh(pid, op[1])
        elif kind == "unmap":
            self.unmap(pid, op[1])
        elif kind == "remap":
            self.remap(pid, op[1], op[2])
        else:
            raise ValueError(f"unknown trace op {kind!r}")

    # -------------------------------------------------------------- writing

    def write_one(self, pid: int, gva: int, payload: bytes | None = None) -> WriteResult:
        """Execute one store: fault handling, logging, and delivery.

        A write-protect fault is resolved through the registered fault
        monitor (recorded, then completed with protection overridden so the
        page stays protected for the next write).  A device-level full
        buffer is serviced inline — flush, re-arm, replay — except under the
        stall policy with a saturated ring, where the refused entry is
        returned for the caller to replay after draining.
        """
        kern = self.kernel
        proc = kern.processes.get(pid)
        if proc is None:
            proc = kern._proc(pid)  # raises NotRegistered
        ept = self.ept
        outcome = proc.table.write_page(gva, ept)
        uffd_recorded = False
        if outcome.fault is not None:
            if outcome.fault != "write_protect":
                return WriteResult(outcome)
            if proc.uffd_mode is None:
                raise RuntimeError(f"write-protect fault without a monitor: {gva:#x}")
            kern.uffd_record(pid, gva)
            uffd_recorded = True
            outcome = proc.table.write_page(gva, ept, ignore_protection=True)
            if outcome.fault is not None:
                return WriteResult(outcome, uffd_recorded=uffd_recorded)
        if payload is not None:
            self.store.write(ept.translate(outcome.gpa), payload)
        if not outcome.ept_dirty_set:
            return WriteResult(outcome, None, None, 0, 0.0, 0, False, None, uffd_recorded)
        log = self.hv.log_write(outcome.gpa, gva)
        if not log.hv_full and not log.guest_full:
            return WriteResult(outcome, log, None, 0, 0.0, 0, False, None, uffd_recorded)

        vmexit = None
        softirq_copied = 0
        softirq_us = 0.0
        guest_dropped = 0
        stalled = False
        refused = None
        if log.hv_full:
            refused = (outcome.gpa, gva)
            vmexit = self.hv.handle_pml_full_vmexit(refused=refused)
            if vmexit.stalled:
                stalled = True
            else:
                refused = None
        if log.guest_full:
            softirq_copied, softirq_us = kern.deliver_guest_buffer_full(pid)
            gbuf = self.hv.pml.guest_buffer
            if gbuf.armed:
                gbuf.log(gva)  # replay the refused guest-side entry
            else:
                guest_dropped = 1
                if kern.uio is not None:
                    kern.uio.ring_dropped += 1
        return WriteResult(
            outcome,
            log,
            vmexit,
            softirq_copied,
            softirq_us,
            guest_dropped,
            stalled,
            refused,
            uffd_recorded,
        )

    def quiet_run(self, pid: int, gva: int, n: int) -> bytes:
        """The state bytes of the next ``n`` or fewer writes to consecutive pages
        from ``gva`` that :meth:`write_one` would complete quietly.

        Quiet means no vmexit, stall or softirq copy.  The run stops before
        a page that is no live region page (in the page table or the EPT),
        before a write-protect fault with no monitor to take it, and before
        the write whose dirty transition would find a log buffer full.
        :func:`~oohsim.memory.write_faults` reads the faults each write
        takes from its byte.  ``n`` must be at least 1.  No state change.
        """
        proc = self.kernel._proc(pid)
        bits, gpa = proc.table.region_run(gva, n, protected=proc.uffd_mode is not None)
        if not bits:
            return bits
        return bits[: self.ept.region_run(gpa, len(bits), self.hv.pml.free_slots())]

    def write_run(self, pid: int, gva: int, count: int) -> None:
        """The first ``count`` writes of a :meth:`quiet_run` from ``gva``, applied in
        one step: the state after is the state after ``count`` :meth:`write_one`
        calls."""
        proc = self.kernel._proc(pid)
        protected, logged = proc.table.write_run(gva, count, self.ept)
        if protected:
            self.kernel.uffd_record_run(pid, protected)
        if logged:
            self.hv.log_writes(logged)

    def read_page(self, pid: int, gva: int) -> bytes:
        """Read a page's stored payload through the translation stack."""
        proc = self.kernel._proc(pid)
        gpa = proc.table.gpa_of(gva)
        if gpa is None:
            raise KeyError(f"gva {gva:#x} not readable")
        return self.store.read(self.ept.translate(gpa))
