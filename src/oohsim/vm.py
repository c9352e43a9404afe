"""Whole-machine assembly: page tables + EPT + log device + guest kernel.

:class:`VirtualMachine` wires the layers together and provides the one
operation everything else builds on: :meth:`VirtualMachine.write_one`, the
full per-write pipeline from the store instruction down to device logging,
buffer-full handling, and softirq delivery.  It runs once per simulated
write, so what it returns is cheap to make: a :class:`WriteResult` named
tuple around the page table's :class:`~oohsim.memory.WriteOutcome` tuple
and one of the shared :class:`~oohsim.pml.LogOutcome` instances.

Allocation hands out fresh guest-physical and host-physical frames —
addresses are never reused, so a page remapped after churn is always
distinguishable from its predecessor.

:meth:`VirtualMachine.allocate` maps its pages as one region in the page
table and one in the EPT, so it costs the same for any page count; each
page gets its entries on first touch (see :mod:`oohsim.memory`).  The
address counters advance exactly as if every page had been mapped singly.
"""

from __future__ import annotations

from typing import NamedTuple

from .costs import CostLedger, CostTable
from .guest import GuestKernel, Process, SchedulerConfig
from .hypervisor import Hypervisor, VmexitResult
from .memory import Ept, PageStore, WriteOutcome
from .pml import LogOutcome

__all__ = ["WriteResult", "VirtualMachine"]

PAGE = 0x1000


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
        sched: SchedulerConfig | None = None,
    ):
        self.costs = table or CostTable.default()
        self.ledger = CostLedger()
        self.ept = Ept()
        self.store = PageStore()
        self.hv = Hypervisor(
            ring_capacity=ring_capacity,
            ring_full_policy=ring_full_policy,
            buffer_slots=buffer_slots,
            ept=self.ept,
        )
        self.kernel = GuestKernel(
            self.hv,
            self.costs,
            self.ledger,
            self.ept,
            sched=sched,
            ring_capacity=ring_capacity,
        )
        self._next_gpa = 0x10_0000
        self._next_hpa = 0x1000_0000
        self._next_gva: dict[int, int] = {}

    # ----------------------------------------------------------- allocation

    def create_process(self, pid: int, name: str = "") -> Process:
        proc = self.kernel.new_process(pid, name)
        self._next_gva[pid] = 0x1000
        return proc

    def _fresh_gpa(self) -> int:
        gpa = self._next_gpa
        self._next_gpa += PAGE
        return gpa

    def map_fresh(
        self,
        pid: int,
        gva: int | None = None,
        *,
        writable: bool = True,
        soft_dirty: bool = True,
    ) -> int:
        """Map one new page at ``gva`` (or the next free address) with the given PTE flags."""
        proc = self.kernel._proc(pid)
        if gva is None:
            gva = self._next_gva[pid]
        self._next_gva[pid] = max(self._next_gva.get(pid, 0x1000), gva + PAGE)
        gpa = self._fresh_gpa()
        hpa = self._next_hpa
        self._next_hpa += PAGE
        self.ept.map_gpa(gpa, hpa)
        proc.table.map_page(gva, gpa, writable=writable, soft_dirty=soft_dirty)
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
        self.kernel.note_unmap(pid, gva)
        self.kernel._proc(pid).table.unmap(gva)

    def remap(self, pid: int, old_gva: int, new_gva: int) -> None:
        """Move a mapping; dirty state travels with it (mremap-style)."""
        self.kernel._proc(pid).table.remap(old_gva, new_gva)
        self._next_gva[pid] = max(self._next_gva.get(pid, 0x1000), new_gva + PAGE)

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
        proc = kern._proc(pid)
        outcome = proc.table.write_page(gva, self.ept)
        uffd_recorded = False
        if outcome.fault == "write_protect":
            if proc.uffd_mode is None:
                raise RuntimeError(f"write-protect fault without a monitor: {gva:#x}")
            kern.uffd_record(pid, gva)
            uffd_recorded = True
            outcome = proc.table.write_page(gva, self.ept, ignore_protection=True)
        if outcome.fault is not None:
            return WriteResult(outcome, uffd_recorded=uffd_recorded)

        log = None
        vmexit = None
        softirq_copied = 0
        softirq_us = 0.0
        guest_dropped = 0
        stalled = False
        refused = None
        if outcome.ept_dirty_set:
            log = self.hv.log_write(outcome.gpa, gva)
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
        if payload is not None:
            hpa = self.ept.translate(outcome.gpa)
            self.store.write(hpa, payload)
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

    def read_page(self, pid: int, gva: int) -> bytes:
        """Read a page's stored payload through the translation stack."""
        proc = self.kernel._proc(pid)
        translated = proc.table.translate_gva(gva)
        if translated is None:
            raise KeyError(f"gva {gva:#x} not readable")
        gpa, _flags = translated
        return self.store.read(self.ept.translate(gpa))
