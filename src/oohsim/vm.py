"""Whole-machine assembly: page tables + EPT + log device + guest kernel.

:class:`VirtualMachine` wires the layers together and provides the one
operation everything else builds on: :meth:`VirtualMachine.write_one`, the
full per-write pipeline from the store instruction down to device logging,
buffer-full handling, and softirq delivery.  Most writes are quiet (they log
nothing, or log with neither buffer full): ``write_one`` returns one of
those as soon as it knows, and only a full buffer takes the flush, softirq
and replay path.

:meth:`VirtualMachine.quiet_run` and :meth:`VirtualMachine.write_run` are
the bulk form of ``write_one`` for a stretch of writes: to consecutive pages
(a sweep) or to pages in any order, some more than once (a trace).  The
first peeks: it looks the writes up once in each table (a region slice for
consecutive pages, one gather per region otherwise) and returns the
:class:`~oohsim.memory.Stretch`, which says how many of the next writes
would be quiet, how each would fault and which fill the guest log buffer
(in extended mode a fill whose copy the tool ring takes whole is quiet
enough).  The second applies its first writes from what the peek found,
with no second lookup, makes their copies and bulk appends the logged GPAs
and GVAs, as int64 arrays, to the log buffers, entry tags and uffd record,
leaving exactly the state that one ``write_one`` per write leaves.

Allocation hands out fresh guest-physical and host-physical frames, never
reused, so a page remapped after churn is always distinguishable from its
predecessor.  :meth:`VirtualMachine.allocate` maps its pages as one region
in the page table and one in the EPT (see :mod:`oohsim.memory`), and the
address counters advance exactly as if every page had been mapped singly.

A trace's ``map``/``unmap``/``remap`` ops, for the tracker engine and for
checkpoint sessions alike, go through :meth:`VirtualMachine.apply_ops`, a
run of them at a time, and :meth:`VirtualMachine.map_fresh` maps a tracked
process's new pages clean.  A run of maps to consecutive pages is one
``map_fresh`` call, which joins the pages to the region right before them in
one slice of each table when it can, and a run of unmaps is one pass.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .costs import PAGE_SIZE as PAGE
from .guest import GuestKernel, Process
from .hypervisor import RING_CAPACITY, RING_FULL_POLICIES, Hypervisor, VmexitResult
from .memory import Ept, PageStore, Stretch, WriteOutcome
from .pml import BUFFER_SLOTS, LogOutcome

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
        *,
        ring_capacity: int = RING_CAPACITY,
        ring_full_policy: str = RING_FULL_POLICIES[0],
        buffer_slots: int = BUFFER_SLOTS,
    ):
        self.ept = Ept()
        self.store = PageStore()
        self.hv = Hypervisor(
            ring_capacity=ring_capacity,
            ring_full_policy=ring_full_policy,
            buffer_slots=buffer_slots,
            ept=self.ept,
        )
        self.kernel = GuestKernel(self.hv, self.ept)
        self._next_gpa = 0x10_0000
        self._next_hpa = 0x1000_0000
        self._next_gva: dict[int, int] = {}

    # ----------------------------------------------------------- allocation

    def create_process(self, pid: int) -> Process:
        proc = self.kernel.new_process(pid)
        self._next_gva[pid] = 0x1000
        return proc

    def map_fresh(self, pid: int, gva: int | None = None, count: int = 1) -> int:
        """Map ``count`` new pages from ``gva`` (or the next free address) on;
        returns the first one's address.

        A page mapped into the tracked process joins the monitoring baseline
        clean, so only writes after the mapping show up as dirty: it is
        write-protected under ``uffd`` and has its soft-dirty bit clear
        under ``proc``.  Any other page gets the default flags.

        When the pages join the page table's region that ends right before
        ``gva``, their frames join the EPT's region that ends right before the
        first one: the two grow in lockstep from :meth:`allocate`, and no frame
        is ever unmapped.  Otherwise each page takes a frame and is mapped in
        turn; a page already mapped raises ``AlreadyMapped``, the pages before
        it mapped.
        """
        table = self.kernel._proc(pid).table
        if gva is None:
            gva = self._next_gva[pid]
        uio = self.kernel.uio
        technique = uio.technique if uio is not None and uio.pid == pid else None
        flags = {"writable": technique != "uffd", "soft_dirty": technique != "proc"}
        if table.join_pages(gva, self._next_gpa, count, **flags):
            if not self.ept.join_frames(*self._claim(pid, gva, count * PAGE), count):
                raise RuntimeError(f"the frames of {count} pages at {gva:#x} did not join the EPT")
            return gva
        for page in range(gva, gva + count * PAGE, PAGE):
            gpa, hpa = self._claim(pid, page, PAGE)
            self.ept.map_gpa(gpa, hpa)
            table.map_page(page, gpa, **flags)
        return gva

    def _claim(self, pid: int, gva: int, span: int) -> tuple[int, int]:
        """The first GPA and HPA of ``span`` bytes of new frames, for ``pid``'s
        pages from ``gva`` on, past which its next free address moves."""
        gpa, hpa = self._next_gpa, self._next_hpa
        self._next_gva[pid] = max(self._next_gva.get(pid, 0x1000), gva + span)
        self._next_gpa += span
        self._next_hpa += span
        return gpa, hpa

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
        self.kernel.unmap_pages(pid, (gva,))

    def remap(self, pid: int, old_gva: int, new_gva: int) -> None:
        """Move a mapping; dirty state travels with it (mremap-style)."""
        self.kernel._proc(pid).table.remap(old_gva, new_gva)
        self._next_gva[pid] = max(self._next_gva.get(pid, 0x1000), new_gva + PAGE)

    def apply_ops(self, pid: int, ops: Sequence[tuple]) -> None:
        """Apply a trace's ``("map", gva)``, ``("unmap", gva)`` and
        ``("remap", old, new)`` ops, in order, as one :meth:`map_fresh`,
        :meth:`unmap` or :meth:`remap` call each would.

        A run of maps to consecutive pages is one :meth:`map_fresh` call, and a
        run of unmaps is one pass that keeps their soft-dirty residue in one
        set update.  An op that fails raises as its call would, with the
        ops before it applied.
        """
        i, n = 0, len(ops)
        while i < n:
            op = ops[i]
            kind, j = op[0], i + 1
            if kind == "map":
                while j < n and ops[j][0] == "map" and ops[j][1] == ops[j - 1][1] + PAGE:
                    j += 1
                self.map_fresh(pid, op[1], j - i)
            elif kind == "unmap":
                while j < n and ops[j][0] == "unmap":
                    j += 1
                self.kernel.unmap_pages(pid, [op[1] for op in ops[i:j]])
            elif kind == "remap":
                self.remap(pid, op[1], op[2])
            else:
                raise ValueError(f"unknown trace op {kind!r}")
            i = j

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
            kern.uffd_record_run(pid, (gva // PAGE,))
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

    def _copies(self, pid: int) -> int:
        """Whole guest-buffer copies the tool ring still takes from ``pid``'s writes,
        where a fill is only a copy: the guest buffer logs for the registered
        extended-mode tool's process, alone (a hypervisor-buffer fill is a
        vmexit) and not paused by a partial copy."""
        uio, pml = self.kernel.uio, self.hv.pml
        buf, hv_buf = pml.guest_buffer, pml.hv_buffer
        if (
            uio is None
            or uio.technique != "epml"
            or uio.pid != pid
            or not pml.epml_enabled
            or hv_buf.index != hv_buf.disabled_index
            or buf.index == buf.disabled_index
            or buf.used + buf.slots_left != buf.slots
        ):
            return 0
        return uio.ring_free // buf.slots

    def log_room(self, pid: int) -> int | None:
        """The dirty transitions a :meth:`quiet_run` stretch of ``pid``'s writes
        may log: the log buffers' free slots, and a buffer's worth more for each
        whole guest-buffer copy the tool ring takes.  None when no buffer logs."""
        free = self.hv.pml.free_slots()
        if free is None:
            return None
        return free + self.hv.pml.guest_buffer.slots * self._copies(pid)

    def quiet_run(self, pid: int, gvas: int | Sequence[int], n: int) -> Stretch:
        """The next ``n`` or fewer writes to ``gvas`` that :meth:`write_one` would
        complete quietly, as a :class:`~oohsim.memory.Stretch` to apply once.

        ``gvas`` is a sequence of page addresses, or the first of a run of
        consecutive pages.  Quiet means no vmexit, stall or softirq copy but a
        whole one of a full guest buffer, which the tool ring takes (in
        extended mode: :meth:`log_room`); the stretch's ``fills`` are the
        positions of the writes that make one.  The run stops before a write
        to a page that is not mapped (in the page table or the EPT), before a
        write-protect fault with no monitor to take it, before the write whose
        dirty transition would find a log buffer full with no whole copy left,
        and before a write to a frame that a copy in the run re-armed.  The
        stretch's ``bits`` hold the state byte each write finds, a page written
        again finding the byte its first write left;
        :func:`~oohsim.memory.write_faults` reads the faults each write takes
        from its byte.  Consecutive pages take slice operations and stop at the
        end of their region too.  ``n`` must be at least 1.  No state change:
        the stretch keeps what the peek found in both tables, so
        :meth:`write_run` looks nothing up again.
        """
        if n < 1:
            raise ValueError(f"a run holds at least one write, got {n}")
        proc = self.kernel._proc(pid)
        gvas = range(gvas, gvas + n * PAGE, PAGE) if isinstance(gvas, int) else gvas[:n]
        free, fills, held = self.hv.pml.free_slots(), (), ()
        copies = self._copies(pid)
        if copies:
            buf = self.hv.pml.guest_buffer
            fills, held = range(free, free + copies * buf.slots, buf.slots), buf.entries
            free = fills.stop
        return Stretch(
            proc.table, self.ept, gvas, protected=proc.uffd_mode is not None, free=free,
            fills=fills, held=held,
        )

    def write_run(self, pid: int, stretch: Stretch, count: int) -> int:
        """The first ``count`` writes of a :meth:`quiet_run` stretch, applied in one
        step from what the peek found: the state after is the state after
        ``count`` :meth:`write_one` calls.  Returns the softirq copies among them
        (:meth:`~oohsim.guest.GuestKernel.deliver_fills`), each of a whole
        buffer, for the caller to charge.  A stretch applies once, with
        ``1 <= count <= len(stretch)``; anything else raises ``ValueError``."""
        protected, gpas, gvas = stretch.apply(count)
        if len(protected):
            self.kernel.uffd_record_run(pid, protected.tolist())
        copies = bisect_left(stretch.fills, count)
        if copies:
            copied = self.kernel.deliver_fills(pid, gvas, copies)
            gpas, gvas = gpas[copied:], gvas[copied:]
        if len(gvas):
            self.hv.log_writes(gpas, gvas)
        return copies

    def read_page(self, pid: int, gva: int) -> bytes:
        """Read a page's stored payload through the translation stack."""
        proc = self.kernel._proc(pid)
        gpa = proc.table.gpa_of(gva)
        if gpa is None:
            raise KeyError(f"gva {gva:#x} not readable")
        return self.store.read(self.ept.translate(gpa))

    def read_pages(self, pid: int, gvas: list[int], missing: bytes) -> list[bytes]:
        """Each of ``gvas``' stored payload, as :meth:`read_page` reads it, or
        ``missing`` where it has none: one gather per table, then the store."""
        table = self.kernel._proc(pid).table
        pte, gpas, _ = table._gather(np.array(gvas, dtype=np.int64))
        frame, hpas, _ = self.ept._gather(gpas)
        read = self.store.contents.get
        return [
            read(hpa, missing) if mapped else missing
            for mapped, hpa in zip(((pte != 0) & (frame != 0)).tolist(), hpas.tolist())
        ]
