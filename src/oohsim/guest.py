"""Guest-kernel side: processes, the tracking tool's kernel module, and the
kernel services each technique relies on.

The :class:`GuestKernel` glues per-process page tables to the hypervisor's
log device; each kernel service returns its µs from the registration's prices:

* registration of the tracked process (hypercall round trips),
* scheduler callbacks at quantum boundaries (enable/disable hypercalls on the
  shared pathway; shadow-field accesses in extended mode),
* the softirq bottom half that copies the guest-level log buffer into the
  tool's ring when the device posts a self-IPI,
* soft-dirty bookkeeping (``clear_refs``-style clearing and pagemap-style
  reads, with a residue so pages unmapped mid-interval are still
  reported), and
* write-protect fault registration/recording for the userspace-fault
  technique.

The kernel names the pages it records by page number, ``gva // PAGE_SIZE``
(page-aligned addresses share their low bits, so a set of them probes on
most lookups), and reports a set of them as one sorted, distinct int64 array.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .costs import Prices
from .hypervisor import Hypervisor
from .memory import Ept, GuestPageTable, UnknownMapping, _distinct
from .pml import FIELD_GUEST_PML_ADDRESS, FIELD_GUEST_PML_INDEX, ShadowVmcs

__all__ = [
    "AlreadyRegistered",
    "NotRegistered",
    "TECHNIQUES",
    "Process",
    "UioModuleState",
    "GuestKernel",
    "GUEST_RING_GPA",
    "GUEST_RING_HPA",
]

TECHNIQUES = ("proc", "uffd", "spml", "epml")

#: Fixed guest-physical address of the page backing the guest-level log
#: buffer, mapped at registration so the shadow-field write can translate:
#: the frame below the first one :class:`~oohsim.vm.VirtualMachine` hands
#: out, backed by the host frame below the first one it hands out, so no
#: process's page shares either.
GUEST_RING_GPA = 0xF_F000
GUEST_RING_HPA = 0xFFF_F000


class AlreadyRegistered(RuntimeError):
    """A tracked process is already registered with the tool."""


class NotRegistered(RuntimeError):
    """Operation requires a registered tracked process."""


@dataclass
class Process:
    pid: int
    table: GuestPageTable
    # page numbers of the soft-dirty pages unmapped since the last clear; the
    # pagemap read reports them so no dirtied page is lost to address-space churn
    softdirty_residue: set[int] = field(default_factory=set)
    # write-protect fault registration for the userspace-fault technique, and
    # the page numbers of the faults recorded since the last harvest, each once
    uffd_mode: str | None = None
    uffd_dirty: set[int] = field(default_factory=set)


@dataclass
class UioModuleState:
    """Registration record of the in-guest tracking tool's kernel module."""

    technique: str
    pid: int
    prices: Prices  # looked up once, for the tracked memory size
    ring_capacity: int
    # tool-visible ring of harvested virtual addresses (extended mode; the
    # shared pathway consumes the hypervisor ring directly): int64 arrays in
    # copy order, ``ring_used`` addresses in all
    ring: list[np.ndarray] = field(default_factory=list)
    ring_used: int = 0
    ring_dropped: int = 0

    @property
    def ring_free(self) -> int:
        return max(0, self.ring_capacity - self.ring_used)

    def ring_append(self, gvas: np.ndarray) -> None:
        self.ring.append(gvas)
        self.ring_used += len(gvas)


class GuestKernel:
    """Kernel-level mechanics shared by the four tracking techniques."""

    def __init__(self, hv: Hypervisor, ept: Ept, ring_capacity: int = 16384):
        self.hv = hv
        self.ept = ept
        self.ring_capacity = ring_capacity
        self.processes: dict[int, Process] = {}
        self.uio: UioModuleState | None = None
        self.shadow: ShadowVmcs | None = None

    # ------------------------------------------------------------ processes

    def new_process(self, pid: int) -> Process:
        if pid in self.processes:
            raise AlreadyRegistered(f"pid {pid} exists")
        proc = Process(pid=pid, table=GuestPageTable(pid))
        self.processes[pid] = proc
        return proc

    def _proc(self, pid: int) -> Process:
        try:
            return self.processes[pid]
        except KeyError:
            raise NotRegistered(f"no such pid {pid}") from None

    def unmap_pages(self, pid: int, gvas: Sequence[int]) -> None:
        """Take each of ``gvas`` out of the table, in order, in one pass, keeping
        the soft-dirty ones' page numbers as residue in one set update; a page
        not mapped raises ``UnknownMapping``, the pages before it unmapped."""
        proc = self._proc(pid)
        n, soft_dirty = proc.table.unmap_pages(gvas)
        proc.softdirty_residue.update(soft_dirty)
        if n < len(gvas):
            raise UnknownMapping(gvas[n])

    # --------------------------------------------------------- registration

    def register_tracked(self, pid: int, technique: str, prices: Prices) -> float:
        """Register ``pid`` with the tool, its run priced by ``prices``; returns
        the µs charged."""
        if technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {technique!r}")
        if self.uio is not None:
            raise AlreadyRegistered(f"tool already tracks pid {self.uio.pid}")
        proc = self._proc(pid)
        if technique == "spml":
            self.hv.hypercall("init_pml")
        elif technique == "epml":
            self.hv.hypercall("init_shadow_vmcs")
            self.shadow = ShadowVmcs(self.hv.pml)
            self.ept.map_gpa(GUEST_RING_GPA, GUEST_RING_HPA)
        elif technique == "uffd":
            proc.uffd_mode = "write_protect"
            proc.table.write_protect_all()
        self.uio = UioModuleState(technique, pid, prices, self.ring_capacity)
        return prices.register_us(technique)

    # ------------------------------------------------------------ scheduling

    def on_schedule(self, pid: int, direction: str) -> float:
        """Scheduler callback for the tracked process; returns the µs charged.

        Untracked processes cost nothing here.  Every call on the tracked
        process is one of the schedule events that the performance estimator
        counts (its N).
        """
        if direction not in ("in", "out"):
            raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
        uio = self.uio
        if uio is None or uio.pid != pid:
            return 0.0
        us = uio.prices.sched_us(uio.technique, direction)
        if uio.technique == "spml":
            if direction == "in":
                self.hv.hypercall("enable_logging", pid=pid)
            else:
                self.hv.hypercall("disable_logging")
        elif uio.technique == "epml":
            if direction == "in":
                # point the device at this process's buffer, then arm it
                self.shadow.guest_vmwrite(FIELD_GUEST_PML_ADDRESS, GUEST_RING_GPA, ept=self.ept)
                fresh = self.hv.pml.guest_buffer.fresh_index
                self.shadow.guest_vmwrite(FIELD_GUEST_PML_INDEX, fresh)
                self.hv.coordinate("sched_in", pid=pid)
            else:
                # read how far the buffer filled, drain the leftovers to the
                # tool ring, then park the device
                self.shadow.guest_vmread(FIELD_GUEST_PML_INDEX)
                _, drain_us = self.deliver_guest_buffer_full(pid)
                buf = self.hv.pml.guest_buffer
                uio.ring_dropped += buf.used  # tool ring saturated: parking loses these
                self.shadow.guest_vmwrite(FIELD_GUEST_PML_INDEX, buf.disabled_index)
                us += drain_us
                self.hv.coordinate("sched_out")
        return us

    # ------------------------------------------------- guest buffer servicing

    def deliver_guest_buffer_full(self, pid: int) -> tuple[int, float]:
        """Softirq bottom half: copy the guest-level buffer to the tool ring.

        Copies what fits (per-entry copy charged at the sized ring-copy
        rate), re-arms the buffer only when fully emptied, and treats a
        delivery with nothing buffered as a spurious wakeup.  Returns
        (entries copied, µs charged).
        """
        uio = self.uio
        if uio is None or uio.technique != "epml" or uio.pid != pid:
            return 0, 0.0
        buf = self.hv.pml.guest_buffer
        pending = buf.used
        if pending == 0:
            return 0, 0.0  # spurious
        take = min(pending, uio.ring_free)
        if take == 0:
            return 0, 0.0  # ring saturated: buffer stays paused
        copied = buf.drain(take)  # re-armed only when fully emptied
        uio.ring_append(copied)
        # re-arm: the next write to each copied page logs again
        self.ept.clear_dirty(self._proc(pid).table.gpas_of(copied))
        return take, uio.prices.copy_us(take)

    def deliver_fills(self, pid: int, gvas: np.ndarray, fills: int) -> int:
        """The softirq copies of a run of writes that fills the guest buffer
        ``fills`` times, as :meth:`deliver_guest_buffer_full` makes them when the
        tool ring takes each whole: the entries held before the run and the
        GVAs ``gvas`` of its dirty transitions up to the last filling one,
        which each copy leaves as the first entry of the emptied buffer, go to
        the ring in order.  The stretch that ran the writes re-armed the copied
        frames.  Returns how many of ``gvas`` were copied.
        """
        uio, buf = self.uio, self.hv.pml.guest_buffer
        if fills * buf.slots > uio.ring_free:
            raise ValueError(f"{fills} copies of {buf.slots} entries, {uio.ring_free} ring slots")
        copied = buf.slots_left + buf.slots * (fills - 1)
        uio.ring_append(buf.drain())
        uio.ring_append(gvas[:copied])
        buf.drops_while_full += fills  # each filling write was refused once, then replayed
        return copied

    def epml_consume_ring(self) -> np.ndarray:
        """Tool side: take every harvested virtual address off the ring, in
        copy order, as one int64 array."""
        uio = self.uio
        if uio is None or uio.technique != "epml":
            raise NotRegistered("extended-mode tool is not registered")
        chunks, uio.ring, uio.ring_used = uio.ring, [], 0
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------ soft-dirty (proc)

    def clear_soft_dirty(self, pid: int) -> tuple[int, float]:
        """Clear all soft-dirty bits (suspends the process); (count, µs)."""
        uio = self.uio
        if uio is None or uio.pid != pid:
            raise NotRegistered(f"pid {pid} is not tracked")
        proc = self._proc(pid)
        count = proc.table.clear_soft_dirty()
        proc.softdirty_residue.clear()
        return count, uio.prices.m15

    def read_pagemap(self, pid: int) -> tuple[np.ndarray, float]:
        """Walk the pagemap (suspends the process); returns (dirty pages, µs).

        Reports live soft-dirty pages plus the residue of pages unmapped since
        the last clear, by page number, as one sorted, distinct int64 array.
        """
        uio = self.uio
        if uio is None or uio.pid != pid:
            raise NotRegistered(f"pid {pid} is not tracked")
        proc = self._proc(pid)
        dirty = proc.table.soft_dirty_pages()
        if proc.softdirty_residue:
            residue = np.fromiter(proc.softdirty_residue, np.int64, len(proc.softdirty_residue))
            dirty = _distinct(np.concatenate((dirty, residue)))
        return dirty, uio.prices.m16

    # ------------------------------------------------- userspace-fault (uffd)

    def uffd_record_run(self, pid: int, pages: Sequence[int]) -> None:
        """Monitor thread records write-protect faults on ``pages``, given as
        page numbers (``gva // PAGE_SIZE``)."""
        proc = self._proc(pid)
        if proc.uffd_mode is None:
            raise NotRegistered(f"pid {pid} has no fault registration")
        proc.uffd_dirty.update(pages)

    def uffd_harvest(self, pid: int) -> np.ndarray:
        """The page numbers of the faults recorded since the last harvest, as one
        sorted, distinct int64 array."""
        proc = self._proc(pid)
        if proc.uffd_mode is None:
            raise NotRegistered(f"pid {pid} has no fault registration")
        record, proc.uffd_dirty = proc.uffd_dirty, set()
        return _distinct(np.fromiter(record, np.int64, len(record)))
