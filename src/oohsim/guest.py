"""Guest-kernel side: processes, the tracking tool's kernel module, and the
kernel services each technique relies on.

The :class:`GuestKernel` glues per-process page tables to the hypervisor's
log device; each kernel service returns its µs from the registration's prices:

* registration/unregistration of the tracked process (hypercall round trips),
* scheduler callbacks at quantum boundaries (enable/disable hypercalls on the
  shared pathway; shadow-field accesses in extended mode),
* the softirq bottom half that copies the guest-level log buffer into the
  tool's ring when the device posts a self-IPI,
* soft-dirty bookkeeping (``clear_refs``-style clearing and pagemap-style
  reads, with a residue set so pages unmapped mid-interval are still
  reported), and
* write-protect fault registration/recording for the userspace-fault
  technique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costs import CostTable, Prices
from .hypervisor import Hypervisor
from .memory import Ept, GuestPageTable
from .pml import (
    FIELD_GUEST_PML_ADDRESS,
    FIELD_GUEST_PML_INDEX,
    ShadowVmcs,
)

__all__ = [
    "AlreadyRegistered",
    "NotRegistered",
    "TECHNIQUES",
    "Process",
    "UioModuleState",
    "GuestKernel",
    "GUEST_RING_GPA",
]

TECHNIQUES = ("proc", "uffd", "spml", "epml")

#: Fixed guest-physical address of the page backing the guest-level log
#: buffer (mapped at registration so the shadow-field write can translate).
GUEST_RING_GPA = 0x7F_F000


class AlreadyRegistered(RuntimeError):
    """A tracked process is already registered with the tool."""


class NotRegistered(RuntimeError):
    """Operation requires a registered tracked process."""


@dataclass
class Process:
    pid: int
    table: GuestPageTable
    # soft-dirty pages unmapped before the interval's pagemap read; the
    # kernel reports them so no dirtied page is lost to address-space churn
    softdirty_residue: set[int] = field(default_factory=set)
    # write-protect fault registration for the userspace-fault technique
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
    # shared pathway consumes the hypervisor ring directly)
    ring: list[int] = field(default_factory=list)
    ring_dropped: int = 0

    @property
    def ring_free(self) -> int:
        return max(0, self.ring_capacity - len(self.ring))


class GuestKernel:
    """Kernel-level mechanics shared by the four tracking techniques."""

    def __init__(
        self,
        hv: Hypervisor,
        table: CostTable,
        ept: Ept,
        ring_capacity: int = 16384,
    ):
        self.hv = hv
        self.costs = table
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

    def unmap(self, pid: int, gva: int) -> None:
        """Take a page out of the table, keeping a set soft-dirty bit as residue."""
        proc = self._proc(pid)
        if proc.table.unmap(gva).flags.soft_dirty:
            proc.softdirty_residue.add(gva)

    # --------------------------------------------------------- registration

    def register_tracked(self, pid: int, technique: str, memory_bytes: int) -> float:
        """Register ``pid`` with the tool and price its run; returns the µs charged."""
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
            if self.ept.translate(GUEST_RING_GPA) is None:
                self.ept.map_gpa(GUEST_RING_GPA, GUEST_RING_GPA | 0x8000_0000)
        elif technique == "uffd":
            proc.uffd_mode = "write_protect"
            proc.table.write_protect_all()
        prices = self.costs.prices(memory_bytes)
        self.uio = UioModuleState(
            technique=technique,
            pid=pid,
            prices=prices,
            ring_capacity=self.ring_capacity,
        )
        return prices.register_us(technique)

    def unregister(self) -> float:
        """Deactivate the tool; returns the µs charged."""
        if self.uio is None:
            raise NotRegistered("no tracked process")
        technique = self.uio.technique
        if technique == "spml":
            self.hv.hypercall("deactivate_pml")
        elif technique == "epml":
            self.hv.hypercall("deactivate_shadow_vmcs")
            self.shadow = None
        elif technique == "uffd":
            proc = self._proc(self.uio.pid)
            proc.uffd_mode = None
        us = self.uio.prices.unregister_us(technique)
        self.uio = None
        return us

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
                self.shadow.guest_vmwrite(
                    FIELD_GUEST_PML_ADDRESS, GUEST_RING_GPA, ept=self.ept
                )
                fresh = self.hv.pml.guest_buffer.fresh_index
                self.shadow.guest_vmwrite(FIELD_GUEST_PML_INDEX, fresh)
                self.hv.coordinate("sched_in", pid=pid)
            else:
                # read how far the buffer filled, drain the leftovers to the
                # tool ring, then park the device
                self.shadow.guest_vmread(FIELD_GUEST_PML_INDEX)
                _, drain_us = self.deliver_guest_buffer_full(pid)
                buf = self.hv.pml.guest_buffer
                if buf.entries:  # tool ring saturated: parking loses these
                    uio.ring_dropped += len(buf.entries)
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
        pending = len(buf.entries)
        if pending == 0:
            return 0, 0.0  # spurious
        take = min(pending, uio.ring_free)
        if take == 0:
            return 0, 0.0  # ring saturated: buffer stays paused
        copied = buf.entries[:take]
        del buf.entries[:take]
        uio.ring.extend(copied)
        # re-arm: the next write to each copied page logs again
        self.ept.clear_dirty(self._proc(pid).table.gpas_of(copied))
        if not buf.entries and buf.index != buf.disabled_index:
            buf.index = buf.fresh_index
        return take, uio.prices.copy_us(take)

    def epml_consume_ring(self, max_n: int | None = None) -> list[int]:
        """Tool side: take harvested virtual addresses off the ring."""
        if self.uio is None or self.uio.technique != "epml":
            raise NotRegistered("extended-mode tool is not registered")
        n = len(self.uio.ring) if max_n is None else min(max_n, len(self.uio.ring))
        out = self.uio.ring[:n]
        del self.uio.ring[:n]
        return out

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

    def read_pagemap(self, pid: int) -> tuple[set[int], float]:
        """Walk the pagemap (suspends the process); returns (dirty GVAs, µs).

        Reports live soft-dirty pages plus the residue of pages unmapped
        since the last clear.
        """
        uio = self.uio
        if uio is None or uio.pid != pid:
            raise NotRegistered(f"pid {pid} is not tracked")
        proc = self._proc(pid)
        return proc.table.soft_dirty_set() | set(proc.softdirty_residue), uio.prices.m16

    # ------------------------------------------------- userspace-fault (uffd)

    def uffd_record(self, pid: int, gva: int) -> None:
        """Monitor thread records a write-protect fault's address."""
        proc = self._proc(pid)
        if proc.uffd_mode is None:
            raise NotRegistered(f"pid {pid} has no fault registration")
        proc.uffd_dirty.add(gva)

    def uffd_record_run(self, pid: int, gvas: list[int]) -> None:
        """:meth:`uffd_record` for each of ``gvas``."""
        proc = self._proc(pid)
        if proc.uffd_mode is None:
            raise NotRegistered(f"pid {pid} has no fault registration")
        proc.uffd_dirty.update(gvas)

    def uffd_harvest(self, pid: int) -> set[int]:
        proc = self._proc(pid)
        if proc.uffd_mode is None:
            raise NotRegistered(f"pid {pid} has no fault registration")
        out = set(proc.uffd_dirty)
        proc.uffd_dirty.clear()
        return out
