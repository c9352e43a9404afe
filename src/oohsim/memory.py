"""Guest/host memory model: page tables, EPT, page store, write pipeline.

Three address layers: guest-virtual (GVA), guest-physical (GPA), and
host-physical (HPA), all tracked at page granularity as integer page
numbers.  A per-process :class:`GuestPageTable` maps GVA pages to GPA pages
(aliasing allowed — several GVAs may share one GPA), and the VM-wide
:class:`Ept` maps GPA pages to HPA pages while owning the hardware dirty
bit that page-modification logging keys off.

Both tables map a run of pages in one step as a *region*: page *i* of a
region is backed by the region's base plus *i* pages, so translation and
reverse mapping are arithmetic, and each page's state is one byte of the
region's ``bytearray`` (page table: mapped, writable, dirty, soft-dirty;
EPT: mapped, dirty).  Writes, individual protects and EPT re-arms flip bits
in place, so mapping a large address space and writing it over and over
builds no per-page object.  Whole-table operations (soft-dirty clear,
protect-all, the dirty and soft-dirty sets, the page count) run over the
bytes with ``bytes.translate``, ``find`` and ``count``, then visit the
stored entries.  A run of writes to consecutive region pages
(:meth:`GuestPageTable.write_run`) is two slice operations, one on each
table.

A region page moves to a stored entry (``entries``, plus the reverse index
in the page table) only when it is moved or mapped singly; an unmap just
takes it out of its region.  A region with no page left is dropped, and its
table is then the same as one that mapped every page singly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .costs import PAGE_SIZE

__all__ = [
    "PAGE_SIZE",
    "PageFlags",
    "PageEntry",
    "WriteOutcome",
    "MappingError",
    "UnknownMapping",
    "AlreadyMapped",
    "LOST",
    "GuestPageTable",
    "Ept",
    "PageStore",
    "write_faults",
]

#: Sentinel returned by reverse_map when no GVA currently maps the GPA.
LOST = None


class MappingError(KeyError):
    """Base class for page-table manipulation errors."""


class UnknownMapping(MappingError):
    """Operation referenced a GVA that is not mapped."""


class AlreadyMapped(MappingError):
    """Attempt to map a GVA page that already has a mapping."""


@dataclass(slots=True)
class PageFlags:
    """Per-PTE bookkeeping bits.

    ``soft_dirty`` starts set at allocation (the kernel marks the first
    touch); an explicit soft-dirty clear resets it, and the next write takes
    the kernel fault path that sets it again.
    """

    present: bool = True
    writable: bool = True
    dirty: bool = False
    soft_dirty: bool = True

    def validate(self) -> None:
        if self.dirty and not self.present:
            raise ValueError("dirty page must be present")


@dataclass(slots=True)
class PageEntry:
    gpa: int
    flags: PageFlags = field(default_factory=PageFlags)


class WriteOutcome(NamedTuple):
    """Result of pushing one write through the page-table pipeline.

    ``fault`` is ``None`` for a completed write, or a reason string
    (``"write_protect"`` / ``"not_present"``) when the write stopped at a
    fault and changed nothing.  ``softdirty_fault`` marks the kernel
    soft-dirty fault taken on the first write after a clear.
    ``ept_dirty_set`` is True when this write transitioned the EPT dirty bit
    from clear to set — the condition under which the PML device logs.

    A named tuple: one is built for every write, and a tuple is several
    times cheaper to build than a frozen dataclass while staying immutable
    and comparing by value.
    """

    gva: int
    gpa: int | None
    fault: str | None = None
    softdirty_fault: bool = False
    ept_dirty_set: bool = False

    @property
    def completed(self) -> bool:
        return self.fault is None


# One byte of state per region page.  A zero byte is a page that has left
# its region; every live byte has _MAPPED set.  Page-table regions use
# _WRITABLE, _DIRTY and _SOFT_DIRTY; EPT regions use _DIRTY.
_MAPPED, _WRITABLE, _DIRTY, _SOFT_DIRTY = 1, 2, 4, 8
_PTE_FRESH = _MAPPED | _WRITABLE | _SOFT_DIRTY


def _select(bit: int) -> bytes:
    """``translate`` table: 1 for a byte with ``bit`` set, else 0."""
    return bytes(1 if v & bit else 0 for v in range(256))


def _lacks(bit: int) -> bytes:
    """``translate`` table: 1 for a live byte with ``bit`` clear, else 0."""
    return bytes(1 if v and not v & bit else 0 for v in range(256))


_HAS_DIRTY, _HAS_SOFT_DIRTY, _LIVE = _select(_DIRTY), _select(_SOFT_DIRTY), _select(_MAPPED)
_CLEAN, _PROTECTED = _lacks(_DIRTY), _lacks(_WRITABLE)
_CLEAR_SOFT_DIRTY = bytes(v & ~_SOFT_DIRTY for v in range(256))
_PROTECT = bytes(v & ~_WRITABLE for v in range(256))
_UNPROTECT = bytes(v | _WRITABLE if v else 0 for v in range(256))
_WRITTEN = bytes(v | _DIRTY | _SOFT_DIRTY if v else 0 for v in range(256))
_SET_DIRTY = bytes(v | _DIRTY if v else 0 for v in range(256))


def write_faults(bits: int) -> tuple[bool, bool]:
    """The faults a write to a page-table region page in state ``bits`` takes:
    (soft-dirty fault, write-protect fault), as :meth:`GuestPageTable.write_page`
    reports them."""
    return not bits & _SOFT_DIRTY, not bits & _WRITABLE


def _addresses(bits: bytes, select: bytes, base: int) -> list[int]:
    """Addresses, ``PAGE_SIZE`` apart from ``base``, of the bytes ``select`` maps to 1,
    a run at a time."""
    marks = bits.translate(select)
    out: list[int] = []
    start = marks.find(1)
    while start >= 0:
        stop = marks.find(0, start)
        if stop < 0:
            stop = len(marks)
        out.extend(range(base + start * PAGE_SIZE, base + stop * PAGE_SIZE, PAGE_SIZE))
        start = marks.find(1, stop)
    return out


class _Region:
    """``len(bits)`` pages from ``base`` on; page *i* is backed by ``target + i·PAGE_SIZE``.

    ``bits[i]`` is page *i*'s state, 0 once it has left the region (moved
    to a stored entry, or unmapped); ``live`` counts the nonzero bytes.
    """

    __slots__ = ("base", "target", "span", "bits", "live")

    def __init__(self, base: int, target: int, count: int, fresh: int):
        self.base = base
        self.target = target
        self.span = count * PAGE_SIZE
        self.bits = bytearray([fresh]) * count
        self.live = count

    def overlaps(self, base: int, end: int) -> bool:
        return base < self.base + self.span and self.base < end

    def index(self, off: int) -> int:
        """Index of the live page ``off`` bytes into the region, else -1."""
        if 0 <= off < self.span and not off % PAGE_SIZE:
            i = off // PAGE_SIZE
            if self.bits[i]:
                return i
        return -1

    def pages(self, select: bytes) -> list[int]:
        """Addresses of the pages whose byte ``select`` maps to 1."""
        return _addresses(self.bits, select, self.base)


def _find(regions: list[_Region], addr: int) -> tuple[_Region, int] | None:
    """The region holding live page ``addr`` and its index there, else None."""
    for region in regions:
        i = region.index(addr - region.base)
        if i >= 0:
            return region, i
    return None


def _live_run(regions: list[_Region], addr: int, n: int) -> tuple[_Region, int, bytearray] | None:
    """The region holding live page ``addr``, its index there and the bytes of
    the live pages from it on: at most ``n``, up to the first that left or the
    region's end.  None when ``addr`` is no live region page."""
    if n < 1:
        raise ValueError(f"a run holds at least one page, got {n}")
    found = _find(regions, addr)
    if found is None:
        return None
    region, i = found
    bits = region.bits[i : i + n]
    stop = bits.find(0)
    return region, i, bits if stop < 0 else bits[:stop]


def _release(regions: list[_Region], region: _Region, i: int) -> None:
    """Page ``i`` leaves ``region``; the region is dropped once empty."""
    region.bits[i] = 0
    region.live -= 1
    if not region.live:
        regions.remove(region)


def _region_entry(region: _Region, i: int) -> PageEntry:
    """A page-table entry holding region page ``i``'s mapping and flags."""
    bits = region.bits[i]
    return PageEntry(
        region.target + i * PAGE_SIZE,
        PageFlags(True, bits & _WRITABLE != 0, bits & _DIRTY != 0, bits & _SOFT_DIRTY != 0),
    )


class GuestPageTable:
    """GVA -> (GPA, flags) map for one process, with a GPA reverse index.

    Pages mapped by :meth:`map_page` are stored in ``entries`` (and the
    reverse index) at once.  Pages mapped as a run by :meth:`map_region`
    keep their flags as one byte each in their region: a write, a protect
    or a soft-dirty clear flips bits there.  A move gives the page a stored
    entry like any other; an unmap just takes it out of its region.  Every
    query answers for both kinds.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.entries: dict[int, PageEntry] = {}
        self._rmap: dict[int, set[int]] = {}
        self._regions: list[_Region] = []

    def __contains__(self, gva: int) -> bool:
        return gva in self.entries or _find(self._regions, gva) is not None

    def __len__(self) -> int:
        return len(self.entries) + sum(r.live for r in self._regions)

    def _store(self, gva: int, entry: PageEntry) -> None:
        self.entries[gva] = entry
        self._rmap.setdefault(entry.gpa, set()).add(gva)

    def entry(self, gva: int) -> PageEntry | None:
        """The entry mapping ``gva``, or None when not mapped.  No state change.

        For a region page this is a detached copy built from its byte;
        change flags through the table's methods.
        """
        entry = self.entries.get(gva)
        if entry is None:
            found = _find(self._regions, gva)
            if found is not None:
                entry = _region_entry(*found)
        return entry

    def map_region(self, gva: int, gpa: int, count: int) -> None:
        """Map ``count`` pages, ``PAGE_SIZE`` apart, from ``gva`` to GPAs from ``gpa``.

        One byte per page is made.  The range must hold no mapped page and
        overlap no earlier region.
        """
        if count <= 0:
            return
        end = gva + count * PAGE_SIZE
        if any(r.overlaps(gva, end) for r in self._regions) or any(
            gva <= g < end for g in self.entries
        ):
            raise AlreadyMapped(gva)
        self._regions.append(_Region(gva, gpa, count, _PTE_FRESH))

    def map_page(
        self,
        gva: int,
        gpa: int,
        *,
        writable: bool = True,
        soft_dirty: bool = True,
    ) -> PageEntry:
        if gva in self:
            raise AlreadyMapped(gva)
        entry = PageEntry(gpa, PageFlags(writable=writable, soft_dirty=soft_dirty))
        self._store(gva, entry)
        return entry

    def unmap(self, gva: int) -> PageEntry:
        entry = self.entries.pop(gva, None)
        if entry is None:
            found = _find(self._regions, gva)
            if found is None:
                raise UnknownMapping(gva)
            entry = _region_entry(*found)
            _release(self._regions, *found)
            return entry
        peers = self._rmap[entry.gpa]
        peers.discard(gva)
        if not peers:
            del self._rmap[entry.gpa]
        return entry

    def remap(self, gva_old: int, gva_new: int) -> PageEntry:
        """Move the GPA backing (and flags) of ``gva_old`` to ``gva_new``."""
        if gva_old not in self:
            raise UnknownMapping(gva_old)
        if gva_new in self:
            raise AlreadyMapped(gva_new)
        entry = self.unmap(gva_old)
        self._store(gva_new, entry)
        return entry

    def translate_gva(self, gva: int) -> tuple[int, PageFlags] | None:
        """Mapping for ``gva``, or None when not mapped.  No state change."""
        entry = self.entry(gva)
        if entry is None or not entry.flags.present:
            return None
        return entry.gpa, entry.flags

    def gpa_of(self, gva: int) -> int | None:
        """The GPA ``gva`` translates to, as :meth:`translate_gva`, building no entry."""
        entry = self.entries.get(gva)
        if entry is not None:
            return entry.gpa if entry.flags.present else None
        for region in self._regions:
            i = region.index(gva - region.base)
            if i >= 0:
                return region.target + i * PAGE_SIZE
        return None

    def gpas_of(self, gvas: list[int]) -> list[int]:
        """The GPAs that ``gvas`` translate to, as :meth:`gpa_of`, skipping unmapped ones.

        Stored entries first; the rest are resolved one region at a time, as
        :meth:`Ept.clear_dirty` does.
        """
        entries = self.entries
        out = [e.gpa for e in map(entries.get, gvas) if e is not None and e.flags.present]
        rest = [gva for gva in gvas if gva not in entries]
        for region in self._regions:
            if not rest:
                break
            base, span, bits, target = region.base, region.span, region.bits, region.target
            left = []
            for gva in rest:
                off = gva - base
                if 0 <= off < span:
                    if not off % PAGE_SIZE and bits[off // PAGE_SIZE]:
                        out.append(target + off)
                else:
                    left.append(gva)
            rest = left
        return out

    def reverse_map(self, gpa: int) -> int | None:
        """Some GVA currently mapping ``gpa``; lowest page number on aliases.

        Returns :data:`LOST` (None) when no GVA maps the GPA — the
        missed-address pathology of GPA-level logging.
        """
        return self.reverse_map_many([gpa])[0]

    def reverse_map_many(self, gpas: list[int]) -> list[int | None]:
        """:meth:`reverse_map` of each of ``gpas``, in order.

        Stored aliases first; then each region in one pass over the batch,
        keeping the lowest page number.
        """
        rmap = self._rmap
        out = [min(gvas) if gvas else LOST for gvas in map(rmap.get, gpas)]
        for region in self._regions:
            target, span, bits = region.target, region.span, region.bits
            shift = region.base - target
            for k, gpa in enumerate(gpas):
                off = gpa - target
                if 0 <= off < span and not off % PAGE_SIZE and bits[off // PAGE_SIZE]:
                    best = out[k]
                    if best is LOST or gpa + shift < best:
                        out[k] = gpa + shift
        return out

    def write_page(self, gva: int, ept: "Ept", *, ignore_protection: bool = False) -> WriteOutcome:
        """One store to ``gva``: fault checks, then PTE/EPT dirty updates.

        A write-protected or non-present page faults and changes nothing
        (the caller models the fault handling and may complete the write
        afterwards with ``ignore_protection=True``).  A completed write sets
        the PTE dirty bit, sets soft-dirty (flagging the kernel fault if it
        was clear), and sets the EPT dirty bit for the backing GPA,
        reporting whether that was a clear-to-set transition.

        A region page's write sets its bits in place.
        """
        entry = self.entries.get(gva)
        if entry is None:
            # inline region lookup: this runs on every write to a region page
            for region in self._regions:
                off = gva - region.base
                if 0 <= off < region.span:
                    break
            else:
                return WriteOutcome(gva, None, "not_present")
            i = off // PAGE_SIZE
            bits = 0 if off % PAGE_SIZE else region.bits[i]
            if not bits:
                return WriteOutcome(gva, None, "not_present")
            gpa = region.target + off
            if not bits & _WRITABLE and not ignore_protection:
                return WriteOutcome(gva, gpa, "write_protect")
            region.bits[i] = bits | _DIRTY | _SOFT_DIRTY
            return WriteOutcome(gva, gpa, None, not bits & _SOFT_DIRTY, ept.set_dirty(gpa))
        flags = entry.flags
        if not flags.present:
            return WriteOutcome(gva, None, "not_present")
        if not flags.writable and not ignore_protection:
            return WriteOutcome(gva, entry.gpa, "write_protect")
        flags.dirty = True
        softdirty_fault = not flags.soft_dirty
        flags.soft_dirty = True
        gpa = entry.gpa
        return WriteOutcome(gva, gpa, None, softdirty_fault, ept.set_dirty(gpa))

    def region_run(self, gva: int, n: int, *, protected: bool = True) -> tuple[bytes, int]:
        """State bytes of the live region pages from ``gva`` on and the GPA of the first.

        The run holds at most ``n`` pages and stops before the first page that
        is no live page of ``gva``'s region; with ``protected`` False also
        before the first write-protected one.  Empty when ``gva`` is no live
        region page.  No state change.
        """
        run = _live_run(self._regions, gva, n)
        if run is None:
            return b"", 0
        region, i, bits = run
        if not protected:
            stop = bits.translate(_PROTECTED).find(1)
            if stop >= 0:
                bits = bits[:stop]
        return bytes(bits), region.target + i * PAGE_SIZE

    def write_run(
        self, gva: int, count: int, ept: "Ept"
    ) -> tuple[list[int], list[tuple[int, int]]]:
        """``count`` writes to the region pages from ``gva`` on, in address order.

        Each leaves the state :meth:`write_page` leaves when it completes the
        write, a write-protected page's with ``ignore_protection``.  The pages
        must be a run :meth:`region_run` and :meth:`Ept.region_run` returned.
        Returns the write-protected pages, whose writes faulted first, and the
        ``(gpa, gva)`` of each write that set an EPT dirty bit, in order.
        """
        region, i = _find(self._regions, gva)
        stop = i + count
        bits = region.bits[i:stop]
        region.bits[i:stop] = bits.translate(_WRITTEN)
        gpa = region.target + i * PAGE_SIZE
        shift = gva - gpa
        logged = [(frame, frame + shift) for frame in ept.set_dirty_run(gpa, count)]
        return _addresses(bits, _PROTECTED, gva), logged

    def clear_soft_dirty(self) -> int:
        """Clear every soft-dirty bit; returns how many were set."""
        cleared = 0
        for region in self._regions:
            cleared += region.bits.translate(_HAS_SOFT_DIRTY).count(1)
            region.bits = region.bits.translate(_CLEAR_SOFT_DIRTY)
        for entry in self.entries.values():
            if entry.flags.soft_dirty:
                entry.flags.soft_dirty = False
                cleared += 1
        return cleared

    def soft_dirty_set(self) -> set[int]:
        out = {g for g, e in self.entries.items() if e.flags.soft_dirty}
        for region in self._regions:
            out.update(region.pages(_HAS_SOFT_DIRTY))
        return out

    def mapped_set(self) -> set[int]:
        out = set(self.entries)
        for region in self._regions:
            out.update(region.pages(_LIVE))
        return out

    def dirty_set(self) -> set[int]:
        out = {g for g, e in self.entries.items() if e.flags.dirty}
        for region in self._regions:
            out.update(region.pages(_HAS_DIRTY))
        return out

    def set_write_protect(self, gvas, protected: bool = True) -> None:
        for gva in gvas:
            entry = self.entries.get(gva)
            if entry is not None:
                entry.flags.writable = not protected
                continue
            found = _find(self._regions, gva)
            if found is None:
                raise UnknownMapping(gva)
            region, i = found
            if protected:
                region.bits[i] &= ~_WRITABLE
            else:
                region.bits[i] |= _WRITABLE

    def write_protect_all(self, protected: bool = True) -> None:
        """Set (or lift) write protection on every mapped page."""
        table = _PROTECT if protected else _UNPROTECT
        for region in self._regions:
            region.bits = region.bits.translate(table)
        for entry in self.entries.values():
            entry.flags.writable = not protected


class Ept:
    """VM-wide GPA -> HPA map with per-entry hardware dirty bits.

    Frames mapped by :meth:`map_gpa` are stored in ``entries`` as
    ``[hpa, dirty]``.  Frames mapped as a run by :meth:`map_region` keep
    their dirty bit in one byte each in their region: a write sets it and a
    re-arm clears it in place.  Mapping a region frame singly replaces it in
    ``entries``, and unmapping takes it out of its region.
    """

    def __init__(self):
        self.entries: dict[int, list] = {}  # gpa -> [hpa, dirty]
        self._regions: list[_Region] = []

    def __contains__(self, gpa: int) -> bool:
        return gpa in self.entries or _find(self._regions, gpa) is not None

    def _take(self, gpa: int) -> None:
        """Remove region frame ``gpa`` from its region, if it is one."""
        found = _find(self._regions, gpa)
        if found is not None:
            _release(self._regions, *found)

    def map_region(self, gpa: int, hpa: int, count: int) -> None:
        """Map ``count`` frames, ``PAGE_SIZE`` apart, from ``gpa`` to HPAs from ``hpa``.

        Frames mapped one at a time inside the range are replaced, as
        :meth:`map_gpa` replaces them.  The range must overlap no earlier
        region.
        """
        if count <= 0:
            return
        end = gpa + count * PAGE_SIZE
        if any(r.overlaps(gpa, end) for r in self._regions):
            raise AlreadyMapped(gpa)
        for g in [g for g in self.entries if gpa <= g < end and not (g - gpa) % PAGE_SIZE]:
            del self.entries[g]
        self._regions.append(_Region(gpa, hpa, count, _MAPPED))

    def map_gpa(self, gpa: int, hpa: int) -> None:
        self._take(gpa)
        self.entries[gpa] = [hpa, False]

    def unmap_gpa(self, gpa: int) -> None:
        if self.entries.pop(gpa, None) is None:
            self._take(gpa)

    def translate(self, gpa: int) -> int | None:
        entry = self.entries.get(gpa)
        if entry is not None:
            return entry[0]
        for region in self._regions:
            i = region.index(gpa - region.base)
            if i >= 0:
                return region.target + i * PAGE_SIZE
        return None

    def set_dirty(self, gpa: int) -> bool:
        """Set the dirty bit; True when this was a clear-to-set transition."""
        entry = self.entries.get(gpa)
        if entry is None:
            # inline region lookup, as in GuestPageTable.write_page
            for region in self._regions:
                off = gpa - region.base
                if 0 <= off < region.span:
                    break
            else:
                raise UnknownMapping(gpa)
            i = off // PAGE_SIZE
            bits = 0 if off % PAGE_SIZE else region.bits[i]
            if not bits:
                raise UnknownMapping(gpa)
            region.bits[i] = bits | _DIRTY
            return not bits & _DIRTY
        was = entry[1]
        entry[1] = True
        return not was

    def region_run(self, gpa: int, n: int, transitions: int | None = None) -> int:
        """How many of the ``n`` frames from ``gpa`` on a run of writes can dirty.

        The run stops before the first frame that is no live frame of
        ``gpa``'s region and, when ``transitions`` is given, before the
        clean frame that would be the ``transitions + 1``-th to set its dirty
        bit.  No state change.
        """
        run = _live_run(self._regions, gpa, n)
        if run is None:
            return 0
        bits = run[2]
        if transitions is None:
            return len(bits)
        clean = bits.translate(_CLEAN)
        if clean.count(1) <= transitions:
            return len(bits)
        return bisect_left(list(accumulate(clean)), transitions + 1)

    def set_dirty_run(self, gpa: int, count: int) -> list[int]:
        """:meth:`set_dirty` on the ``count`` region frames from ``gpa`` on, which
        :meth:`region_run` returned; the frames it set from clear, in order."""
        region, i = _find(self._regions, gpa)
        stop = i + count
        bits = region.bits[i:stop]
        region.bits[i:stop] = bits.translate(_SET_DIRTY)
        return _addresses(bits, _CLEAN, gpa)

    def is_dirty(self, gpa: int) -> bool:
        entry = self.entries.get(gpa)
        if entry is not None:
            return entry[1]
        found = _find(self._regions, gpa)
        return found is not None and bool(found[0].bits[found[1]] & _DIRTY)

    def clear_dirty(self, gpas) -> None:
        """Re-arm logging for ``gpas``: the next write transitions again.

        Stored frames are cleared as they come; the rest are then cleared
        one region at a time, each region in one pass over what is left.
        """
        entries = self.entries
        rest = []
        for gpa in gpas:
            entry = entries.get(gpa)
            if entry is not None:
                entry[1] = False
            else:
                rest.append(gpa)
        for region in self._regions:
            if not rest:
                break
            base, span, bits = region.base, region.span, region.bits
            left = []
            for gpa in rest:
                off = gpa - base
                if 0 <= off < span:
                    if not off % PAGE_SIZE:  # a page that left keeps its 0 byte
                        bits[off // PAGE_SIZE] &= ~_DIRTY
                else:
                    left.append(gpa)
            rest = left

    def dirty_gpas(self) -> set[int]:
        out = {g for g, e in self.entries.items() if e[1]}
        for region in self._regions:
            out.update(region.pages(_HAS_DIRTY))
        return out


class PageStore:
    """HPA -> payload bytes.  Payloads are optional per simulation.

    Tracking-only experiments run metadata-free; checkpoint/restore
    experiments enable payloads so dumps can be verified byte-exactly.
    Content is written as a fixed page-size block.
    """

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.contents: dict[int, bytes] = {}

    def write(self, hpa: int, payload: bytes) -> None:
        if len(payload) > self.page_size:
            raise ValueError("payload exceeds page size")
        self.contents[hpa] = payload.ljust(self.page_size, b"\x00")

    def write_token(self, hpa: int, token: int) -> None:
        """Deterministic synthetic content for write number ``token``."""
        self.write(hpa, token.to_bytes(8, "little"))

    def read(self, hpa: int) -> bytes:
        if hpa not in self.contents:
            raise UnknownMapping(hpa)
        return self.contents[hpa]

    def __contains__(self, hpa: int) -> bool:
        return hpa in self.contents
