"""Guest/host memory model: page tables, EPT, page store, write pipeline.

Three address layers: guest-virtual (GVA), guest-physical (GPA), and
host-physical (HPA), all tracked at page granularity as integer page
numbers.  A per-process :class:`GuestPageTable` maps GVA pages to GPA pages
(aliasing allowed — several GVAs may share one GPA), and the VM-wide
:class:`Ept` maps GPA pages to HPA pages while owning the hardware dirty
bit that page-modification logging keys off.

Both tables hold every page in a *region*: page *i* of a region is backed
by the region's base plus *i* pages, so translation and reverse mapping are
arithmetic, and each page's state is one byte of the region's
``bytearray`` (page table: mapped, writable, dirty, soft-dirty; EPT: mapped,
dirty).  An allocation is one region in each table; a page mapped singly
or moved is a one-page region, kept in ``entries`` under its address.  So
each rule about a page's state is one byte table, applied to one byte (a
write, a protect, a re-arm) or to a slice (a run of writes,
:meth:`GuestPageTable.write_run`); whole-table operations (soft-dirty
clear, protect-all, the dirty and soft-dirty sets) run over the bytes with
``bytes.translate``, ``find`` and ``count``.  Mapping a large address space
and writing it over and over builds no per-page object.  An unmap takes a
page out of its region, and a region with no page left is dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

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


class PageFlags(NamedTuple):
    """A page-table entry's bits, read from its state byte.

    ``soft_dirty`` starts set at allocation (the kernel marks the first
    touch); an explicit soft-dirty clear resets it, and the next write takes
    the kernel fault path that sets it again.
    """

    writable: bool
    dirty: bool
    soft_dirty: bool


class PageEntry(NamedTuple):
    """A read-only view of one mapping; change it through the table's methods."""

    gpa: int
    flags: PageFlags


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


# One byte of state per page.  A zero byte is a page that has left its
# region; every live byte has _MAPPED set.  Page-table regions use
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
_CLEAR_DIRTY = bytes(v & ~_DIRTY for v in range(256))


def write_faults(bits: int) -> tuple[bool, bool]:
    """The faults a write to a page-table page in state ``bits`` takes:
    (soft-dirty fault, write-protect fault), as :meth:`GuestPageTable.write_page`
    reports them."""
    return not bits & _SOFT_DIRTY, not bits & _WRITABLE


def _view(gpa: int, bits: int) -> PageEntry:
    """The page-table entry of a page backed by ``gpa`` in state ``bits``."""
    return PageEntry(
        gpa, PageFlags(bits & _WRITABLE != 0, bits & _DIRTY != 0, bits & _SOFT_DIRTY != 0)
    )


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

    ``bits[i]`` is page *i*'s state, 0 once it has left the region;
    ``live`` counts the nonzero bytes.
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


def _runs(addrs: list[int], regions: list[_Region], start: str) -> tuple[list, Sequence, list]:
    """Split ``addrs`` into maximal runs ``PAGE_SIZE`` apart (by one array
    difference: addresses are below 2**63).  Returns each run of two or more
    cut at the ends of ``regions`` (page 0 at ``getattr(region, start)``)
    and at pages that left them, as live slices ``(region, i, k, pos)``, so
    ``addrs[pos : pos + k]`` are pages ``i .. i + k - 1`` of ``region``; and
    the positions and addresses of the rest, for one pass per region."""
    values = np.array(addrs, dtype=np.int64)
    steps = (values[1:] - values[:-1] == PAGE_SIZE).tobytes()  # 1 where a run goes on
    runs: list[tuple[_Region, int, int, int]] = []
    singles: list[int] = []
    pos, j = 0, steps.find(1)
    if j < 0:
        return runs, range(len(addrs)), addrs
    while j >= 0:
        end = steps.find(0, j)
        end = len(steps) if end < 0 else end  # addrs[j : end + 1] is the run
        singles += range(pos, j)
        for region in regions:
            off = addrs[j] - getattr(region, start)
            if off % PAGE_SIZE:
                continue
            first, bits = off // PAGE_SIZE, region.bits  # index of addrs[j], maybe out of range
            i, stop = max(first, 0), min(first + end + 1 - j, len(bits))
            at = j + i - first
            while i < stop:  # cut at the pages that left the region
                dead = bits.find(0, i, stop)
                dead = stop if dead < 0 else dead
                if dead > i:
                    runs.append((region, i, dead - i, at))
                at, i = at + dead + 1 - i, dead + 1
        pos, j = end + 1, steps.find(1, end + 1)
    singles += range(pos, len(addrs))
    return runs, singles, [addrs[at] for at in singles]


class _PageMap:
    """Page addresses mapped to targets, each page with one state byte in a region.

    ``entries`` holds the one-page regions of pages mapped singly or moved,
    under their address; ``_regions`` the regions mapped as a run.  A live
    address is in exactly one of them.
    """

    def __init__(self):
        self.entries: dict[int, _Region] = {}
        self._regions: list[_Region] = []

    def _locate(self, addr: int) -> tuple[_Region, int] | None:
        """The region holding live page ``addr`` and its index there, else None."""
        region = self.entries.get(addr)
        if region is not None:
            return region, 0
        for region in self._regions:
            i = region.index(addr - region.base)
            if i >= 0:
                return region, i
        return None

    def __contains__(self, addr: int) -> bool:
        return self._locate(addr) is not None

    def _target(self, addr: int) -> int | None:
        """The address page ``addr`` maps to, or None when it is not mapped."""
        region = self.entries.get(addr)
        if region is not None:
            return region.target
        # _locate's scan, inline: this runs for every payload write and page read
        for region in self._regions:
            i = region.index(addr - region.base)
            if i >= 0:
                return region.target + i * PAGE_SIZE
        return None

    def _walk(self, addrs: list[int]) -> tuple[list, list[tuple[_Region, list[int]]]]:
        """The live pages among ``addrs``: :func:`_runs`'s slices, and the others as
        regions with indices, from ``entries``, then one pass per region over the rest."""
        entries = self.entries
        rest = [addr for addr in addrs if addr not in entries]
        hits = [(entries[a], [0]) for a in addrs if a in entries] if len(rest) < len(addrs) else []
        runs, _positions, rest = _runs(rest, self._regions, "base")
        for region in self._regions:
            if not rest:
                break
            base, span, bits = region.base, region.span, region.bits
            indices, left = [], []
            for addr in rest:
                off = addr - base
                if 0 <= off < span:
                    if not off % PAGE_SIZE and bits[off // PAGE_SIZE]:
                        indices.append(off // PAGE_SIZE)
                else:
                    left.append(addr)
            hits.append((region, indices))
            rest = left
        return runs, hits

    def _all(self) -> Iterator[_Region]:
        return chain(self._regions, self.entries.values())

    def _pages(self, select: bytes) -> set[int]:
        """Addresses of the pages whose byte ``select`` maps to 1."""
        out = {addr for addr, region in self.entries.items() if select[region.bits[0]]}
        for region in self._regions:
            out.update(_addresses(region.bits, select, region.base))
        return out

    def _translate(self, table: bytes) -> None:
        """Every page's byte ``b`` becomes ``table[b]``."""
        for region in self._all():
            region.bits = region.bits.translate(table)

    def _take(self, addr: int) -> tuple[int, int] | None:
        """Take page ``addr`` out of the map: its target and state byte, or None
        when it is not mapped.  A region left with no page is dropped."""
        region = self.entries.pop(addr, None)
        if region is not None:
            return region.target, region.bits[0]
        found = self._locate(addr)
        if found is None:
            return None
        region, i = found
        bits = region.bits[i]
        region.bits[i] = 0
        region.live -= 1
        if not region.live:
            self._regions.remove(region)
        return region.target + i * PAGE_SIZE, bits

    def _live_run(self, addr: int, n: int) -> tuple[_Region, int, bytearray] | None:
        """The region holding live page ``addr``, its index there and the bytes of
        the live pages from it on: at most ``n``, up to the first that left or
        the region's end.  None when ``addr`` is no live page of a region mapped
        as a run."""
        if n < 1:
            raise ValueError(f"a run holds at least one page, got {n}")
        found = None if addr in self.entries else self._locate(addr)
        if found is None:
            return None
        region, i = found
        bits = region.bits[i : i + n]
        stop = bits.find(0)
        return region, i, bits if stop < 0 else bits[:stop]


class GuestPageTable(_PageMap):
    """GVA -> (GPA, flags) map for one process, with a GPA reverse index.

    Pages mapped as a run by :meth:`map_region` share a region; a page
    mapped by :meth:`map_page` or moved by :meth:`remap` is a one-page
    region in ``entries`` and in the reverse index ``_rmap`` (GPA -> its
    singly mapped GVAs).  A write, a protect or a soft-dirty clear flips
    bits in the page's byte.
    """

    def __init__(self, pid: int):
        super().__init__()
        self.pid = pid
        self._rmap: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self.entries) + sum(r.live for r in self._regions)

    def _store(self, gva: int, gpa: int, bits: int) -> None:
        self.entries[gva] = _Region(gva, gpa, 1, bits)
        self._rmap.setdefault(gpa, set()).add(gva)

    def _take(self, gva: int) -> tuple[int, int] | None:
        taken = _PageMap._take(self, gva)
        if taken is not None:
            peers = self._rmap.get(taken[0])
            if peers is not None:
                peers.discard(gva)
                if not peers:
                    del self._rmap[taken[0]]
        return taken

    def entry(self, gva: int) -> PageEntry | None:
        """The entry mapping ``gva``, or None when not mapped.  No state change."""
        found = self._locate(gva)
        if found is None:
            return None
        region, i = found
        return _view(region.target + i * PAGE_SIZE, region.bits[i])

    gpa_of = _PageMap._target  # the GPA alone, building no entry

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
    ) -> None:
        if gva in self:
            raise AlreadyMapped(gva)
        bits = _MAPPED | (_WRITABLE if writable else 0) | (_SOFT_DIRTY if soft_dirty else 0)
        self._store(gva, gpa, bits)

    def unmap(self, gva: int) -> PageEntry:
        taken = self._take(gva)
        if taken is None:
            raise UnknownMapping(gva)
        return _view(*taken)

    def remap(self, gva_old: int, gva_new: int) -> PageEntry:
        """Move the GPA backing (and flags) of ``gva_old`` to ``gva_new``."""
        if gva_old not in self:
            raise UnknownMapping(gva_old)
        if gva_new in self:
            raise AlreadyMapped(gva_new)
        gpa, bits = self._take(gva_old)
        self._store(gva_new, gpa, bits)
        return _view(gpa, bits)

    def gpas_of(self, gvas: list[int]) -> list[int]:
        """The GPAs that ``gvas`` translate to, as :meth:`gpa_of`, skipping unmapped
        ones; a ``range`` per run of pages, so not in the order of ``gvas``."""
        runs, hits = self._walk(gvas)
        out = [region.target + i * PAGE_SIZE for region, indices in hits for i in indices]
        for region, i, k, _pos in runs:
            gpa = region.target + i * PAGE_SIZE
            out += range(gpa, gpa + k * PAGE_SIZE, PAGE_SIZE)
        return out

    def reverse_map(self, gpa: int) -> int | None:
        """Some GVA currently mapping ``gpa``; lowest page number on aliases.

        Returns :data:`LOST` (None) when no GVA maps the GPA — the
        missed-address pathology of GPA-level logging.
        """
        return self.reverse_map_many([gpa])[0]

    def reverse_map_many(self, gpas: list[int]) -> list[int | None]:
        """:meth:`reverse_map` of each of ``gpas``, in order.

        Singly mapped aliases first; a run no alias contests is one slice
        assignment; the rest in one pass per region, keeping the lowest.
        """
        rmap, out = self._rmap, [LOST] * len(gpas)
        if rmap:
            out = [min(gvas) if gvas else LOST for gvas in map(rmap.get, gpas)]
        runs, positions, rest = _runs(gpas, self._regions, "target")
        for region, i, k, pos in runs:
            if out[pos : pos + k].count(LOST) == k:
                gva = region.base + i * PAGE_SIZE
                out[pos : pos + k] = range(gva, gva + k * PAGE_SIZE, PAGE_SIZE)
            else:  # contested: a list, as runs were found
                positions += range(pos, pos + k)
                rest += gpas[pos : pos + k]
        for region in self._regions:
            target, span, bits = region.target, region.span, region.bits
            shift = region.base - target
            for at, gpa in zip(positions, rest):
                off = gpa - target
                if 0 <= off < span and not off % PAGE_SIZE and bits[off // PAGE_SIZE]:
                    best = out[at]
                    if best is LOST or gpa + shift < best:
                        out[at] = gpa + shift
        return out

    def write_page(self, gva: int, ept: "Ept", *, ignore_protection: bool = False) -> WriteOutcome:
        """One store to ``gva``: fault checks, then PTE/EPT dirty updates.

        A write-protected or non-present page faults and changes nothing
        (the caller models the fault handling and may complete the write
        afterwards with ``ignore_protection=True``).  A completed write sets
        the PTE dirty bit, sets soft-dirty (flagging the kernel fault if it
        was clear), and sets the EPT dirty bit for the backing GPA,
        reporting whether that was a clear-to-set transition.
        """
        region = self.entries.get(gva)
        if region is None:
            # inline run lookup: this runs on every write, and a call costs
            for region in self._regions:
                off = gva - region.base
                if 0 <= off < region.span:
                    break
            else:
                return WriteOutcome(gva, None, "not_present")
            i = off // PAGE_SIZE
            bits = 0 if off % PAGE_SIZE else region.bits[i]
        else:
            off = i = 0
            bits = region.bits[0]
        if not bits:
            return WriteOutcome(gva, None, "not_present")
        gpa = region.target + off
        if not bits & _WRITABLE and not ignore_protection:
            return WriteOutcome(gva, gpa, "write_protect")
        transition = ept.set_dirty(gpa)  # first: a frame the EPT lacks leaves the PTE as it was
        region.bits[i] = _WRITTEN[bits]
        return WriteOutcome(gva, gpa, None, not bits & _SOFT_DIRTY, transition)

    def region_run(self, gva: int, n: int, *, protected: bool = True) -> tuple[bytes, int]:
        """State bytes of the live pages of a run from ``gva`` on and the GPA of the first.

        The run holds at most ``n`` pages and stops before the first page that
        is no live page of ``gva``'s region; with ``protected`` False also
        before the first write-protected one.  Empty when ``gva`` is no live
        page of a region mapped by :meth:`map_region`.  No state change.
        """
        run = self._live_run(gva, n)
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
        region, i = self._locate(gva)
        stop = i + count
        bits = region.bits[i:stop]
        region.bits[i:stop] = bits.translate(_WRITTEN)
        gpa = region.target + i * PAGE_SIZE
        shift = gva - gpa
        logged = [(frame, frame + shift) for frame in ept.set_dirty_run(gpa, count)]
        return _addresses(bits, _PROTECTED, gva), logged

    def clear_soft_dirty(self) -> int:
        """Clear every soft-dirty bit; returns how many were set."""
        cleared = sum(r.bits.translate(_HAS_SOFT_DIRTY).count(1) for r in self._all())
        self._translate(_CLEAR_SOFT_DIRTY)
        return cleared

    def soft_dirty_set(self) -> set[int]:
        return self._pages(_HAS_SOFT_DIRTY)

    def mapped_set(self) -> set[int]:
        return self._pages(_LIVE)

    def dirty_set(self) -> set[int]:
        return self._pages(_HAS_DIRTY)

    def set_write_protect(self, gvas, protected: bool = True) -> None:
        table = _PROTECT if protected else _UNPROTECT
        for gva in gvas:
            found = self._locate(gva)
            if found is None:
                raise UnknownMapping(gva)
            region, i = found
            region.bits[i] = table[region.bits[i]]

    def write_protect_all(self, protected: bool = True) -> None:
        """Set (or lift) write protection on every mapped page."""
        self._translate(_PROTECT if protected else _UNPROTECT)


class Ept(_PageMap):
    """VM-wide GPA -> HPA map with per-frame hardware dirty bits.

    Frames mapped as a run by :meth:`map_region` share a region; a frame
    mapped by :meth:`map_gpa` is a one-page region in ``entries``, which
    replaces any mapping the frame had.  A write sets a frame's dirty bit
    and a re-arm clears it in place.
    """

    translate = _PageMap._target

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
        self.entries[gpa] = _Region(gpa, hpa, 1, _MAPPED)

    def unmap_gpa(self, gpa: int) -> None:
        self._take(gpa)

    def set_dirty(self, gpa: int) -> bool:
        """Set the dirty bit; True when this was a clear-to-set transition."""
        region = self.entries.get(gpa)
        if region is None:
            # inline run lookup, for the same reason as in GuestPageTable.write_page
            for region in self._regions:
                off = gpa - region.base
                if 0 <= off < region.span:
                    break
            else:
                raise UnknownMapping(gpa)
            i = off // PAGE_SIZE
            bits = 0 if off % PAGE_SIZE else region.bits[i]
        else:
            i, bits = 0, region.bits[0]
        if not bits:
            raise UnknownMapping(gpa)
        region.bits[i] = _SET_DIRTY[bits]
        return not bits & _DIRTY

    def region_run(self, gpa: int, n: int, transitions: int | None = None) -> int:
        """How many of the ``n`` frames from ``gpa`` on a run of writes can dirty.

        The run stops before the first frame that is no live frame of
        ``gpa``'s region (one mapped by :meth:`map_region`) and, when
        ``transitions`` is given, before the clean frame that would be the
        ``transitions + 1``-th to set its dirty bit.  No state change.
        """
        run = self._live_run(gpa, n)
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
        region, i = self._locate(gpa)
        stop = i + count
        bits = region.bits[i:stop]
        region.bits[i:stop] = bits.translate(_SET_DIRTY)
        return _addresses(bits, _CLEAN, gpa)

    def clear_dirty(self, gpas: list[int]) -> None:
        """Re-arm logging for ``gpas``: the next write transitions again.  One
        ``translate`` clears a run of frames.  Unmapped GPAs are skipped."""
        runs, hits = self._walk(gpas)
        for region, i, k, _pos in runs:
            bits = region.bits
            bits[i : i + k] = bits[i : i + k].translate(_CLEAR_DIRTY)
        for region, indices in hits:
            bits = region.bits
            for i in indices:
                bits[i] = _CLEAR_DIRTY[bits[i]]

    def dirty_gpas(self) -> set[int]:
        return self._pages(_HAS_DIRTY)


class PageStore:
    """HPA -> payload bytes.  Payloads are optional per simulation.

    Tracking-only experiments run metadata-free; checkpoint/restore
    experiments enable payloads so dumps can be verified byte-exactly.
    Content is written as a fixed page-size block.
    """

    def __init__(self):
        self.contents: dict[int, bytes] = {}

    def write(self, hpa: int, payload: bytes) -> None:
        if len(payload) > PAGE_SIZE:
            raise ValueError("payload exceeds page size")
        self.contents[hpa] = payload.ljust(PAGE_SIZE, b"\x00")

    def read(self, hpa: int) -> bytes:
        if hpa not in self.contents:
            raise UnknownMapping(hpa)
        return self.contents[hpa]
