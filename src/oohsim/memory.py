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
write, a protect, a re-arm), to a slice (writes to consecutive pages) or to
the bytes of pages in any order, gathered and scattered with NumPy one
region at a time (a trace's writes, a re-arm of logged frames); whole-table
operations (soft-dirty clear, protect-all, the dirty and soft-dirty sets)
run over the bytes with ``bytes.translate``, ``find`` and ``count``.  A
:class:`Stretch` of writes looks each table up once, and applying its first
writes reuses what that peek found.  Mapping a large address space and
writing it over and over builds no per-page object.  An unmap takes a page
out of its region, and a region with no page left is dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from itertools import chain, compress
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
    "Stretch",
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
# the same tables as arrays, for the gathers of a sequence of pages
_WRITTEN_A, _SET_DIRTY_A, _CLEAR_DIRTY_A = (
    np.frombuffer(table, np.uint8) for table in (_WRITTEN, _SET_DIRTY, _CLEAR_DIRTY)
)


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


def _addresses(bits: bytes, select: bytes, base: int, step: int = PAGE_SIZE) -> list[int]:
    """Addresses, ``step`` apart from ``base``, of the bytes ``select`` maps to 1."""
    marks = bits.translate(select)
    if 1 not in marks:
        return []
    return (np.flatnonzero(np.frombuffer(marks, dtype=np.uint8)) * step + base).tolist()


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


def _consecutive(addrs: Sequence[int]) -> bool:
    """Whether ``addrs`` is a ``range`` of pages, which takes the slice path."""
    return isinstance(addrs, range) and addrs.step == PAGE_SIZE


def _until(stops: np.ndarray) -> int:
    """Index of the first True in ``stops``, else its length."""
    hits = stops.nonzero()[0]
    return int(hits[0]) if len(hits) else len(stops)


def _first(values: np.ndarray) -> np.ndarray:
    """True where a value occurs for the first time in ``values``."""
    order = values.argsort(kind="stable")
    ordered = values[order]
    first = np.empty(len(values), dtype=bool)
    first[order[:1]] = True
    first[order[1:]] = ordered[1:] != ordered[:-1]
    return first


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

    def _walk(self, addrs: list[int]) -> tuple[list, tuple]:
        """The pages of ``addrs``: :func:`_runs`'s live slices of the regions, and
        the others, with the singly mapped pages, gathered (:meth:`_gather`)."""
        entries = self.entries
        singles = [addr for addr in addrs if addr in entries] if entries else []
        if singles:
            addrs = [addr for addr in addrs if addr not in entries]
        runs, _positions, rest = _runs(addrs, self._regions, "base")
        return runs, self._gather(np.array(rest + singles, dtype=np.int64))

    def _all(self) -> Iterator[_Region]:
        return chain(self._regions, self.entries.values())

    def _pages(self, select: bytes, unit: int = 1) -> set[int]:
        """``addr // unit`` of each page ``addr`` whose byte ``select`` maps to 1:
        its address, or with ``unit`` ``PAGE_SIZE`` its page number."""
        out = {addr // unit for addr, region in self.entries.items() if select[region.bits[0]]}
        for region in self._regions:
            out.update(_addresses(region.bits, select, region.base // unit, PAGE_SIZE // unit))
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

    def _gather(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[list, list]]:
        """Each of ``addrs``' state byte (0 for no live page) and target, one gather
        per region, then ``entries``; and where each byte lives, for :meth:`_scatter`:
        ``(region, positions, indices)`` per region and ``(position, region)`` per
        singly mapped page."""
        bits = np.zeros(len(addrs), dtype=np.uint8)
        targets = np.zeros(len(addrs), dtype=np.int64)
        places: tuple[list, list] = ([], [])
        if not len(addrs):
            return bits, targets, places
        aligned = addrs % PAGE_SIZE == 0
        for region in self._regions:
            off = addrs - region.base
            # a negative offset, read unsigned, is past the span too
            pos = ((off.view(np.uint64) < region.span) & aligned).nonzero()[0]
            if len(pos):
                off = off[pos]
                idx = off // PAGE_SIZE
                bits[pos] = np.frombuffer(region.bits, dtype=np.uint8)[idx]
                targets[pos] = off + region.target
                places[0].append((region, pos, idx))
        if self.entries:
            hits = map(self.entries.get, addrs.tolist())
            for j, region in enumerate(hits):
                if region is not None:  # a page that left a region may be mapped singly
                    bits[j], targets[j] = region.bits[0], region.target
                    places[1].append((j, region))
        return bits, targets, places

    @staticmethod
    def _scatter(
        places: tuple[list, list], count: int, table: bytes, array: np.ndarray, start: int = 0
    ) -> None:
        """Byte ``b`` of each place :meth:`_gather` found at positions ``start`` to
        ``count`` becomes ``table[b]`` (``array`` is the same table).  The tables
        applied this way are idempotent, so a place found twice ends as if found once."""
        in_regions, singles = places
        for region, pos, idx in in_regions:
            lo, hi = pos.searchsorted((start, count))
            idx = idx[lo:hi]
            view = np.frombuffer(region.bits, dtype=np.uint8)
            view[idx] = array[view[idx]]
        for j, region in singles:
            if start <= j < count:
                region.bits[0] = table[region.bits[0]]


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
        runs, (bits, targets, _) = self._walk(gvas)
        out = targets[bits != 0].tolist()
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

    def clear_soft_dirty(self) -> int:
        """Clear every soft-dirty bit; returns how many were set."""
        cleared = sum(r.bits.translate(_HAS_SOFT_DIRTY).count(1) for r in self._all())
        self._translate(_CLEAR_SOFT_DIRTY)
        return cleared

    def soft_dirty_set(self) -> set[int]:
        return self._pages(_HAS_SOFT_DIRTY)

    def soft_dirty_pages(self) -> set[int]:
        """The page numbers (``gva // PAGE_SIZE``) of :meth:`soft_dirty_set`."""
        return self._pages(_HAS_SOFT_DIRTY, PAGE_SIZE)

    def mapped_set(self) -> set[int]:
        return self._pages(_LIVE)

    def dirty_set(self) -> set[int]:
        return self._pages(_HAS_DIRTY)

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

    def clear_dirty(self, gpas: list[int]) -> None:
        """Re-arm logging for ``gpas``: the next write transitions again.  One
        ``translate`` clears a run of frames.  Unmapped GPAs are skipped."""
        runs, (_, _, places) = self._walk(gpas)
        for region, i, k, _pos in runs:
            bits = region.bits
            bits[i : i + k] = bits[i : i + k].translate(_CLEAR_DIRTY)
        self._scatter(places, len(gpas), _CLEAR_DIRTY, _CLEAR_DIRTY_A)


class Stretch:
    """A run of writes to ``gvas``, in order, peeked at in a page table and the
    EPT; :meth:`apply` applies its first writes, once.

    ``bits`` holds the page-table byte each write finds, a page written
    again finding the byte its first write left.  The run stops before the
    first write to a page that is not mapped (in the page table or the EPT);
    with ``protected`` False also before the first to a write-protected one;
    and before the write that would set an EPT dirty bit from clear with no
    slot left, ``free`` being the dirty transitions the log buffers take
    (None when none logs).  A ``range`` of pages takes the slice path: it
    also stops at the first page or frame that is no live one of the first
    one's region (one mapped by ``map_region``).  Any other sequence is
    gathered once per region and from ``entries``.  No state change: the
    peek keeps where each table's bytes live and which writes set a dirty
    bit, for :meth:`apply`.

    ``fills`` are the indices, among the run's dirty transitions, of those
    that find a log buffer full and are logged after a copy empties it; the
    copy re-arms the frames logged since the last one, and the first copy
    also those ``held`` (addresses in ``table``) logged before the run.  A
    write to a frame after a copy re-armed it is a transition the peek did
    not see, so the run stops before the first.  ``fills`` holds, after the
    peek, the positions of the filling writes in the run.
    """

    __slots__ = ("bits", "fills", "_gvas", "_gpas", "_places", "_logs", "_rearm", "_applied")

    def __init__(
        self,
        table: GuestPageTable,
        ept: Ept,
        gvas: Sequence[int],
        *,
        protected: bool = True,
        free: int | None = None,
        fills: Sequence[int] = (),
        held: Sequence[int] = (),
    ):
        self.bits, self.fills, self._logs, self._rearm, self._applied = b"", [], None, None, False
        if _consecutive(gvas):
            run = table._live_run(gvas.start, len(gvas))
            pte = b"" if run is None else run[2]
            if pte and not protected:
                stop = pte.translate(_PROTECTED).find(1)
                pte = pte if stop < 0 else pte[:stop]
            if not pte:
                return
            gpa = run[0].target + run[1] * PAGE_SIZE
            frames = ept._live_run(gpa, len(pte))
            if frames is None:
                return
            logs = frames[2].translate(_CLEAN)
            n = len(logs)
            if free is not None and (fills or logs.count(1) > free):
                hits = np.flatnonzero(np.frombuffer(logs, dtype=np.uint8))
                n = n if len(hits) <= free else int(hits[free])  # stop at the (free + 1)-th
                if fills:
                    self.fills = hits[[f for f in fills if f < len(hits)]].tolist()
            if self.fills:
                # the pages of a range are distinct: only the held frames can be
                # written after a copy re-armed them
                held = table.gpas_of(held)
                after, end = gpa + self.fills[0] * PAGE_SIZE, gpa + n * PAGE_SIZE
                rewritten = [frame for frame in held if after < frame < end]
                if rewritten:
                    n = (min(rewritten) - gpa) // PAGE_SIZE
                    self.fills = [q for q in self.fills if q < n]
                self._rearm = ept, held
            self._gvas, self._gpas = gvas, range(gpa, gpa + n * PAGE_SIZE, PAGE_SIZE)
            self._places, self._logs = (run[:2], frames[:2]), None if free is None else logs
        else:
            gvas = np.asarray(gvas, dtype=np.int64)
            pte, gpas, pte_places = table._gather(gvas)
            n = _until(pte & (_MAPPED if protected else _WRITABLE) == 0)
            frames, _, frame_places = ept._gather(gpas[:n])
            n = _until(frames == 0)
            if free is not None:
                self._logs = _first(gpas[:n]) & (frames[:n] & _DIRTY == 0)
                hits = self._logs.nonzero()[0]
                n = n if len(hits) <= free else int(hits[free])
                if fills:
                    self.fills = hits[[f for f in fills if f < len(hits)]].tolist()
            if self.fills:
                held = table.gpas_of(held)
                n = self._rearmed(gpas[:n], held)
                self.fills = [q for q in self.fills if q < n]
                self._rearm = ept, held
            self._gvas, self._gpas, self._places = gvas, gpas, (pte_places, frame_places)
            pte = np.where(_first(gvas[:n]), pte[:n], _WRITTEN_A[pte[:n]])
        self.bits = bytes(pte[:n])

    def _rearmed(self, gpas: np.ndarray, held: list[int]) -> int:
        """Where a run of writes to ``gpas`` in any order first writes a frame a
        copy before it re-armed: one of ``held`` after the first copy, or one
        the run logged before a copy; else its length."""
        fills, logs, n = self.fills, self._logs, len(gpas)
        rearmed, start = np.array(held, dtype=np.int64), 0
        for j, q in enumerate(fills):
            # the copy at q re-arms the frames the run logged since the last one
            rearmed = np.sort(np.concatenate((rearmed, gpas[start:q][logs[start:q]])))
            start, end = q, fills[j + 1] + 1 if j + 1 < len(fills) else n
            after = gpas[q + 1 : end]
            if len(rearmed):  # none when every held page was unmapped since
                found = rearmed[rearmed.searchsorted(after).clip(max=len(rearmed) - 1)] == after
                if found.any():
                    return q + 1 + int(found.argmax())
        return n

    def __len__(self) -> int:
        return len(self.bits)

    def apply(self, k: int) -> tuple[list[int], list[tuple[int, int]]]:
        """Apply the first ``k`` writes, each leaving the state
        :meth:`GuestPageTable.write_page` leaves when it completes the write, a
        write-protected page's with ``ignore_protection``, and the copies of the
        buffer fills among them their re-arms.

        Returns the page numbers (``gva // PAGE_SIZE``) of the writes that
        faulted on write protection first, and the ``(gpa, gva)`` of each write
        that set an EPT dirty bit from clear, in order, when a buffer logs.
        Whether a write is its page's first depends only on the writes before
        it, so the peek's masks, cut to ``k``, are those of the first ``k``
        writes.  A frame a copy re-arms is written by no later write of the
        run, so it ends as the run found it: only the frames first written
        from the last copy's filling write on are set dirty, and then the
        held ones cleared.  A stretch applies once, with
        ``1 <= k <= len(bits)``; anything else raises ``ValueError``.
        """
        if self._applied or not 1 <= k <= len(self.bits):
            state = "applied" if self._applied else f"of {len(self.bits)} writes"
            raise ValueError(f"cannot apply {k} writes of a stretch {state}")
        self._applied = True
        gvas, gpas, logs, marks = self._gvas[:k], self._gpas[:k], self._logs, self.bits[:k]
        copies = bisect_left(self.fills, k)
        lo = self.fills[copies - 1] if copies else 0
        if isinstance(gvas, range):
            (region, i), (frames, j) = self._places
            region.bits[i : i + k] = marks.translate(_WRITTEN)
            frames.bits[j + lo : j + k] = frames.bits[j + lo : j + k].translate(_SET_DIRTY)
            protected = _addresses(marks, _PROTECTED, gvas.start // PAGE_SIZE, 1)
            logged = () if logs is None else zip(compress(gpas, logs), compress(gvas, logs))
        else:
            pte, frames = self._places
            _PageMap._scatter(pte, k, _WRITTEN, _WRITTEN_A)
            _PageMap._scatter(frames, k, _SET_DIRTY, _SET_DIRTY_A, lo)
            protected = gvas[np.frombuffer(marks.translate(_PROTECTED), bool)] // PAGE_SIZE
            protected = protected.tolist()
            logged = () if logs is None else zip(gpas[logs[:k]].tolist(), gvas[logs[:k]].tolist())
        if copies and self._rearm[1]:
            ept, held = self._rearm
            ept.clear_dirty(held)
        return protected, list(logged)


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
