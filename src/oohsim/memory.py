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
dirty).  An allocation is one region in each table.  A page mapped singly
(or a run of them) joins the region that ends right before it when its
target is the next after that region's last and no other region or entry
holds it, as Linux merges a new anonymous mapping into the VMA before it
(``vma_merge``); any other page mapped singly, and a page moved, is a
one-page region, kept in ``entries`` under its address.  So each rule about
a page's state is one byte table, and pages are looked up
one way per shape of input: one page by its region (a write, a protect, a
translation); a ``range`` of pages as a slice of one region (a sweep's
writes); and any other batch gathered and scattered with NumPy, in one step
when it lies in one region's span, else one pass per region, then
``entries`` (a trace's writes, a re-arm of logged frames, the GPAs of logged
GVAs; a reverse map of logged GPAs is one pass per region by its target, and
the reverse index of ``entries``).
Whole-table operations (soft-dirty clear, protect-all, the mapped and
soft-dirty pages, as sorted int64 page numbers) run over the bytes with
``bytes.translate``, ``find`` and ``count``.  A :class:`Stretch` of writes
looks each table up once, and applying its first writes reuses what that
peek found.  Mapping a large address space, growing it page by page and
writing it over and over builds no per-page object.  An unmap takes a page
out of its region, and a region with no page left is dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from itertools import chain, pairwise
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
    "LOST_GVA",
    "GuestPageTable",
    "Ept",
    "PageStore",
    "Stretch",
    "write_faults",
]

#: Sentinel returned by reverse_map when no GVA currently maps the GPA.
LOST = None
#: LOST, in an array of GVAs (reverse_map_many).
LOST_GVA = np.iinfo(np.int64).max
_NO_ENTRIES = np.empty(0, dtype=np.int64)
_NO_ENTRIES.flags.writeable = False


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


def _pte_byte(writable: bool, soft_dirty: bool) -> int:
    """The state byte of a page-table page mapped with these flags."""
    return _MAPPED | (_WRITABLE if writable else 0) | (_SOFT_DIRTY if soft_dirty else 0)


def write_faults(bits: int) -> tuple[bool, bool]:
    """The faults a write to a page-table page in state ``bits`` takes:
    (soft-dirty fault, write-protect fault), as :meth:`GuestPageTable.write_page`
    reports them."""
    return not bits & _SOFT_DIRTY, not bits & _WRITABLE


def _numbers(bits: bytes, select: bytes, first: int) -> np.ndarray:
    """The page numbers, counting from ``first``, of the bytes ``select`` maps to 1."""
    return np.frombuffer(bits.translate(select), dtype=np.uint8).nonzero()[0] + first


def _distinct(values: np.ndarray, kind: str | None = None) -> np.ndarray:
    """The distinct ``values``, sorted: a sort in place (of ``kind``) and a
    compare of neighbours."""
    values.sort(kind=kind)
    return values[np.concatenate(([True], values[1:] != values[:-1]))] if len(values) else values


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


def _positions(
    addrs: np.ndarray, aligned: np.ndarray, start: int, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ``aligned`` addresses in ``[start, start + span)`` and
    their offsets from ``start``."""
    off = addrs - start
    # a negative offset, read unsigned, is past the span too
    pos = ((off.view(np.uint64) < span) & aligned).nonzero()[0]
    return pos, off[pos]


class _PageMap:
    """Page addresses mapped to targets, each page with one state byte in a region.

    ``entries`` holds the one-page regions of pages mapped singly or moved,
    under their address; ``_regions`` the regions mapped as a run, and the
    pages mapped singly that joined one (:meth:`_join`).  A live address is
    in exactly one of them, and no two of ``_regions`` overlap.  One page is
    found by :meth:`_locate`, a ``range`` of pages by :meth:`_live_run`, and
    any other batch by :meth:`_gather`, in the order of the batch: in one step
    when every address is an aligned page in the span of the region that holds
    the first (a trace's writes to one allocation, and their frames), else one
    pass per region; either way then ``entries``, for the pages no region holds.
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
        place = self._locate(addr)
        if place is None:
            return None
        region, i = place
        return region.target + i * PAGE_SIZE

    def _all(self) -> Iterator[_Region]:
        return chain(self._regions, self.entries.values())

    def _pages(self, select: bytes) -> np.ndarray:
        """The page numbers (``addr // PAGE_SIZE``) of the pages whose byte ``select``
        maps to 1, as a sorted, distinct int64 array."""
        singles = [addr // PAGE_SIZE for addr, r in self.entries.items() if select[r.bits[0]]]
        runs = [_numbers(r.bits, select, r.base // PAGE_SIZE) for r in self._regions]
        pages = np.concatenate([np.array(singles, dtype=np.int64), *runs])
        # regions never overlap: the scans of ascending regions are in order
        if singles or any(a.base > b.base for a, b in pairwise(self._regions)):
            pages = _distinct(pages)
        return pages

    def _translate(self, table: bytes) -> None:
        """Every page's byte ``b`` becomes ``table[b]``."""
        for region in self._all():
            region.bits = region.bits.translate(table)

    def _join(self, addr: int, target: int, count: int, fresh: int) -> bool:
        """Append ``count`` pages from ``addr`` on, backed from ``target`` on, each
        with state ``fresh``, to the region that ends right before ``addr``, when
        ``target`` is the next after its last and no other region or entry holds
        one of the pages.  Returns whether it did; when not, nothing changed."""
        end = addr + count * PAGE_SIZE
        before = None
        for region in self._regions:
            if region.base + region.span == addr:
                before = region
            elif region.overlaps(addr, end):
                return False
        if before is None or before.target + before.span != target:
            return False
        entries = self.entries
        if entries and any(a in entries for a in range(addr, end, PAGE_SIZE)):
            return False
        before.bits += bytes((fresh,)) * count
        before.span += count * PAGE_SIZE
        before.live += count
        return True

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
        """Each of ``addrs``' state byte (0 for no live page) and target, then
        ``entries`` for the addresses no region holds live; and where each byte
        lives, for :meth:`_scatter`: ``(region, positions, indices)`` per region
        and ``(position, region)`` per singly mapped page.  A batch of aligned
        pages all in the span of the region holding its first takes one step,
        its positions None (all of them); any other, one gather per region."""
        n = len(addrs)
        places: tuple[list, list] = ([], [])
        if not n:
            return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64), places
        first = int(addrs[0])
        home = next((r for r in self._regions if 0 <= first - r.base < r.span), None)
        off = None if home is None else addrs - home.base
        # one step when no address has a low bit set and the largest offset, a
        # negative one read unsigned, is inside the span
        one_step = off is not None and not np.bitwise_or.reduce(addrs) % PAGE_SIZE
        if one_step and off.view(np.uint64).max() < home.span:
            idx = off // PAGE_SIZE
            bits, targets = np.frombuffer(home.bits, dtype=np.uint8)[idx], off + home.target
            places[0].append((home, None, idx))
        else:
            bits, targets = np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.int64)
            aligned = addrs % PAGE_SIZE == 0
            for region in self._regions:
                pos, off = _positions(addrs, aligned, region.base, region.span)
                if len(pos):
                    idx = off // PAGE_SIZE
                    bits[pos] = np.frombuffer(region.bits, dtype=np.uint8)[idx]
                    targets[pos] = off + region.target
                    places[0].append((region, pos, idx))
        # a live address is in exactly one of _regions and entries: only where
        # no region left a live byte (a page that left one may be mapped singly)
        misses = (bits == 0).nonzero()[0] if self.entries else ()
        if len(misses):
            hits = map(self.entries.get, addrs[misses].tolist())
            for j, region in zip(misses.tolist(), hits):
                if region is not None:
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
            lo, hi = (start, count) if pos is None else pos.searchsorted((start, count))
            idx = idx[lo:hi]
            view = np.frombuffer(region.bits, dtype=np.uint8)
            view[idx] = array[view[idx]]
        for j, region in singles:
            if start <= j < count:
                region.bits[0] = table[region.bits[0]]


class GuestPageTable(_PageMap):
    """GVA -> (GPA, flags) map for one process, with a GPA reverse index.

    Pages mapped as a run by :meth:`map_region` share a region, which a
    page mapped by :meth:`map_page` (or a run of them, :meth:`join_pages`)
    joins when it comes right after it, backed by the frame after its last.
    Any other page so mapped, and a page moved by :meth:`remap`, is a
    one-page region in ``entries`` and in the reverse index ``_rmap`` (GPA ->
    its GVAs in ``entries``).  A write, a protect or a soft-dirty clear flips
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
        bits = region.bits[i]
        flags = PageFlags(bits & _WRITABLE != 0, bits & _DIRTY != 0, bits & _SOFT_DIRTY != 0)
        return PageEntry(region.target + i * PAGE_SIZE, flags)

    gpa_of = _PageMap._target  # the GPA alone, building no entry

    def map_region(self, gva: int, gpa: int, count: int) -> None:
        """Map ``count`` pages, ``PAGE_SIZE`` apart, from ``gva`` to GPAs from ``gpa``.

        One byte per page is made.  ``gva`` must be a multiple of
        ``PAGE_SIZE``, and the range must hold no mapped page and overlap no
        earlier region.
        """
        if gva % PAGE_SIZE:
            raise ValueError(f"map_region: base {gva:#x} is not a multiple of PAGE_SIZE")
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
        bits = _pte_byte(writable, soft_dirty)
        if not self._join(gva, gpa, 1, bits):
            self._store(gva, gpa, bits)

    def join_pages(
        self, gva: int, gpa: int, count: int, *, writable: bool = True, soft_dirty: bool = True
    ) -> bool:
        """Map ``count`` pages from ``gva`` on to GPAs from ``gpa`` on, as that many
        :meth:`map_page` calls would, when they join the region that ends right
        before ``gva`` in one slice; False, mapping nothing, when they cannot."""
        return self._join(gva, gpa, count, _pte_byte(writable, soft_dirty))

    def unmap_pages(self, gvas: Sequence[int]) -> tuple[int, list[int]]:
        """Take each of ``gvas``' mappings out, in order, up to the first that is
        not mapped: how many it unmapped, and the page numbers (``gva // PAGE_SIZE``)
        of those that were soft-dirty."""
        soft_dirty = []
        for n, gva in enumerate(gvas):
            taken = self._take(gva)
            if taken is None:
                return n, soft_dirty
            if taken[1] & _SOFT_DIRTY:
                soft_dirty.append(gva // PAGE_SIZE)
        return len(gvas), soft_dirty

    def remap(self, gva_old: int, gva_new: int) -> None:
        """Move the GPA backing (and flags) of ``gva_old`` to ``gva_new``."""
        if gva_old not in self:
            raise UnknownMapping(gva_old)
        if gva_new in self:
            raise AlreadyMapped(gva_new)
        self._store(gva_new, *self._take(gva_old))

    def gpas_of(self, gvas: Sequence[int]) -> np.ndarray:
        """The GPAs that ``gvas`` translate to, as :meth:`gpa_of`, in the order of
        ``gvas``, skipping unmapped ones."""
        bits, targets, _ = self._gather(np.asarray(gvas, dtype=np.int64))
        return targets[bits != 0]

    def reverse_map(self, gpa: int) -> int | None:
        """Some GVA currently mapping ``gpa``; lowest page number on aliases.

        Returns :data:`LOST` (None) when no GVA maps the GPA — the
        missed-address pathology of GPA-level logging.
        """
        gva = int(self.reverse_map_many([gpa])[0])
        return LOST if gva == LOST_GVA else gva

    def reverse_map_many(self, gpas: Sequence[int]) -> np.ndarray:
        """:meth:`reverse_map` of each of ``gpas``, in order, as an int64 array
        with :data:`LOST_GVA` for LOST: the lowest of its singly mapped aliases
        and of the region pages it backs, found in one pass per region."""
        values = np.asarray(gpas, dtype=np.int64)
        lowest = np.full(len(values), LOST_GVA, dtype=np.int64)
        if self._rmap:
            aliases = map(self._rmap.get, values.tolist())
            lowest[:] = [min(gvas) if gvas else LOST_GVA for gvas in aliases]
        aligned = values % PAGE_SIZE == 0
        for region in self._regions:
            pos, off = _positions(values, aligned, region.target, region.span)
            live = np.frombuffer(region.bits, dtype=np.uint8)[off // PAGE_SIZE] != 0
            pos, off = pos[live], off[live]
            off += region.base  # the GVAs, in place: a batch may hold every page of 1 GB
            lowest[pos] = np.minimum(off, lowest[pos], out=off)
        return lowest

    def write_page(self, gva: int, ept: "Ept", *, ignore_protection: bool = False) -> WriteOutcome:
        """One store to ``gva``: fault checks, then PTE/EPT dirty updates.

        A write-protected or non-present page faults and changes nothing
        (the caller models the fault handling and may complete the write
        afterwards with ``ignore_protection=True``).  A completed write sets
        the PTE dirty bit, sets soft-dirty (flagging the kernel fault if it
        was clear), and sets the EPT dirty bit for the backing GPA,
        reporting whether that was a clear-to-set transition.
        """
        place = self._locate(gva)
        if place is None:
            return WriteOutcome(gva, None, "not_present")
        region, i = place
        bits = region.bits[i]
        gpa = region.target + i * PAGE_SIZE
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

    def soft_dirty_pages(self) -> np.ndarray:
        """The page numbers (``gva // PAGE_SIZE``) of the soft-dirty pages."""
        return self._pages(_HAS_SOFT_DIRTY)

    def mapped_pages(self) -> np.ndarray:
        """The page numbers of the mapped pages."""
        return self._pages(_LIVE)

    def write_protect_all(self, protected: bool = True) -> None:
        """Set (or lift) write protection on every mapped page."""
        self._translate(_PROTECT if protected else _UNPROTECT)


class Ept(_PageMap):
    """VM-wide GPA -> HPA map with per-frame hardware dirty bits.

    Frames mapped as a run by :meth:`map_region` share a region, which a
    frame mapped by :meth:`map_gpa` (or a run of them, :meth:`join_frames`)
    joins when it comes right after it, backed by the HPA after its last;
    any other frame so mapped is a one-page region in ``entries``.  A
    :meth:`map_gpa` replaces any mapping the frame had.  A write sets a
    frame's dirty bit and a re-arm clears it in place.
    """

    translate = _PageMap._target

    def map_region(self, gpa: int, hpa: int, count: int) -> None:
        """Map ``count`` frames, ``PAGE_SIZE`` apart, from ``gpa`` to HPAs from ``hpa``.

        Frames mapped one at a time inside the range are replaced, as
        :meth:`map_gpa` replaces them.  ``gpa`` must be a multiple of
        ``PAGE_SIZE``, and the range must overlap no earlier region.
        """
        if gpa % PAGE_SIZE:
            raise ValueError(f"map_region: base {gpa:#x} is not a multiple of PAGE_SIZE")
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
        if not self._join(gpa, hpa, 1, _MAPPED):
            self.entries[gpa] = _Region(gpa, hpa, 1, _MAPPED)

    def join_frames(self, gpa: int, hpa: int, count: int) -> bool:
        """Map ``count`` unmapped frames from ``gpa`` on to HPAs from ``hpa`` on,
        as that many :meth:`map_gpa` calls would, when they join the region that
        ends right before ``gpa`` in one slice; False, mapping nothing, when they
        cannot."""
        return self._join(gpa, hpa, count, _MAPPED)

    def set_dirty(self, gpa: int) -> bool:
        """Set the dirty bit; True when this was a clear-to-set transition."""
        place = self._locate(gpa)
        if place is None:
            raise UnknownMapping(gpa)
        region, i = place
        bits = region.bits[i]
        region.bits[i] = _SET_DIRTY[bits]
        return not bits & _DIRTY

    def clear_dirty(self, gpas: Sequence[int]) -> None:
        """Re-arm logging for ``gpas``: the next write transitions again.
        Unmapped GPAs are skipped."""
        places = self._gather(np.asarray(gpas, dtype=np.int64))[2]
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
                rewritten = held[(after < held) & (held < end)]
                if len(rewritten):
                    n = (int(rewritten.min()) - gpa) // PAGE_SIZE
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
            first = _first(gvas[:n])  # a write's firstness depends only on those before
            if free is not None:
                # one region and no entries map no two pages to one frame: a write
                # is its frame's first where it is its page's first
                one = len(table._regions) == 1 and not table.entries
                self._logs = (first if one else _first(gpas[:n])) & (frames[:n] & _DIRTY == 0)
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
            pte = np.where(first[:n], pte[:n], _WRITTEN_A[pte[:n]])
        self.bits = bytes(pte[:n])

    def _rearmed(self, gpas: np.ndarray, held: np.ndarray) -> int:
        """Where a run of writes to ``gpas`` in any order first writes a frame a
        copy before it re-armed: one of ``held`` after the first copy, or one
        the run logged before a copy; else its length."""
        fills, logs, n = self.fills, self._logs, len(gpas)
        rearmed, start = held, 0
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

    def apply(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the first ``k`` writes, each leaving the state
        :meth:`GuestPageTable.write_page` leaves when it completes the write, a
        write-protected page's with ``ignore_protection``, and the copies of the
        buffer fills among them their re-arms.

        Returns three int64 arrays, in the order of the writes: the page
        numbers (``gva // PAGE_SIZE``) of the writes that faulted on write
        protection first, and the GPAs and the GVAs of the writes that set an
        EPT dirty bit from clear (empty when no buffer logs); a ``range``
        stretch computes them from its mask of the writes that log.
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
        logged = _NO_ENTRIES, _NO_ENTRIES
        if isinstance(gvas, range):
            (region, i), (frames, j) = self._places
            region.bits[i : i + k] = marks.translate(_WRITTEN)
            frames.bits[j + lo : j + k] = frames.bits[j + lo : j + k].translate(_SET_DIRTY)
            protected = _numbers(marks, _PROTECTED, gvas.start // PAGE_SIZE)
            if logs is not None:
                at = np.flatnonzero(np.frombuffer(logs, dtype=np.uint8)[:k]) * PAGE_SIZE
                logged = at + gpas.start, at + gvas.start
        else:
            pte, frames = self._places
            _PageMap._scatter(pte, k, _WRITTEN, _WRITTEN_A)
            _PageMap._scatter(frames, k, _SET_DIRTY, _SET_DIRTY_A, lo)
            protected = gvas[np.frombuffer(marks.translate(_PROTECTED), bool)] // PAGE_SIZE
            if logs is not None:
                logged = gpas[logs[:k]], gvas[logs[:k]]
        if copies and len(self._rearm[1]):
            ept, held = self._rearm
            ept.clear_dirty(held)
        return protected, *logged


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
