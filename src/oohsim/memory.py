"""Guest/host memory model: page tables, EPT, page store, write pipeline.

Three address layers: guest-virtual (GVA), guest-physical (GPA), and
host-physical (HPA), all tracked at page granularity as integer page
numbers.  A per-process :class:`GuestPageTable` maps GVA pages to GPA pages
(aliasing allowed — several GVAs may share one GPA), and the VM-wide
:class:`Ept` maps GPA pages to HPA pages while owning the hardware dirty
bit that page-modification logging keys off.

Both tables map a run of pages in one step as a *region*: page *i* of a
region is backed by the region's base plus *i* pages, so translation and
reverse mapping are arithmetic, and all of a region's untouched pages share
one set of flags.  A page gets its own stored entry only when first touched
(written, protected individually, unmapped or moved); until then it costs
nothing, so mapping a large, sparsely written address space is cheap.
Whole-table operations (soft-dirty clear, protect-all) flip a region's
shared flags in one step and then visit only the stored entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
]

PAGE_SIZE = 4096

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


@dataclass(frozen=True)
class WriteOutcome:
    """Result of pushing one write through the page-table pipeline.

    ``fault`` is ``None`` for a completed write, or a reason string
    (``"write_protect"`` / ``"not_present"``) when the write stopped at a
    fault and changed nothing.  ``softdirty_fault`` marks the kernel
    soft-dirty fault taken on the first write after a clear.
    ``ept_dirty_set`` is True when this write transitioned the EPT dirty bit
    from clear to set — the condition under which the PML device logs.
    """

    gva: int
    gpa: int | None
    fault: str | None = None
    softdirty_fault: bool = False
    ept_dirty_set: bool = False

    @property
    def completed(self) -> bool:
        return self.fault is None


class _Region:
    """``count`` pages from ``base`` on; page *i* is backed by ``target + i·PAGE_SIZE``.

    ``out`` holds the region's pages that are no longer implicit: those
    given a stored entry on first touch, and those unmapped before it
    (holes).  ``writable`` and ``soft_dirty`` are the flags every implicit
    page shares; only page-table regions use them.  A region with no
    implicit page left is dropped by its table, which is then the same as
    one that mapped every page singly.
    """

    __slots__ = ("base", "end", "target", "count", "out", "writable", "soft_dirty")

    def __init__(self, base: int, target: int, count: int):
        self.base = base
        self.end = base + count * PAGE_SIZE
        self.target = target
        self.count = count
        self.out: set[int] = set()
        self.writable = True
        self.soft_dirty = True

    def overlaps(self, base: int, end: int) -> bool:
        return base < self.end and self.base < end

    def implicit_count(self) -> int:
        return self.count - len(self.out)

    def implicit_pages(self) -> set[int]:
        return set(range(self.base, self.end, PAGE_SIZE)) - self.out

    def target_of(self, addr: int) -> int | None:
        """Backing address of implicit page ``addr``, else None."""
        off = addr - self.base
        if 0 <= off and addr < self.end and not off % PAGE_SIZE and addr not in self.out:
            return self.target + off
        return None

    def source_of(self, target: int) -> int | None:
        """Implicit page backed by ``target``, else None."""
        addr = self.base + target - self.target
        return addr if self.target_of(addr) is not None else None

    def fresh_entry(self, addr: int) -> PageEntry:
        """A new page-table entry for implicit page ``addr``, with the region's flags."""
        return PageEntry(
            self.target + addr - self.base,
            PageFlags(writable=self.writable, soft_dirty=self.soft_dirty),
        )

    def take(self, addr: int) -> bool:
        """Mark implicit page ``addr`` as no longer implicit; True when none is left."""
        self.out.add(addr)
        return len(self.out) == self.count


class GuestPageTable:
    """GVA -> (GPA, flags) map for one process, with a GPA reverse index.

    Pages mapped by :meth:`map_page` are stored in ``entries`` (and the
    reverse index) at once.  Pages mapped as a run by :meth:`map_region`
    stay implicit, sharing their region's flags, until first touched:
    written, protected individually, unmapped or moved.  Then the page gets
    a stored entry like any other.  Every query answers for both kinds.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.entries: dict[int, PageEntry] = {}
        self._rmap: dict[int, set[int]] = {}
        self._regions: list[_Region] = []

    def __contains__(self, gva: int) -> bool:
        return gva in self.entries or self._region_of(gva) is not None

    def __len__(self) -> int:
        return len(self.entries) + sum(r.implicit_count() for r in self._regions)

    def _region_of(self, gva: int) -> _Region | None:
        for region in self._regions:
            if region.target_of(gva) is not None:
                return region
        return None

    def _store(self, gva: int, entry: PageEntry) -> None:
        self.entries[gva] = entry
        self._rmap.setdefault(entry.gpa, set()).add(gva)

    def _touch(self, gva: int) -> PageEntry | None:
        """Give untouched region page ``gva`` its stored entry; None if it is not one.

        Callers look in ``entries`` first.
        """
        region = self._region_of(gva)
        if region is None:
            return None
        entry = region.fresh_entry(gva)
        if region.take(gva):
            self._regions.remove(region)
        self._store(gva, entry)
        return entry

    def entry(self, gva: int) -> PageEntry | None:
        """The entry mapping ``gva``, or None when not mapped.  No state change.

        For an untouched region page this is a detached copy built from the
        region's flags; change flags through the table's methods.
        """
        entry = self.entries.get(gva)
        if entry is None:
            region = self._region_of(gva)
            if region is not None:
                entry = region.fresh_entry(gva)
        return entry

    def map_region(self, gva: int, gpa: int, count: int) -> None:
        """Map ``count`` pages, ``PAGE_SIZE`` apart, from ``gva`` to GPAs from ``gpa``.

        No per-page state is made.  The range must hold no mapped page and
        overlap no earlier region.
        """
        if count <= 0:
            return
        end = gva + count * PAGE_SIZE
        if any(r.overlaps(gva, end) for r in self._regions) or any(
            gva <= g < end for g in self.entries
        ):
            raise AlreadyMapped(gva)
        self._regions.append(_Region(gva, gpa, count))

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
        entry = self.entries.get(gva) or self._touch(gva)
        if entry is None:
            raise UnknownMapping(gva)
        del self.entries[gva]
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

    def reverse_map(self, gpa: int) -> int | None:
        """Some GVA currently mapping ``gpa``; lowest page number on aliases.

        Returns :data:`LOST` (None) when no GVA maps the GPA — the
        missed-address pathology of GPA-level logging.
        """
        gvas = self._rmap.get(gpa)
        best = min(gvas) if gvas else LOST
        for region in self._regions:
            gva = region.source_of(gpa)
            if gva is not None and (best is LOST or gva < best):
                best = gva
        return best

    def write_page(self, gva: int, ept: "Ept", *, ignore_protection: bool = False) -> WriteOutcome:
        """One store to ``gva``: fault checks, then PTE/EPT dirty updates.

        A write-protected or non-present page faults and changes nothing
        (the caller models the fault handling and may complete the write
        afterwards with ``ignore_protection=True``).  A completed write sets
        the PTE dirty bit, sets soft-dirty (flagging the kernel fault if it
        was clear), and sets the EPT dirty bit for the backing GPA,
        reporting whether that was a clear-to-set transition.
        """
        entry = self.entries.get(gva) or self._touch(gva)
        if entry is None or not entry.flags.present:
            return WriteOutcome(gva=gva, gpa=None, fault="not_present")
        if not entry.flags.writable and not ignore_protection:
            return WriteOutcome(gva=gva, gpa=entry.gpa, fault="write_protect")
        flags = entry.flags
        flags.dirty = True
        softdirty_fault = not flags.soft_dirty
        flags.soft_dirty = True
        transitioned = ept.set_dirty(entry.gpa)
        return WriteOutcome(
            gva=gva,
            gpa=entry.gpa,
            softdirty_fault=softdirty_fault,
            ept_dirty_set=transitioned,
        )

    def clear_soft_dirty(self) -> int:
        """Clear every soft-dirty bit; returns how many were set."""
        cleared = 0
        for region in self._regions:
            if region.soft_dirty:
                region.soft_dirty = False
                cleared += region.implicit_count()
        for entry in self.entries.values():
            if entry.flags.soft_dirty:
                entry.flags.soft_dirty = False
                cleared += 1
        return cleared

    def soft_dirty_set(self) -> set[int]:
        out = {g for g, e in self.entries.items() if e.flags.soft_dirty}
        for region in self._regions:
            if region.soft_dirty:
                out |= region.implicit_pages()
        return out

    def dirty_set(self) -> set[int]:
        # a write gives its page a stored entry, so implicit pages are clean
        return {g for g, e in self.entries.items() if e.flags.dirty}

    def set_write_protect(self, gvas, protected: bool = True) -> None:
        for gva in gvas:
            entry = self.entries.get(gva) or self._touch(gva)
            if entry is None:
                raise UnknownMapping(gva)
            entry.flags.writable = not protected

    def write_protect_all(self, protected: bool = True) -> None:
        """Set (or lift) write protection on every mapped page."""
        for region in self._regions:
            region.writable = not protected
        for entry in self.entries.values():
            entry.flags.writable = not protected


class Ept:
    """VM-wide GPA -> HPA map with per-entry hardware dirty bits.

    Frames mapped by :meth:`map_region` stay implicit, and clean, until
    their dirty bit is first set; frames mapped one at a time, and touched
    region frames, are stored in ``entries``.
    """

    def __init__(self):
        self.entries: dict[int, list] = {}  # gpa -> [hpa, dirty]
        self._regions: list[_Region] = []

    def __contains__(self, gpa: int) -> bool:
        return gpa in self.entries or self._implicit_hpa(gpa) is not None

    def _implicit_hpa(self, gpa: int, take: bool = False) -> int | None:
        """HPA of untouched region frame ``gpa``; ``take`` removes it from its region."""
        for region in self._regions:
            hpa = region.target_of(gpa)
            if hpa is not None:
                if take and region.take(gpa):
                    self._regions.remove(region)
                return hpa
        return None

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
        region = _Region(gpa, hpa, count)
        for g in [g for g in self.entries if region.target_of(g) is not None]:
            del self.entries[g]
        self._regions.append(region)

    def map_gpa(self, gpa: int, hpa: int) -> None:
        self._implicit_hpa(gpa, take=True)
        self.entries[gpa] = [hpa, False]

    def unmap_gpa(self, gpa: int) -> None:
        if self.entries.pop(gpa, None) is None:
            self._implicit_hpa(gpa, take=True)

    def translate(self, gpa: int) -> int | None:
        entry = self.entries.get(gpa)
        return self._implicit_hpa(gpa) if entry is None else entry[0]

    def set_dirty(self, gpa: int) -> bool:
        """Set the dirty bit; True when this was a clear-to-set transition."""
        entry = self.entries.get(gpa)
        if entry is None:
            hpa = self._implicit_hpa(gpa, take=True)
            if hpa is None:
                raise UnknownMapping(gpa)
            self.entries[gpa] = [hpa, True]
            return True
        was = entry[1]
        entry[1] = True
        return not was

    # implicit frames are clean, so the dirty-bit queries below need only
    # the stored entries

    def is_dirty(self, gpa: int) -> bool:
        entry = self.entries.get(gpa)
        return bool(entry and entry[1])

    def clear_dirty(self, gpas) -> None:
        """Re-arm logging for ``gpas``: the next write transitions again."""
        for gpa in gpas:
            entry = self.entries.get(gpa)
            if entry is not None:
                entry[1] = False

    def dirty_gpas(self) -> set[int]:
        return {g for g, e in self.entries.items() if e[1]}


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
