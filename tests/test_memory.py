"""Address-space semantics: translation, reverse mapping, write pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oohsim.memory import (
    LOST,
    LOST_GVA,
    PAGE_SIZE,
    AlreadyMapped,
    Ept,
    GuestPageTable,
    MappingError,
    PageEntry,
    PageFlags,
    PageStore,
    Stretch,
    UnknownMapping,
    _HAS_DIRTY,
    _WRITTEN,
    _WRITTEN_A,
)

from helpers import set_write_protect, unmap_gpa


P = PAGE_SIZE


def _page_set(pages: np.ndarray) -> set[int]:
    """The page numbers a query of a table answers with, as a set, once checked to
    be in the one form a set of pages takes: an int64 array, sorted and distinct."""
    assert pages.dtype == np.int64
    assert (pages[1:] > pages[:-1]).all()
    return set(pages.tolist())


def _dirty_gpa_pages(ept: Ept) -> set[int]:
    """The page numbers of the frames whose EPT dirty bit is set."""
    return _page_set(ept._pages(_HAS_DIRTY))


def _dirty_set(table: GuestPageTable) -> set[int]:
    """The page numbers of the dirty pages."""
    return _page_set(table._pages(_HAS_DIRTY))


def _mapped_set(table: GuestPageTable) -> set[int]:
    """The page numbers of the mapped pages."""
    return _page_set(table.mapped_pages())


def _unmap(table: GuestPageTable, gva: int) -> bool:
    """Take ``gva``'s mapping out; returns whether the page was soft-dirty."""
    unmapped, soft_dirty = table.unmap_pages((gva,))
    if not unmapped:
        raise UnknownMapping(gva)
    return bool(soft_dirty)


def _soft_dirty_set(table: GuestPageTable) -> set[int]:
    """The page numbers of the soft-dirty pages."""
    return _page_set(table.soft_dirty_pages())


def make_space(n_pages: int) -> tuple[GuestPageTable, Ept]:
    """Pages 0 to ``n_pages - 1`` mapped one by one to frames 100 on, and those
    to host frames 5000 on."""
    pt = GuestPageTable(pid=1)
    ept = Ept()
    for i in range(n_pages):
        pt.map_page(i * P, (100 + i) * P)
        ept.map_gpa((100 + i) * P, (5000 + i) * P)
    return pt, ept


def test_translate_direct_lookup():
    pt, _ = make_space(1)
    pt.map_page(7 * P, 100 * P)  # alias of page 0's GPA
    gpa, flags = pt.entry(7 * P)
    assert gpa == 100 * P
    assert flags == (True, False, True)  # writable, clean, soft-dirty at allocation


def test_translate_unmapped_returns_none():
    pt, _ = make_space(1)
    assert pt.entry(9 * P) is None


def test_translate_aliasing_permitted():
    pt, _ = make_space(0)
    pt.map_page(3, 50)
    pt.map_page(4, 50)
    assert pt.entry(3)[0] == 50
    assert pt.entry(4)[0] == 50


def test_reverse_map_single_mapping():
    pt, _ = make_space(0)
    pt.map_page(7, 100)
    assert pt.reverse_map(100) == 7


def test_reverse_map_lost_when_unmapped():
    pt, _ = make_space(0)
    pt.map_page(3, 200)
    _unmap(pt, 3)
    assert pt.reverse_map(200) is LOST


def test_reverse_map_alias_tiebreak_lowest():
    pt, _ = make_space(0)
    pt.map_page(12, 50)
    pt.map_page(3, 50)
    assert pt.reverse_map(50) == 3


def test_reverse_map_after_remap_returns_new_gva():
    pt, _ = make_space(0)
    pt.map_page(3, 50)
    pt.remap(3, 12)
    assert pt.reverse_map(50) == 12
    assert pt.entry(3) is None


def test_remap_and_unmap_errors():
    pt, _ = make_space(0)
    pt.map_page(1, 10)
    with pytest.raises(UnknownMapping):
        _unmap(pt, 99)
    with pytest.raises(UnknownMapping):
        pt.remap(99, 100)
    pt.map_page(2, 20)
    with pytest.raises(AlreadyMapped):
        pt.remap(1, 2)
    with pytest.raises(AlreadyMapped):
        pt.map_page(1, 30)


def test_write_sets_dirty_and_reports_ept_transition():
    pt, ept = make_space(1)
    out = pt.write_page(0, ept)
    assert out.completed and out.gpa == 100 * P
    assert out.ept_dirty_set  # first write transitions the EPT dirty bit
    assert pt.entry(0).flags.dirty
    assert 100 in _dirty_gpa_pages(ept)
    again = pt.write_page(0, ept)
    assert again.completed and not again.ept_dirty_set  # no second transition


def test_ept_dirty_transition_rearm_after_clear():
    pt, ept = make_space(1)
    pt.write_page(0, ept)
    ept.clear_dirty([100 * P])
    assert 100 not in _dirty_gpa_pages(ept)
    out = pt.write_page(0, ept)
    assert out.ept_dirty_set  # harvesting re-arms logging


def test_ept_dirty_set_once_per_gpa_across_aliases():
    pt, ept = make_space(0)
    pt.map_page(3, 50)
    pt.map_page(4, 50)
    ept.map_gpa(50, 9000)
    assert pt.write_page(3, ept).ept_dirty_set
    assert not pt.write_page(4, ept).ept_dirty_set  # same GPA, already dirty


def test_write_protect_faults_without_side_effects():
    pt, ept = make_space(1)
    set_write_protect(pt, [0])
    out = pt.write_page(0, ept)
    assert out.fault == "write_protect"
    assert not pt.entry(0).flags.dirty
    assert 100 not in _dirty_gpa_pages(ept)
    # fault handler completes the write on the process's behalf
    done = pt.write_page(0, ept, ignore_protection=True)
    assert done.completed and done.ept_dirty_set


def test_write_not_present_faults():
    pt, ept = make_space(1)
    _unmap(pt, 0)
    assert pt.write_page(0, ept).fault == "not_present"
    assert pt.write_page(42 * P, ept).fault == "not_present"


def test_soft_dirty_fault_on_first_write_after_clear():
    pt, ept = make_space(2)
    assert pt.entry(0).flags.soft_dirty  # set at allocation
    cleared = pt.clear_soft_dirty()
    assert cleared == 2
    assert _soft_dirty_set(pt) == set()
    out = pt.write_page(0, ept)
    assert out.softdirty_fault  # kernel fault path sets the bit again
    assert _soft_dirty_set(pt) == {0}
    assert not pt.write_page(0, ept).softdirty_fault  # only the first write
    # page 1 untouched: appears clean until written
    assert 1 not in _soft_dirty_set(pt)


def test_ept_errors_and_queries():
    ept = Ept()
    ept.map_gpa(5 * P, 50 * P)
    assert ept.translate(5 * P) == 50 * P
    assert ept.translate(6 * P) is None
    with pytest.raises(UnknownMapping):
        ept.set_dirty(6 * P)
    ept.set_dirty(5 * P)
    assert _dirty_gpa_pages(ept) == {5}
    unmap_gpa(ept, 5 * P)
    assert 5 * P not in ept


def test_write_to_a_frame_the_ept_lacks_raises_and_leaves_the_pte():
    pt, ept = make_space(0)
    pt.map_region(0x1000, 0x10_0000, 2)
    ept.map_region(0x10_0000, 0x1000_0000, 2)
    pt.clear_soft_dirty()
    before = pt.entry(0x2000)
    unmap_gpa(ept, 0x10_1000)
    with pytest.raises(UnknownMapping):
        pt.write_page(0x2000, ept)
    assert pt.entry(0x2000) == before  # neither dirty nor soft-dirty
    assert _dirty_set(pt) == set() and _soft_dirty_set(pt) == set()


def test_page_store_payloads():
    store = PageStore()
    store.write(7, (123456).to_bytes(8, "little"))
    blob = store.read(7)
    assert len(blob) == PAGE_SIZE  # padded to a whole page
    assert int.from_bytes(blob[:8], "little") == 123456 and not any(blob[8:])
    with pytest.raises(UnknownMapping):
        store.read(8)
    with pytest.raises(ValueError):
        store.write(9, b"x" * (PAGE_SIZE + 1))


def test_dirty_set_matches_bruteforce_replay_oracle():
    # For random write/unmap/remap traces, the PTE dirty set must equal an
    # independent replay that only tracks mappings and written pages.
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n_pages = int(rng.integers(2, 64))
        pt, ept = make_space(n_pages)
        mapped = set(range(n_pages))
        oracle_dirty: set[int] = set()
        next_gva = n_pages
        for _ in range(int(rng.integers(1, 120))):
            op = rng.integers(0, 10)
            if op < 7:  # write
                if not mapped:
                    continue
                gva = int(sorted(mapped)[int(rng.integers(0, len(mapped)))])
                out = pt.write_page(gva * P, ept)
                assert out.completed
                oracle_dirty.add(gva)
            elif op < 8 and mapped:  # unmap
                gva = int(sorted(mapped)[int(rng.integers(0, len(mapped)))])
                _unmap(pt, gva * P)
                mapped.discard(gva)
                oracle_dirty.discard(gva)  # page gone, dirty PTE gone with it
            elif mapped:  # remap to a fresh GVA
                gva = int(sorted(mapped)[int(rng.integers(0, len(mapped)))])
                pt.remap(gva * P, next_gva * P)
                mapped.discard(gva)
                mapped.add(next_gva)
                if gva in oracle_dirty:
                    # the PTE (and its dirty bit) moved with the mapping
                    oracle_dirty.discard(gva)
                    oracle_dirty.add(next_gva)
                next_gva += 1
        assert _dirty_set(pt) == oracle_dirty


def test_reverse_map_inverts_translate_for_stable_mappings():
    rng = np.random.default_rng(99)
    pt, ept = make_space(32)
    for gva in range(0, 32 * P, P):
        if rng.random() < 0.5:
            pt.write_page(gva, ept)
    for gva in range(0, 32 * P, P):
        gpa, _ = pt.entry(gva)
        assert pt.reverse_map(gpa) == gva


# ------------------------------------------------------ implicit regions

REGION_GVA, REGION_GPA, REGION_HPA = 0x1000, 0x10_0000, 0x1000_0000


def _twin_spaces(n_pages: int):
    """The same pages mapped twice: as one region, and page by page."""
    lazy_pt, lazy_ept = GuestPageTable(pid=1), Ept()
    lazy_ept.map_region(REGION_GPA, REGION_HPA, n_pages)
    lazy_pt.map_region(REGION_GVA, REGION_GPA, n_pages)
    eager_pt, eager_ept = GuestPageTable(pid=1), Ept()
    for i in range(n_pages):
        eager_ept.map_gpa(REGION_GPA + i * P, REGION_HPA + i * P)
        eager_pt.map_page(REGION_GVA + i * P, REGION_GPA + i * P)
    return (lazy_pt, lazy_ept), (eager_pt, eager_ept)


def _outcome(fn):
    try:
        return fn()
    except MappingError as exc:
        return type(exc)


# addresses are drawn by index from a pool that covers the region, one page
# either side, a misaligned address and a few fresh pages past the end
_slot = st.integers(min_value=0, max_value=15)
_ops = st.one_of(
    st.tuples(st.just("write"), _slot, st.booleans()),
    st.tuples(st.just("unmap"), _slot),
    st.tuples(st.just("remap"), _slot, _slot),
    st.tuples(st.just("map"), _slot, _slot, st.booleans(), st.booleans()),
    st.tuples(st.just("clear_soft_dirty")),
    st.tuples(st.just("protect_all"), st.booleans()),
    st.tuples(st.just("protect"), st.lists(_slot, max_size=4), st.booleans()),
    st.tuples(st.just("clear_dirty"), st.lists(_slot, max_size=4)),
    st.tuples(st.just("ept_map"), _slot),
    st.tuples(st.just("ept_unmap"), _slot),
)


class _DictModel:
    """The twin test's reference, sharing no code with the tables: one dict
    item per mapped page, ``gva -> [gpa, writable, dirty, soft_dirty]`` and
    ``gpa -> [hpa, dirty]``.  Several GVAs may map one GPA, and a reverse
    lookup answers with the lowest of them."""

    def __init__(self, n_pages: int):
        self.pt = {
            REGION_GVA + i * P: [REGION_GPA + i * P, True, False, True] for i in range(n_pages)
        }
        self.ept = {REGION_GPA + i * P: [REGION_HPA + i * P, False] for i in range(n_pages)}

    def entry(self, gva):
        if gva not in self.pt:
            return None
        gpa, writable, dirty, soft_dirty = self.pt[gva]
        return gpa, (writable, dirty, soft_dirty)

    def reverse_map(self, gpa):
        return min((g for g, e in self.pt.items() if e[0] == gpa), default=LOST)

    def translate(self, gpa):
        return self.ept[gpa][0] if gpa in self.ept else None

    def pages(self, flag: int) -> set[int]:
        """The page numbers of the pages with ``flag`` set."""
        return {g // P for g, e in self.pt.items() if e[flag]}

    def mapped(self) -> set[int]:
        return {g // P for g in self.pt}

    def dirty_frames(self) -> set[int]:
        return {g // P for g, (_, dirty) in self.ept.items() if dirty}

    def write(self, gva, ignore_protection):
        if gva not in self.pt:
            return gva, None, "not_present", False, False
        e = self.pt[gva]
        if not e[1] and not ignore_protection:
            return gva, e[0], "write_protect", False, False
        if e[0] not in self.ept:
            raise UnknownMapping(e[0])
        softdirty_fault = not e[3]
        e[2] = e[3] = True
        frame = self.ept[e[0]]
        transition, frame[1] = not frame[1], True
        return gva, e[0], None, softdirty_fault, transition

    def step(self, op, gvas, gpas):
        kind, pt, ept = op[0], self.pt, self.ept
        if kind == "write":
            return self.write(gvas[op[1]], op[2])
        if kind in ("unmap", "remap"):
            gva = gvas[op[1]]
            if gva not in pt:
                raise UnknownMapping(gva)
            if kind == "remap":
                if gvas[op[2]] in pt:
                    raise AlreadyMapped(gvas[op[2]])
                pt[gvas[op[2]]] = pt.pop(gva)
                return None
            return pt.pop(gva)[3]  # an unmap reports whether the page was soft-dirty
        if kind == "map":
            gva, gpa = gvas[op[1]], gpas[op[2]]
            ept.setdefault(gpa, [REGION_HPA + 0x100_0000 + gpa, False])
            if gva in pt:
                raise AlreadyMapped(gva)
            pt[gva] = [gpa, op[3], False, op[4]]
            return None
        if kind == "clear_soft_dirty":
            cleared = sum(e[3] for e in pt.values())
            for e in pt.values():
                e[3] = False
            return cleared
        if kind == "protect_all":
            for e in pt.values():
                e[1] = not op[1]
            return None
        if kind == "protect":
            for gva in (gvas[i] for i in op[1]):
                if gva not in pt:
                    raise UnknownMapping(gva)
                pt[gva][1] = not op[2]
            return None
        if kind == "clear_dirty":
            for gpa in (gpas[i] for i in op[1]):
                if gpa in ept:
                    ept[gpa][1] = False
            return None
        if kind == "ept_map":
            ept[gpas[op[1]]] = [REGION_HPA + 0x200_0000 + gpas[op[1]], False]
            return None
        ept.pop(gpas[op[1]], None)
        return None


def _lost_as_none(gvas) -> list[int | None]:
    """An array of GVAs from reverse_map_many, with LOST for each LOST_GVA."""
    return [LOST if gva == LOST_GVA else gva for gva in gvas.tolist()]


@settings(max_examples=300, deadline=None)
@given(n_pages=st.integers(min_value=1, max_value=10), ops=st.lists(_ops, max_size=40))
def test_region_pages_behave_like_mapped_pages(n_pages, ops):
    """One region, the same pages mapped one by one, and a plain-dict model
    answer every op and every lookup alike; a batch's GPAs
    (:meth:`GuestPageTable.gpas_of`) come in the order of its GVAs."""
    gvas = [REGION_GVA + i * P for i in range(-1, 14)] + [REGION_GVA + P // 2]
    gpas = [REGION_GPA + i * P for i in range(-1, 14)] + [REGION_GPA + P // 2]
    lazy, eager = _twin_spaces(n_pages)
    model = _DictModel(n_pages)

    def step(pt, ept, op):
        kind = op[0]
        if kind == "write":
            return pt.write_page(gvas[op[1]], ept, ignore_protection=op[2])
        if kind == "unmap":
            return _unmap(pt, gvas[op[1]])
        if kind == "remap":
            return pt.remap(gvas[op[1]], gvas[op[2]])
        if kind == "map":
            gpa = gpas[op[2]]
            if gpa not in ept:
                ept.map_gpa(gpa, REGION_HPA + 0x100_0000 + gpa)
            return pt.map_page(gvas[op[1]], gpa, writable=op[3], soft_dirty=op[4])
        if kind == "clear_soft_dirty":
            return pt.clear_soft_dirty()
        if kind == "protect_all":
            if pt is lazy[0]:
                return pt.write_protect_all(op[1])
            return set_write_protect(pt, list(pt.entries), op[1])
        if kind == "protect":
            return set_write_protect(pt, [gvas[i] for i in op[1]], op[2])
        if kind == "clear_dirty":
            return ept.clear_dirty([gpas[i] for i in op[1]])
        if kind == "ept_map":
            return ept.map_gpa(gpas[op[1]], REGION_HPA + 0x200_0000 + gpas[op[1]])
        return unmap_gpa(ept, gpas[op[1]])

    for op in ops:
        want = _outcome(lambda: model.step(op, gvas, gpas))
        for pt, ept in (lazy, eager):
            assert _outcome(lambda: step(pt, ept, op)) == want, op
        for pt, ept in (lazy, eager):
            for gva in gvas:
                assert pt.entry(gva) == model.entry(gva)
                assert (gva in pt) == (gva in model.pt)
            for gpa in gpas:
                assert pt.reverse_map(gpa) == model.reverse_map(gpa)
                assert ept.translate(gpa) == model.translate(gpa)
                assert (gpa in ept) == (gpa in model.ept)
            assert _lost_as_none(pt.reverse_map_many(gpas)) == [
                model.reverse_map(gpa) for gpa in gpas
            ]
            assert _soft_dirty_set(pt) == model.pages(3)
            assert _dirty_set(pt) == model.pages(2)
            assert _dirty_gpa_pages(ept) == model.dirty_frames()
            assert len(pt) == len(model.pt)
            want_gpas = [model.pt[g][0] if g in model.pt else None for g in gvas]
            assert [pt.gpa_of(g) for g in gvas] == want_gpas
            assert pt.gpas_of(gvas).tolist() == [g for g in want_gpas if g is not None]
            assert _mapped_set(pt) == model.mapped()


@st.composite
def _run_layouts(draw):
    """Up to three regions of 1-600 pages, adjacent or apart, the same in GVAs
    and GPAs; a few pages unmapped or moved, a few frames unmapped or mapped
    singly, a few aliases; and batches of runs of 1-600 pages from anywhere
    around them, some misaligned, some repeated."""
    sizes = draw(st.lists(st.integers(1, 600), min_size=1, max_size=3))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(sizes), max_size=len(sizes)))
    starts, at = [], 0
    for size, gap in zip(sizes, gaps):
        starts.append(at + gap)
        at += gap + size
    total = at
    index = st.integers(0, total - 1)
    layout = {
        "regions": list(zip(starts, sizes)),
        "unmap": draw(st.lists(index, max_size=6)),
        "move": draw(st.lists(index, max_size=3)),
        "alias": draw(st.lists(index, max_size=3)),
        "ept_unmap": draw(st.lists(index, max_size=4)),
        "ept_single": draw(st.lists(index, max_size=3)),
    }
    segment = st.tuples(
        st.integers(-3, total + 3), st.integers(1, 600), st.sampled_from([0, 0, 0, P // 2])
    )
    layout["batch"] = draw(st.lists(segment, min_size=1, max_size=4))
    layout["repeat"] = draw(st.booleans())
    return layout


_QUIET = {"unmap": [], "move": [], "alias": [], "ept_unmap": [], "ept_single": []}


@settings(max_examples=60, deadline=None)
@given(layout=_run_layouts())
# 512 consecutive frames in one batch, as an spml flush re-arms them
@example(layout={**_QUIET, "regions": [(0, 600)], "batch": [(40, 512, 0)], "repeat": False})
# a run of frames one of which a lower GVA aliases: that alias wins its page
@example(
    layout={**_QUIET, "regions": [(0, 64)], "alias": [5], "batch": [(0, 32, 0)], "repeat": False}
)
def test_run_walker_matches_the_dict_model(layout):
    """Batches of runs and scattered pages over a few regions, singly mapped
    pages and aliases look up as the dict model does: :meth:`~GuestPageTable.gpas_of`
    in the order of the batch, :meth:`~GuestPageTable.reverse_map_many` with the
    lowest alias, and :meth:`Ept.clear_dirty` re-arming exactly the batch."""
    pt, ept, model = GuestPageTable(pid=1), Ept(), _DictModel(0)
    base = 0x100_0000  # above the aliases mapped low, which win the reverse map
    for start, size in layout["regions"]:
        gva, gpa = base + start * P, REGION_GPA + start * P
        pt.map_region(gva, gpa, size)
        ept.map_region(gpa, REGION_HPA + start * P, size)
        for i in range(size):
            model.pt[gva + i * P] = [gpa + i * P, True, False, True]
            model.ept[gpa + i * P] = [REGION_HPA + (start + i) * P, False]
    far = base + 0x1000_0000  # fresh addresses for moved pages and aliases
    for n, i in enumerate(layout["move"]):
        gva = base + i * P
        if gva in model.pt:
            pt.remap(gva, far + n * P)
            model.pt[far + n * P] = model.pt.pop(gva)
    for n, i in enumerate(layout["alias"]):
        gva, gpa = (far if n % 2 else REGION_GVA) + (100 + n) * P, REGION_GPA + i * P
        if gpa in model.ept:
            pt.map_page(gva, gpa)
            model.pt[gva] = [gpa, True, False, True]
    for i in layout["unmap"]:
        gva = base + i * P
        if gva in model.pt:
            _unmap(pt, gva)
            del model.pt[gva]
    for i in layout["ept_unmap"]:
        unmap_gpa(ept, REGION_GPA + i * P)
        model.ept.pop(REGION_GPA + i * P, None)
    for i in layout["ept_single"]:
        gpa = REGION_GPA + i * P
        ept.map_gpa(gpa, REGION_HPA + 0x200_0000 + gpa)
        model.ept[gpa] = [REGION_HPA + 0x200_0000 + gpa, False]

    offsets = [
        (first + k) * P + skew
        for first, count, skew in layout["batch"]
        for k in range(count)
    ]
    if layout["repeat"]:
        offsets += offsets[: len(offsets) // 2]
    gvas = [base + off for off in offsets] + [far + off for off in offsets[:200]]
    gpas = [REGION_GPA + off for off in offsets]

    assert pt.gpas_of(gvas).tolist() == [model.pt[g][0] for g in gvas if g in model.pt]
    lowest: dict[int, int] = {}
    for gva, (gpa, *_flags) in sorted(model.pt.items(), reverse=True):
        lowest[gpa] = gva
    assert _lost_as_none(pt.reverse_map_many(gpas)) == [lowest.get(gpa, LOST) for gpa in gpas]
    for gpa in model.ept:
        ept.set_dirty(gpa)
    ept.clear_dirty(gpas)
    assert _dirty_gpa_pages(ept) == {g // P for g in set(model.ept) - set(gpas)}


def test_clear_dirty_rearms_a_batch_across_regions_and_stored_frames():
    ept = Ept()
    ept.map_region(0x10_0000, 0x1000_0000, 4)
    ept.map_region(0x20_0000, 0x2000_0000, 4)
    ept.map_gpa(0x30_0000, 0x3000_0000)
    first, second, single = 0x10_1000, 0x20_2000, 0x30_0000
    stored = 0x10_3000  # a region frame mapped singly has left its region
    ept.map_gpa(stored, 0x4000_0000)
    assert stored in ept.entries
    untouched = 0x20_0000  # dirty, but not in the batch
    for gpa in (first, second, single, untouched):
        assert ept.set_dirty(gpa)
    batch = [second, 0x10_0800, single, 0x90_0000, first, stored, 0x20_4000]
    ept.clear_dirty(batch)  # misaligned, unmapped and past-the-end GPAs are ignored
    assert _dirty_gpa_pages(ept) == {untouched // P}
    for gpa in (first, second, single, stored):
        assert ept.set_dirty(gpa)  # each one logs again
    assert not ept.set_dirty(untouched)

def test_region_ranges_may_not_overlap():
    pt, ept = GuestPageTable(pid=1), Ept()
    pt.map_region(0x1000, 0x10_0000, 4)
    ept.map_region(0x10_0000, 0x1000_0000, 4)
    with pytest.raises(AlreadyMapped):
        pt.map_region(0x4000, 0x20_0000, 2)
    with pytest.raises(AlreadyMapped):
        ept.map_region(0x10_3000, 0x2000_0000, 2)
    pt.map_page(0x9000, 0x30_0000)
    with pytest.raises(AlreadyMapped):
        pt.map_region(0x8000, 0x40_0000, 2)


@pytest.mark.parametrize("single", [False, True], ids=["regions", "and-a-single-page"])
@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_page_queries_answer_in_order_whatever_order_regions_were_mapped(order, single):
    """The regions' scans are joined without a sort only when the regions are
    ascending and no page is mapped singly."""
    pt = GuestPageTable(pid=1)
    for start in [0, 10, 30][::order]:
        pt.map_region(start * P, (100 + start) * P, 5)
    want = {start + i for start in (0, 10, 30) for i in range(5)}
    if single:
        pt.map_page(20 * P, 200 * P)
        want.add(20)
    assert _mapped_set(pt) == want
    _unmap(pt, 11 * P)
    assert _mapped_set(pt) == want - {11}


def _assert_same_answers(lazy, eager, gvas, gpas):
    (lazy_pt, lazy_ept), (eager_pt, eager_ept) = lazy, eager
    for gva in gvas:
        assert lazy_pt.entry(gva) == eager_pt.entry(gva)
    for gpa in gpas:
        assert lazy_pt.reverse_map(gpa) == eager_pt.reverse_map(gpa)
        assert (gpa // P in _dirty_gpa_pages(lazy_ept)) == (gpa // P in _dirty_gpa_pages(eager_ept))
    assert _dirty_set(lazy_pt) == _dirty_set(eager_pt)
    assert _soft_dirty_set(lazy_pt) == _soft_dirty_set(eager_pt)
    assert _dirty_gpa_pages(lazy_ept) == _dirty_gpa_pages(eager_ept)
    assert len(lazy_pt) == len(eager_pt)


def test_region_page_keeps_its_byte_until_moved():
    lazy, eager = _twin_spaces(4)
    (pt, ept), (eager_pt, eager_ept) = lazy, eager
    gvas = [REGION_GVA + i * P for i in range(4)] + [REGION_GVA + 9 * P]
    gpas = [REGION_GPA + i * P for i in range(4)]
    gva, gpa = gvas[1], gpas[1]

    def write():
        out = pt.write_page(gva, ept)
        assert out == eager_pt.write_page(gva, eager_ept)
        return out

    def clear_dirty():
        ept.clear_dirty([gpa])
        eager_ept.clear_dirty([gpa])

    def nothing_stored():
        return pt.entries == {} and pt._rmap == {} and ept.entries == {}

    # the first write flips bits in the regions and stores nothing
    assert write().ept_dirty_set
    assert nothing_stored()
    assert _dirty_set(pt) == {gva // P} and _dirty_gpa_pages(ept) == {gpa // P}
    _assert_same_answers(lazy, eager, gvas, gpas)

    # a rewrite leaves the page in its region: no transition while dirty, a
    # transition again after a re-arm, and still nothing stored
    assert not write().ept_dirty_set
    clear_dirty()
    assert gpa // P not in _dirty_gpa_pages(ept)
    _assert_same_answers(lazy, eager, gvas, gpas)
    assert write().ept_dirty_set
    assert not write().ept_dirty_set
    assert nothing_stored()
    _assert_same_answers(lazy, eager, gvas, gpas)

    # a move carries the page's byte to a one-page region under its new address
    pt.remap(gva, gvas[4])
    eager_pt.remap(gva, gvas[4])
    assert list(pt.entries) == [gvas[4]]
    assert pt.entry(gvas[4]) == PageEntry(gpa, PageFlags(writable=True, dirty=True, soft_dirty=True))
    assert pt._rmap == {gpa: {gvas[4]}}
    _assert_same_answers(lazy, eager, gvas, gpas)


# ------------------------------------------------------- region extension

FAR_GVA, FAR_GPA, FAR_HPA = 0x100_0000, 0x80_0000, 0x4000_0000


def test_a_page_mapped_right_after_a_region_joins_it():
    # backed by the frame after the region's last in both tables: no one-page region
    pt, ept = GuestPageTable(pid=1), Ept()
    pt.map_region(REGION_GVA, REGION_GPA, 4)
    ept.map_region(REGION_GPA, REGION_HPA, 4)
    for i in (4, 5):
        ept.map_gpa(REGION_GPA + i * P, REGION_HPA + i * P)
        pt.map_page(REGION_GVA + i * P, REGION_GPA + i * P, soft_dirty=False)
    assert pt.entries == {} and pt._rmap == {} and ept.entries == {}
    assert [r.span for r in pt._regions + ept._regions] == [6 * P, 6 * P]
    assert pt.entry(REGION_GVA + 5 * P) == PageEntry(
        REGION_GPA + 5 * P, PageFlags(writable=True, dirty=False, soft_dirty=False)
    )
    # a frame that is not the next, or a page that is not right after, stays apart
    ept.map_gpa(REGION_GPA + 6 * P, REGION_HPA + 9 * P)
    pt.map_page(REGION_GVA + 7 * P, REGION_GPA + 6 * P)
    assert list(ept.entries) == [REGION_GPA + 6 * P] and list(pt.entries) == [REGION_GVA + 7 * P]
    # a run joins in one slice only when no page of it is held
    assert not pt.join_pages(REGION_GVA + 6 * P, REGION_GPA + 6 * P, 2)
    assert pt.join_pages(REGION_GVA + 6 * P, REGION_GPA + 6 * P, 1)
    assert not ept.join_frames(REGION_GPA + 6 * P, REGION_HPA + 6 * P, 2)
    assert len(pt) == 8 and pt._regions[0].live == 7


EXT_SLOTS = 16  # pages from REGION_GVA, backed by frames from REGION_GPA
_ext_slot = st.integers(min_value=0, max_value=EXT_SLOTS - 1)
_ext_ops = st.one_of(
    # a page mapped: backed by its own frame (the next after the region's last
    # at the region's end) or by a fresh far one
    st.tuples(st.just("map"), _ext_slot, st.booleans(), st.booleans(), st.booleans()),
    st.tuples(st.just("join"), _ext_slot, st.integers(1, 4)),
    st.tuples(st.just("write"), _ext_slot),
    st.tuples(st.just("unmap"), st.lists(_ext_slot, min_size=1, max_size=3)),
    st.tuples(st.just("remap"), _ext_slot, st.integers(0, 3)),
    st.tuples(st.just("clear_dirty"), st.lists(_ext_slot, max_size=4)),
    st.tuples(st.just("clear_soft_dirty")),
)


@settings(max_examples=300, deadline=None)
@given(
    n_pages=st.integers(min_value=1, max_value=10),
    second=st.none() | st.integers(min_value=0, max_value=2),
    ops=st.lists(_ext_ops, max_size=40),
)
# maps at the end, a write, the tail unmapped, a map past it, a move out of the region
@example(
    n_pages=3,
    second=None,
    ops=[("map", 3, True, True, True), ("map", 4, True, True, False), ("write", 4),
         ("unmap", [4]), ("map", 5, True, True, True), ("remap", 3, 0), ("write", 5),
         ("clear_dirty", [5]), ("clear_soft_dirty",), ("write", 5)],
)
# a region page unmapped, mapped again singly, then unmapped in a batch; a
# frame of the region right after the first unmapped and then mapped as the next
@example(
    n_pages=3,
    second=0,
    ops=[("unmap", [1]), ("map", 1, True, True, True), ("unmap", [2, 1]), ("unmap", [3]),
         ("map", 3, True, True, True), ("write", 3), ("unmap", [0, 4, 5])],
)
def test_pages_that_join_a_region_behave_like_one_page_regions(n_pages, second, ops):
    """Pages mapped at a region's end join it, and look up, write, unmap and
    move as the dict model's one entry per page does, whatever else is mapped
    around them: pages mapped singly, and a second region ``second`` pages
    after the first."""
    gvas = [REGION_GVA + i * P for i in range(EXT_SLOTS)] + [FAR_GVA + i * P for i in range(4)]
    gpas = [REGION_GPA + i * P for i in range(EXT_SLOTS)] + [FAR_GPA + i * P for i in range(40)]
    pt, ept = GuestPageTable(pid=1), Ept()
    model = _DictModel(0)
    for start, count in [(0, n_pages)] + ([] if second is None else [(n_pages + second, 3)]):
        pt.map_region(gvas[start], gpas[start], count)
        ept.map_region(gpas[start], REGION_HPA + start * P, count)
        for i in range(start, start + count):
            model.pt[gvas[i]] = [gpas[i], True, False, True]
            model.ept[gpas[i]] = [REGION_HPA + i * P, False]
    far = iter(range(40))

    def step(op):
        kind = op[0]
        if kind == "map":
            _, slot, own, writable, soft_dirty = op
            k = slot if own else EXT_SLOTS + next(far)
            gpa, hpa = gpas[k], (REGION_HPA + slot * P if own else FAR_HPA + k * P)
            ept.map_gpa(gpa, hpa)
            model.ept[gpa] = [hpa, False]
            if gvas[slot] in model.pt:
                with pytest.raises(AlreadyMapped):
                    pt.map_page(gvas[slot], gpa, writable=writable, soft_dirty=soft_dirty)
                return
            pt.map_page(gvas[slot], gpa, writable=writable, soft_dirty=soft_dirty)
            model.pt[gvas[slot]] = [gpa, writable, False, soft_dirty]
        elif kind == "join":
            _, slot, count = op
            count = min(count, EXT_SLOTS - slot)
            pages, frames = gvas[slot : slot + count], gpas[slot : slot + count]
            if pt.join_pages(pages[0], frames[0], count):
                assert not any(g in model.pt for g in pages)
                model.pt.update((g, [f, True, False, True]) for g, f in zip(pages, frames))
            hpa = REGION_HPA + slot * P
            if ept.join_frames(frames[0], hpa, count):
                assert not any(f in model.ept for f in frames)
                model.ept.update((f, [hpa + i * P, False]) for i, f in enumerate(frames))
        elif kind == "write":
            want = _outcome(lambda: model.write(gvas[op[1]], False))
            assert _outcome(lambda: tuple(pt.write_page(gvas[op[1]], ept))) == want
        elif kind == "unmap":
            want = []
            for gva in (gvas[i] for i in op[1]):
                if gva not in model.pt:
                    break
                want.append(model.pt.pop(gva)[3])
            pages = [gvas[i] for i in op[1]]
            soft = [g // P for g, s in zip(pages, want) if s]
            assert pt.unmap_pages(pages) == (len(want), soft)
        elif kind == "remap":
            new = EXT_SLOTS + op[2]
            assert _outcome(lambda: pt.remap(gvas[op[1]], gvas[new])) == _outcome(
                lambda: model.step(("remap", op[1], new), gvas, gpas)
            )
        elif kind == "clear_dirty":
            ept.clear_dirty([gpas[i] for i in op[1]])
            model.step(op, gvas, gpas)
        else:
            assert pt.clear_soft_dirty() == model.step(op, gvas, gpas)

    for op in ops:
        step(op)
        for gva in gvas:
            assert pt.entry(gva) == model.entry(gva), op
        want_gpas = [model.pt[g][0] for g in gvas if g in model.pt]
        assert pt.gpas_of(gvas).tolist() == want_gpas
        assert _lost_as_none(pt.reverse_map_many(gpas)) == [model.reverse_map(g) for g in gpas]
        assert _mapped_set(pt) == model.mapped()
        assert _dirty_set(pt) == model.pages(2)
        assert _soft_dirty_set(pt) == model.pages(3)
        assert _dirty_gpa_pages(ept) == model.dirty_frames()
        assert [ept.translate(g) for g in gpas] == [model.translate(g) for g in gpas]
        assert len(pt) == len(model.pt)
        for table in (pt, ept):  # no two regions overlap, no entry is a live region page
            spans = sorted((r.base, r.base + r.span) for r in table._regions)
            assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
            for addr in table.entries:
                assert not any(r.index(addr - r.base) >= 0 for r in table._regions)


# ------------------------------------------------- batch lookups in one step

GATHER_FAR = 0x200_0000  # pages mapped singly, away from every region


@st.composite
def _gather_layouts(draw):
    """One to three regions of 1-40 pages, apart or adjacent; some of their
    pages protected, some gone (unmapped, or mapped again singly at the same
    address), a few pages mapped singly far away; and a batch of pages inside
    the span of one region, or of any addresses: past a region's ends, between
    regions, misaligned, far away.  Positions ``start`` (at least 1) to
    ``count`` of the batch are then written."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
    starts, at = [], 0
    for size, gap in zip(sizes, gaps):
        starts.append(at + gap)
        at += gap + size
    index = st.integers(0, at - 1)
    layout = {
        "regions": list(zip(starts, sizes)),
        "protect": draw(st.lists(index, max_size=6)),
        "gone": draw(st.lists(st.tuples(index, st.booleans()), max_size=6)),
        "singles": draw(st.integers(0, 3)),
    }
    if draw(st.booleans()):
        start, size = draw(st.sampled_from(layout["regions"]))
        pages = st.integers(start, start + size - 1)
        layout["batch"] = [p * P for p in draw(st.lists(pages, min_size=1, max_size=30))]
    else:
        anywhere = st.one_of(
            st.integers(-3, at + 3).map(lambda p: p * P),
            st.integers(0, at).map(lambda p: p * P + P // 2),
            st.integers(0, 4).map(lambda k: GATHER_FAR - REGION_GVA + k * P),
        )
        layout["batch"] = draw(st.lists(anywhere, min_size=1, max_size=30))
    layout["start"] = draw(st.integers(1, len(layout["batch"])))
    layout["count"] = draw(st.integers(layout["start"], len(layout["batch"]) + 2))
    return layout


def _gather_table(layout) -> GuestPageTable:
    pt = GuestPageTable(pid=1)
    for start, size in layout["regions"]:
        pt.map_region(REGION_GVA + start * P, REGION_GPA + start * P, size)
    for k in range(layout["singles"]):
        pt.map_page(GATHER_FAR + k * P, REGION_GPA + (1000 + k) * P, soft_dirty=False)
    set_write_protect(pt, [g for g in (REGION_GVA + i * P for i in layout["protect"]) if g in pt])
    for k, (i, again) in enumerate(layout["gone"]):
        gva = REGION_GVA + i * P
        if gva in pt:
            _unmap(pt, gva)
            if again:  # a page that left its region, mapped singly where it was
                pt.map_page(gva, REGION_GPA + (2000 + k) * P, writable=bool(k % 2))
    return pt


_GATHER_BASE = {"protect": [], "singles": 1}


@settings(max_examples=200, deadline=None)
@given(layout=_gather_layouts())
# a batch inside one region's span holding a page that left it and was mapped
# singly at its address, written from its second position on
@example(layout={**_GATHER_BASE, "regions": [(0, 8)], "gone": [(3, True), (5, False)],
                 "batch": [6 * P, 3 * P, 5 * P, 6 * P, 3 * P, 0], "start": 1, "count": 5})
# the same across two regions and a far page
@example(layout={**_GATHER_BASE, "regions": [(0, 4), (6, 4)], "gone": [(2, True)],
                 "batch": [7 * P, 2 * P, GATHER_FAR - REGION_GVA, 3 * P + P // 2, 12 * P, 1 * P],
                 "start": 2, "count": 7})
def test_a_batch_gathers_and_scatters_as_each_page_looks_up_alone(layout):
    """:meth:`_PageMap._gather` finds each address's byte and target as
    :meth:`_PageMap._locate` finds them one at a time, in one step when the
    batch lies in the span of one region, and :meth:`_PageMap._scatter` from a
    position ``start`` past the first changes exactly the bytes those lookups
    name from ``start`` to ``count``, and no other.  A region whose base is
    no page multiple, which the two lookups would read apart (at ``0x1800``,
    ``gpa_of(0x2000)`` is None but a batch found ``0x100800`` for it), is
    refused by both tables, naming its base."""
    first, size = layout["regions"][0]
    base = REGION_GVA + first * P + P // 2
    for table in (GuestPageTable(pid=1), Ept()):
        with pytest.raises(ValueError, match=f"base {base:#x} is not a multiple"):
            table.map_region(base, REGION_GPA, size)
    pt = _gather_table(layout)
    addrs = [REGION_GVA + off for off in layout["batch"]]
    alone = [pt._locate(a) for a in addrs]
    bits, targets, places = pt._gather(np.array(addrs, dtype=np.int64))
    assert bits.tolist() == [place[0].bits[place[1]] if place else 0 for place in alone]
    assert targets[bits != 0].tolist() == [r.target + i * P for r, i in filter(None, alone)]
    one_region = [r for r in pt._regions if r.overlaps(min(addrs), max(addrs) + 1)]
    if len(one_region) == 1 and all(
        r.base <= a < r.base + r.span and not a % P for r in one_region for a in addrs
    ):
        assert [pos for _, pos, _ in places[0]] == [None]  # the one step

    start, count = layout["start"], layout["count"]
    want = {id(r): bytearray(r.bits) for r in pt._all()}
    for region, i in filter(None, alone[start:count]):
        want[id(region)][i] = _WRITTEN[region.bits[i]]
    pt._scatter(places, count, _WRITTEN, _WRITTEN_A, start)
    assert {id(r): r.bits for r in pt._all()} == want


def _stretch_space(alias: bool):
    """Eight pages as one region of each table, and with ``alias`` a page mapped
    singly far away to the frame of the region's third."""
    pt, ept = GuestPageTable(pid=1), Ept()
    pt.map_region(REGION_GVA, REGION_GPA, 8)
    ept.map_region(REGION_GPA, REGION_HPA, 8)
    if alias:
        pt.map_page(FAR_GVA, REGION_GPA + 2 * P)
    return pt, ept


@settings(max_examples=150, deadline=None)
@given(
    alias=st.booleans(),
    # slots 0-7 are the region's pages, 8 the alias, 9 a page not mapped
    targets=st.lists(st.integers(0, 9), min_size=1, max_size=24),
    prewrites=st.lists(st.integers(0, 7), max_size=4),
    free=st.none() | st.integers(0, 8),
)
# the alias writes the frame its region page dirtied before it: no second log
@example(alias=True, targets=[2, 8, 3, 8, 2, 5], prewrites=[], free=8)
def test_a_stretch_over_aliased_pages_logs_as_one_write_at_a_time(alias, targets, prewrites, free):
    """A :class:`Stretch` of writes to pages in any order, under a log buffer
    with ``free`` slots, finds the bytes, logs the frames and leaves the state
    that one :meth:`GuestPageTable.write_page` per write does, whether or not
    two of its pages share a frame."""
    slots = [REGION_GVA + i * P for i in range(8)] + [FAR_GVA, FAR_GVA + P]
    gvas = [slots[t] for t in targets]
    spaces = _stretch_space(alias), _stretch_space(alias)
    for pt, ept in spaces:
        for i in prewrites:
            pt.write_page(slots[i], ept)
    (pt, ept), (bulk_pt, bulk_ept) = spaces
    found, logged = [], []
    for gva in gvas:  # one write at a time, up to the first the stretch stops before
        if pt.entry(gva) is None:
            break
        frame, i = ept._locate(pt.gpa_of(gva))
        if free is not None and not _HAS_DIRTY[frame.bits[i]] and len(logged) == free:
            break
        region, j = pt._locate(gva)
        found.append(region.bits[j])
        outcome = pt.write_page(gva, ept)
        if outcome.ept_dirty_set and free is not None:
            logged.append((outcome.gpa, gva))
    stretch = Stretch(bulk_pt, bulk_ept, gvas, free=free)
    assert stretch.bits == bytes(found)
    if found:
        _, gpas_logged, gvas_logged = stretch.apply(len(found))
        assert list(zip(gpas_logged.tolist(), gvas_logged.tolist())) == logged

    def state(table):
        return [(r.base, r.target, bytes(r.bits), r.live) for r in table._all()]

    assert (state(bulk_pt), state(bulk_ept)) == (state(pt), state(ept))
