"""Address-space semantics: translation, reverse mapping, write pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oohsim.memory import (
    LOST,
    PAGE_SIZE,
    AlreadyMapped,
    Ept,
    GuestPageTable,
    MappingError,
    PageEntry,
    PageFlags,
    PageStore,
    UnknownMapping,
    _HAS_DIRTY,
    _PROTECT,
    _UNPROTECT,
)


def _dirty_gpas(ept: Ept) -> set[int]:
    """The frames whose EPT dirty bit is set."""
    return ept._pages(_HAS_DIRTY)


def _set_write_protect(table: GuestPageTable, gvas, protected: bool = True) -> None:
    """Set, or lift, write protection on each of ``gvas``, one page at a time."""
    bits = _PROTECT if protected else _UNPROTECT
    for gva in gvas:
        found = table._locate(gva)
        if found is None:
            raise UnknownMapping(gva)
        region, i = found
        region.bits[i] = bits[region.bits[i]]


def _unmap_gpa(ept: Ept, gpa: int) -> None:
    """Take a frame out of the EPT."""
    ept._take(gpa)


def make_space(n_pages: int) -> tuple[GuestPageTable, Ept]:
    pt = GuestPageTable(pid=1)
    ept = Ept()
    for i in range(n_pages):
        pt.map_page(i, 100 + i)
        ept.map_gpa(100 + i, 5000 + i)
    return pt, ept


def test_translate_direct_lookup():
    pt, _ = make_space(1)
    pt.map_page(7, 100)  # alias of page 0's GPA
    gpa, flags = pt.entry(7)
    assert gpa == 100
    assert flags == (True, False, True)  # writable, clean, soft-dirty at allocation


def test_translate_unmapped_returns_none():
    pt, _ = make_space(1)
    assert pt.entry(9) is None


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
    pt.unmap(3)
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
        pt.unmap(99)
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
    assert out.completed and out.gpa == 100
    assert out.ept_dirty_set  # first write transitions the EPT dirty bit
    assert pt.entry(0).flags.dirty
    assert 100 in _dirty_gpas(ept)
    again = pt.write_page(0, ept)
    assert again.completed and not again.ept_dirty_set  # no second transition


def test_ept_dirty_transition_rearm_after_clear():
    pt, ept = make_space(1)
    pt.write_page(0, ept)
    ept.clear_dirty([100])
    assert 100 not in _dirty_gpas(ept)
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
    _set_write_protect(pt, [0])
    out = pt.write_page(0, ept)
    assert out.fault == "write_protect"
    assert not pt.entry(0).flags.dirty
    assert 100 not in _dirty_gpas(ept)
    # fault handler completes the write on the process's behalf
    done = pt.write_page(0, ept, ignore_protection=True)
    assert done.completed and done.ept_dirty_set


def test_write_not_present_faults():
    pt, ept = make_space(1)
    pt.unmap(0)
    assert pt.write_page(0, ept).fault == "not_present"
    assert pt.write_page(42, ept).fault == "not_present"


def test_soft_dirty_fault_on_first_write_after_clear():
    pt, ept = make_space(2)
    assert pt.entry(0).flags.soft_dirty  # set at allocation
    cleared = pt.clear_soft_dirty()
    assert cleared == 2
    assert pt.soft_dirty_set() == set()
    out = pt.write_page(0, ept)
    assert out.softdirty_fault  # kernel fault path sets the bit again
    assert pt.soft_dirty_set() == {0}
    assert not pt.write_page(0, ept).softdirty_fault  # only the first write
    # page 1 untouched: appears clean until written
    assert 1 not in pt.soft_dirty_set()


def test_ept_errors_and_queries():
    ept = Ept()
    ept.map_gpa(5, 50)
    assert ept.translate(5) == 50
    assert ept.translate(6) is None
    with pytest.raises(UnknownMapping):
        ept.set_dirty(6)
    ept.set_dirty(5)
    assert _dirty_gpas(ept) == {5}
    _unmap_gpa(ept, 5)
    assert 5 not in ept


def test_write_to_a_frame_the_ept_lacks_raises_and_leaves_the_pte():
    pt, ept = make_space(0)
    pt.map_region(0x1000, 0x10_0000, 2)
    ept.map_region(0x10_0000, 0x1000_0000, 2)
    pt.clear_soft_dirty()
    before = pt.entry(0x2000)
    _unmap_gpa(ept, 0x10_1000)
    with pytest.raises(UnknownMapping):
        pt.write_page(0x2000, ept)
    assert pt.entry(0x2000) == before  # neither dirty nor soft-dirty
    assert pt.dirty_set() == set() and pt.soft_dirty_set() == set()


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
                out = pt.write_page(gva, ept)
                assert out.completed
                oracle_dirty.add(gva)
            elif op < 8 and mapped:  # unmap
                gva = int(sorted(mapped)[int(rng.integers(0, len(mapped)))])
                pt.unmap(gva)
                mapped.discard(gva)
                oracle_dirty.discard(gva)  # page gone, dirty PTE gone with it
            elif mapped:  # remap to a fresh GVA
                gva = int(sorted(mapped)[int(rng.integers(0, len(mapped)))])
                pt.remap(gva, next_gva)
                mapped.discard(gva)
                mapped.add(next_gva)
                if gva in oracle_dirty:
                    # the PTE (and its dirty bit) moved with the mapping
                    oracle_dirty.discard(gva)
                    oracle_dirty.add(next_gva)
                next_gva += 1
        assert pt.dirty_set() == oracle_dirty


def test_reverse_map_inverts_translate_for_stable_mappings():
    rng = np.random.default_rng(99)
    pt, ept = make_space(32)
    for gva in range(32):
        if rng.random() < 0.5:
            pt.write_page(gva, ept)
    for gva in range(32):
        gpa, _ = pt.entry(gva)
        assert pt.reverse_map(gpa) == gva


# ------------------------------------------------------ implicit regions

REGION_GVA, REGION_GPA, REGION_HPA = 0x1000, 0x10_0000, 0x1000_0000
P = PAGE_SIZE


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
        return {g for g, e in self.pt.items() if e[flag]}

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
                pt[gvas[op[2]]] = pt[gva]
            view = self.entry(gva)
            del pt[gva]
            return view
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


@settings(max_examples=300, deadline=None)
@given(n_pages=st.integers(min_value=1, max_value=10), ops=st.lists(_ops, max_size=40))
def test_region_pages_behave_like_mapped_pages(n_pages, ops):
    # one region, the same pages mapped one by one, and a plain-dict model
    gvas = [REGION_GVA + i * P for i in range(-1, 14)] + [REGION_GVA + P // 2]
    gpas = [REGION_GPA + i * P for i in range(-1, 14)] + [REGION_GPA + P // 2]
    lazy, eager = _twin_spaces(n_pages)
    model = _DictModel(n_pages)

    def step(pt, ept, op):
        kind = op[0]
        if kind == "write":
            return pt.write_page(gvas[op[1]], ept, ignore_protection=op[2])
        if kind == "unmap":
            return pt.unmap(gvas[op[1]])
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
            return _set_write_protect(pt, list(pt.entries), op[1])
        if kind == "protect":
            return _set_write_protect(pt, [gvas[i] for i in op[1]], op[2])
        if kind == "clear_dirty":
            return ept.clear_dirty([gpas[i] for i in op[1]])
        if kind == "ept_map":
            return ept.map_gpa(gpas[op[1]], REGION_HPA + 0x200_0000 + gpas[op[1]])
        return _unmap_gpa(ept, gpas[op[1]])

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
            assert pt.reverse_map_many(gpas) == [model.reverse_map(gpa) for gpa in gpas]
            assert pt.soft_dirty_set() == model.pages(3)
            assert pt.dirty_set() == model.pages(2)
            assert _dirty_gpas(ept) == {g for g, (_, dirty) in model.ept.items() if dirty}
            assert len(pt) == len(model.pt)
            want_gpas = [model.pt[g][0] if g in model.pt else None for g in gvas]
            assert [pt.gpa_of(g) for g in gvas] == want_gpas
            assert sorted(pt.gpas_of(gvas)) == sorted(g for g in want_gpas if g is not None)
            assert pt.mapped_set() == set(model.pt)


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


@settings(max_examples=60, deadline=None)
@given(layout=_run_layouts())
def test_run_walker_matches_the_dict_model(layout):
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
            pt.unmap(gva)
            del model.pt[gva]
    for i in layout["ept_unmap"]:
        _unmap_gpa(ept, REGION_GPA + i * P)
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

    assert sorted(pt.gpas_of(gvas)) == sorted(model.pt[g][0] for g in gvas if g in model.pt)
    lowest: dict[int, int] = {}
    for gva, (gpa, *_flags) in sorted(model.pt.items(), reverse=True):
        lowest[gpa] = gva
    assert pt.reverse_map_many(gpas) == [lowest.get(gpa, LOST) for gpa in gpas]
    for gpa in model.ept:
        ept.set_dirty(gpa)
    ept.clear_dirty(gpas)
    assert _dirty_gpas(ept) == set(model.ept) - set(gpas)


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
    assert _dirty_gpas(ept) == {untouched}
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


def _assert_same_answers(lazy, eager, gvas, gpas):
    (lazy_pt, lazy_ept), (eager_pt, eager_ept) = lazy, eager
    for gva in gvas:
        assert lazy_pt.entry(gva) == eager_pt.entry(gva)
    for gpa in gpas:
        assert lazy_pt.reverse_map(gpa) == eager_pt.reverse_map(gpa)
        assert (gpa in _dirty_gpas(lazy_ept)) == (gpa in _dirty_gpas(eager_ept))
    assert lazy_pt.dirty_set() == eager_pt.dirty_set()
    assert lazy_pt.soft_dirty_set() == eager_pt.soft_dirty_set()
    assert _dirty_gpas(lazy_ept) == _dirty_gpas(eager_ept)
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
    assert pt.dirty_set() == {gva} and _dirty_gpas(ept) == {gpa}
    _assert_same_answers(lazy, eager, gvas, gpas)

    # a rewrite leaves the page in its region: no transition while dirty, a
    # transition again after a re-arm, and still nothing stored
    assert not write().ept_dirty_set
    clear_dirty()
    assert gpa not in _dirty_gpas(ept)
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
