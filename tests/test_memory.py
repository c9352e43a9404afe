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
)


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
    gpa, flags = pt.translate_gva(7)
    assert gpa == 100
    assert flags.present


def test_translate_unmapped_returns_none():
    pt, _ = make_space(1)
    assert pt.translate_gva(9) is None


def test_translate_aliasing_permitted():
    pt, _ = make_space(0)
    pt.map_page(3, 50)
    pt.map_page(4, 50)
    assert pt.translate_gva(3)[0] == 50
    assert pt.translate_gva(4)[0] == 50


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
    assert pt.translate_gva(3) is None


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
    assert pt.entries[0].flags.dirty
    assert ept.is_dirty(100)
    again = pt.write_page(0, ept)
    assert again.completed and not again.ept_dirty_set  # no second transition


def test_ept_dirty_transition_rearm_after_clear():
    pt, ept = make_space(1)
    pt.write_page(0, ept)
    ept.clear_dirty([100])
    assert not ept.is_dirty(100)
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
    pt.set_write_protect([0])
    out = pt.write_page(0, ept)
    assert out.fault == "write_protect"
    assert not pt.entries[0].flags.dirty
    assert not ept.is_dirty(100)
    # fault handler completes the write on the process's behalf
    done = pt.write_page(0, ept, ignore_protection=True)
    assert done.completed and done.ept_dirty_set


def test_write_not_present_faults():
    pt, ept = make_space(1)
    pt.entries[0].flags.present = False
    assert pt.write_page(0, ept).fault == "not_present"
    assert pt.write_page(42, ept).fault == "not_present"


def test_soft_dirty_fault_on_first_write_after_clear():
    pt, ept = make_space(2)
    assert pt.entries[0].flags.soft_dirty  # set at allocation
    cleared = pt.clear_soft_dirty()
    assert cleared == 2
    assert pt.soft_dirty_set() == set()
    out = pt.write_page(0, ept)
    assert out.softdirty_fault  # kernel fault path sets the bit again
    assert pt.soft_dirty_set() == {0}
    assert not pt.write_page(0, ept).softdirty_fault  # only the first write
    # page 1 untouched: appears clean until written
    assert 1 not in pt.soft_dirty_set()


def test_page_flags_validation():
    PageFlags().validate()
    with pytest.raises(ValueError):
        PageFlags(present=False, dirty=True).validate()


def test_ept_errors_and_queries():
    ept = Ept()
    ept.map_gpa(5, 50)
    assert ept.translate(5) == 50
    assert ept.translate(6) is None
    with pytest.raises(UnknownMapping):
        ept.set_dirty(6)
    ept.set_dirty(5)
    assert ept.dirty_gpas() == {5}
    ept.unmap_gpa(5)
    assert 5 not in ept


def test_page_store_payloads():
    store = PageStore(page_size=64)
    store.write_token(7, 123456)
    blob = store.read(7)
    assert len(blob) == 64
    assert int.from_bytes(blob[:8], "little") == 123456
    with pytest.raises(UnknownMapping):
        store.read(8)
    with pytest.raises(ValueError):
        store.write(9, b"x" * 65)


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
        gpa, _ = pt.translate_gva(gva)
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


@settings(max_examples=300, deadline=None)
@given(n_pages=st.integers(min_value=1, max_value=10), ops=st.lists(_ops, max_size=40))
def test_region_pages_behave_like_mapped_pages(n_pages, ops):
    gvas = [REGION_GVA + i * P for i in range(-1, 14)] + [REGION_GVA + P // 2]
    gpas = [REGION_GPA + i * P for i in range(-1, 14)] + [REGION_GPA + P // 2]
    lazy, eager = _twin_spaces(n_pages)

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
            return pt.set_write_protect(list(pt.entries), op[1])
        if kind == "protect":
            return pt.set_write_protect([gvas[i] for i in op[1]], op[2])
        if kind == "clear_dirty":
            return ept.clear_dirty([gpas[i] for i in op[1]])
        if kind == "ept_map":
            return ept.map_gpa(gpas[op[1]], REGION_HPA + 0x200_0000 + gpas[op[1]])
        return ept.unmap_gpa(gpas[op[1]])

    for op in ops:
        assert _outcome(lambda: step(*lazy, op)) == _outcome(lambda: step(*eager, op)), op
        (lazy_pt, lazy_ept), (eager_pt, eager_ept) = lazy, eager
        for gva in gvas:
            assert lazy_pt.translate_gva(gva) == eager_pt.translate_gva(gva)
            assert (gva in lazy_pt) == (gva in eager_pt)
        for gpa in gpas:
            assert lazy_pt.reverse_map(gpa) == eager_pt.reverse_map(gpa)
            assert lazy_ept.translate(gpa) == eager_ept.translate(gpa)
            assert (gpa in lazy_ept) == (gpa in eager_ept)
        want = [eager_pt.reverse_map(gpa) for gpa in gpas]
        assert lazy_pt.reverse_map_many(gpas) == eager_pt.reverse_map_many(gpas) == want
        assert lazy_pt.soft_dirty_set() == eager_pt.soft_dirty_set()
        assert lazy_pt.dirty_set() == eager_pt.dirty_set()
        assert lazy_ept.dirty_gpas() == eager_ept.dirty_gpas()
        assert len(lazy_pt) == len(eager_pt)
        want = sorted(g for g in map(eager_pt.gpa_of, gvas) if g is not None)
        assert sorted(lazy_pt.gpas_of(gvas)) == sorted(eager_pt.gpas_of(gvas)) == want
        assert lazy_pt.mapped_set() == eager_pt.mapped_set() == {g for g in gvas if g in eager_pt}



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
    assert ept.dirty_gpas() == {untouched}
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
        assert lazy_pt.translate_gva(gva) == eager_pt.translate_gva(gva)
    for gpa in gpas:
        assert lazy_pt.reverse_map(gpa) == eager_pt.reverse_map(gpa)
        assert lazy_ept.is_dirty(gpa) == eager_ept.is_dirty(gpa)
    assert lazy_pt.dirty_set() == eager_pt.dirty_set()
    assert lazy_pt.soft_dirty_set() == eager_pt.soft_dirty_set()
    assert lazy_ept.dirty_gpas() == eager_ept.dirty_gpas()
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
    assert pt.dirty_set() == {gva} and ept.dirty_gpas() == {gpa}
    _assert_same_answers(lazy, eager, gvas, gpas)

    # a rewrite leaves the page in its region: no transition while dirty, a
    # transition again after a re-arm, and still nothing stored
    assert not write().ept_dirty_set
    clear_dirty()
    assert not ept.is_dirty(gpa)
    _assert_same_answers(lazy, eager, gvas, gpas)
    assert write().ept_dirty_set
    assert not write().ept_dirty_set
    assert nothing_stored()
    _assert_same_answers(lazy, eager, gvas, gpas)

    # a move stores the page, with its flags, under its new address
    pt.remap(gva, gvas[4])
    eager_pt.remap(gva, gvas[4])
    assert pt.entries == {gvas[4]: PageEntry(gpa, PageFlags(dirty=True))}
    assert pt._rmap == {gpa: {gvas[4]}}
    _assert_same_answers(lazy, eager, gvas, gpas)
