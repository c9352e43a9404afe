"""PML device model: index arithmetic, dual buffers, shadow-VMCS access."""

from __future__ import annotations

import numpy as np
import pytest

from oohsim.memory import Ept
from oohsim.pml import (
    FIELD_GUEST_PML_ADDRESS,
    FIELD_GUEST_PML_INDEX,
    INDEX_DISABLED,
    INDEX_FRESH,
    InvalidIndexValue,
    LogResult,
    PmlBuffer,
    PmlState,
    ShadowVmcs,
    TranslationFault,
    TrapViolation,
)

from helpers import retrievable


def test_buffer_starts_disabled():
    buf = PmlBuffer()
    assert buf.index == INDEX_DISABLED
    assert buf.log(1) == LogResult.DISABLED
    assert buf.entries.tolist() == []
    assert retrievable(buf) == 0


def test_single_log_index_arithmetic():
    buf = PmlBuffer(index=INDEX_FRESH)
    assert buf.log(1) == LogResult.LOGGED
    assert buf.index == 510
    assert retrievable(buf) == 1
    assert buf.slots_left == 511


def test_512_logs_fill_buffer_and_513th_attempt_signals_full():
    buf = PmlBuffer(index=INDEX_FRESH)
    for i in range(512):
        assert buf.log(i) == LogResult.LOGGED
    assert buf.index == -1
    assert buf.full
    assert retrievable(buf) == 512
    assert buf.slots_left == 0
    # the 513th attempt is refused and raises the full signal
    assert buf.log(512) == LogResult.FULL
    assert len(buf.entries) == 512
    assert buf.drops_while_full == 1


def test_reset_validates_protocol_values():
    buf = PmlBuffer(index=INDEX_FRESH)
    buf.log(1)
    with pytest.raises(InvalidIndexValue):
        buf.reset(300)
    buf.reset(INDEX_DISABLED)
    assert buf.log(2) == LogResult.DISABLED
    buf.reset(INDEX_FRESH)
    assert buf.log(3) == LogResult.LOGGED
    assert buf.entries.tolist() == [3]


def test_drain_reams_at_511():
    buf = PmlBuffer(index=INDEX_FRESH)
    for i in range(512):
        buf.log(i)
    taken = buf.drain()
    assert taken.tolist() == list(range(512))
    assert buf.index == INDEX_FRESH
    assert buf.entries.tolist() == []
    assert buf.log(999) == LogResult.LOGGED  # next log lands at slot 511


def test_drain_of_disabled_buffer_stays_disabled():
    buf = PmlBuffer()
    assert buf.drain().tolist() == []
    assert buf.index == INDEX_DISABLED


def test_dual_logging_routes_gpa_and_gva():
    st = PmlState(epml_enabled=True)
    st.hv_buffer.reset(INDEX_FRESH)
    st.guest_buffer.reset(INDEX_FRESH)
    out = st.log_dirty(gpa=100, gva=7)
    assert out.hv == LogResult.LOGGED and out.guest == LogResult.LOGGED
    assert st.hv_buffer.entries.tolist() == [[100, 7]]
    assert st.guest_buffer.entries.tolist() == [7]


def test_guest_buffer_absent_without_epml():
    st = PmlState(epml_enabled=False)
    st.hv_buffer.reset(INDEX_FRESH)
    out = st.log_dirty(gpa=100, gva=7)
    assert out.guest is None
    assert st.guest_buffer.entries.tolist() == []


def test_buffers_pause_independently():
    st = PmlState(epml_enabled=True)
    st.hv_buffer.reset(INDEX_FRESH)
    st.guest_buffer.reset(INDEX_FRESH)
    st.guest_buffer.index = 0  # one guest slot left
    first = st.log_dirty(1, 1)
    assert first.guest == LogResult.LOGGED
    second = st.log_dirty(2, 2)
    assert second.guest == LogResult.FULL  # guest refused
    assert second.hv == LogResult.LOGGED  # hypervisor side unaffected


def test_shadow_vmcs_index_write_disables_logging_without_vmexit():
    st = PmlState(epml_enabled=True)
    st.guest_buffer.reset(INDEX_FRESH)
    sv = ShadowVmcs(st)
    sv.guest_vmwrite(FIELD_GUEST_PML_INDEX, INDEX_DISABLED)
    assert st.log_dirty(1, 1).guest == LogResult.DISABLED


def test_shadow_vmcs_address_translation():
    ept = Ept()
    ept.map_gpa(70, 4242)
    st = PmlState()
    sv = ShadowVmcs(st)
    sv.guest_vmwrite(FIELD_GUEST_PML_ADDRESS, 70, ept=ept)
    assert st.guest_pml_address == 4242  # stored as HPA
    assert sv.guest_vmread(FIELD_GUEST_PML_ADDRESS) == 4242
    with pytest.raises(TranslationFault):
        sv.guest_vmwrite(FIELD_GUEST_PML_ADDRESS, 71, ept=ept)


def test_shadow_vmcs_bitmap_violations_trap():
    sv = ShadowVmcs(PmlState())
    with pytest.raises(TrapViolation):
        sv.guest_vmwrite("pml_address", 1)
    sv.vmread_bitmap = set()
    with pytest.raises(TrapViolation):
        sv.guest_vmread(FIELD_GUEST_PML_INDEX)


def test_shadow_vmcs_index_read_after_three_logs():
    st = PmlState(epml_enabled=True)
    st.guest_buffer.reset(INDEX_FRESH)
    sv = ShadowVmcs(st)
    for gva in (1, 2, 3):
        st.guest_buffer.log(gva)
    assert sv.guest_vmread(FIELD_GUEST_PML_INDEX) == 508


def test_shadow_vmcs_rejects_bad_index_value():
    sv = ShadowVmcs(PmlState())
    with pytest.raises(InvalidIndexValue):
        sv.guest_vmwrite(FIELD_GUEST_PML_INDEX, 300)


def test_no_entry_logged_while_disabled_fuzz():
    # Random op traces: entries only ever appear from logs in the armed
    # state, and retrievable == 511 - index throughout.
    rng = np.random.default_rng(7)
    for _ in range(300):
        buf = PmlBuffer()
        logged = 0
        for _ in range(int(rng.integers(1, 80))):
            op = int(rng.integers(0, 10))
            if op < 6:
                before = len(buf.entries)
                result = buf.log(logged)
                if result == LogResult.LOGGED:
                    assert buf.index >= -1
                    logged += 1
                else:
                    assert len(buf.entries) == before
                    if result == LogResult.DISABLED:
                        assert buf.index == INDEX_DISABLED
            elif op < 7:
                buf.reset(INDEX_FRESH)
            elif op < 8:
                buf.reset(INDEX_DISABLED)
            else:
                buf.drain()
            if buf.index != INDEX_DISABLED:
                assert retrievable(buf) == INDEX_FRESH - buf.index
                assert len(buf.entries) == retrievable(buf)


def test_dual_logging_set_correspondence_fuzz():
    # Whatever the interleaving, the GVA set in the guest buffer matches the
    # ground-truth GVAs riding on the hypervisor entries (both armed, no
    # overflow in this range).
    rng = np.random.default_rng(21)
    for _ in range(100):
        st = PmlState(epml_enabled=True)
        st.hv_buffer.reset(INDEX_FRESH)
        st.guest_buffer.reset(INDEX_FRESH)
        for i in range(int(rng.integers(1, 400))):
            gva = int(rng.integers(0, 1000))
            st.log_dirty(gpa=gva + 5000, gva=gva)
        assert {g for _, g in st.hv_buffer.entries} == set(
            st.guest_buffer.entries
        )
