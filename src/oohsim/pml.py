"""Hardware model of page-modification logging and its guest extension.

A :class:`PmlBuffer` is the 512-entry log with the decrementing index: a
fresh buffer starts at index 511, each logged entry lands at the current
index and decrements it, and the attempt that would push the index below
zero is refused and raises the buffer-full signal instead (the refused
entry is replayed by the handler after the index is reset).  Index 512
disables logging outright.

:class:`PmlState` pairs the hypervisor-level GPA buffer with the optional
guest-level GVA buffer of the extended design, where one write logs into
both buffers independently; the hypervisor buffer signals fullness with a
vmexit while the guest buffer posts a virtual self-IPI.  What a log did is
a :class:`LogOutcome`; the twelve possible outcomes are built once and
shared, so logging a write allocates nothing but the buffer entry, and
each carries its ``hv_full``/``guest_full`` flags as precomputed fields.  Guest
access to the device fields goes through a :class:`ShadowVmcs` under
read/write bitmap control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

__all__ = [
    "BUFFER_SLOTS",
    "INDEX_FRESH",
    "INDEX_DISABLED",
    "LogResult",
    "LogOutcome",
    "InvalidIndexValue",
    "TrapViolation",
    "TranslationFault",
    "PmlBuffer",
    "PmlState",
    "ShadowVmcs",
    "FIELD_GUEST_PML_ADDRESS",
    "FIELD_GUEST_PML_INDEX",
]

BUFFER_SLOTS = 512
INDEX_FRESH = 511
INDEX_DISABLED = 512


class LogResult:
    LOGGED = "logged"
    FULL = "full"
    DISABLED = "disabled"


class InvalidIndexValue(ValueError):
    """Index writes accept only the protocol values 511 and 512."""


class TrapViolation(Exception):
    """Guest touched a shadow-VMCS field outside its access bitmap."""


class TranslationFault(Exception):
    """Guest PML address written with a GPA that has no EPT mapping."""


@dataclass
class PmlBuffer:
    """One log buffer with Intel-style decrementing index arithmetic.

    With the hardware geometry of 512 slots, ``index`` ranges over
    [-1, 512]: 511..0 while filling, -1 once all 512 slots are used (the
    underflowed state in which the next attempt raises the full signal),
    512 when logging is disabled.  ``slots`` scales that geometry down for
    exhaustive state-space exploration; the protocol is unchanged (fresh
    index = slots - 1, disabled index = slots).  ``entries`` holds the
    logged payloads in logging order; ``drops_while_full`` counts refused
    attempts (net loss only if the caller never replays them).
    """

    index: int | None = None
    entries: list = field(default_factory=list)
    drops_while_full: int = 0
    slots: int = BUFFER_SLOTS

    def __post_init__(self) -> None:
        if self.index is None:
            self.index = self.slots  # disabled until explicitly armed

    @property
    def fresh_index(self) -> int:
        return self.slots - 1

    @property
    def disabled_index(self) -> int:
        return self.slots

    @property
    def armed(self) -> bool:
        return 0 <= self.index <= self.fresh_index

    @property
    def full(self) -> bool:
        return self.index < 0

    @property
    def slots_left(self) -> int:
        return self.index + 1 if self.index >= 0 else 0

    def log(self, entry) -> str:
        index = self.index
        if index == self.slots:  # disabled
            return LogResult.DISABLED
        if index < 0:
            self.drops_while_full += 1
            return LogResult.FULL
        self.entries.append(entry)
        self.index = index - 1
        return LogResult.LOGGED

    def log_run(self, entries: list) -> bool:
        """Log ``entries`` in order, as that many :meth:`log` calls would when
        each finds a free slot; False, logging nothing, when disabled."""
        if self.index == self.slots:
            return False
        if len(entries) > self.slots_left:
            raise ValueError(f"{len(entries)} entries, {self.slots_left} free slots")
        self.entries.extend(entries)
        self.index -= len(entries)
        return True

    def drain(self) -> list:
        """Take all entries and re-arm (copy-then-reset handler order).

        A disabled buffer stays disabled; use :meth:`reset` to pick a
        different index explicitly.
        """
        taken = self.entries
        self.entries = []
        if self.index != self.disabled_index:
            self.index = self.fresh_index
        return taken

    def reset(self, value: int) -> None:
        if value not in (self.fresh_index, self.disabled_index):
            raise InvalidIndexValue(value)
        self.index = value
        self.entries = []


@dataclass(frozen=True)
class LogOutcome:
    """What one dirty transition did in each buffer (``guest`` None without EPML).

    There are only twelve possible outcomes, so :meth:`PmlState.log_dirty`
    hands out shared instances from :data:`_LOG_OUTCOMES` instead of
    building one per write; being frozen, they are safe to share.
    ``hv_full`` and ``guest_full`` (that buffer refused the entry) are
    worked out once per instance, so the per-write checks read a field.
    """

    hv: str
    guest: str | None
    hv_full: bool = field(init=False, repr=False, compare=False)
    guest_full: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hv_full", self.hv == LogResult.FULL)
        object.__setattr__(self, "guest_full", self.guest == LogResult.FULL)


_RESULTS = (LogResult.LOGGED, LogResult.FULL, LogResult.DISABLED)
_LOG_OUTCOMES = {
    (hv, guest): LogOutcome(hv, guest) for hv in _RESULTS for guest in (None, *_RESULTS)
}


@dataclass
class PmlState:
    """Per-vCPU device state: hypervisor buffer plus optional guest buffer.

    Buffer payloads: the hypervisor buffer logs ``(gpa, meta_gva)`` tuples —
    the GPA is what the device records; the write-time GVA rides along as
    simulator ground truth for diagnosing lost/inaccurate reverse mappings
    and is never visible to modeled guest code.  The guest buffer logs GVAs.
    """

    pml_address: int = 0
    hv_buffer: PmlBuffer = field(default_factory=PmlBuffer)
    epml_enabled: bool = False
    guest_pml_address: int = 0  # stored as HPA (translated at vmwrite)
    guest_buffer: PmlBuffer = field(default_factory=PmlBuffer)

    def log_dirty(self, gpa: int, gva: int) -> LogOutcome:
        """Log one EPT dirty-bit transition into the armed buffer(s)."""
        hv = self.hv_buffer.log((gpa, gva))
        guest = self.guest_buffer.log(gva) if self.epml_enabled else None
        return _LOG_OUTCOMES[hv, guest]

    def log_dirty_run(self, pairs: list[tuple[int, int]]) -> bool:
        """:meth:`log_dirty` for each ``(gpa, gva)`` in order, none finding a
        buffer full; True when the hypervisor buffer logged them."""
        hv = self.hv_buffer.log_run(pairs)
        if self.epml_enabled:
            self.guest_buffer.log_run(list(map(itemgetter(1), pairs)))
        return hv

    def free_slots(self) -> int | None:
        """Dirty transitions the buffers take before one refuses; None when none logs."""
        bufs = (self.hv_buffer, self.guest_buffer) if self.epml_enabled else (self.hv_buffer,)
        free = [buf.slots_left for buf in bufs if buf.index != buf.disabled_index]
        return min(free) if free else None


FIELD_GUEST_PML_ADDRESS = "guest_pml_address"
FIELD_GUEST_PML_INDEX = "guest_pml_index"


@dataclass
class ShadowVmcs:
    """Guest-visible window onto the device fields, gated by bitmaps."""

    state: PmlState
    vmread_bitmap: set = field(
        default_factory=lambda: {FIELD_GUEST_PML_ADDRESS, FIELD_GUEST_PML_INDEX}
    )
    vmwrite_bitmap: set = field(
        default_factory=lambda: {FIELD_GUEST_PML_ADDRESS, FIELD_GUEST_PML_INDEX}
    )

    def guest_vmwrite(self, fld: str, value: int, ept=None) -> None:
        """Write a shadow field without a vmexit (cost M8, charged by caller).

        Writing the guest PML address takes a GPA and stores its HPA (EPT
        translation happens at write time); writing the index accepts only
        the protocol values 511/512.
        """
        if fld not in self.vmwrite_bitmap:
            raise TrapViolation(fld)
        if fld == FIELD_GUEST_PML_ADDRESS:
            if ept is None:
                raise TranslationFault("no EPT context for translation")
            hpa = ept.translate(value)
            if hpa is None:
                raise TranslationFault(value)
            self.state.guest_pml_address = hpa
        elif fld == FIELD_GUEST_PML_INDEX:
            self.state.guest_buffer.reset(value)
        else:  # pragma: no cover - bitmap only admits the two fields
            raise TrapViolation(fld)

    def guest_vmread(self, fld: str) -> int:
        """Read a shadow field without a vmexit (cost M7, charged by caller)."""
        if fld not in self.vmread_bitmap:
            raise TrapViolation(fld)
        if fld == FIELD_GUEST_PML_ADDRESS:
            return self.state.guest_pml_address
        if fld == FIELD_GUEST_PML_INDEX:
            return self.state.guest_buffer.index
        raise TrapViolation(fld)  # pragma: no cover
