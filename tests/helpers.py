"""Small helpers that several test files share: they read device and page-table
state the way a test checks it, or change it one page at a time."""

from __future__ import annotations

import numpy as np

from oohsim.costs import CostTable
from oohsim.experiments import EstimatorCheck
from oohsim.memory import (
    _HAS_DIRTY,
    _PROTECT,
    _UNPROTECT,
    PAGE_SIZE,
    Ept,
    GuestPageTable,
    UnknownMapping,
)
from oohsim.pml import PmlBuffer


def dirty_gpas(ept: Ept) -> set[int]:
    """The frames whose EPT dirty bit is set."""
    return set((ept._pages(_HAS_DIRTY) * PAGE_SIZE).tolist())


def page_list(pages: np.ndarray) -> list[int]:
    """The page numbers a query or the kernel reports, once checked to be in the
    one form a set of pages takes: an int64 array, sorted and distinct."""
    assert pages.dtype == np.int64
    assert (pages[1:] > pages[:-1]).all()
    return pages.tolist()


def set_write_protect(table: GuestPageTable, gvas, protected: bool = True) -> None:
    """Set, or lift, write protection on each of ``gvas``, one page at a time."""
    bits = _PROTECT if protected else _UNPROTECT
    for gva in gvas:
        found = table._locate(gva)
        if found is None:
            raise UnknownMapping(gva)
        region, i = found
        region.bits[i] = bits[region.bits[i]]


def unmap_gpa(ept: Ept, gpa: int) -> None:
    """Take a frame out of the EPT."""
    ept._take(gpa)


def retrievable(buf: PmlBuffer) -> int:
    """The entries a drain of ``buf`` would take: fresh - index (0 when disabled)."""
    return 0 if buf.index == buf.disabled_index else buf.fresh_index - buf.index


def rel_err(check: EstimatorCheck) -> float:
    """How far the closed-form estimate lies from the run, relative to the run."""
    return abs(check.est_us - check.sim_us) / check.sim_us


def time_doubled(table: CostTable) -> CostTable:
    """``table`` with every µs and ms value doubled; ``spml_drain_batch`` is a
    count and stays."""
    return CostTable(
        fixed_us={metric: 2 * us for metric, us in table.fixed_us.items()},
        sized_ms={
            metric: [(size, 2 * ms) for size, ms in anchors]
            for metric, anchors in table.sized_ms.items()
        },
        params={
            key: value if key == "spml_drain_batch" else 2 * value
            for key, value in table.params.items()
        },
    )
