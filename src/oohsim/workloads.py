"""Workload generators: a synthetic key-value store with skewed writes,
random churn traces, and the brute-force dirty-set oracle used to judge
what a tracker collected.  The page-sweep micro-benchmark is
:func:`oohsim.trackers.run_tracker` without a trace.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .costs import MB, CostTable, pages_for
from .costs import PAGE_SIZE as PAGE

# Not used here: the benchmark harness rebinds ``run_tracker`` in every
# module that holds the name, this one included, and fails if it is absent.
from .trackers import run_tracker  # noqa: F401

__all__ = [
    "MB",
    "PAGE",
    "KV_FOOTPRINTS",
    "KvWorkloadSpec",
    "TraceWorkload",
    "random_trace",
    "churn_trace",
    "OracleResult",
    "replay_dirty_oracle",
]

# synthetic key-value store engines and their resident-set footprints
KV_FOOTPRINTS: dict[str, int] = {
    "baby": 833 * MB,
    "cache": 596 * MB,
    "stdhash": 2400 * MB,
    "stdtree": int(2.4 * MB),
    "tiny": 2200 * MB,
}


@dataclass
class TraceWorkload:
    """A literal sequence of memory operations.

    Ops are tuples: ``("write", gva)``, ``("map", gva)``, ``("unmap", gva)``,
    ``("remap", old_gva, new_gva)``.  Pages named by the run's
    ``memory_bytes`` are pre-mapped at 0x1000, 0x2000, ... before the first
    op executes.  A trace is decoded at its first run and the decode kept
    for the next (:attr:`decoded`), so its ops must not change after its
    first run.
    """

    ops: list[tuple] = field(default_factory=list)
    name: str = ""
    initial_pages: int = 0  # pages pre-mapped before the first op

    @property
    def n_writes(self) -> int:
        return sum(1 for op in self.ops if op[0] == "write")

    @property
    def memory_bytes(self) -> int:
        return max(1, self.initial_pages) * PAGE

    def initial_gvas(self) -> list[int]:
        return [(i + 1) * PAGE for i in range(self.initial_pages)]

    @cached_property
    def decoded(self) -> tuple[list[int], np.ndarray, list[int], list[tuple], list[int]]:
        """The ops as the mechanical tracker engine runs them: the pages the
        writes write, and the same as an array; the other
        ops, each with the count of writes before it; and, as counts of
        writes, the ends of the *windows*, the runs of ops a stretch of writes
        may reach across.  A window is cut before a remap, a map of a page it
        names already, and any op on a page it unmapped.  Maps and unmaps
        charge no time, so in a window the engine applies the maps before a
        stretch and the unmaps after it: a map names a fresh frame no log entry
        holds, before any write to its page, and an unmap finds its page's byte
        (soft-dirty residue included) as the page's writes left it.

        A page is named by its page-aligned address: any other address raises
        ``ValueError`` naming the first such op and the address.
        """
        ops = self.ops
        addrs = np.array(list(map(itemgetter(1), ops)), dtype=np.int64)
        others = [i for i, op in enumerate(ops) if op[0] != "write"]
        bad = np.flatnonzero(addrs % PAGE).tolist()[:1]
        bad += (i for i in others if ops[i][0] == "remap" and ops[i][2] % PAGE)
        if bad:
            i = min(bad)
            addr = ops[i][1] if ops[i][1] % PAGE else ops[i][2]
            raise ValueError(f"trace op {i}: address {addr:#x} is not page-aligned")
        gvas = [op[1] for op in ops if op[0] == "write"]
        batch = np.array(gvas, dtype=np.int64)
        at = [i - j for j, i in enumerate(others)]  # the writes before each other op
        stops = [i - bisect_left(others, i) for i in _window_starts(ops, others)]
        return gvas, batch, at, [ops[i] for i in others], stops


def _window_starts(ops: list[tuple], others: list[int]) -> list[int]:
    """The ops after the first that open a window, then ``len(ops)``: each
    remap, each map of a page the window named before, and each op on a page
    it unmapped.  Only the pages that a map, unmap or remap names take part."""
    named = {ops[i][1] for i in others}
    seen: dict[int, str] = {}  # the window's pages: the first op on each, or unmap
    starts = []
    for i in [i for i, op in enumerate(ops) if op[1] in named]:
        kind, gva = ops[i][0], ops[i][1]
        if kind == "remap" or seen.get(gva) == "unmap" or kind == "map" and gva in seen:
            starts.append(i)
            seen = {}
        if kind == "write":
            seen.setdefault(gva, kind)
        else:
            seen[gva] = kind
    return starts + [len(ops)]


@dataclass
class KvWorkloadSpec:
    """Synthetic key-value store: skewed page writes over a big footprint.

    Writes follow a zipf(``write_skew``) popularity law over the footprint's
    pages (rank-to-page assignment is a seeded permutation).  ``churn_rate``
    unmap events per second of ideal write time retire the most recently
    written page and map a fresh one in its place — the pattern that makes
    physical-address logging lose pages.
    """

    name: str
    footprint_bytes: int
    write_skew: float = 0.99
    churn_rate: float = 0.0
    n_ops: int = 20_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.footprint_bytes <= 0:
            raise ValueError("footprint must be positive")
        self.check_knobs(self.churn_rate, self.n_ops)

    @staticmethod
    def check_knobs(churn_rate: float, n_ops: int) -> None:
        """The rules of the two knobs an experiment config sets: a bad value
        raises ``ValueError`` with a message that starts with the field's name."""
        # a negative rate made no churn, and a negative count failed inside NumPy
        if not 0 <= churn_rate < math.inf:
            raise ValueError(f"churn_rate: must be a finite number >= 0, got {churn_rate}")
        if n_ops < 0:
            raise ValueError(f"n_ops: must be >= 0, got {n_ops}")

    @property
    def num_pages(self) -> int:
        return pages_for(self.footprint_bytes)

    def make_trace(self, table: CostTable | None = None) -> TraceWorkload:
        """The trace at ``table``'s write price, which sets how many churn events
        fall in its ideal write time; they must fit between its writes (a
        ``ValueError`` naming ``churn_rate`` and ``n_ops`` otherwise)."""
        write_us = (table or CostTable.default()).param("write_cost_us")
        churns = int(self.churn_rate * (self.n_ops * write_us) / 1e6)
        churn_every = self.n_ops // (churns + 1) if churns else 0
        if churns and not churn_every:
            raise ValueError(
                f"churn_rate: {self.churn_rate:g} a second over n_ops = {self.n_ops} writes "
                f"of {write_us:g} µs makes {churns} churn events, which do not fit between "
                "the writes"
            )
        rng = np.random.default_rng(self.seed)
        pages = self.num_pages
        cdf = np.cumsum(np.arange(1, pages + 1, dtype=np.float64) ** (-self.write_skew))
        slot_of_rank = rng.permutation(pages)
        draws = np.searchsorted(cdf, rng.random(self.n_ops) * cdf[-1])
        # slot i starts at gva (i + 1) * PAGE
        gvas = (slot_of_rank[draws] + 1) * PAGE
        del cdf, slot_of_rank  # a value per page each: freed before the ops are built
        # churn event k comes after the first ends[k] writes: it retires the page
        # the last of them wrote and moves that rank's slot to fresh address k,
        # where the rank's later writes go
        ends = [k * churn_every for k in range(1, churns + 1)]
        fresh = (pages + 1) * PAGE
        for k, e in enumerate(ends):
            tail = gvas[e:]
            tail[draws[e:] == draws[e - 1]] = fresh + k * PAGE
        writes = [("write", gva) for gva in gvas.tolist()]
        ops: list[tuple] = []
        start = 0
        for k, e in enumerate(ends):
            ops += writes[start:e]
            ops += (("unmap", writes[e - 1][1]), ("map", fresh + k * PAGE))
            start = e
        ops += writes[start:]
        return TraceWorkload(ops=ops, name=self.name, initial_pages=pages)


def random_trace(
    seed: int,
    max_pages: int = 4096,
    n_ops: int = 200,
    p_unmap: float = 0.1,
    p_map: float = 0.1,
) -> TraceWorkload:
    """A fuzzed write/map/unmap trace over at most ``max_pages`` pages.

    Unmapped addresses are never reused, so every name identifies one page
    for the oracle.  Writes target currently mapped pages.
    """
    rng = np.random.default_rng(seed)
    n_initial = int(rng.integers(1, max_pages + 1))
    mapped = [(i + 1) * PAGE for i in range(n_initial)]
    next_fresh = (max_pages + 1) * PAGE
    ops: list[tuple] = []
    for _ in range(n_ops):
        r = rng.random()
        if r < p_unmap and len(mapped) > 1:
            idx = int(rng.integers(len(mapped)))
            ops.append(("unmap", mapped.pop(idx)))
        elif r < p_unmap + p_map:
            ops.append(("map", next_fresh))
            mapped.append(next_fresh)
            next_fresh += PAGE
        else:
            gva = mapped[int(rng.integers(len(mapped)))]
            ops.append(("write", gva))
    return TraceWorkload(ops=ops, name=f"fuzz-{seed}", initial_pages=n_initial)


def churn_trace(working_set_pages: int, churn_events: int, seed: int = 0) -> TraceWorkload:
    """Dirty every page once, then retire the most recent ``churn_events``.

    The unmaps are last-in-first-out over the write order, so the retired
    pages are exactly the ones whose log entries are least likely to have
    been harvested yet — the worst case for physical-address logging.
    """
    if churn_events < 0:
        raise ValueError(f"churn_events: must be >= 0, got {churn_events}")
    if churn_events >= working_set_pages:
        raise ValueError("churn must retire fewer pages than the working set")
    rng = np.random.default_rng(seed)
    gvas = ((rng.permutation(working_set_pages) + 1) * PAGE).tolist()
    ops: list[tuple] = [("write", gva) for gva in gvas]
    if churn_events:
        ops += [("unmap", gva) for gva in reversed(gvas[-churn_events:])]
    return TraceWorkload(
        ops=ops,
        name=f"churn-{working_set_pages}-{churn_events}",
        initial_pages=working_set_pages,
    )


@dataclass
class OracleResult:
    """Ground truth from brute-force replay of a trace.

    ``dirty`` holds every name that a lossless tracker should report:
    currently mapped dirty pages under their current name, plus pages that
    were unmapped while dirty (frozen under the name they had).
    ``unmapped_dirty`` is the subset gone from the address space at the end
    — what physical-address logging cannot reverse-map anymore.
    """

    dirty: set[int]
    unmapped_dirty: set[int]


def replay_dirty_oracle(ops, initial_pages) -> OracleResult:
    mapped = set(initial_pages)
    dirty: set[int] = set()
    frozen: set[int] = set()
    for op in ops:
        kind = op[0]
        if kind == "write":
            if op[1] in mapped:
                dirty.add(op[1])
        elif kind == "map":
            mapped.add(op[1])
        elif kind == "unmap":
            mapped.discard(op[1])
            if op[1] in dirty:
                dirty.discard(op[1])
                frozen.add(op[1])
        elif kind == "remap":
            old, new = op[1], op[2]
            mapped.discard(old)
            mapped.add(new)
            if old in dirty:
                dirty.discard(old)
                dirty.add(new)
        else:
            raise ValueError(f"unknown trace op {kind!r}")
    return OracleResult(dirty=dirty | frozen, unmapped_dirty=frozen - mapped)
