"""The four dirty-page trackers and their phase-by-phase cost accounting.

Each tracker runs the same tracked workload — by default the page-sweep
micro-benchmark (``rounds`` passes over every page of a ``memory_bytes``
region, one page-sized write each) — and reports where the time went:

* ``proc``  — soft-dirty bits: per-round pagemap walk + bit clear, with the
  post-clear write microfaults charged at the sized kernel-fault rate;
* ``uffd``  — write-protect faults resolved in userspace on every write
  (pages are re-protected at resolve time, so monitoring is continuous);
* ``spml``  — hypervisor log ring: buffer-full vmexits flush 512 addresses
  to the ring, and a collector thread drains a bounded batch per tick,
  reverse-mapping each address (the dominant cost); a full ring stalls the
  producer under the default policy;
* ``epml``  — guest-level log: addresses arrive pre-translated in the
  tracked process's own buffer, copied out by a softirq at the sized
  ring-copy rate; scheduling costs are three shadow-field writes and one
  read per quantum pair.

Two engines run the micro-benchmark on one run skeleton (``_Run``: the
clock, the collection ticks, stalls, quantum swaps, the round loop, the final
harvest and the report) and differ only in how they apply a round of writes
and keep the device state.  The mechanical engine executes every
write through :class:`~oohsim.vm.VirtualMachine`; it is the reference
semantics, runs every trace, and alone reports content-level results (the
dirty set, missed and inaccurate pages).  One driver loop runs it: a trace
feeds it its ops, the micro-benchmark one round of writes at a time.  A
quiet write only adds its base cost to the clock, held in locals, and in a
round a whole stretch of quiet writes is applied in one step that leaves
the clock and state of one write at a time.  An *event* (a vmexit, stall
or softirq copy, a full quantum, a due collection tick, the horizon, or a
map/unmap/remap op) puts the clock back on the run and goes through the
one event method, which adds each cost in the same order as a
write-by-write accounting would.  The segment engine, the default
for the micro-benchmark because it is fast at large sizes, advances whole
stretches of writes between events with closed-form arithmetic, following
the mechanical event order (buffer event during the triggering write, then
the quantum check, then collection ticks).  The two agree on the shapes
that ``tests/test_trackers.py`` compares (4 MB, three rounds, default ring),
but not everywhere: they disagree at 512 pages or fewer, at the horizon and
with small rings (ROADMAP open item 2).  Trust the mechanical engine where
they differ.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, compress, count, islice, repeat
from operator import add, is_not, itemgetter, ne
from typing import Any

from .costs import MB, PAGE_SIZE, CostTable, Prices, overhead, pages_for
from .guest import TECHNIQUES
from .memory import LOST, GuestPageTable, write_faults
from .pml import BUFFER_SLOTS
from .reports import RunRow
from .vm import VirtualMachine

__all__ = [
    "WrongTechnique",
    "TrackerConfig",
    "TrackerPhaseReport",
    "DrainResult",
    "drain_ring",
    "reverse_map_pairs",
    "run_tracker",
    "spml_bottleneck_breakdown",
    "to_run_row",
    "tracked_machine",
]

TRACKED_PID = 1


class WrongTechnique(RuntimeError):
    """Operation applies to a different tracking technique."""


@dataclass
class TrackerConfig:
    """One tracked run's inputs and the one home of their rules, which checkpoint
    sessions and experiment configs reuse: a bad value raises ``ValueError``
    with a message that starts with the field's name."""

    technique: str
    memory_bytes: int = 100 * MB
    rounds: int = 13
    quantum_us: float = 10_000.0
    collection_interval_us: float = 1_000.0
    ring_capacity: int = 16384
    ring_full_policy: str = "stall"
    horizon_us: float = 60_000_000.0
    defer_reverse_map: bool = False
    mechanical: bool = False
    table: CostTable | None = None
    trace: Any | None = None  # object with .ops; forces the mechanical engine

    def __post_init__(self) -> None:
        if self.technique not in TECHNIQUES:
            raise ValueError(
                f"technique: must be one of {sorted(TECHNIQUES)}, got {self.technique!r}"
            )
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes: must be positive")
        if self.rounds < 0:
            raise ValueError("rounds: must be >= 0")
        # the float fields are compared so that NaN fails too
        if not self.quantum_us > 0:
            raise ValueError("quantum_us: must be positive")
        if not self.collection_interval_us > 0:
            raise ValueError("collection_interval_us: must be positive")
        if self.ring_capacity <= 0:
            raise ValueError("ring_capacity: must be positive")
        if self.ring_full_policy not in ("stall", "drop"):
            raise ValueError(
                f"ring_full_policy: must be 'stall' or 'drop', got {self.ring_full_policy!r}"
            )
        if (
            self.technique == "spml"
            and self.ring_full_policy == "stall"
            and self.ring_capacity < BUFFER_SLOTS
        ):
            raise ValueError(
                f"ring_capacity: {self.ring_capacity} is below the {BUFFER_SLOTS}-entry "
                "PML buffer, so spml under 'stall' could never flush; use a larger "
                "ring or ring_full_policy = drop"
            )
        if not self.horizon_us >= 0:
            raise ValueError("horizon_us: must be >= 0")

    @property
    def pages(self) -> int:
        return pages_for(self.memory_bytes)

    def cost_table(self) -> CostTable:
        return self.table or CostTable.default()


@dataclass
class TrackerPhaseReport:
    technique: str
    memory_bytes: int
    init_time_us: float
    monitor_span_us: float
    collect_time_us: float
    exploit_time_us: float
    tracked_suspension_total_us: float
    ideal_us: float
    tracker_busy_us: float
    writes_done: int
    rounds_done: int
    n_sched_events: int
    vmexits: int
    softirq_copies: int
    dropped: int
    truncated: bool
    collect_parts: dict[str, float] = field(default_factory=dict)
    # content-level results (mechanical engine only; None when elided)
    dirty_set: set[int] | None = None
    missed: set[int] = field(default_factory=set)
    inaccurate: set[tuple[int, int]] = field(default_factory=set)
    dirty_pages: int = 0

    def __post_init__(self) -> None:
        for name in (
            "init_time_us",
            "monitor_span_us",
            "collect_time_us",
            "exploit_time_us",
            "tracked_suspension_total_us",
            "ideal_us",
            "tracker_busy_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.tracked_suspension_total_us > self.monitor_span_us + 1e-6:
            raise ValueError("suspension cannot exceed the monitored span")
        if self.dirty_set is not None:
            if self.missed & self.dirty_set:
                raise ValueError("missed pages cannot also be reported dirty")
            self.dirty_pages = len(self.dirty_set)

    @property
    def tracked_us(self) -> float:
        return self.monitor_span_us

    @property
    def overhead_tracked_pct(self) -> float:
        if self.ideal_us <= 0:
            return 0.0
        return overhead(self.tracked_us, self.ideal_us)

    @property
    def overhead_tracker_pct(self) -> float:
        if self.ideal_us <= 0:
            return 0.0
        return 100.0 * self.tracker_busy_us / self.ideal_us

    @property
    def suspension_fraction(self) -> float:
        if self.monitor_span_us <= 0:
            return 0.0
        return self.tracked_suspension_total_us / self.monitor_span_us


@dataclass
class DrainResult:
    consumed: int = 0
    gvas: list[int] = field(default_factory=list)
    raw: list[tuple[int, int]] = field(default_factory=list)  # (gpa, meta_gva)
    lost: list[tuple[int, int]] = field(default_factory=list)
    inaccurate: list[tuple[int, int]] = field(default_factory=list)
    rm_us: float = 0.0
    copy_us: float = 0.0

    @property
    def total_us(self) -> float:
        return self.rm_us + self.copy_us


def drain_ring(
    vm: VirtualMachine,
    *,
    batch: int | None = None,
    defer_reverse_map: bool = False,
) -> DrainResult:
    """Consume ring entries: copy out, then reverse-map unless deferred.

    Per entry: one ring-copy charge; one reverse-mapping charge when mapping
    immediately, a ring block at a time.  Addresses whose reverse mapping is
    gone are reported lost; aliased pages that resolve to a different virtual
    address than the one written are reported inaccurate.  (Logging was
    re-armed when the device flushed these entries, not here.)
    """
    n = batch if batch is not None else vm.hv.ring.used
    blocks = vm.hv.ring.consume(n)
    res = DrainResult(consumed=sum(len(pairs) for _pid, pairs in blocks))
    if not blocks:
        return res
    prices = vm.kernel.uio.prices
    res.copy_us = res.consumed * prices.m18_pp
    if defer_reverse_map:
        for _pid, pairs in blocks:
            res.raw.extend(pairs)
        return res
    processes = vm.kernel.processes
    for pid, pairs in blocks:
        proc = processes.get(pid)
        reverse_map_pairs(proc.table if proc is not None else None, pairs, prices.m17_pp, res)
    return res


def reverse_map_raw(vm: VirtualMachine, raw: list[tuple[int, int]]) -> DrainResult:
    """Deferred reverse mapping of previously harvested raw addresses."""
    rm_pp = vm.kernel.uio.prices.m17_pp
    table = vm.kernel.processes[TRACKED_PID].table
    return reverse_map_pairs(table, raw, rm_pp, DrainResult(consumed=len(raw)))


def reverse_map_pairs(
    table: GuestPageTable | None, pairs, rm_pp: float = 0.0, res: DrainResult | None = None
) -> DrainResult:
    """Reverse-map logged ``(gpa, meta_gva)`` pairs through a page table into ``res``.

    The one GPA-to-GVA step: the one spml pays ``rm_pp`` per pair for and
    epml skips.  A GPA no GVA maps any more (every GPA, when ``table`` is
    None) is lost; one that maps back to another GVA than the one written
    is inaccurate.  The batch is mapped and compared with the logged GVAs
    whole; only the pairs that differ are visited.
    """
    res = res if res is not None else DrainResult()
    pairs = list(pairs)
    logged = list(map(itemgetter(1), pairs))
    gpas = list(map(itemgetter(0), pairs))
    gvas = table.reverse_map_many(gpas) if table is not None else [LOST] * len(pairs)
    # one addition per pair, in order, as a per-pair loop adds them
    res.rm_us = reduce(add, repeat(rm_pp, len(pairs)), res.rm_us)
    if gvas != logged:
        for k in compress(count(), map(ne, gvas, logged)):
            if gvas[k] is LOST:
                res.lost.append((gpas[k], logged[k]))
            else:
                res.inaccurate.append((gvas[k], logged[k]))
        gvas = list(compress(gvas, map(is_not, gvas, repeat(LOST))))
    res.gvas.extend(gvas)
    return res


def tracked_machine(cfg: TrackerConfig) -> tuple[VirtualMachine, range, float]:
    """The tracked machine, its pages and the µs its set-up cost; under ``proc`` the
    soft-dirty bits start clear, so allocation-time bits are not the workload's."""
    vm = VirtualMachine(
        cfg.cost_table(),
        ring_capacity=cfg.ring_capacity,
        ring_full_policy=cfg.ring_full_policy,
    )
    vm.create_process(TRACKED_PID)
    gvas = vm.allocate(TRACKED_PID, cfg.pages)
    init_us = vm.kernel.register_tracked(TRACKED_PID, cfg.technique, cfg.memory_bytes)
    if cfg.technique == "proc":
        init_us += vm.kernel.clear_soft_dirty(TRACKED_PID)[1]
    return vm, gvas, init_us


def _next_tick_after(busy_end: float, prev_tick: float, interval: float) -> float:
    """Collection ticks land on interval multiples; a long drain skips some."""
    candidate = prev_tick + interval
    aligned = interval * math.ceil(busy_end / interval)
    return max(candidate, aligned)


# --------------------------------------------------------------------------
# the run skeleton shared by both engines
# --------------------------------------------------------------------------


class _Run:
    """One tracked run: the clock, the counters, the collection schedule and the report.

    Both engines advance time here in the same way.  Each supplies how it
    applies a round of writes (``_round``), ends a round (``_round_end``),
    switches the tracked process (``_sched``), drains the spml ring
    (``_drain``, returning the drain's cost; ``ring_used`` is what is left),
    hands over the epml tool ring (``_consume_tool_ring``), maps deferred
    ring entries (``_reverse_map_deferred``, returning its cost) and fills
    the report's content fields (``_content``).
    """

    def __init__(self, cfg: TrackerConfig, prices: Prices, init_us: float):
        self.cfg = cfg
        self.c = prices
        self.init_us = init_us
        self.tech = cfg.technique
        self.P = cfg.pages

        self.t = 0.0
        self.run_acc = 0.0
        self.next_tick = cfg.collection_interval_us
        self.suspension = 0.0
        self.tracker_busy = 0.0
        self.collect_us = 0.0
        self.parts = {"reverse_mapping_us": 0.0, "walk_us": 0.0, "copy_us": 0.0, "other_us": 0.0}
        self.writes_done = 0
        self.rounds_done = 0
        self.vmexits = 0
        self.softirqs = 0
        self.sched_events = 0
        self.dropped = 0
        self.truncated = False

    # ----- time -----------------------------------------------------------

    def _tick(self) -> None:
        interval = self.cfg.collection_interval_us
        if self.tech == "spml":
            start = self.next_tick
            self.next_tick = _next_tick_after(start + self._drain(), start, interval)
        else:
            if self.tech == "epml":
                self._consume_tool_ring()
            self.next_tick += interval

    def _stall(self, flushed) -> bool:
        """The spml producer waits for collection ticks until ``flushed()`` gets its
        buffer into the ring; False if the horizon comes first (the run is truncated)."""
        while True:
            if self.next_tick > self.t:
                if self.next_tick >= self.cfg.horizon_us:
                    self.t = self.cfg.horizon_us
                    self.truncated = True
                    return False
                self.suspension += self.next_tick - self.t
                self.t = self.next_tick
            self._tick()
            if flushed():
                return True

    def _vmexit(self) -> None:
        self.t += self.c.vmexit_service
        self.suspension += self.c.vmexit_service
        self.vmexits += 1

    def _swap_and_tick(self) -> None:
        """A full quantum swaps the tracked process out and in; then the due ticks."""
        if self.run_acc >= self.cfg.quantum_us:
            self._sched("out")
            self._sched("in")
            self.run_acc -= self.cfg.quantum_us
        while self.t >= self.next_tick:
            self._tick()

    def _charge(self, part: str, us: float) -> None:
        """Collection work done off the tracked process's clock."""
        self.tracker_busy += us
        self.collect_us += us
        self.parts[part] += us

    def _charge_walk(self, read_us: float, clear_us: float) -> None:
        """proc's round end: the pagemap walk and bit clear suspend the process."""
        cost = read_us + clear_us
        self.t += cost
        self.suspension += cost
        self.tracker_busy += cost
        self.collect_us += cost
        self.parts["walk_us"] += read_us
        self.parts["other_us"] += clear_us

    # ----- the run --------------------------------------------------------

    def run(self) -> TrackerPhaseReport:
        self._sched("in")
        self._workload()
        self._sched("out")
        return self._finish()

    def _workload(self) -> None:
        """The micro-benchmark: ``rounds`` sweeps over every page."""
        for _rnd in range(self.cfg.rounds):
            self._round()
            if self.truncated:
                break
            self.rounds_done += 1
            self._round_end()

    def _harvest(self) -> None:
        """Collect what is still queued once the tracked process is done.

        spml ticks until its ring is empty, maps the deferred entries and
        ends with one userspace page-table walk (M16).
        """
        if self.tech == "spml" and self.writes_done:
            while self.ring_used > 0:
                if self.t < self.next_tick:
                    self.t = self.next_tick
                self._tick()
            if self.cfg.defer_reverse_map:
                self._charge("reverse_mapping_us", self._reverse_map_deferred())
            self._charge("walk_us", self.c.m16)

    def _finish(self) -> TrackerPhaseReport:
        monitor_span = min(self.t, self.cfg.horizon_us)
        if not self.truncated:
            self._harvest()
        content = self._content()
        return TrackerPhaseReport(
            technique=self.tech,
            memory_bytes=self.cfg.memory_bytes,
            init_time_us=self.init_us,
            monitor_span_us=monitor_span,
            collect_time_us=self.collect_us,
            exploit_time_us=0.0,
            tracked_suspension_total_us=min(self.suspension, monitor_span),
            ideal_us=self.writes_done * self.c.write,
            tracker_busy_us=self.tracker_busy,
            writes_done=self.writes_done,
            rounds_done=self.rounds_done,
            n_sched_events=self.sched_events,
            vmexits=self.vmexits,
            softirq_copies=self.softirqs,
            dropped=self.dropped,
            truncated=self.truncated,
            collect_parts=dict(self.parts),
            **content,
        )


# --------------------------------------------------------------------------
# segment engine (closed-form stretches between events)
# --------------------------------------------------------------------------


class _SegmentRun(_Run):
    """Closed-form approximation of :class:`_MechanicalRun`'s micro-benchmark.

    It tracks buffer, ring and tool-ring occupancy as counts and jumps from
    one event to the next.  It assumes every write logs a fresh entry and
    does not clip a stretch at the horizon, so it departs from the
    mechanical engine at 512 pages or fewer, near the horizon and with
    small rings (ROADMAP open item 2); the mechanical engine is the
    reference.
    """

    def __init__(self, cfg: TrackerConfig):
        prices = cfg.cost_table().prices(cfg.memory_bytes)
        super().__init__(cfg, prices, prices.init_us(cfg.technique))
        self.buf_fill = 0  # hv buffer (spml) or guest buffer (epml)
        self.ring_used = 0  # spml hypervisor ring
        self.tool_ring = 0  # epml tool-side ring

    def run(self) -> TrackerPhaseReport:  # its own entry: bench/tracing.py times it
        return super().run()

    def _sched(self, direction: str) -> None:
        cost = self.c.sched_us(self.tech, direction)
        if self.tech == "epml" and direction == "out" and self.buf_fill:
            cost += self._epml_copy(self.buf_fill)
            self.buf_fill = 0
        if self.tech == "spml" and direction == "out" and self.buf_fill:
            self.ring_used += self.buf_fill  # coordination flush, forced
            self.buf_fill = 0
        self.t += cost
        self.sched_events += 1

    def _epml_copy(self, k: int) -> float:
        cost = self.c.copy_us(k)
        space = self.cfg.ring_capacity - self.tool_ring
        if k > space:  # tool too slow: losses are counted, never silent
            self.dropped += k - space
            k = space
        self.tool_ring += k
        self.suspension += cost
        self.softirqs += 1
        return cost

    def _drain(self) -> float:
        k = min(self.c.drain_batch, self.ring_used)
        if self.cfg.defer_reverse_map:
            cost = k * self.c.m18_pp
            self.parts["copy_us"] += cost
        else:
            cost = k * (self.c.m18_pp + self.c.m17_pp)
            self.parts["copy_us"] += k * self.c.m18_pp
            self.parts["reverse_mapping_us"] += k * self.c.m17_pp
        self.ring_used -= k
        self.tracker_busy += cost
        self.collect_us += cost
        return cost

    def _consume_tool_ring(self) -> None:
        self.tool_ring = 0  # tool consumes its ring (set union, free)

    def _reverse_map_deferred(self) -> float:
        return self.writes_done * self.c.m17_pp  # every logged entry mapped

    def _spml_vmexit(self) -> None:
        """Buffer-full during a write: stall if needed, flush, replay."""
        pending, cap = 512, self.cfg.ring_capacity
        if self.cfg.ring_full_policy == "stall":
            if cap - self.ring_used < pending and not self._stall(
                lambda: cap - self.ring_used >= pending
            ):
                return
            self.ring_used += pending
        else:  # drop
            sent = min(pending, max(0, cap - self.ring_used))
            self.ring_used += sent
            self.dropped += pending - sent
        self._vmexit()
        self.buf_fill = 1  # the refused entry, replayed after the reset

    def _round(self) -> None:
        """One sweep over every page, a stretch of writes at a time."""
        cfg, c = self.cfg, self.c
        logging = self.tech in ("spml", "epml")
        w_run = c.write
        if self.tech == "proc":
            w_run += c.softdirty_fault  # every post-clear write microfaults
        w_wall = w_run + (c.uffd_fault if self.tech == "uffd" else 0.0)
        left = self.P
        while left > 0:
            if self.t >= cfg.horizon_us:
                self.truncated = True
                return
            n_event = (512 - self.buf_fill) + 1 if logging else left + 1
            n_quant = math.ceil(max(0.0, cfg.quantum_us - self.run_acc) / w_run)
            n_tick = (
                math.ceil(max(0.0, self.next_tick - self.t) / w_wall) if logging else left + 1
            )
            n = min(left, n_event, max(1, n_quant), max(1, n_tick))
            self.t += n * w_wall
            self.run_acc += n * w_run
            if self.tech == "uffd":
                self.suspension += n * c.uffd_fault
                self.tracker_busy += n * c.uffd_fault
            self.writes_done += n
            left -= n
            if logging:
                self.buf_fill += n
            if logging and n == n_event:
                self.buf_fill = 512  # the 513th attempt was refused
                if self.tech == "spml":
                    self._spml_vmexit()
                    if self.truncated:
                        return
                else:
                    self.t += self._epml_copy(512)
                    self.buf_fill = 1
            self._swap_and_tick()

    def _round_end(self) -> None:
        if self.tech == "proc":
            self._charge_walk(self.c.m16, self.c.m15)
        elif self.tech == "epml" and self.buf_fill:
            self.t += self._epml_copy(self.buf_fill)
            self.buf_fill = 0

    def _content(self) -> dict[str, Any]:
        return {"dirty_pages": min(self.writes_done, self.P)}


# --------------------------------------------------------------------------
# mechanical engine (every write executed through the machine)
# --------------------------------------------------------------------------


class _MechanicalRun(_Run):
    """Every write executed through the machine: the reference engine.

    :meth:`_drive` is the one loop over writes, for traces and for the
    micro-benchmark's rounds alike.  It keeps ``t``, ``run_acc``,
    ``writes_done`` and the uffd fault charges (``suspension``,
    ``tracker_busy``) in locals while writes are quiet, and stores them
    back only at an event exit:

    * a write whose result carries a vmexit, a stall or a softirq copy;
    * ``run_acc`` reaching the quantum;
    * the clock reaching the next collection tick or the horizon;
    * a non-write trace op.

    :meth:`_event` then adds the write's device costs, waits out a stall,
    swaps the quantum and runs the due ticks, with the same float
    operations in the same order as a write-by-write accounting.  Past the
    horizon the run is truncated if an op is left undone; a round whose
    last write crosses it still counts.

    In a micro-benchmark round, writes to consecutive pages, a *stretch*
    of quiet writes takes one step.  The machine says how many of the next
    writes would be quiet and hands back each one's page byte
    (:meth:`~oohsim.vm.VirtualMachine.quiet_run`); a 256-entry table built
    from the price list turns each byte into that write's wall and run
    µs.  :func:`itertools.accumulate` advances the clock and the run time
    one write at a time, as the per-write loop adds them, and
    :func:`bisect.bisect_left` finds the first write that reaches the tick,
    the horizon or the quantum.  The machine applies the writes up to and
    including it (:meth:`~oohsim.vm.VirtualMachine.write_run`), and that
    write's event exit is the per-write loop's.  The state, the counters and
    every float are those of write-by-write stepping; the write that finds
    a log buffer full still goes through ``write_one``.

    ``oracle`` (pages written) and ``collected`` (pages reported) hold page
    numbers, as page-aligned addresses share their low bits and a set of them
    probes on most lookups; :meth:`_content` turns them into addresses, so a
    trace must name its pages by page-aligned addresses.
    """

    def __init__(self, cfg: TrackerConfig):
        self.vm, self.gvas, init_us = tracked_machine(cfg)
        super().__init__(cfg, self.vm.kernel.uio.prices, init_us)
        self.oracle: set[int] = set()
        self.collected: set[int] = set()
        self.inaccurate: set[tuple[int, int]] = set()
        self.raw_entries: list[tuple[int, int]] = []

    @property
    def ring_used(self) -> int:
        return self.vm.hv.ring.used

    @cached_property
    def _sweep(self) -> list[int]:
        # page numbers, one int object per page reused every round, so the
        # oracle's set lookups match keys by identity; built for the
        # micro-benchmark only, as a trace may map far more pages than it writes
        return list(map(PAGE_SIZE.__rfloordiv__, self.gvas))

    @cached_property
    def _write_us(self) -> list[tuple[float, float]]:
        """A write's (wall, run) µs, at index soft-dirty fault + 2 × uffd fault."""
        c = self.c
        out = []
        for uffd_recorded in (False, True):
            for softdirty_fault in (False, True):
                wall = run = c.write
                if softdirty_fault and self.tech == "proc":
                    run += c.softdirty_fault
                    wall += c.softdirty_fault
                if uffd_recorded:
                    wall += c.uffd_fault
                out.append((wall, run))
        return out

    @cached_property
    def _byte_us(self) -> tuple[list[float], list[float], bytes]:
        """By a region page's state byte: its write's wall µs, its run µs, and a
        ``translate`` table that marks the writes with a uffd fault."""
        faults = [write_faults(bits) for bits in range(256)]
        costs = [self._write_us[sd + 2 * wp] for sd, wp in faults]
        walls, runs = [wall for wall, _ in costs], [run for _, run in costs]
        return walls, runs, bytes(wp for _, wp in faults)

    # ----- helpers -------------------------------------------------------

    def _sched(self, direction: str) -> None:
        us = self.vm.kernel.on_schedule(TRACKED_PID, direction)
        self.t += us
        self.sched_events += 1
        if self.tech == "epml" and direction == "out":
            # an embedded leftover drain is a softirq-style copy
            drain_us = us - self.c.sched_us("epml", "out")
            if drain_us > 0:
                self.suspension += drain_us
                self.softirqs += 1
            self._consume_tool_ring()

    def _collect(self, gvas) -> None:
        self.collected.update(map(PAGE_SIZE.__rfloordiv__, gvas))

    def _consume_tool_ring(self) -> None:
        if self.vm.kernel.uio and self.vm.kernel.uio.technique == "epml":
            self._collect(self.vm.kernel.epml_consume_ring())

    def _deliver_leftover(self) -> float:
        """Copy the guest buffer's leftover entries out in one softirq; return its µs."""
        if not self.vm.hv.pml.guest_buffer.entries:
            return 0.0
        _, us = self.vm.kernel.deliver_guest_buffer_full(TRACKED_PID)
        self.suspension += us
        self.softirqs += 1
        return us

    def _drain(self) -> float:
        pre, defer = self.collect_us, self.cfg.defer_reverse_map
        batch = None if defer else self.c.drain_batch
        res = drain_ring(self.vm, batch=batch, defer_reverse_map=defer)
        self._collect(res.gvas)
        self.raw_entries.extend(res.raw)
        self.inaccurate.update(res.inaccurate)
        self.tracker_busy += res.total_us
        self.collect_us += res.total_us
        self.parts["reverse_mapping_us"] += res.rm_us
        self.parts["copy_us"] += res.copy_us
        return self.collect_us - pre  # as the collection clock rounds it

    def _reverse_map_deferred(self) -> float:
        if not self.raw_entries:
            return 0.0
        res = reverse_map_raw(self.vm, self.raw_entries)
        self._collect(res.gvas)
        self.inaccurate.update(res.inaccurate)
        return res.rm_us

    # ----- the driver loop -------------------------------------------------

    def _drive(self, ops=None) -> None:
        """Execute ``ops`` until they run out, the horizon passes or a stall truncates.

        ``ops`` None is one round of the micro-benchmark: a write to each
        page of the sweep, in order.  There a stretch of quiet writes
        (:meth:`~oohsim.vm.VirtualMachine.quiet_run`) is applied in one step;
        a write a stretch cannot take goes through ``write_one``, as every
        trace write does.  A write's cost is ``w``, then the soft-dirty fault
        for ``proc``, then the uffd fault for a recorded fault
        (``_write_us``); the class docstring lists the event exits.
        """
        if ops is None:
            sweep, (walls, runs, recorded) = self._sweep, self._byte_us
            it = iter(zip(repeat("write"), self.gvas))
        else:
            sweep, it = None, iter(ops)
        horizon = self.cfg.horizon_us
        if self.t >= horizon:
            self._stop(it)
            return
        quantum = self.cfg.quantum_us
        w, uffd_fault = self.c.write, self.c.uffd_fault
        write_us = self._write_us
        vm, pid = self.vm, TRACKED_PID
        write_one, apply_op = vm.write_one, vm.apply_op
        quiet_run, write_run = vm.quiet_run, vm.write_run
        oracle_add = self.oracle.add
        first = self.writes_done  # every sweep write completes
        t, run_acc, writes_done = self.t, self.run_acc, self.writes_done
        suspension, busy = self.suspension, self.tracker_busy
        limit = min(self.next_tick, horizon)
        for op in it:
            if op[0] != "write":
                self.t, self.run_acc, self.writes_done = t, run_acc, writes_done
                self.suspension, self.tracker_busy = suspension, busy
                apply_op(pid, op)
                continue
            gva = op[1]
            bits = b""
            if sweep is not None and t < limit and run_acc < quantum:
                # peek at enough writes to reach the tick or the quantum at ``w`` each;
                # a round can start past the tick (proc's pagemap walk is not ticked),
                # and then its first write ends the stretch alone, by ``write_one``
                left = len(sweep) - (writes_done - first)
                n = min(left, int((limit - t) / w) + 2, int((quantum - run_acc) / w) + 2)
                bits = quiet_run(pid, gva, n)
            if bits:
                # dearer writes (uffd's) reach the tick sooner: clock no more of them
                bits = bits[: int((limit - t) / walls[bits[0]]) + 2]
                # the stretch ends with the first write whose clock reaches the
                # limit or whose run time reaches the quantum, if one does
                ts = list(accumulate(map(walls.__getitem__, bits), initial=t))
                rs = list(accumulate(map(runs.__getitem__, bits), initial=run_acc))
                k = min(bisect_left(ts, limit, 1), bisect_left(rs, quantum, 1), len(bits))
                write_run(pid, gva, k)
                faults = bits[:k].translate(recorded).count(1)
                if faults:
                    suspension = reduce(add, repeat(uffd_fault, faults), suspension)
                    busy = reduce(add, repeat(uffd_fault, faults), busy)
                self.oracle.update(sweep[writes_done - first : writes_done - first + k])
                writes_done += k
                if k > 1:
                    next(islice(it, k - 2, None))  # the stretch's other writes
                t, run_acc = ts[k], rs[k]
                if t < limit and run_acc < quantum:
                    continue
                res, wall, run = None, walls[bits[k - 1]], runs[bits[k - 1]]
            else:
                res = write_one(pid, gva)
                outcome = res[0]
                wall, run = write_us[outcome.softdirty_fault + 2 * res.uffd_recorded]
                if res.uffd_recorded:
                    suspension += uffd_fault
                    busy += uffd_fault
                if outcome.fault is None:
                    writes_done += 1
                    oracle_add(gva // PAGE_SIZE)
                if res.vmexit is None and not res.softirq_copied and not res.softirq_us:
                    t += wall
                    run_acc += run
                    if t < limit and run_acc < quantum:
                        continue
                    res = None  # counted: only the quantum and tick checks remain
            self.t, self.run_acc, self.writes_done = t, run_acc, writes_done
            self.suspension, self.tracker_busy = suspension, busy
            self._event(res, wall, run)
            if self.truncated:
                return
            t, run_acc = self.t, self.run_acc
            suspension, busy = self.suspension, self.tracker_busy
            if t >= horizon:
                self._stop(it)
                return
            limit = min(self.next_tick, horizon)
        self.t, self.run_acc, self.writes_done = t, run_acc, writes_done
        self.suspension, self.tracker_busy = suspension, busy

    def _stop(self, it) -> None:
        """The horizon has passed: the run is truncated if an op is left undone."""
        for _op in it:
            self.truncated = True
            break

    def _event(self, res, wall: float, run: float) -> None:
        """Finish the accounting of a write that ended a quiet stretch.

        ``res`` is the write's result when it carried a vmexit, stall or
        softirq copy; its ``wall`` and ``run`` time are then not yet on the
        clock, and the device costs join ``wall`` first.  With ``res`` None
        the write is already counted.  Then the quantum check and the
        collection ticks due by now, in that order.
        """
        c = self.c
        if res is not None:
            if res.softirq_copied or res.softirq_us:
                wall += res.softirq_us
                self.suspension += res.softirq_us
                self.softirqs += 1
            if res.vmexit is not None and not res.stalled:
                wall += c.vmexit_service
                self.suspension += c.vmexit_service
                self.vmexits += 1
            self.t += wall
            self.run_acc += run
            if res.stalled:
                # the producer waits for collection ticks to make ring room
                hv, refused = self.vm.hv, res.refused
                if not self._stall(lambda: not hv.handle_pml_full_vmexit(refused=refused).stalled):
                    return
                self._vmexit()
        self._swap_and_tick()

    # ----- workload drivers ----------------------------------------------

    def _workload(self) -> None:
        if self.cfg.trace is None:
            super()._workload()
        else:
            self._drive(getattr(self.cfg.trace, "ops", self.cfg.trace))

    def _round(self) -> None:
        self._drive()

    def _round_end(self) -> None:
        if self.tech == "proc":
            dirty, read_us = self.vm.kernel.read_pagemap(TRACKED_PID)
            _, clear_us = self.vm.kernel.clear_soft_dirty(TRACKED_PID)
            self._collect(dirty)
            self._charge_walk(read_us, clear_us)
        elif self.tech == "epml":
            self.t += self._deliver_leftover()
            self._consume_tool_ring()

    def _harvest(self) -> None:
        kernel = self.vm.kernel
        if self.tech == "proc" and self.cfg.trace is not None:
            # traces have no per-round collection: harvest at the end
            dirty, read_us = kernel.read_pagemap(TRACKED_PID)
            self._collect(dirty)
            self._charge("walk_us", read_us)
        elif self.tech == "uffd":
            self._collect(kernel.uffd_harvest(TRACKED_PID))
        elif self.tech == "epml":
            self._deliver_leftover()  # conservatively still suspension, off the clock
            self._consume_tool_ring()
        else:
            super()._harvest()

    def _content(self) -> dict[str, Any]:
        uio = self.vm.kernel.uio
        self.dropped = self.vm.hv.dropped_total + (uio.ring_dropped if uio else 0)
        return {
            "dirty_set": set(map(PAGE_SIZE.__mul__, self.collected)),
            "missed": set(map(PAGE_SIZE.__mul__, self.oracle - self.collected)),
            "inaccurate": set(self.inaccurate),
        }


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def run_tracker(cfg: TrackerConfig) -> TrackerPhaseReport:
    """Run the configured tracker and report its phase costs.

    Traces always run mechanically; the micro-benchmark runs mechanically
    only when ``cfg.mechanical`` is set.  The default segment engine is
    faster but only approximates the mechanical one, which is the reference:
    they agree on the shapes the tests compare and disagree at 512 pages or
    fewer, at the horizon and with small rings (ROADMAP open item 2).
    """
    mechanical = cfg.mechanical or cfg.trace is not None
    return (_MechanicalRun if mechanical else _SegmentRun)(cfg).run()


def spml_bottleneck_breakdown(report: TrackerPhaseReport) -> dict[str, float]:
    """Fraction of collection time per component for the ring tracker."""
    if report.technique != "spml":
        raise WrongTechnique(f"breakdown is for 'spml', not {report.technique!r}")
    parts = report.collect_parts
    total = report.collect_time_us
    if total <= 0:
        return {
            "reverse_mapping_frac": 0.0,
            "walk_frac": 0.0,
            "copy_frac": 0.0,
            "other_frac": 1.0,
        }
    rm = parts.get("reverse_mapping_us", 0.0) / total
    walk = parts.get("walk_us", 0.0) / total
    copy = parts.get("copy_us", 0.0) / total
    other = max(0.0, 1.0 - rm - walk - copy)
    return {
        "reverse_mapping_frac": rm,
        "walk_frac": walk,
        "copy_frac": copy,
        "other_frac": other,
    }


def to_run_row(report: TrackerPhaseReport, checkpoint_ms: float = 0.0) -> RunRow:
    return RunRow(
        technique=report.technique,
        memory_bytes=report.memory_bytes,
        ideal_us=report.ideal_us,
        tracked_us=report.tracked_us,
        tracker_us=report.tracker_busy_us,
        overhead_tracked_pct=report.overhead_tracked_pct,
        overhead_tracker_pct=report.overhead_tracker_pct,
        init_us=report.init_time_us,
        collect_us=report.collect_time_us,
        suspension_us=report.tracked_suspension_total_us,
        n_sched_events=report.n_sched_events,
        vmexits=report.vmexits,
        missed=len(report.missed),
        dropped=report.dropped,
        checkpoint_ms=checkpoint_ms,
    )
