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
and keep the device state.  Only ``spml`` and ``epml`` runs schedule
collection ticks: ``proc`` collects at each round's end and ``uffd`` as each
fault is resolved, so their runs have none.  The mechanical engine
(:class:`_MechanicalRun`) executes every write through
:class:`~oohsim.vm.VirtualMachine`; it is the reference semantics, runs
every trace, and alone reports content-level results (the dirty set,
missed and inaccurate pages).  It applies whole stretches of quiet writes
in one step that leaves the clock and state of one write at a time, and
carries the logged entries as int64 arrays from the stretch to the report.
The segment engine,
the default for the micro-benchmark because it is fast at large sizes,
advances whole stretches of writes between events with closed-form
arithmetic, following the mechanical event order (buffer event during the
triggering write, then the quantum check, then collection ticks).  The two
agree on the shapes that ``tests/test_trackers.py`` compares (4 MB, three
rounds, default ring), but not everywhere: they disagree at 512 pages or fewer, at the horizon and
with small rings (the ROADMAP item on one engine).  Trust the mechanical
engine where they differ.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from operator import add
from typing import Any

import numpy as np

from .costs import MB, PAGE_SIZE, CostTable, Prices, overhead, pages_for
from .guest import TECHNIQUES
from .memory import LOST_GVA, GuestPageTable, _distinct, write_faults
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
    with a message that starts with the field's name.

    ``collection_interval_us`` spaces the collection ticks of ``spml`` (the
    collector drains the ring) and ``epml`` (the tool consumes its ring)
    only, and must be finite for them; ``proc`` and ``uffd`` runs schedule no
    tick, so it changes none of their results.
    """

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
    trace: Any | None = None  # a TraceWorkload; forces the mechanical engine

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
        if self.technique in ("spml", "epml") and self.collection_interval_us == math.inf:
            raise ValueError(f"collection_interval_us: must be finite for {self.technique}")
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

    @cached_property
    def prices(self) -> Prices:
        """The run's price list at its size, looked up at first use (change no
        field after it): a segment run and a CLI row's checkpoint model share it."""
        return self.cost_table().prices(self.memory_bytes)


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


@dataclass
class DrainResult:
    consumed: int = 0
    gvas: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    raw: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    lost: list[tuple[int, int]] = field(default_factory=list)
    inaccurate: list[tuple[int, int]] = field(default_factory=list)
    rm_us: float = 0.0
    copy_us: float = 0.0


def drain_ring(vm: VirtualMachine) -> DrainResult:
    """Take every entry off the ring, charge its copy, and keep its
    ``(gpa, meta_gva)`` row raw, for a deferred reverse mapping
    (:func:`reverse_map_raw`).  Logging was re-armed when the device flushed
    these entries, not here."""
    res, ring = DrainResult(), vm.hv.ring
    res.raw = np.concatenate([res.raw] + [rows for _pid, rows in ring.consume(ring.used)])
    res.consumed = len(res.raw)
    if res.consumed:
        res.copy_us = res.consumed * vm.kernel.uio.prices.m18_pp
    return res


def reverse_map_raw(vm: VirtualMachine, raw: np.ndarray) -> DrainResult:
    """Deferred reverse mapping of previously harvested raw addresses."""
    table = vm.kernel.processes[TRACKED_PID].table
    return reverse_map_pairs(table, raw, vm.kernel.uio.prices.m17_pp)


def reverse_map_pairs(table: GuestPageTable, pairs, rm_pp: float = 0.0) -> DrainResult:
    """Reverse-map logged ``(gpa, meta_gva)`` pairs, an ``(n, 2)`` array or a
    sequence of pairs, through a page table.

    The one GPA-to-GVA step: the one spml pays ``rm_pp`` per pair for and
    epml skips.  A GPA no GVA maps any more is lost; one that maps back to
    another GVA than the one written is inaccurate.  The batch is mapped and
    compared with the logged GVAs whole; only the pairs that differ are
    visited.  The mapped GVAs are ``gvas``, in order.
    """
    gpas, logged = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    gvas = table.reverse_map_many(gpas)
    res = DrainResult(consumed=len(gpas), gvas=gvas)
    if rm_pp:  # one addition per pair, in order, as a per-pair loop adds them
        res.rm_us = reduce(add, repeat(rm_pp, len(gpas)), 0.0)
    differ = (gvas != logged).nonzero()[0]
    if len(differ):
        for gpa, gva, meta in zip(*(a[differ].tolist() for a in (gpas, gvas, logged))):
            if gva == LOST_GVA:
                res.lost.append((gpa, meta))
            else:
                res.inaccurate.append((gva, meta))
        res.gvas = gvas[gvas != LOST_GVA]
    return res


def tracked_machine(cfg: TrackerConfig) -> tuple[VirtualMachine, range, float]:
    """The tracked machine, its pages and the µs its set-up cost; under ``proc`` the
    soft-dirty bits start clear, so allocation-time bits are not the workload's."""
    vm = VirtualMachine(
        ring_capacity=cfg.ring_capacity, ring_full_policy=cfg.ring_full_policy
    )
    vm.create_process(TRACKED_PID)
    gvas = vm.allocate(TRACKED_PID, cfg.pages)
    init_us = vm.kernel.register_tracked(TRACKED_PID, cfg.technique, cfg.prices)
    if cfg.technique == "proc":
        init_us += vm.kernel.clear_soft_dirty(TRACKED_PID)[1]
    return vm, gvas, init_us


# --------------------------------------------------------------------------
# the run skeleton shared by both engines
# --------------------------------------------------------------------------


class _Run:
    """One tracked run: the clock, the counters, the collection schedule and the report.

    Both engines advance time here in the same way.  Each supplies how it
    applies a round of writes (``_round``), ends a round (``_round_end``),
    switches the tracked process (``_sched``), prices an spml tick that
    drains ``k`` ring entries (``_drain_charge``; ``ring_used`` counts the
    entries left), hands over the epml tool ring (``_consume_tool_ring``),
    maps deferred ring entries (``_reverse_map_deferred``, returning its
    cost) and fills the report's content fields (``_content``).

    spml's ticks come back to back in a stall, the final harvest and the
    catch-up after an event: :meth:`_spml_ticks` runs each such run of the
    mechanical engine, and the segment engine's harvest, on local floats and
    a count of the ring, one tick's float operations at a time.  The
    segment round runs its own ticks inline (:meth:`_SegmentRun._round`).
    """

    #: whether an spml tick lasts as long as ``collect_us`` moved (the
    #: mechanical engine) rather than its charge (the segment engine)
    _drain_span_rounded = False

    def __init__(self, cfg: TrackerConfig, prices: Prices, init_us: float):
        self.cfg = cfg
        self.c = prices
        self.init_us = init_us
        self.tech = cfg.technique
        self.P = cfg.pages

        self.t = 0.0
        self.run_acc = 0.0
        # the next collection tick: proc and uffd runs have none
        self.next_tick = cfg.collection_interval_us if self.tech in ("spml", "epml") else math.inf
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
        # the most an spml tick drains, and by entries drained its
        # (charge, reverse-map µs, copy µs), priced once per count
        self.drain_batch: float = prices.drain_batch
        self._drain_us: dict[int, tuple[float, float, float]] = {}

    # ----- time -----------------------------------------------------------

    def _tick(self) -> None:
        """One epml collection tick: the tool consumes its ring."""
        self._consume_tool_ring()
        self.next_tick += self.cfg.collection_interval_us

    def _spml_ticks(self, until: str, room: int = 0) -> int:
        """Run spml collection ticks back to back; return how many ran.

        It serves the mechanical engine's stalls and catch-ups and both
        engines' final harvest; the segment round runs the same tick, with
        the same float operations, on its own locals.

        ``until`` is ``"due"`` (the ticks due by the clock), ``"room"`` (until
        the ring has ``room`` free entries; the clock waits for each tick, the
        wait is suspension, and the run is truncated if the horizon comes
        first) or ``"empty"`` (until the ring is empty; the clock follows
        the ticks).  A tick drains ``drain_batch`` entries, or what is left,
        at the charge the engine prices for that count, and the next lands on
        the first interval multiple after the drain, a whole interval on at
        least.
        """
        cfg = self.cfg
        interval, horizon, cap = cfg.collection_interval_us, cfg.horizon_us, cfg.ring_capacity
        batch, charges, rounded = self.drain_batch, self._drain_us, self._drain_span_rounded
        ceil = math.ceil
        parts = self.parts
        t, tick, used = self.t, self.next_tick, self.ring_used
        suspension, busy, collect = self.suspension, self.tracker_busy, self.collect_us
        rm_us, copy_us = parts["reverse_mapping_us"], parts["copy_us"]
        due, waits = until == "due", until == "room"
        if until == "empty":
            room = cap
        ticks = 0
        while t >= tick if due else cap - used < room:
            if tick > t:  # the clock waits for the tick
                if waits:
                    if tick >= horizon:
                        t = horizon
                        self.truncated = True
                        break
                    suspension += tick - t
                t = tick
            k = used if used < batch else batch  # min(batch, used)
            charge = charges.get(k)
            if charge is None:
                charge = charges[k] = self._drain_charge(k)
            cost, rm, copy = charge
            used -= k
            busy += cost
            pre, collect = collect, collect + cost
            rm_us += rm
            copy_us += copy
            # ticks land on interval multiples, a whole interval apart at least:
            # max(tick + interval, aligned), so a long drain skips some
            end = tick + (collect - pre if rounded else cost)
            aligned, tick = interval * ceil(end / interval), tick + interval
            if aligned > tick:
                tick = aligned
            ticks += 1
        self.t, self.next_tick, self.ring_used = t, tick, used
        self.suspension, self.tracker_busy, self.collect_us = suspension, busy, collect
        parts["reverse_mapping_us"], parts["copy_us"] = rm_us, copy_us
        return ticks

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
        if self.t < self.next_tick:
            return
        if self.tech == "spml":
            self._spml_ticks("due")
        else:
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

        spml ticks until its ring is empty, in one run of back-to-back ticks
        (:meth:`_spml_ticks`), maps the deferred entries and ends with one
        userspace page-table walk (M16).
        """
        if self.tech == "spml" and self.writes_done:
            self._spml_ticks("empty")
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
    small rings (the ROADMAP item on one engine); the mechanical engine is
    the reference.

    A round (:meth:`_round`) is one loop on local variables: the clock, the
    run time, ``suspension``, ``tracker_busy``, ``collect_us`` and its two
    ``parts``, the writes left (``writes_done`` follows from them at the
    end), the buffer, ring and tool-ring counts, the next tick, and the
    softirq, vmexit, schedule and drop counts.  Each step is a stretch of
    writes, cut at the buffer's 513th write, the quantum, the next tick or
    the round's end.  Every event the stretch ends in runs inline, in the
    mechanical order, with the float operations of the methods named here
    in their order:

    * an epml buffer copy (:meth:`_epml_copy`);
    * an spml buffer-full vmexit (:meth:`_Run._vmexit`): a flush, or the
      drop of what the ring has no room for; under ``stall`` with no room,
      first the ticks that make room, the clock waiting for each and the
      run truncated if the horizon comes first (:meth:`_Run._spml_ticks`
      until ``room``);
    * a quantum swap (:meth:`_sched` out and in), with epml's copy of a
      partly filled buffer and spml's forced flush;
    * the due ticks: spml's drains (:meth:`_Run._spml_ticks` while due) and
      epml's tool ring consumed (:meth:`_Run._tick`).

    The state goes back to ``self`` at the round's end or at truncation.

    A round's host time is one loop iteration per event: per stretch, and
    per flush, swap and tick the stretch ends in, a stall's ticks included.
    A stretch pays a division only for the bounds that can end it: while a
    buffer is armed (spml, epml) a stretch has at most 513 writes, so a
    quantum or tick gap longer than 514 writes costs one comparison.
    """

    def __init__(self, cfg: TrackerConfig):
        super().__init__(cfg, cfg.prices, cfg.prices.init_us(cfg.technique))
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

    def _drain_charge(self, k: int) -> tuple[float, float, float]:
        c = self.c
        if self.cfg.defer_reverse_map:
            cost = k * c.m18_pp
            return cost, 0.0, cost
        return k * (c.m18_pp + c.m17_pp), k * c.m17_pp, k * c.m18_pp

    def _consume_tool_ring(self) -> None:
        self.tool_ring = 0  # tool consumes its ring (set union, free)

    def _reverse_map_deferred(self) -> float:
        return self.writes_done * self.c.m17_pp  # every logged entry mapped

    def _round(self) -> None:
        """One sweep over every page, a stretch of writes at a time, on locals.

        A stretch ends at the buffer's 513th write, at the quantum, at the
        next tick or at the round's end.  One loop then runs the events it
        ended in, in the order the class docstring lists: spml's flush, once
        the ring has room for it, then the swap, then the due ticks.  The
        ticks a stall waits for and the due ticks share one tick body.
        """
        cfg, c, tech = self.cfg, self.c, self.tech
        spml, epml, uffd = tech == "spml", tech == "epml", tech == "uffd"
        logging = spml or epml
        w_run = c.write
        if tech == "proc":
            w_run += c.softdirty_fault  # every post-clear write microfaults
        w_wall = w_run + (c.uffd_fault if uffd else 0.0)
        uffd_fault, vmexit_us, copy_us = c.uffd_fault, c.vmexit_service, c.copy_us(512)
        sched_out, sched_in = c.sched_us(tech, "out"), c.sched_us(tech, "in")
        quantum, horizon, interval = cfg.quantum_us, cfg.horizon_us, cfg.collection_interval_us
        cap, stalls = cfg.ring_capacity, cfg.ring_full_policy == "stall"
        # a flush goes ahead at this ring count or below: under drop, always
        flush_at = cap - 512 if stalls else math.inf
        copy_at = cap - 512  # epml's tool ring takes a whole buffer at this count or below
        batch = self.drain_batch
        # a tick that drains a whole batch
        whole_cost, whole_rm, whole_copy = self._drain_charge(batch)
        swaps = quantum < math.inf  # an infinite quantum never ends: it bounds nothing
        # While a buffer is armed (spml, epml) a stretch has at most 513
        # writes, so a gap longer than fl(514 w) cannot end it and its
        # division is skipped: gap/w > fl(514 w)/w >= 514 (1 - 2**-53) > 513.5,
        # rounding is monotone and 513.5 is a float, so fl(gap/w) >= 513.5 and
        # its ceiling is 514 or more.  proc and uffd, with no buffer and no
        # tick, compute every quantum gap.
        far_run = 514 * w_run if logging else math.inf
        far_wall = 514 * w_wall  # a tick gap: spml and epml only
        ceil = math.ceil
        parts = self.parts
        t, run_acc, next_tick = self.t, self.run_acc, self.next_tick
        suspension, busy, collect = self.suspension, self.tracker_busy, self.collect_us
        rm_part, copy_part = parts["reverse_mapping_us"], parts["copy_us"]
        buf_fill, used, tool_ring = self.buf_fill, self.ring_used, self.tool_ring
        softirqs, dropped, vmexits, sched_events = (
            self.softirqs, self.dropped, self.vmexits, self.sched_events
        )
        truncated = flush = False
        left = self.P
        while left > 0:
            if t >= horizon:
                truncated = True
                break
            # min(left, n_event, max(1, n_quant), max(1, n_tick)), each
            # n_* the ceiling of max(0.0, gap) over a write's µs
            n = left
            if swaps:
                gap = quantum - run_acc
                if gap <= far_run:
                    k = ceil(gap / w_run) if gap > 0.0 else 0
                    if k < n:
                        n = k
            if logging:
                n_event = 513 - buf_fill
                if n_event < n:
                    n = n_event
                gap = next_tick - t
                if gap <= far_wall:
                    k = ceil(gap / w_wall) if gap > 0.0 else 0
                    if k < n:
                        n = k
            if n < 1:
                n = 1
            if uffd:
                t += n * w_wall
                run_acc += n * w_run
                suspension += n * uffd_fault
                busy += n * uffd_fault
            else:  # a write's wall price is its run price
                run = n * w_run
                t += run
                run_acc += run
            left -= n
            if logging:
                buf_fill += n
                if n == n_event:  # the 513th attempt was refused
                    if epml:  # copy the buffer out: _epml_copy(512)
                        if tool_ring <= copy_at:
                            tool_ring += 512
                        else:  # tool too slow: losses are counted, never silent
                            dropped += tool_ring - copy_at
                            tool_ring = cap
                        suspension += copy_us
                        softirqs += 1
                        t += copy_us
                        buf_fill = 1
                    else:  # a buffer-full vmexit, its flush below
                        buf_fill = 512
                        flush = True
            if not (flush or run_acc >= quantum or t >= next_tick):
                continue
            # the events the stretch ended in, in the mechanical order: spml's
            # flush (after the ticks that make room for it under a stall), the
            # quantum swap, then the due ticks
            swap = run_acc >= quantum
            while True:
                if flush:
                    if used <= flush_at:
                        # flush, or drop what the ring has no room for, then
                        # replay the refused entry: _vmexit
                        if stalls:
                            used += 512
                        else:
                            sent = min(512, max(0, cap - used))
                            used += sent
                            dropped += 512 - sent
                        t += vmexit_us
                        suspension += vmexit_us
                        vmexits += 1
                        buf_fill = 1
                        flush = False
                        continue
                    if next_tick > t:  # a stall: the clock waits for the tick
                        if next_tick >= horizon:
                            t = horizon
                            truncated = True
                            break
                        suspension += next_tick - t
                        t = next_tick
                else:
                    if swap:  # _sched("out"), _sched("in")
                        swap = False
                        cost = sched_out
                        if buf_fill:
                            if epml:  # the partial buffer's copy: _epml_copy(buf_fill)
                                copied, us = buf_fill, c.copy_us(buf_fill)
                                space = cap - tool_ring
                                if copied > space:
                                    dropped += copied - space
                                    copied = space
                                tool_ring += copied
                                suspension += us
                                softirqs += 1
                                cost += us
                            else:  # spml's coordination flush, forced
                                used += buf_fill
                            buf_fill = 0
                        t += cost
                        t += sched_in
                        sched_events += 2
                        run_acc -= quantum
                    if t < next_tick:
                        break
                    if epml:  # the tool consumes its ring
                        tool_ring = 0
                        next_tick += interval
                        continue
                # an spml tick drains drain_batch entries, or what is left, and
                # the next lands on the first interval multiple after the
                # drain, a whole interval on at least
                if used >= batch:
                    cost, rm, copy = whole_cost, whole_rm, whole_copy
                    used -= batch
                else:  # what is left
                    cost, rm, copy = self._drain_charge(used)
                    used = 0
                busy += cost
                collect += cost
                rm_part += rm
                copy_part += copy
                aligned = interval * ceil((next_tick + cost) / interval)
                next_tick += interval
                if aligned > next_tick:
                    next_tick = aligned
            if truncated:
                break
        self.t, self.run_acc, self.next_tick, self.truncated = t, run_acc, next_tick, truncated
        self.suspension, self.tracker_busy, self.collect_us = suspension, busy, collect
        parts["reverse_mapping_us"], parts["copy_us"] = rm_part, copy_part
        self.writes_done += self.P - left
        self.buf_fill, self.ring_used, self.tool_ring = buf_fill, used, tool_ring
        self.softirqs, self.dropped, self.vmexits, self.sched_events = (
            softirqs, dropped, vmexits, sched_events
        )

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

# by a page-table page's state byte: the index of its write's faults in
# ``_MechanicalRun._write_us``, and 1 where the write takes a uffd fault
_FAULTS = np.array([sd + 2 * wp for sd, wp in map(write_faults, range(256))])
_UFFD_FAULTS = bytes(wp for _sd, wp in map(write_faults, range(256)))

#: The fewest writes a stretch peeks at; below it each write goes through
#: ``write_one``.  A stretch of 16 to 64 pages in any order, peeked, clocked
#: and applied, costs about 55 µs of NumPy calls against 1.8-3 µs per
#: ``write_one`` (2-vCPU x86 host, CPython 3.11, NumPy 2.4.6).  As a stretch
#: reaches across maps and unmaps, churn-ckpt's 400 trace runs make no
#: ``write_one`` call at 16, 32 or 64; their host time (medians of five:
#: 0.27, 0.24 and 0.27 s) and kv-sparse's (0.075, 0.074 and 0.076 s, with
#: 125, 195 and 340 calls) do not differ beyond the host's noise, and 64
#: sends more sweep writes through ``write_one`` (16 MB sweeps: spml 245
#: against 167, epml 80 against 0), where a nearly full log buffer's few free
#: slots, or a tick due soon, bound the peek.
STRETCH_MIN = 32


def _sums(start: float, us, n: int) -> np.ndarray:
    """The running sums from ``start`` over ``n`` terms: ``n`` µs values, or one
    value ``n`` times.  Element 0 is ``start``; element ``i`` has ``i`` terms.

    :func:`numpy.cumsum` adds one term at a time, left to right, so each sum
    is the float that adding the terms one by one in Python gives
    (``tests/test_trackers.py`` holds NumPy to that order).
    """
    out = np.empty(n + 1)
    out[0] = start
    out[1:] = us
    return out.cumsum(out=out)


def _merged(arrays: list[np.ndarray]) -> np.ndarray:
    """The distinct values of ``arrays``, sorted.

    One array that is sorted and distinct already (a kernel's page numbers,
    a round end's merge, a sweep's writes) is returned as it is: checking
    its order costs a small part of a sort.  Arrays that are each in order
    (a round end's union and the round's pages) are merged by timsort
    (``kind="stable"``), which takes them as runs: two runs merge in linear
    time.  Arrays out of order get NumPy's default sort, which is faster
    there: spml's drained rows can span rounds.  Two equal arrays (a sweep
    round's pages and the union of the rounds before) are taken as one:
    comparing them costs less than merging them."""
    if len(arrays) == 2 and np.array_equal(*arrays):
        arrays = arrays[:1]
    if len(arrays) == 1:
        (values,) = arrays
        if not (values[1:] <= values[:-1]).any():
            return values
    in_order = all(not (a[1:] < a[:-1]).any() for a in arrays)
    return _distinct(np.concatenate(arrays), "stable" if in_order else None)


class _MechanicalRun(_Run):
    """Every write executed through the machine: the reference engine.

    :meth:`_drive` is the one loop over writes, for traces and for the
    micro-benchmark's rounds alike.  It keeps ``t``, ``run_acc``,
    ``writes_done`` and the uffd fault charges (``suspension``,
    ``tracker_busy``) in locals while writes are quiet, and stores them
    back only at an event exit:

    * a write whose result carries a vmexit, a stall or a softirq copy
      (but the whole guest-buffer copies a stretch takes);
    * ``run_acc`` reaching the quantum;
    * the clock reaching the horizon or the next collection tick (only
      ``spml`` and ``epml`` runs have ticks).

    :meth:`_event` then adds the device costs of a write that carries them
    and waits out a stall; every exit swaps the quantum and runs the due
    ticks (:meth:`_swap_and_tick`), with the same float operations in the
    same order as a write-by-write accounting.  Past the horizon the run is
    truncated if an op is left undone; a round whose last write crosses it
    still counts.

    A *stretch* of quiet writes takes one step, in a micro-benchmark round
    (writes to consecutive pages) and in a trace's *window* (pages in any
    order, some written more than once) alike.  A window
    (:attr:`~oohsim.workloads.TraceWorkload.decoded`) holds no remap, and
    its maps and unmaps commute with the writes to other pages: a map names
    a fresh frame, which no log entry holds, and no write to its page comes
    before it; an unmap leaves its page's byte as the page's writes left it,
    and none comes after it.  So a stretch reaches across them: the maps go
    before it and the unmaps after it, before its event exit.  No event
    exit reads what differs from trace order: a page mapped ahead that no
    write or log entry has reached, or the dirty bit of a frame an epml copy
    re-arms after its page's unmap, which no write reaches again.
    The machine peeks once (:meth:`~oohsim.vm.VirtualMachine.quiet_run`):
    the stretch it returns holds the page byte each of the next quiet writes
    finds, a page written again finding the byte its first write left, and
    where both tables keep each page; two 256-entry arrays built from the
    price list turn each byte into that write's wall and run µs
    (:func:`numpy.take`).  A :func:`numpy.cumsum` seeded with the clock, and
    one seeded with the run time, add them one write at a time, as the
    per-write loop adds them (:func:`_sums`), and
    :meth:`numpy.ndarray.searchsorted` finds the first write that reaches the
    limit (the next tick or the horizon, whichever comes first) or the
    quantum; the stretch's uffd faults are a prefix sum of the fault price.  The
    machine applies the writes up to and including it from what the peek
    found (:meth:`~oohsim.vm.VirtualMachine.write_run`), and that write's
    event exit is the per-write loop's.  An epml stretch runs through each
    guest-buffer fill whose copy the tool ring takes whole: the filling
    write's term in the clock's sum is its wall µs plus the copy's
    (``copy_us`` of the 512 entries), and each copy adds the same to
    ``suspension`` and one softirq, in order, as the write's event would.
    The state, the counters and every float are those of write-by-write
    stepping; a write that finds spml's buffer full, or epml's with no whole
    copy left in the tool ring, still goes through ``write_one``, as does
    every write of a stretch shorter than :data:`STRETCH_MIN`.

    spml's ticks (:meth:`_Run._spml_ticks`) charge their batches at once
    but leave the entries on the ring, owed, until something reads the
    ring: :meth:`_settle` takes them off in one step at the end of the
    ticks of an event exit, before a stall's one flush and before the
    parked pairs or the deferred entries are mapped.  The drained
    ``(gpa, gva)`` rows wait in ``drained``, as the ring's int64 arrays in
    drain order.  A deferred run maps them at the report; any other
    reverse-maps them together as parked pairs (:meth:`_map_parked`) before
    each map, unmap or remap op, before a stretch passes one, once a ring's
    worth has parked and before the report: they map as they did when
    drained, as no other step changes a mapping; a pair drained again in the
    same epoch maps again, at no charge.

    ``oracle`` is a boolean mask over the writes of the run's decode (a
    trace's, or a sweep round's), True where a write completed, and
    ``collected`` a list of int64 arrays of the page numbers reported, which
    each sweep round's end merges into one sorted, distinct array;
    :meth:`_content` merges it once more and turns the pages into
    addresses, so a trace must name its pages by page-aligned addresses
    (:attr:`~oohsim.workloads.TraceWorkload.decoded` rejects any other).
    """

    _drain_span_rounded = True  # as the collection clock rounds it

    def __init__(self, cfg: TrackerConfig):
        self.vm, self.gvas, init_us = tracked_machine(cfg)
        super().__init__(cfg, self.vm.kernel.uio.prices, init_us)
        writes = len(cfg.trace.decoded[0]) if cfg.trace is not None else cfg.pages
        self.oracle = np.zeros(writes, dtype=bool)  # by write of the decode: it completed
        self.collected: list[np.ndarray] = []  # page numbers reported
        self.inaccurate: set[tuple[int, int]] = set()
        # spml's drained (gpa, gva) rows, charged but not yet mapped, and their count
        self.drained: list[np.ndarray] = []
        self._drained_rows = 0
        # ring entries charged by spml's ticks but not yet taken off the ring
        self._owed = 0
        if cfg.defer_reverse_map:
            self.drain_batch = math.inf  # a deferred tick takes the whole ring

    @property
    def ring_used(self) -> int:
        return self.vm.hv.ring.used - self._owed

    @ring_used.setter
    def ring_used(self, used: int) -> None:
        self._owed = self.vm.hv.ring.used - used

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
    def _byte_us(self) -> tuple[np.ndarray, np.ndarray]:
        """By a page-table page's state byte: its write's wall µs and run µs."""
        walls, runs = map(np.array, zip(*self._write_us))
        return walls[_FAULTS], runs[_FAULTS]

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

    def _collect(self, gvas: np.ndarray) -> None:
        """Add the pages logged by address (spml, epml); the kernel's arrays (proc,
        uffd) are page numbers already and go straight to ``collected``."""
        self.collected.append(gvas // PAGE_SIZE)

    def _consume_tool_ring(self) -> None:
        self._collect(self.vm.kernel.epml_consume_ring())

    def _deliver_leftover(self) -> float:
        """Copy the guest buffer's leftover entries out in one softirq; return its µs."""
        if not self.vm.hv.pml.guest_buffer.used:
            return 0.0
        _, us = self.vm.kernel.deliver_guest_buffer_full(TRACKED_PID)
        self.suspension += us
        self.softirqs += 1
        return us

    def _drain_charge(self, k: int) -> tuple[float, float, float]:
        """The charge of a tick that drains ``k`` entries: each one's copy and,
        unless deferred, its reverse mapping, one addition per entry, as
        :func:`reverse_map_pairs` adds them; the entries stay on the ring,
        owed, for :meth:`_settle`."""
        rm_us = 0.0 if self.cfg.defer_reverse_map else reduce(add, repeat(self.c.m17_pp, k), 0.0)
        copy_us = k * self.c.m18_pp
        return rm_us + copy_us, rm_us, copy_us

    def _settle(self) -> None:
        """Take the owed entries off the ring and keep their rows in ``drained``,
        in drain order.  Unless the mapping is deferred, a ring's worth of rows
        is mapped at once, so the rows held stay bounded.  Every block carries
        the one tracked process's pid (``hv.current_pid`` from the run's first
        schedule-in on)."""
        if self._owed:
            blocks, self._owed = self.vm.hv.ring.consume(self._owed), 0
            for _pid, pairs in blocks:
                self.drained.append(pairs)
                self._drained_rows += len(pairs)
            if self._drained_rows >= self.cfg.ring_capacity:
                self._map_parked()

    def _swap_and_tick(self) -> None:
        super()._swap_and_tick()
        self._settle()

    def _map_parked(self) -> None:
        """Map the drained pairs against the mappings they were drained under,
        unless the mapping is deferred to the report."""
        self._settle()
        if self.drained and not self.cfg.defer_reverse_map:
            table = self.vm.kernel.processes[TRACKED_PID].table
            res = reverse_map_pairs(table, np.concatenate(self.drained))
            self.drained.clear()
            self._drained_rows = 0
            self._collect(res.gvas)
            self.inaccurate.update(res.inaccurate)

    def _reverse_map_deferred(self) -> float:
        self._settle()
        if not self.drained:
            return 0.0
        res = reverse_map_raw(self.vm, np.concatenate(self.drained))
        self._collect(res.gvas)
        self.inaccurate.update(res.inaccurate)
        return res.rm_us

    # ----- the driver loop -------------------------------------------------

    def _drive(self, decoded=None) -> None:
        """Execute ops until they run out, the horizon passes or a stall truncates.

        ``decoded`` is the trace's :attr:`~oohsim.workloads.TraceWorkload.decoded`;
        None is one round of the micro-benchmark: a write to each page of the
        sweep, in order, in one window.  Stretches, event exits and the
        mapping of parked pairs are as the class docstring says.  The other
        ops reach :meth:`~oohsim.vm.VirtualMachine.apply_ops` in three lists:
        the window's maps ahead of a stretch, the unmaps a stretch passed,
        and the ops between two writes (or after the last); a map applied
        ahead of a stretch is not applied again where it sits.  The
        peek reaches the limit (the next tick or the horizon, whichever comes
        first) or the quantum at the cheapest write price, or takes the rest
        of the window's writes where both are infinite, and, while a log
        buffer is armed, 1.5 writes per dirty transition the stretch may log:
        a stretch ends before the transition it has no slot for, so more
        would be thrown away.  A sweep may log through every whole
        guest-buffer copy the tool ring takes
        (:meth:`~oohsim.vm.VirtualMachine.log_room`); a trace's stretch ends
        soon after a copy, at its first write to a page the copy re-armed,
        so it counts the free slots only.  A write's cost is ``w``, then the
        soft-dirty fault for ``proc``, then the uffd fault for a recorded
        fault (``_write_us``), and a filling write's also its copy.
        """
        one_round = self.gvas, self.gvas, (), (), (len(self.gvas),)  # one window, no other op
        gvas, batch, at, others, stops = decoded or one_round
        total, n_others = len(gvas), len(others)
        horizon = self.cfg.horizon_us
        if self.t >= horizon:
            if total or n_others:  # an op is left undone
                self.truncated = True
            return
        quantum = self.cfg.quantum_us
        w, uffd_fault = self.c.write, self.c.uffd_fault
        write_us = self._write_us
        vm, pid = self.vm, TRACKED_PID
        write_one, apply_ops = vm.write_one, vm.apply_ops
        quiet_run, write_run = vm.quiet_run, vm.write_run
        log_room, free_slots, sweep = vm.log_room, vm.hv.pml.free_slots, decoded is None
        softirq_us = self.c.copy_us(BUFFER_SLOTS)  # a whole guest buffer's copy
        stretch_min = STRETCH_MIN
        written = self.oracle
        t, run_acc, writes_done = self.t, self.run_acc, self.writes_done
        suspension, busy = self.suspension, self.tracker_busy
        limit = min(self.next_tick, horizon)
        # ``pos`` counts the writes done, ``nxt`` the other ops; the maps among
        # ``others[:mapped]`` are applied, ahead of a stretch that reached past them
        pos = nxt = mapped = stop = 0
        blocked = False
        while True:
            end = at[nxt] if nxt < n_others else total  # the writes before the next other op
            while pos < end:
                stretch = None
                if pos >= stop:
                    stop = stops[bisect_right(stops, pos)]  # the end of pos's window
                if not blocked and stop - pos >= stretch_min and t < limit and run_acc < quantum:
                    # peek at enough writes to reach the limit or the quantum at ``w``
                    # each, or at the writes left in the window where either is
                    # infinite; a round can start past the tick (epml's round-end
                    # leftover delivery moves the clock without a tick), and then
                    # its first write goes through write_one
                    left = stop - pos
                    n = min(
                        left,
                        int(min((limit - t) / w, left)) + 2,
                        int(min((quantum - run_acc) / w, left)) + 2,
                    )
                    # a sweep never rewrites a page a copy re-armed, so it peeks
                    # through every whole copy (dense-sweep's epml pass: 65
                    # stretches, against 149 that stop at each); a trace's stretch
                    # soon ends at such a rewrite, so it counts the free slots only
                    # (through copies, kv-sparse's epml run peeks 65% more addresses)
                    free = log_room(pid) if sweep else free_slots()
                    if free is not None:
                        # of 1, 1.25, 1.5, 2, 3 and 4 writes a slot, 1.5 peeked least
                        # without adding stretches: kv-sparse peeks 63,195 addresses
                        # in 118 stretches, against 90,790 in 120 with no bound
                        n = min(n, free + free // 2 + 1)
                    if n >= stretch_min:
                        if end < pos + n:
                            # the window's maps before the last peeked write go first,
                            # its unmaps after the last applied one
                            self._map_parked()
                            first = mapped = max(mapped, nxt)
                            while mapped < n_others and at[mapped] < pos + n:
                                mapped += 1
                            apply_ops(pid, [op for op in others[first:mapped] if op[0] == "map"])
                        stretch = quiet_run(pid, batch[pos : pos + n], n)
                blocked = False
                if stretch:
                    bits, (walls, runs) = stretch.bits, self._byte_us
                    quiet = len(bits)
                    codes = np.frombuffer(bits, np.uint8)
                    wall_us = walls.take(codes)
                    if stretch.fills:
                        wall_us[stretch.fills] += softirq_us  # a filling write waits for its copy
                    ts = _sums(t, wall_us, quiet)
                    rs = _sums(run_acc, runs.take(codes), quiet)
                    # the stretch ends with the first write whose clock reaches the
                    # limit or whose run time reaches the quantum, if one does
                    k = min(int(ts.searchsorted(limit)), int(rs.searchsorted(quantum)), quiet)
                    copies = write_run(pid, stretch, k)
                    if copies:
                        suspension = float(_sums(suspension, softirq_us, copies)[-1])
                        self.softirqs += copies
                    faults = bits[:k].translate(_UFFD_FAULTS).count(1)
                    if faults:
                        suspension = float(_sums(suspension, uffd_fault, faults)[-1])
                        busy = float(_sums(busy, uffd_fault, faults)[-1])
                    written[pos : pos + k] = True
                    pos += k
                    writes_done += k
                    t, run_acc = float(ts[k]), float(rs[k])
                    if end < pos:  # the ops the stretch passed: unmaps, and maps done
                        first = nxt
                        while end < pos:
                            nxt += 1
                            end = at[nxt] if nxt < n_others else total
                        apply_ops(pid, [op for op in others[first:nxt] if op[0] != "map"])
                    if t < limit and run_acc < quantum:
                        # a stretch shorter than its peek stopped before a write
                        # that is no quiet one: that write goes through write_one
                        blocked = k == quiet < n
                        continue
                    res = None
                else:
                    res = write_one(pid, gvas[pos])
                    outcome = res[0]
                    wall, run = write_us[outcome.softdirty_fault + 2 * res.uffd_recorded]
                    if res.uffd_recorded:
                        suspension += uffd_fault
                        busy += uffd_fault
                    if outcome.fault is None:
                        writes_done += 1
                        written[pos] = True
                    pos += 1
                    if res.vmexit is None and not res.softirq_copied and not res.softirq_us:
                        t += wall
                        run_acc += run
                        if t < limit and run_acc < quantum:
                            continue
                        res = None
                self.t, self.run_acc, self.writes_done = t, run_acc, writes_done
                self.suspension, self.tracker_busy = suspension, busy
                if res is None:  # counted: only the quantum and tick checks remain
                    self._swap_and_tick()
                else:
                    self._event(res, wall, run)
                if self.truncated:
                    return
                t, run_acc = self.t, self.run_acc
                suspension, busy = self.suspension, self.tracker_busy
                if t >= horizon:
                    if pos < total or nxt < n_others:  # an op is left undone
                        self.truncated = True
                    return
                limit = min(self.next_tick, horizon)
            if nxt == n_others:
                break
            self._map_parked()  # the ops may change the mappings
            first = nxt
            while nxt < n_others and at[nxt] == pos:  # the ops before the next write
                nxt += 1
            ops = enumerate(others[first:nxt], first)
            apply_ops(pid, [op for k, op in ops if k >= mapped or op[0] != "map"])
        self.t, self.run_acc, self.writes_done = t, run_acc, writes_done
        self.suspension, self.tracker_busy = suspension, busy

    def _event(self, res, wall: float, run: float) -> None:
        """Finish the accounting of a write whose result ``res`` carries a vmexit,
        stall or softirq copy.

        Its ``wall`` and ``run`` time are not yet on the clock, and the device
        costs join ``wall`` first.  Then the quantum check and the collection
        ticks due by now, in that order.
        """
        c = self.c
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
            # the producer waits for collection ticks to make ring room; the
            # retry after each tick but the last finds no room and stalls again,
            # so it is only counted
            hv = self.vm.hv
            ticks = self._spml_ticks("room", len(hv.pml.hv_buffer.entries))
            hv.vmexit_stalls += ticks if self.truncated else ticks - 1
            if self.truncated:
                return
            self._settle()
            hv.handle_pml_full_vmexit(refused=res.refused)
            self._vmexit()
        self._swap_and_tick()

    # ----- workload drivers ----------------------------------------------

    def _workload(self) -> None:
        if self.cfg.trace is None:
            super()._workload()
        else:
            self._drive(self.cfg.trace.decoded)

    def _round(self) -> None:
        self._drive()

    def _round_end(self) -> None:
        if self.tech == "proc":
            dirty, read_us = self.vm.kernel.read_pagemap(TRACKED_PID)
            _, clear_us = self.vm.kernel.clear_soft_dirty(TRACKED_PID)
            self.collected.append(dirty)
            self._charge_walk(read_us, clear_us)
        elif self.tech == "epml":
            self.t += self._deliver_leftover()
            self._consume_tool_ring()
        if self.collected:
            self.collected[:] = [_merged(self.collected)]

    def _harvest(self) -> None:
        kernel = self.vm.kernel
        if self.tech == "proc" and self.cfg.trace is not None:
            # traces have no per-round collection: harvest at the end
            dirty, read_us = kernel.read_pagemap(TRACKED_PID)
            self.collected.append(dirty)
            self._charge("walk_us", read_us)
        elif self.tech == "uffd":
            self.collected.append(kernel.uffd_harvest(TRACKED_PID))
        elif self.tech == "epml":
            self._deliver_leftover()  # conservatively still suspension, off the clock
            self._consume_tool_ring()
        else:
            super()._harvest()

    def _content(self) -> dict[str, Any]:
        self._map_parked()
        uio = self.vm.kernel.uio
        self.dropped = self.vm.hv.dropped_total + (uio.ring_dropped if uio else 0)
        if self.cfg.trace is not None:
            writes = self.cfg.trace.decoded[1]
        else:  # the sweep's range, without a Python int per page
            writes = np.arange(self.gvas.start, self.gvas.stop, self.gvas.step)
        written = _merged([writes[self.oracle] // PAGE_SIZE])
        collected = _merged(self.collected) if self.collected else written[:0]
        if len(collected):  # the written pages that were not collected
            found = collected[collected.searchsorted(written).clip(max=len(collected) - 1)]
            written = written[found != written]
        return {
            "dirty_set": set((collected * PAGE_SIZE).tolist()),
            "missed": set((written * PAGE_SIZE).tolist()),
            "inaccurate": self.inaccurate,
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
    fewer, at the horizon and with small rings (the ROADMAP item on one
    engine).
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
