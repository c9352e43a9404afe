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

Two engines run the micro-benchmark.  The mechanical engine executes every
write through :class:`~oohsim.vm.VirtualMachine`; it is the reference
semantics, runs every trace, and alone reports content-level results (the
dirty set, missed and inaccurate pages).  The segment engine, the default
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
from dataclasses import dataclass, field
from typing import Any

from .costs import CostTable, overhead
from .guest import TECHNIQUES, SchedulerConfig
from .memory import LOST
from .pml import BUFFER_SLOTS
from .reports import RunRow
from .vm import VirtualMachine

__all__ = [
    "WrongTechnique",
    "TrackerConfig",
    "TrackerPhaseReport",
    "DrainResult",
    "drain_ring",
    "run_tracker",
    "spml_bottleneck_breakdown",
    "to_run_row",
]

MB = 1 << 20
PAGE = 0x1000
TRACKED_PID = 1


class WrongTechnique(RuntimeError):
    """Operation applies to a different tracking technique."""


@dataclass
class TrackerConfig:
    technique: str
    memory_bytes: int = 100 * MB
    rounds: int = 13
    quantum_us: float = 10_000.0
    collection_interval_us: float = 1_000.0
    ring_capacity: int = 16384
    ring_full_policy: str = "stall"
    competitors: int = 0
    horizon_us: float = 60_000_000.0
    seed: int = 0
    defer_reverse_map: bool = False
    mechanical: bool = False
    table: CostTable | None = None
    trace: Any | None = None  # object with .ops; forces the mechanical engine

    def __post_init__(self) -> None:
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {self.technique!r}")
        if self.rounds < 0 or self.memory_bytes <= 0:
            raise ValueError("rounds must be >= 0 and memory_bytes positive")
        if self.quantum_us <= 0 or self.collection_interval_us <= 0:
            raise ValueError("quantum and collection interval must be positive")
        if (
            self.technique == "spml"
            and self.ring_full_policy == "stall"
            and self.ring_capacity < BUFFER_SLOTS
        ):
            raise ValueError(
                f"ring_capacity {self.ring_capacity} is below the {BUFFER_SLOTS}-entry "
                "PML buffer: an spml flush could never fit under 'stall'"
            )

    @property
    def pages(self) -> int:
        return max(1, -(-self.memory_bytes // 4096))

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
    memory_bytes: int,
    *,
    batch: int | None = None,
    defer_reverse_map: bool = False,
) -> DrainResult:
    """Consume ring entries: copy out, then reverse-map unless deferred.

    Per entry: one ring-copy charge; one reverse-mapping charge when mapping
    immediately.  Addresses whose reverse mapping is gone are reported lost;
    aliased pages that resolve to a different virtual address than the one
    actually written are reported inaccurate.  (Logging was re-armed when
    the device flushed these entries, not here.)
    """
    table = vm.costs
    n = batch if batch is not None else vm.hv.ring.used
    entries = vm.hv.ring.consume(n)
    res = DrainResult(consumed=len(entries))
    if not entries:
        return res
    copy_pp = table.per_page_us("M18", memory_bytes)
    rm_pp = table.per_page_us("M17", memory_bytes)
    res.copy_us = len(entries) * copy_pp
    for pid, gpa, meta_gva in entries:
        if defer_reverse_map:
            res.raw.append((gpa, meta_gva))
            continue
        res.rm_us += rm_pp
        proc = vm.kernel.processes.get(pid)
        gva = proc.table.reverse_map(gpa) if proc is not None else LOST
        if gva is LOST:
            res.lost.append((gpa, meta_gva))
        else:
            if gva != meta_gva:
                res.inaccurate.append((gva, meta_gva))
            res.gvas.append(gva)
    return res


def reverse_map_raw(
    vm: VirtualMachine, raw: list[tuple[int, int]], memory_bytes: int
) -> DrainResult:
    """Deferred reverse mapping of previously harvested raw addresses."""
    table = vm.costs
    res = DrainResult(consumed=len(raw))
    rm_pp = table.per_page_us("M17", memory_bytes)
    proc = vm.kernel.processes[TRACKED_PID]
    for gpa, meta_gva in raw:
        res.rm_us += rm_pp
        gva = proc.table.reverse_map(gpa)
        if gva is LOST:
            res.lost.append((gpa, meta_gva))
        else:
            if gva != meta_gva:
                res.inaccurate.append((gva, meta_gva))
            res.gvas.append(gva)
    return res


# --------------------------------------------------------------------------
# cost bundle shared by both engines
# --------------------------------------------------------------------------


class _Costs:
    def __init__(self, cfg: TrackerConfig):
        t = cfg.cost_table()
        size = cfg.memory_bytes
        self.w = t.param("write_cost_us")
        self.softdirty_fault = t.per_page_us("M5", size)
        self.uffd_fault = t.per_page_us("M5", size) + t.per_page_us("M6", size)
        self.m17_pp = t.per_page_us("M17", size)
        self.m18_pp = t.per_page_us("M18", size)
        self.m15 = t.cost_us("M15", size)
        self.m16 = t.cost_us("M16", size)
        self.m13 = t.cost_us("M13")
        self.m14 = t.cost_us("M14", size)
        self.m7 = t.cost_us("M7")
        self.m8 = t.cost_us("M8")
        self.m1 = t.cost_us("M1")
        self.c_ve = self.m14 + 512 * t.param("vmexit_ept_clear_us")
        self.drain_batch = int(t.param("spml_drain_batch"))
        # proc starts with one bit-clear so that tracking begins from a
        # clean slate (otherwise allocation-time bits pollute round one)
        self.init_us = {
            "proc": self.m1 + self.m15,
            "uffd": self.m1,
            "spml": t.cost_us("M9"),
            "epml": t.cost_us("M10"),
        }[cfg.technique]

    def sched_cost(self, technique: str, direction: str) -> float:
        if technique == "spml":
            return self.m13 if direction == "in" else self.m14
        if technique == "epml":
            return 2 * self.m8 if direction == "in" else self.m7 + self.m8
        return 0.0


def _next_tick_after(busy_end: float, prev_tick: float, interval: float) -> float:
    """Collection ticks land on interval multiples; a long drain skips some."""
    candidate = prev_tick + interval
    aligned = interval * math.ceil(busy_end / interval)
    return max(candidate, aligned)


# --------------------------------------------------------------------------
# segment engine (closed-form stretches between events)
# --------------------------------------------------------------------------


class _SegmentRun:
    """Closed-form approximation of :class:`_MechanicalRun`'s micro-benchmark.

    It tracks buffer, ring and tool-ring occupancy as counts and jumps from
    one event to the next.  It assumes every write logs a fresh entry and
    does not clip a stretch at the horizon, so it departs from the
    mechanical engine at 512 pages or fewer, near the horizon and with
    small rings (ROADMAP open item 2); the mechanical engine is the
    reference.
    """

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.c = _Costs(cfg)
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

        # device-side occupancy
        self.buf_fill = 0  # hv buffer (spml) or guest buffer (epml)
        self.ring_used = 0  # spml hypervisor ring
        self.tool_ring = 0  # epml tool-side ring

    # ----- event helpers -----------------------------------------------

    def _horizon_hit(self) -> bool:
        if self.t >= self.cfg.horizon_us:
            self.truncated = True
            return True
        return False

    def _sched(self, direction: str) -> None:
        cost = self.c.sched_cost(self.tech, direction)
        if self.tech == "epml" and direction == "out" and self.buf_fill:
            cost += self._epml_copy(self.buf_fill)
            self.buf_fill = 0
        if self.tech == "spml" and direction == "out" and self.buf_fill:
            self.ring_used += self.buf_fill  # coordination flush, forced
            self.buf_fill = 0
        self.t += cost
        self.sched_events += 1

    def _epml_copy(self, k: int) -> float:
        cost = self.c.m1 + k * self.c.m18_pp
        space = self.cfg.ring_capacity - self.tool_ring
        if k > space:  # tool too slow: losses are counted, never silent
            self.dropped += k - space
            k = space
        self.tool_ring += k
        self.suspension += cost
        self.softirqs += 1
        return cost

    def _spml_tick(self) -> None:
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
        self.next_tick = _next_tick_after(
            self.next_tick + cost, self.next_tick, self.cfg.collection_interval_us
        )

    def _tick(self) -> None:
        if self.tech == "spml":
            self._spml_tick()
        else:
            if self.tech == "epml":
                self.tool_ring = 0  # tool consumes its ring (set union, free)
            self.next_tick += self.cfg.collection_interval_us

    def _run_ticks(self) -> None:
        while self.t >= self.next_tick:
            self._tick()

    def _spml_vmexit(self) -> None:
        """Buffer-full during a write: stall if needed, flush, replay."""
        pending = 512
        if self.cfg.ring_full_policy == "stall":
            while self.cfg.ring_capacity - self.ring_used < pending:
                if self.next_tick > self.t:
                    if self.next_tick >= self.cfg.horizon_us:
                        self.t = self.cfg.horizon_us
                        self.truncated = True
                        return
                    self.suspension += self.next_tick - self.t
                    self.t = self.next_tick
                self._tick()
            self.ring_used += pending
        else:  # drop
            space = max(0, self.cfg.ring_capacity - self.ring_used)
            sent = min(pending, space)
            self.ring_used += sent
            self.dropped += pending - sent
        self.t += self.c.c_ve
        self.suspension += self.c.c_ve
        self.vmexits += 1
        self.buf_fill = 1  # the refused entry, replayed after the reset

    # ----- main loop ----------------------------------------------------

    def run(self) -> TrackerPhaseReport:
        cfg, c = self.cfg, self.c
        self._sched("in")
        logging = self.tech in ("spml", "epml")

        for _rnd in range(1, cfg.rounds + 1):
            if self.truncated or self._horizon_hit():
                break
            w_run = c.w
            if self.tech == "proc":
                w_run += c.softdirty_fault  # every post-clear write microfaults
            w_wall = w_run + (c.uffd_fault if self.tech == "uffd" else 0.0)
            left = self.P
            while left > 0:
                if self.truncated or self._horizon_hit():
                    break
                n_event = (512 - self.buf_fill) + 1 if logging else left + 1
                n_quant = math.ceil(max(0.0, cfg.quantum_us - self.run_acc) / w_run)
                n_tick = (
                    math.ceil(max(0.0, self.next_tick - self.t) / w_wall)
                    if logging
                    else left + 1
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
                    if self.tech == "spml":
                        self.buf_fill = 512  # the 513th attempt was refused
                        self._spml_vmexit()
                    else:
                        self.buf_fill = 512
                        self.t += self._epml_copy(512)
                        self.buf_fill = 1
                    if self.truncated:
                        break
                if self.run_acc >= cfg.quantum_us:
                    self._sched("out")
                    self._sched("in")
                    self.run_acc -= cfg.quantum_us
                self._run_ticks()
            if self.truncated:
                break
            self.rounds_done += 1
            if self.tech == "proc":
                cost = c.m16 + c.m15
                self.t += cost
                self.suspension += cost
                self.tracker_busy += cost
                self.collect_us += cost
                self.parts["walk_us"] += c.m16
                self.parts["other_us"] += c.m15
            elif self.tech == "epml" and self.buf_fill:
                self.t += self._epml_copy(self.buf_fill)
                self.buf_fill = 0

        self._sched("out")
        monitor_span = min(self.t, cfg.horizon_us)

        # collection tail: drain what is still queued (tracked process done)
        if self.tech == "spml" and not self.truncated and self.writes_done:
            while self.ring_used > 0:
                if self.t < self.next_tick:
                    self.t = self.next_tick
                self._tick()
            if cfg.defer_reverse_map:
                rm = self.writes_done * c.m17_pp  # every logged entry mapped
                self.parts["reverse_mapping_us"] += rm
                self.tracker_busy += rm
                self.collect_us += rm
            self.parts["walk_us"] += c.m16
            self.tracker_busy += c.m16
            self.collect_us += c.m16
        if self.tech == "epml":
            self.tool_ring = 0

        return TrackerPhaseReport(
            technique=self.tech,
            memory_bytes=cfg.memory_bytes,
            init_time_us=c.init_us,
            monitor_span_us=monitor_span,
            collect_time_us=self.collect_us,
            exploit_time_us=0.0,
            tracked_suspension_total_us=min(self.suspension, monitor_span),
            ideal_us=self.writes_done * c.w,
            tracker_busy_us=self.tracker_busy,
            writes_done=self.writes_done,
            rounds_done=self.rounds_done,
            n_sched_events=self.sched_events,
            vmexits=self.vmexits,
            softirq_copies=self.softirqs,
            dropped=self.dropped,
            truncated=self.truncated,
            collect_parts=dict(self.parts),
            dirty_set=None,
            dirty_pages=min(self.writes_done, self.P),
        )


# --------------------------------------------------------------------------
# mechanical engine (every write executed through the machine)
# --------------------------------------------------------------------------


class _MechanicalRun:
    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.c = _Costs(cfg)
        self.tech = cfg.technique
        self.P = cfg.pages
        self.vm = VirtualMachine(
            cfg.cost_table(),
            ring_capacity=cfg.ring_capacity,
            ring_full_policy=cfg.ring_full_policy,
            sched=SchedulerConfig(quantum_us=cfg.quantum_us, competitors=cfg.competitors),
        )
        self.vm.create_process(TRACKED_PID)
        self.gvas = self.vm.allocate(TRACKED_PID, self.P)
        self.vm.kernel.register_tracked(TRACKED_PID, cfg.technique, cfg.memory_bytes)
        if cfg.technique == "proc":
            # start from a clean slate: allocation-time bits are not workload
            self.vm.kernel.clear_soft_dirty(TRACKED_PID)

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

        self.oracle: set[int] = set()
        self.collected: set[int] = set()
        self.inaccurate: set[tuple[int, int]] = set()
        self.raw_entries: list[tuple[int, int]] = []
        self.lost_entries: list[tuple[int, int]] = []

    # ----- helpers -------------------------------------------------------

    def _horizon_hit(self) -> bool:
        if self.t >= self.cfg.horizon_us:
            self.truncated = True
            return True
        return False

    def _sched(self, direction: str) -> None:
        us = self.vm.kernel.on_schedule(TRACKED_PID, direction)
        self.t += us
        self.sched_events += 1
        if self.tech == "epml" and direction == "out":
            # an embedded leftover drain is a softirq-style copy
            drain_us = us - self.c.sched_cost("epml", "out")
            if drain_us > 0:
                self.suspension += drain_us
                self.softirqs += 1
            self._consume_tool_ring()

    def _consume_tool_ring(self) -> None:
        if self.vm.kernel.uio and self.vm.kernel.uio.technique == "epml":
            self.collected.update(self.vm.kernel.epml_consume_ring())

    def _drain(self) -> None:
        batch = None if self.cfg.defer_reverse_map else self.c.drain_batch
        res = drain_ring(
            self.vm,
            self.cfg.memory_bytes,
            batch=batch,
            defer_reverse_map=self.cfg.defer_reverse_map,
        )
        self.collected.update(res.gvas)
        self.raw_entries.extend(res.raw)
        self.lost_entries.extend(res.lost)
        self.inaccurate.update(res.inaccurate)
        self.tracker_busy += res.total_us
        self.collect_us += res.total_us
        self.parts["reverse_mapping_us"] += res.rm_us
        self.parts["copy_us"] += res.copy_us

    def _tick(self) -> None:
        if self.tech == "spml":
            start = self.next_tick
            pre = self.collect_us
            self._drain()
            self.next_tick = _next_tick_after(
                start + (self.collect_us - pre), start, self.cfg.collection_interval_us
            )
        else:
            if self.tech == "epml":
                self._consume_tool_ring()
            self.next_tick += self.cfg.collection_interval_us

    def _run_ticks(self) -> None:
        while self.t >= self.next_tick:
            self._tick()

    def _write(self, gva: int) -> None:
        c = self.c
        res = self.vm.write_one(TRACKED_PID, gva)
        outcome = res.outcome
        wall = c.w
        run = c.w
        if outcome.softdirty_fault and self.tech == "proc":
            run += c.softdirty_fault
            wall += c.softdirty_fault
        if res.uffd_recorded:
            wall += c.uffd_fault
            self.suspension += c.uffd_fault
            self.tracker_busy += c.uffd_fault
        if res.softirq_copied or res.softirq_us:
            wall += res.softirq_us
            self.suspension += res.softirq_us
            self.softirqs += 1
        if res.vmexit is not None and not res.stalled:
            wall += c.c_ve
            self.suspension += c.c_ve
            self.vmexits += 1
        self.t += wall
        self.run_acc += run
        if outcome.fault is None:
            self.writes_done += 1
            self.oracle.add(gva)
        if res.stalled:
            refused = res.refused
            while True:
                if self.next_tick > self.t:
                    if self.next_tick >= self.cfg.horizon_us:
                        self.t = self.cfg.horizon_us
                        self.truncated = True
                        return
                    self.suspension += self.next_tick - self.t
                    self.t = self.next_tick
                self._tick()
                retry = self.vm.hv.handle_pml_full_vmexit(refused=refused)
                if not retry.stalled:
                    self.t += c.c_ve
                    self.suspension += c.c_ve
                    self.vmexits += 1
                    break
        if self.run_acc >= self.cfg.quantum_us:
            self._sched("out")
            self._sched("in")
            self.run_acc -= self.cfg.quantum_us
        self._run_ticks()

    def _proc_collect(self) -> None:
        dirty, read_us = self.vm.kernel.read_pagemap(TRACKED_PID)
        _, clear_us = self.vm.kernel.clear_soft_dirty(TRACKED_PID)
        self.collected.update(dirty)
        cost = read_us + clear_us
        self.t += cost
        self.suspension += cost
        self.tracker_busy += cost
        self.collect_us += cost
        self.parts["walk_us"] += read_us
        self.parts["other_us"] += clear_us

    # ----- workload drivers ----------------------------------------------

    def run_microbench(self) -> TrackerPhaseReport:
        cfg = self.cfg
        # one int object per page, reused every round, so the page tables'
        # dict lookups match keys by identity
        gvas = list(self.gvas)
        self._sched("in")
        for rnd in range(1, cfg.rounds + 1):
            if self.truncated or self._horizon_hit():
                break
            for gva in gvas:
                if self.truncated or self._horizon_hit():
                    break
                self._write(gva)
            if self.truncated:
                break
            self.rounds_done += 1
            if self.tech == "proc":
                self._proc_collect()
            elif self.tech == "epml":
                pending = len(self.vm.hv.pml.guest_buffer.entries)
                if pending:
                    _, us = self.vm.kernel.deliver_guest_buffer_full(TRACKED_PID)
                    self.t += us
                    self.suspension += us
                    self.softirqs += 1
                self._consume_tool_ring()
        self._sched("out")
        return self._finish(proc_final_read=False)

    def run_trace(self, ops) -> TrackerPhaseReport:
        self._sched("in")
        for op in ops:
            if self.truncated or self._horizon_hit():
                break
            kind = op[0]
            if kind == "write":
                self._write(op[1])
            elif kind == "map":
                # new regions join the monitoring baseline clean: only
                # writes after the mapping should show up as dirty
                self.vm.map_fresh(
                    TRACKED_PID,
                    op[1],
                    writable=self.tech != "uffd",
                    soft_dirty=self.tech != "proc",
                )
            elif kind == "unmap":
                self.vm.unmap(TRACKED_PID, op[1])
            elif kind == "remap":
                self.vm.remap(TRACKED_PID, op[1], op[2])
            else:
                raise ValueError(f"unknown trace op {kind!r}")
        self._sched("out")
        return self._finish(proc_final_read=True)

    def _finish(self, proc_final_read: bool) -> TrackerPhaseReport:
        cfg, c = self.cfg, self.c
        monitor_span = min(self.t, cfg.horizon_us)
        if not self.truncated:
            if self.tech == "proc" and proc_final_read:
                # traces have no per-round collection: harvest at the end
                dirty, read_us = self.vm.kernel.read_pagemap(TRACKED_PID)
                self.collected.update(dirty)
                self.tracker_busy += read_us
                self.collect_us += read_us
                self.parts["walk_us"] += read_us
            elif self.tech == "uffd":
                self.collected.update(self.vm.kernel.uffd_harvest(TRACKED_PID))
            elif self.tech == "epml":
                if self.vm.hv.pml.guest_buffer.entries:
                    _, us = self.vm.kernel.deliver_guest_buffer_full(TRACKED_PID)
                    self.suspension += us  # conservatively still suspension
                    self.softirqs += 1
                self._consume_tool_ring()
            elif self.tech == "spml" and self.writes_done:
                while self.vm.hv.ring.used > 0:
                    if self.t < self.next_tick:
                        self.t = self.next_tick
                    self._tick()
                if cfg.defer_reverse_map and self.raw_entries:
                    res = reverse_map_raw(self.vm, self.raw_entries, cfg.memory_bytes)
                    self.collected.update(res.gvas)
                    self.lost_entries.extend(res.lost)
                    self.inaccurate.update(res.inaccurate)
                    self.tracker_busy += res.rm_us
                    self.collect_us += res.rm_us
                    self.parts["reverse_mapping_us"] += res.rm_us
                self.tracker_busy += c.m16
                self.collect_us += c.m16
                self.parts["walk_us"] += c.m16
        uio = self.vm.kernel.uio
        self.dropped = self.vm.hv.dropped_total + (uio.ring_dropped if uio else 0)
        missed = self.oracle - self.collected
        return TrackerPhaseReport(
            technique=self.tech,
            memory_bytes=cfg.memory_bytes,
            init_time_us=c.init_us,
            monitor_span_us=monitor_span,
            collect_time_us=self.collect_us,
            exploit_time_us=0.0,
            tracked_suspension_total_us=min(self.suspension, monitor_span),
            ideal_us=self.writes_done * c.w,
            tracker_busy_us=self.tracker_busy,
            writes_done=self.writes_done,
            rounds_done=self.rounds_done,
            n_sched_events=self.sched_events,
            vmexits=self.vmexits,
            softirq_copies=self.softirqs,
            dropped=self.dropped,
            truncated=self.truncated,
            collect_parts=dict(self.parts),
            dirty_set=set(self.collected),
            missed=missed,
            inaccurate=set(self.inaccurate),
        )


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
    if cfg.trace is not None:
        ops = getattr(cfg.trace, "ops", cfg.trace)
        return _MechanicalRun(cfg).run_trace(ops)
    if cfg.mechanical:
        return _MechanicalRun(cfg).run_microbench()
    return _SegmentRun(cfg).run()


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
