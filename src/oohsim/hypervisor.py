"""Hypervisor-side machinery for shared dirty-page logging.

This module owns everything that runs at the host level:

* :class:`SpmlRingBuffer` — the guest-visible ring the hypervisor fills with
  logged addresses, framed as per-process blocks ``{pid, count, addresses}``.
  Capacity counts addresses only; block headers are free (documented
  simplification — header space is negligible at realistic capacities).
* :class:`Hypervisor` — hypercall entry points, the coordination protocol
  that lets the hypervisor and the guest share one log device without loss,
  and the buffer-full vmexit handler with its ring-full policies.
* :func:`model_check_coordination` — exhaustive exploration of the
  coordination protocol's reachable states, checking the arming invariant
  and conservation of entitled log entries.
* :class:`HvCore` — the single hypervisor service core: vmexit handlers are
  serialized priority work, bulk transfers run as background jobs that only
  progress while the core is otherwise idle.
* :func:`run_migration` — pre-copy migration of a second machine whose
  transfer work shares the service core with a concurrent tracked machine.

Coordination model: two ownership flags say who initialized the log device
(``enable_by_vmm`` for host-side use such as migration, ``enable_by_guest``
for the in-guest tracking tool) and ``sched_in`` says whether the tracked
process currently occupies the vCPU.  The device must be armed exactly when
``enable_by_vmm or (enable_by_guest and sched_in)``.  Every protocol request
first flushes the buffer — each side collects the entries it is entitled
to — then applies the flag change, then re-derives the index from the
invariant.  Flushing before reconfiguring guarantees entries are always
routed under the same flags that were in force when they were logged, which
is what prevents cross-process misattribution and entitlement loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable

import numpy as np

from .costs import CostTable
from .engine import EventKind, SimEngine
from .pml import LogOutcome, PmlBuffer, PmlState

__all__ = [
    "ProtocolError",
    "HYPERCALL_KINDS",
    "COORD_REQUESTS",
    "CoexistenceFlags",
    "RingBlock",
    "SpmlRingBuffer",
    "FlushResult",
    "CoordinationResult",
    "VmexitResult",
    "Hypervisor",
    "ModelCheckResult",
    "model_check_coordination",
    "HvCore",
    "MigrationJob",
    "MigrationRoundStat",
    "MigrationReport",
    "run_migration",
]


class ProtocolError(RuntimeError):
    """Hypercall issued out of protocol order (e.g. enable before init)."""


HYPERCALL_KINDS = (
    "init_pml",
    "deactivate_pml",
    "init_shadow_vmcs",
    "deactivate_shadow_vmcs",
    "enable_logging",
    "disable_logging",
)

COORD_REQUESTS = (
    "guest_enable",
    "guest_disable",
    "vmm_enable",
    "vmm_disable",
    "sched_in",
    "sched_out",
)


@dataclass
class CoexistenceFlags:
    """Who owns the log device, and whether the tracked process is on-cpu."""

    enable_by_vmm: bool = False
    enable_by_guest: bool = False
    sched_in: bool = False

    @property
    def armed_expected(self) -> bool:
        return self.enable_by_vmm or (self.enable_by_guest and self.sched_in)


@dataclass
class RingBlock:
    pid: int
    entries: list  # [(gpa, meta_gva), ...]


class SpmlRingBuffer:
    """Per-process-framed ring of logged addresses.

    ``capacity`` bounds the total number of addresses across all blocks.
    Appending to the pid of the tail block merges into it; consumption is
    FIFO and removes emptied blocks.  ``force=True`` admits entries past
    capacity (used by coordination flushes, which must never lose entries;
    the vmexit path enforces capacity with its stall/drop policies instead).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.blocks: list[RingBlock] = []
        self.used = 0

    @property
    def free(self) -> int:
        return max(0, self.capacity - self.used)

    def append(self, pid: int, entries: list, force: bool = False) -> None:
        n = len(entries)
        if n == 0:
            return
        if not force and n > self.free:
            raise ValueError(f"ring has {self.free} free slots, need {n}")
        if self.blocks and self.blocks[-1].pid == pid:
            self.blocks[-1].entries.extend(entries)
        else:
            self.blocks.append(RingBlock(pid, list(entries)))
        self.used += n

    def consume(self, max_addresses: int) -> list[tuple[int, list[tuple[int, int]]]]:
        """Pop up to ``max_addresses`` entries FIFO, a block at a time, as
        ``(pid, [(gpa, meta_gva), ...])``; the last block taken may be cut."""
        out: list[tuple[int, list[tuple[int, int]]]] = []
        left = max_addresses
        while self.blocks and left > 0:
            blk = self.blocks[0]
            out.append((blk.pid, blk.entries[:left]))
            del blk.entries[:left]
            if not blk.entries:
                self.blocks.pop(0)
            left -= len(out[-1][1])
        self.used -= max_addresses - left
        return out


@dataclass(frozen=True)
class FlushResult:
    delivered_ring: int = 0
    delivered_migration: int = 0
    discarded: int = 0
    dropped: int = 0
    tag_mismatches: int = 0


@dataclass(frozen=True)
class CoordinationResult:
    request: str
    flush: FlushResult
    new_index: int


@dataclass(frozen=True)
class VmexitResult:
    stalled: bool
    flush: FlushResult | None = None
    interrupt_injected: bool = False
    replayed: str | None = None


class Hypervisor:
    """Hypercall surface, coordination protocol, and vmexit handling."""

    def __init__(
        self,
        ring_capacity: int = 16384,
        ring_full_policy: str = "stall",
        buffer_slots: int = 512,
        ept=None,
    ):
        if ring_full_policy not in ("stall", "drop"):
            raise ValueError(f"unknown ring_full_policy {ring_full_policy!r}")
        self.ept = ept  # when set, flushed addresses get their dirty bit re-armed
        self.pml = PmlState(
            hv_buffer=PmlBuffer(slots=buffer_slots),
            guest_buffer=PmlBuffer(slots=buffer_slots),
        )
        self.flags = CoexistenceFlags()
        self.ring = SpmlRingBuffer(ring_capacity)
        self.ring_full_policy = ring_full_policy
        self.migration_log: list[tuple[int, int]] = []  # (pid, gpa)
        self.current_pid: int | None = None
        self.guest_inited = False
        self._entry_tags: list[tuple[bool, bool]] = []  # (guest_entitled, vmm_entitled)
        # counters
        self.vmexit_count = 0
        self.vmexit_stalls = 0
        self.interrupts_injected = 0
        self.dropped_total = 0
        self.discarded_total = 0
        self.tag_mismatches = 0
        self.logged_guest_tagged = 0
        self.logged_vmm_tagged = 0
        self.ring_delivered_total = 0
        self.migration_delivered_total = 0

    # ------------------------------------------------------------------ API

    def hypercall(self, kind: str, pid: int | None = None) -> CoordinationResult:
        if kind not in HYPERCALL_KINDS:
            raise ProtocolError(f"unknown hypercall {kind!r}")
        if kind == "init_pml":
            if self.guest_inited:
                raise ProtocolError("log device already initialized by guest")
            self.guest_inited = True
            return self.coordinate("guest_enable")
        if kind == "init_shadow_vmcs":
            if self.guest_inited:
                raise ProtocolError("log device already initialized by guest")
            self.guest_inited = True
            self.pml.epml_enabled = True
            return self.coordinate("guest_enable")
        if kind in ("deactivate_pml", "deactivate_shadow_vmcs"):
            if not self.guest_inited:
                raise ProtocolError(f"{kind} before init")
            self.guest_inited = False
            res = self.coordinate("guest_disable")
            if kind == "deactivate_shadow_vmcs":
                self.pml.epml_enabled = False
            return res
        if kind == "enable_logging":
            if not self.guest_inited:
                raise ProtocolError("enable_logging before init")
            return self.coordinate("sched_in", pid=pid)
        # disable_logging
        if not self.guest_inited:
            raise ProtocolError("disable_logging before init")
        return self.coordinate("sched_out")

    def vmm_enable(self) -> CoordinationResult:
        return self.coordinate("vmm_enable")

    def vmm_disable(self) -> CoordinationResult:
        return self.coordinate("vmm_disable")

    # -------------------------------------------------------- coordination

    def coordinate(self, request: str, pid: int | None = None) -> CoordinationResult:
        """Apply one protocol request: flush, flip flags, re-derive index."""
        if request not in COORD_REQUESTS:
            raise ProtocolError(f"unknown coordination request {request!r}")
        flush = self._flush_buffer(allow_drop=False)  # never lose entries here
        f = self.flags
        if request == "guest_enable":
            f.enable_by_guest = True
        elif request == "guest_disable":
            f.enable_by_guest = False
        elif request == "vmm_enable":
            f.enable_by_vmm = True
        elif request == "vmm_disable":
            f.enable_by_vmm = False
        elif request == "sched_in":
            f.sched_in = True
            if pid is not None:
                self.current_pid = pid
        elif request == "sched_out":
            f.sched_in = False
        buf = self.pml.hv_buffer
        new_index = buf.fresh_index if self.device_armed_expected else buf.disabled_index
        buf.reset(new_index)
        return CoordinationResult(request=request, flush=flush, new_index=new_index)

    @property
    def device_armed_expected(self) -> bool:
        """Whether the hypervisor-level buffer should be armed.

        In extended mode the guest consumes through its own dual-logged
        buffer, so the hypervisor-level buffer arms only for vmm use; on the
        shared pathway it arms for either owner.
        """
        return self.flags.enable_by_vmm or self._guest_uses_ring

    @property
    def _guest_uses_ring(self) -> bool:
        """The tracked guest is on-cpu and collects through the hypervisor ring
        (shared mode), so its entries go through the hypervisor-level buffer."""
        f = self.flags
        return f.enable_by_guest and f.sched_in and not self.pml.epml_enabled

    # -------------------------------------------------------------- logging

    def log_write(self, gpa: int, meta_gva: int) -> LogOutcome:
        """Device-level log of one dirty transition, tagged with entitlement.

        Tags record which side was entitled to the entry at log time; the
        flush-before-reconfigure rule makes them match the flags at flush
        time (the model checker verifies exactly this).
        """
        outcome = self.pml.log_dirty(gpa, meta_gva)
        if outcome.hv == "logged":
            self._tag(1)
        return outcome

    def log_writes(self, pairs: list[tuple[int, int]]) -> None:
        """:meth:`log_write` for each ``(gpa, meta_gva)`` in order, where none finds
        a buffer full (the caller checked :meth:`PmlState.free_slots`)."""
        if self.pml.log_dirty_run(pairs):
            self._tag(len(pairs))

    def _tag(self, n: int) -> None:
        """Tag the last ``n`` logged entries with the entitlement in force now."""
        flags = self.flags
        tag = (flags.enable_by_guest and flags.sched_in, flags.enable_by_vmm)
        self._entry_tags.extend([tag] * n)
        if tag[0]:
            self.logged_guest_tagged += n
        if tag[1]:
            self.logged_vmm_tagged += n

    def _flush_buffer(self, allow_drop: bool) -> FlushResult:
        """Copy-out and re-arm: route every buffered entry by its tag.

        Guest-entitled entries go to the ring unless the guest consumes via
        its own dual-logged buffer (extended mode); vmm-entitled entries go
        to the migration log; others are discarded.  Each run of equal tags
        goes as one slice of the buffer.  With ``allow_drop`` the ring may refuse
        entries beyond capacity (counted, interrupt injected by caller);
        otherwise delivery is forced.
        """
        buf = self.pml.hv_buffer
        taken = buf.drain()
        tags = self._entry_tags
        self._entry_tags = []
        if not taken:
            return FlushResult()
        if self.ept is not None:
            # hardware re-arms the flushed pages so the next write logs again
            self.ept.clear_dirty(list(map(itemgetter(0), taken)))
        now = (self.flags.enable_by_guest and self.flags.sched_in, self.flags.enable_by_vmm)
        ring_entries: list[tuple[int, int]] = []
        n_mig = n_disc = mism = pos = 0
        for tag, run in groupby(tags[: len(taken)]):
            n = len(list(run))
            entries = taken[pos : pos + n]
            pos += n
            guest, vmm = tag
            if tag != now:
                mism += n
            if vmm:
                self.migration_log += zip(repeat(self.current_pid, n), map(itemgetter(0), entries))
                n_mig += n
            if guest and not self.pml.epml_enabled:
                ring_entries.extend(entries)
            elif not guest and not vmm:
                n_disc += n
        dropped = 0
        if ring_entries:
            if allow_drop and len(ring_entries) > self.ring.free:
                fit = self.ring.free
                dropped = len(ring_entries) - fit
                ring_entries = ring_entries[:fit]
            if ring_entries:
                self.ring.append(self.current_pid, ring_entries, force=True)
        self.tag_mismatches += mism
        self.discarded_total += n_disc
        self.dropped_total += dropped
        self.ring_delivered_total += len(ring_entries)
        self.migration_delivered_total += n_mig
        return FlushResult(
            delivered_ring=len(ring_entries),
            delivered_migration=n_mig,
            discarded=n_disc,
            dropped=dropped,
            tag_mismatches=mism,
        )

    def handle_pml_full_vmexit(
        self, refused: tuple[int, int] | None = None
    ) -> VmexitResult:
        """Service a buffer-full vmexit: flush, re-arm, replay the refusal.

        Under the ``stall`` policy a full ring refuses the whole flush and
        the vCPU stays blocked until a consumer drains the ring; under
        ``drop`` the flush delivers what fits, drops the rest, and injects
        an interrupt so the consumer learns about the loss.
        """
        buf = self.pml.hv_buffer
        pending = len(buf.entries)
        if (
            self._guest_uses_ring
            and self.ring_full_policy == "stall"
            and self.ring.free < pending
        ):
            self.vmexit_stalls += 1
            return VmexitResult(stalled=True)
        flush = self._flush_buffer(allow_drop=(self.ring_full_policy == "drop"))
        self.vmexit_count += 1
        interrupt = flush.dropped > 0
        if interrupt:
            self.interrupts_injected += 1
        replayed = None
        if refused is not None:
            replayed = self.log_write(*refused).hv
        return VmexitResult(
            stalled=False, flush=flush, interrupt_injected=interrupt, replayed=replayed
        )


# ----------------------------------------------------------- model checking


@dataclass
class ModelCheckResult:
    states_explored: int
    transitions: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _hv_from_state(
    state: tuple, buffer_slots: int, hv_factory: type = Hypervisor
) -> Hypervisor:
    ebv, ebg, sched_in, index, tags = state
    hv = hv_factory(
        ring_capacity=10**9, ring_full_policy="stall", buffer_slots=buffer_slots
    )
    hv.flags = CoexistenceFlags(enable_by_vmm=ebv, enable_by_guest=ebg, sched_in=sched_in)
    hv.guest_inited = ebg
    hv.current_pid = 1
    buf = hv.pml.hv_buffer
    buf.index = index
    buf.entries = [(900 + i, 900 + i) for i in range(len(tags))]
    hv._entry_tags = list(tags)
    for g, v in tags:
        if g:
            hv.logged_guest_tagged += 1
        if v:
            hv.logged_vmm_tagged += 1
    return hv


def _state_of(hv: Hypervisor) -> tuple:
    f = hv.flags
    buf = hv.pml.hv_buffer
    return (
        f.enable_by_vmm,
        f.enable_by_guest,
        f.sched_in,
        buf.index,
        tuple(hv._entry_tags),
    )


def model_check_coordination(
    depth: int = 12, buffer_slots: int = 2, hv_factory: type = Hypervisor
) -> ModelCheckResult:
    """Exhaustively explore the coordination protocol's state space.

    From the all-off state, apply every request followed by 0..slots+1
    attempted writes (full events are serviced inline, the refused write
    replayed).  After every transition check:

    * arming invariant — the device index is non-disabled exactly when
      ``enable_by_vmm or (enable_by_guest and sched_in)``, and always within
      the legal range [-1, slots];
    * routing fidelity — every flushed entry was routed under the same
      entitlement it was tagged with at log time (no mismatches);
    * conservation — entries entitled to a side are delivered to that side
      or still buffered: none are discarded or dropped.

    The state space is finite, so visited states are expanded once; the
    depth cap bounds the search frontier from the initial state.
    """
    start = (False, False, False, buffer_slots, ())
    expanded: set[tuple] = set()
    frontier: list[tuple] = [start]
    violations: list[str] = []
    transitions = 0

    for _ in range(depth):
        if not frontier:
            break
        next_frontier: list[tuple] = []
        for state in frontier:
            if state in expanded:
                continue
            expanded.add(state)
            for request in COORD_REQUESTS:
                for n_writes in range(buffer_slots + 2):
                    transitions += 1
                    hv = _hv_from_state(state, buffer_slots, hv_factory)
                    hv.coordinate(request, pid=1)
                    for i in range(n_writes):
                        out = hv.log_write(1000 + i, 1000 + i)
                        if out.hv_full:
                            hv.handle_pml_full_vmexit(refused=(1000 + i, 1000 + i))
                    ctx = f"state={state} req={request} writes={n_writes}"
                    f = hv.flags
                    buf = hv.pml.hv_buffer
                    enabled = buf.index != buf.disabled_index
                    if enabled != f.armed_expected:
                        violations.append(f"arming invariant broken: {ctx}")
                    if not (-1 <= buf.index <= buf.disabled_index):
                        violations.append(f"index out of range ({buf.index}): {ctx}")
                    if hv.tag_mismatches:
                        violations.append(f"entitlement tag mismatch at flush: {ctx}")
                    if hv.discarded_total or hv.dropped_total:
                        violations.append(f"entitled entry lost: {ctx}")
                    buffered_g = sum(1 for g, _ in hv._entry_tags if g)
                    buffered_v = sum(1 for _, v in hv._entry_tags if v)
                    if hv.logged_guest_tagged != hv.ring_delivered_total + buffered_g:
                        violations.append(f"guest-entitled conservation broken: {ctx}")
                    if hv.logged_vmm_tagged != hv.migration_delivered_total + buffered_v:
                        violations.append(f"vmm-entitled conservation broken: {ctx}")
                    new_state = _state_of(hv)
                    if new_state not in expanded:
                        next_frontier.append(new_state)
        frontier = next_frontier

    return ModelCheckResult(
        states_explored=len(expanded),
        transitions=transitions,
        violations=violations,
    )


# ------------------------------------------------------------- service core


class HvCore:
    """Single hypervisor service core shared by vmexit handling and transfers.

    Vmexit services are priority busy intervals executed serially in arrival
    order.  At most one background job (a bulk transfer) may be active; it
    accrues progress only while the core is idle.  Completion is tracked
    with provisional events invalidated by a generation counter whenever new
    priority work lands.
    """

    def __init__(self, engine: SimEngine):
        self.engine = engine
        self.busy_until = 0.0
        self._job_remaining = 0.0
        self._job_last = 0.0
        self._job_callback: Callable[[float], None] | None = None
        self._generation = 0

    @property
    def job_active(self) -> bool:
        return self._job_callback is not None

    def service(self, duration_us: float) -> tuple[float, float]:
        """Run priority work now (or as soon as the core frees up)."""
        start = max(self.engine.now, self.busy_until)
        if self.job_active:
            self._accrue(start)
        end = start + duration_us
        self.busy_until = end
        if self.job_active:
            self._schedule_completion()
        return start, end

    def start_background(self, work_us: float, callback: Callable[[float], None]) -> None:
        if self.job_active:
            raise RuntimeError("background job already active")
        self._job_remaining = work_us
        self._job_last = self.engine.now
        self._job_callback = callback
        self._schedule_completion()

    def _accrue(self, upto: float) -> None:
        # Idle progress since the last accounting point: the stretch of
        # [last, upto] not covered by already-known busy work.
        idle_from = max(self._job_last, self.busy_until)
        progressed = max(0.0, upto - idle_from)
        self._job_remaining -= min(progressed, self._job_remaining)
        self._job_last = upto

    def _schedule_completion(self) -> None:
        self._generation += 1
        gen = self._generation
        resume = max(self.engine.now, self.busy_until)
        t_done = resume + self._job_remaining

        def fire(ev) -> None:
            if gen != self._generation or not self.job_active:
                return  # superseded by later priority work
            self._accrue(ev.time)
            if self._job_remaining <= 1e-9:
                cb = self._job_callback
                self._job_callback = None
                self._job_remaining = 0.0
                cb(ev.time)
            else:  # pragma: no cover - completion always lands on time
                self._schedule_completion()

        self.engine.schedule_at(t_done, EventKind.MIGRATION_ROUND, fire)


# ---------------------------------------------------------------- migration


@dataclass
class MigrationJob:
    """Pre-copy migration of a second machine sharing the service core."""

    vm_pages: int = 25600
    hot_pages: int = 2048
    writes_per_s: float = 50_000.0
    page_xfer_us: float = 2.5
    stop_threshold_pages: int = 64
    max_rounds: int = 30
    seed: int = 7


@dataclass(frozen=True)
class MigrationRoundStat:
    round_no: int
    pages_sent: int
    started_ms: float
    duration_ms: float


@dataclass
class MigrationReport:
    rounds: list[MigrationRoundStat]
    total_ms: float
    downtime_ms: float
    stop_reason: str
    vmexits: int


def run_migration(
    job: MigrationJob,
    table: CostTable | None = None,
    *,
    concurrent_load: tuple[float, float] | None = None,
) -> MigrationReport:
    """Simulate rounds of pre-copy until the dirty residue is small enough.

    Round 0 transfers every page; each later round transfers the pages
    dirtied during the previous round, harvested from the log device at
    round boundaries (dirty bits re-armed on harvest).  Transfer work runs
    as a background job on the hypervisor service core, so any
    ``concurrent_load`` — ``(period_us, service_us)`` vmexit bursts from a
    co-resident tracked machine — stretches the rounds and lets more dirty
    pages accumulate.  The final stop-and-copy transfers the residue with
    the source paused; its wall time is the downtime.
    """
    table = table or CostTable.default()
    engine = SimEngine()
    core = HvCore(engine)
    rng = np.random.default_rng(job.seed)

    flush_service_us = table.prices(job.vm_pages * 4096).copy_us(512)
    write_period_us = 1e6 / job.writes_per_s

    dirty: set[int] = set()
    rounds: list[MigrationRoundStat] = []
    state = {
        "round": 0,
        "writes": 0,
        "vmexits": 0,
        "migrating": True,
        "paused": False,
        "round_start": 0.0,
        "stop_reason": "",
        "downtime_start": 0.0,
        "downtime_ms": 0.0,
        "total_ms": 0.0,
    }

    def on_write(ev) -> None:
        if not state["migrating"] or state["paused"]:
            return
        dirty.add(int(rng.integers(job.hot_pages)))
        state["writes"] += 1
        if state["writes"] % 512 == 0:
            state["vmexits"] += 1
            core.service(flush_service_us)
        engine.schedule(write_period_us, EventKind.WRITE, on_write)

    def start_round(pages: int) -> None:
        state["round_start"] = engine.now
        core.start_background(pages * job.page_xfer_us, lambda t: on_round_done(pages, t))

    def on_round_done(pages_sent: int, now: float) -> None:
        rounds.append(
            MigrationRoundStat(
                round_no=state["round"],
                pages_sent=pages_sent,
                started_ms=state["round_start"] / 1000.0,
                duration_ms=(now - state["round_start"]) / 1000.0,
            )
        )
        residue = len(dirty)
        dirty.clear()  # harvest re-arms the dirty bits
        state["round"] += 1
        if residue < job.stop_threshold_pages or state["round"] >= job.max_rounds:
            state["stop_reason"] = (
                "threshold" if residue < job.stop_threshold_pages else "max_rounds"
            )
            state["paused"] = True  # source stopped: no more dirtying
            state["downtime_start"] = now
            core.start_background(
                residue * job.page_xfer_us, lambda t: on_stopcopy_done(residue, t)
            )
        else:
            start_round(residue)

    def on_stopcopy_done(pages_sent: int, now: float) -> None:
        rounds.append(
            MigrationRoundStat(
                round_no=state["round"],
                pages_sent=pages_sent,
                started_ms=state["downtime_start"] / 1000.0,
                duration_ms=(now - state["downtime_start"]) / 1000.0,
            )
        )
        state["downtime_ms"] = (now - state["downtime_start"]) / 1000.0
        state["total_ms"] = now / 1000.0
        state["migrating"] = False

    if concurrent_load is not None:
        period_us, service_us = concurrent_load

        def on_burst(ev) -> None:
            if not state["migrating"]:
                return
            core.service(service_us)
            engine.schedule(period_us, EventKind.VMEXIT, on_burst)

        engine.schedule(period_us, EventKind.VMEXIT, on_burst)

    engine.schedule(write_period_us, EventKind.WRITE, on_write)
    start_round(job.vm_pages)
    engine.run()

    return MigrationReport(
        rounds=rounds,
        total_ms=state["total_ms"],
        downtime_ms=state["downtime_ms"],
        stop_reason=state["stop_reason"],
        vmexits=state["vmexits"],
    )
