"""Hypervisor-side machinery for shared dirty-page logging.

This module owns everything that runs at the host level:

* :class:`SpmlRingBuffer` — the guest-visible ring the hypervisor fills with
  logged addresses, framed as per-process blocks ``{pid, count, addresses}``,
  each block's entries one ``(n, 2)`` int64 array of ``(gpa, meta_gva)`` rows.
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
  progress while the core is otherwise idle.  It keeps no clock: each call
  takes the caller's ``now``, and ``done_at`` says when the job ends.
* :func:`run_migration` — pre-copy migration of a second machine whose
  transfer work shares the service core with a concurrent tracked machine:
  one loop over three clocks (the next guest write, the next vmexit burst
  and the core's ``done_at``) that runs the earliest.

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

import math
from dataclasses import dataclass, field
from itertools import count, islice, repeat

import numpy as np

from .costs import CostTable
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
    entries: np.ndarray  # (n, 2) int64 rows of (gpa, meta_gva)


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

    def append(self, pid: int, entries, force: bool = False) -> None:
        """Append ``(gpa, meta_gva)`` rows, an ``(n, 2)`` array or pairs."""
        n = len(entries)
        if n == 0:
            return
        if not force and n > self.free:
            raise ValueError(f"ring has {self.free} free slots, need {n}")
        entries = np.asarray(entries, dtype=np.int64)
        if self.blocks and self.blocks[-1].pid == pid:
            self.blocks[-1].entries = np.concatenate((self.blocks[-1].entries, entries))
        else:
            self.blocks.append(RingBlock(pid, entries))
        self.used += n

    def consume(self, max_addresses: int) -> list[tuple[int, np.ndarray]]:
        """Pop up to ``max_addresses`` entries FIFO, a block at a time, as
        ``(pid, rows)``; the last block taken may be cut.  The rows are a copy,
        so what a consumer keeps holds no block's storage."""
        out: list[tuple[int, np.ndarray]] = []
        left = max_addresses
        while self.blocks and left > 0:
            blk = self.blocks[0]
            taken, blk.entries = blk.entries[:left].copy(), blk.entries[left:]
            out.append((blk.pid, taken))
            if not len(blk.entries):
                self.blocks.pop(0)
            left -= len(taken)
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
            hv_buffer=PmlBuffer(slots=buffer_slots, width=2),
            guest_buffer=PmlBuffer(slots=buffer_slots),
        )
        self.flags = CoexistenceFlags()
        self.ring = SpmlRingBuffer(ring_capacity)
        self.ring_full_policy = ring_full_policy
        self.migration_log: list[tuple[int, int]] = []  # (pid, gpa)
        self.current_pid: int | None = None
        self.guest_inited = False
        # the buffered entries' tags as runs: ((guest_entitled, vmm_entitled), count)
        self._entry_tags: list[tuple[tuple[bool, bool], int]] = []
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

    def log_writes(self, gpas: np.ndarray, gvas: np.ndarray) -> None:
        """:meth:`log_write` for each GPA of ``gpas`` and GVA of ``gvas`` in order,
        where none finds a buffer full (the caller checked
        :meth:`PmlState.free_slots`): one slice copy into each buffer that logs."""
        hv_buf = self.pml.hv_buffer
        if hv_buf.index != hv_buf.disabled_index:
            hv_buf.log_run(np.column_stack((gpas, gvas)))
            self._tag(len(gpas))
        if self.pml.epml_enabled:
            self.pml.guest_buffer.log_run(gvas)

    def _tag(self, n: int) -> None:
        """Tag the last ``n`` logged entries with the entitlement in force now."""
        flags = self.flags
        tag = (flags.enable_by_guest and flags.sched_in, flags.enable_by_vmm)
        runs = self._entry_tags
        if runs and runs[-1][0] == tag:
            runs[-1] = (tag, runs[-1][1] + n)
        else:
            runs.append((tag, n))
        if tag[0]:
            self.logged_guest_tagged += n
        if tag[1]:
            self.logged_vmm_tagged += n

    def _flush_buffer(self, allow_drop: bool) -> FlushResult:
        """Copy-out and re-arm: route every buffered entry by its tag.

        Guest-entitled entries go to the ring unless the guest consumes via
        its own dual-logged buffer (extended mode); vmm-entitled entries go
        to the migration log; others are discarded.  Each run of equal tags
        goes as one slice of the buffer, and the flushed frames are re-armed
        in one step.  With ``allow_drop`` the ring may refuse
        entries beyond capacity (counted, interrupt injected by caller);
        otherwise delivery is forced.
        """
        buf = self.pml.hv_buffer
        taken = buf.drain()
        runs, self._entry_tags = self._entry_tags, []
        if not len(taken):
            return FlushResult()
        if self.ept is not None:
            # hardware re-arms the flushed pages so the next write logs again
            self.ept.clear_dirty(taken[:, 0])
        now = (self.flags.enable_by_guest and self.flags.sched_in, self.flags.enable_by_vmm)
        to_ring = [taken[:0]]
        n_mig = n_disc = mism = pos = 0
        for tag, n in runs:
            entries = taken[pos : pos + n]
            n = len(entries)  # no more than were buffered
            pos += n
            guest, vmm = tag
            if tag != now:
                mism += n
            if vmm:
                self.migration_log += zip(repeat(self.current_pid, n), entries[:, 0].tolist())
                n_mig += n
            if guest and not self.pml.epml_enabled:
                to_ring.append(entries)
            elif not guest and not vmm:
                n_disc += n
        ring_entries = np.concatenate(to_ring)
        dropped = max(0, len(ring_entries) - self.ring.free) if allow_drop else 0
        ring_entries = ring_entries[: len(ring_entries) - dropped]
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

    def handle_pml_full_vmexit(self, refused: tuple[int, int] | None = None) -> VmexitResult:
        """Service a buffer-full vmexit: flush, re-arm, replay the refusal.

        Under the ``stall`` policy a full ring refuses the whole flush and
        the vCPU stays blocked until a consumer drains the ring; under
        ``drop`` the flush delivers what fits, drops the rest, and injects
        an interrupt so the consumer learns about the loss.
        """
        buf = self.pml.hv_buffer
        pending = buf.used
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


def _hv_from_state(state: tuple, buffer_slots: int, hv_factory: type = Hypervisor) -> Hypervisor:
    ebv, ebg, sched_in, index, tags = state
    hv = hv_factory(ring_capacity=10**9, ring_full_policy="stall", buffer_slots=buffer_slots)
    hv.flags = CoexistenceFlags(enable_by_vmm=ebv, enable_by_guest=ebg, sched_in=sched_in)
    hv.guest_inited = ebg
    hv.current_pid = 1
    buf = hv.pml.hv_buffer
    buf.reset(buf.fresh_index)
    for i in range(sum(n for _tag, n in tags)):
        buf.log(900 + i, 900 + i)
    buf.index = index
    hv._entry_tags = list(tags)
    for (g, v), n in tags:
        if g:
            hv.logged_guest_tagged += n
        if v:
            hv.logged_vmm_tagged += n
    return hv


def _state_of(hv: Hypervisor) -> tuple:
    f = hv.flags
    buf = hv.pml.hv_buffer
    return (f.enable_by_vmm, f.enable_by_guest, f.sched_in, buf.index, tuple(hv._entry_tags))


def _broken_invariants(hv: Hypervisor) -> list[str]:
    """What :func:`model_check_coordination` finds broken in ``hv``."""
    broken = []
    f = hv.flags
    buf = hv.pml.hv_buffer
    enabled = buf.index != buf.disabled_index
    if enabled != f.armed_expected:
        broken.append("arming invariant broken")
    if not (-1 <= buf.index <= buf.disabled_index):
        broken.append(f"index out of range ({buf.index})")
    if hv.tag_mismatches:
        broken.append("entitlement tag mismatch at flush")
    if hv.discarded_total or hv.dropped_total:
        broken.append("entitled entry lost")
    buffered_g = sum(n for (g, _), n in hv._entry_tags if g)
    buffered_v = sum(n for (_, v), n in hv._entry_tags if v)
    if hv.logged_guest_tagged != hv.ring_delivered_total + buffered_g:
        broken.append("guest-entitled conservation broken")
    if hv.logged_vmm_tagged != hv.migration_delivered_total + buffered_v:
        broken.append("vmm-entitled conservation broken")
    return broken


def model_check_coordination(
    depth: int = 12, buffer_slots: int = 2, hv_factory: type = Hypervisor
) -> ModelCheckResult:
    """Exhaustively explore the coordination protocol's state space.

    From the all-off state, apply every request followed by 0..slots+1
    attempted writes (full events are serviced inline, the refused write
    replayed).  Each (state, request) pair builds one machine and writes
    to it one write at a time, so the transitions with 0..slots+1 writes are
    its successive states.  After every transition check:

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
                hv = _hv_from_state(state, buffer_slots, hv_factory)
                hv.coordinate(request, pid=1)
                for n_writes in range(buffer_slots + 2):
                    transitions += 1
                    if n_writes:
                        addr = 1000 + n_writes - 1
                        if hv.log_write(addr, addr).hv_full:
                            hv.handle_pml_full_vmexit(refused=(addr, addr))
                    for broken in _broken_invariants(hv):
                        violations.append(
                            f"{broken}: state={state} req={request} writes={n_writes}"
                        )
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
    accrues progress only while the core is otherwise idle.  The caller owns
    the clock and passes its ``now`` to each call.  ``done_at`` is the active
    job's completion time given the priority work so far (``inf`` while no
    job is active): each service moves it later, and the caller ends the job
    with :meth:`finish` when its clock reaches it.
    """

    def __init__(self):
        self.busy_until = 0.0
        self.done_at = math.inf
        self._job_remaining = 0.0
        self._job_last = 0.0

    @property
    def job_active(self) -> bool:
        return self.done_at != math.inf

    def service(self, now: float, duration_us: float) -> None:
        """Run priority work at ``now`` (or as soon as the core frees up)."""
        start = max(now, self.busy_until)
        end = start + duration_us
        if self.job_active:
            self._accrue(start)
            self.done_at = end + self._job_remaining
        self.busy_until = end

    def start_background(self, now: float, work_us: float) -> None:
        if self.job_active:
            raise RuntimeError("background job already active")
        self._job_remaining = work_us
        self._job_last = now
        self.done_at = max(now, self.busy_until) + work_us

    def finish(self) -> None:
        """End the active job: the caller's clock has reached ``done_at``."""
        self.done_at = math.inf

    def _accrue(self, upto: float) -> None:
        # Idle progress since the last accounting point: the stretch of
        # [last, upto] not covered by already-known busy work.
        idle_from = max(self._job_last, self.busy_until)
        progressed = max(0.0, upto - idle_from)
        self._job_remaining -= min(progressed, self._job_remaining)
        self._job_last = upto


# ---------------------------------------------------------------- migration

#: The hot pages :func:`run_migration` draws at a time.  ``rng.integers(h,
#: size=k)`` yields the stream of ``k`` draws ``rng.integers(h)`` (NumPy
#: 2.4.6; ``tests/test_hypervisor.py`` holds NumPy to it), so a block only
#: saves the per-draw call.
_DRAW_BLOCK = 1024


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

    Time advances over three clocks: the next guest write, every ``1e6 /
    writes_per_s`` µs; the next vmexit burst; and the core's job completion,
    ``HvCore.done_at``.  The loop runs the earliest, and at a tie the one set
    first: each clock is a ``(time, seq)`` pair, ``seq`` counting the
    settings.  A write also applies the writes that fall strictly before the
    other two clocks: nothing else can run between them and only a round's
    end reads the dirty set.  Every 512th write fills the log buffer and
    loads the service core with its flush at its own time, so such a batch
    stops short of it.
    """
    table = table or CostTable.default()
    core = HvCore()
    rng = np.random.default_rng(job.seed)

    flush_service_us = table.prices(job.vm_pages * 4096).copy_us(512)
    write_period_us = 1e6 / job.writes_per_s
    period_us, service_us = concurrent_load or (math.inf, 0.0)

    def draws():  # the written hot pages, drawn a block at a time
        while True:
            yield from rng.integers(job.hot_pages, size=_DRAW_BLOCK).tolist()

    hot = draws()
    dirty: set[int] = set()
    rounds: list[MigrationRoundStat] = []
    writes = vmexits = 0
    round_start, pages = 0.0, job.vm_pages
    stop_reason = ""
    seq = count()
    burst = (period_us, next(seq))
    write = (write_period_us, next(seq))
    core.start_background(0.0, pages * job.page_xfer_us)
    done = (core.done_at, next(seq))
    while True:
        clock = min(write, burst, done)
        now = clock[0]
        if clock is done:
            core.finish()
            rounds.append(MigrationRoundStat(
                len(rounds), pages, round_start / 1000.0, (now - round_start) / 1000.0
            ))
            if stop_reason:  # the stop-and-copy is over
                break
            pages = len(dirty)
            dirty.clear()  # harvest re-arms the dirty bits
            if pages < job.stop_threshold_pages or len(rounds) >= job.max_rounds:
                stop_reason = "threshold" if pages < job.stop_threshold_pages else "max_rounds"
                write = (math.inf, next(seq))  # source stopped: no more dirtying
            round_start = now
            core.start_background(now, pages * job.page_xfer_us)
            done = (core.done_at, next(seq))
        elif clock is burst:
            core.service(now, service_us)
            done = (core.done_at, next(seq))
            burst = (now + period_us, next(seq))
        else:
            dirty.add(next(hot))
            writes += 1
            if writes % 512 == 0:
                vmexits += 1
                core.service(now, flush_service_us)
                done = (core.done_at, next(seq))
            # the writes after this one, strictly before the other two clocks
            # and short of the next 512th, each at the chain's running sum of
            # periods
            t, n, room = now + write_period_us, 0, 511 - writes % 512
            until = min(burst[0], done[0])
            while t < until and n < room:
                t += write_period_us
                n += 1
            dirty.update(islice(hot, n))
            writes += n
            write = (t, next(seq))

    return MigrationReport(
        rounds=rounds,
        total_ms=now / 1000.0,
        downtime_ms=rounds[-1].duration_ms,
        stop_reason=stop_reason,
        vmexits=vmexits,
    )
