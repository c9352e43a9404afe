"""Incremental process checkpointing driven by a dirty-page tracker.

A :class:`CheckpointSession` runs a process inside the simulated machine
with one of the four tracking techniques armed, feeds it writes and
mapping changes, and takes periodic dumps.  A *full* dump copies every
mapped page; an *incremental* dump copies exactly the still-mapped pages
the tracker reported dirty since the previous dump.  Every image also
records the address-space shape (the mapped set) at its instant.
Restoring replays the chain — full image as the base, each incremental
overlaid — then prunes to the final image's mapped set, and verification
compares the result against a snapshot of guest memory taken at the
final dump instant.  A tracker that loses addresses leaves stale content
at still-mapped pages, which is exactly what verification reports.

The timing side is a closed-form model: every dump pays a fixed base cost
plus a per-page copy cost, and each technique adds its own collection
charges (bit-clear + table walk for the soft-dirty tracker, table walk +
one reverse-mapping pass for the shadowed device tracker, nothing for the
extended device whose log already carries virtual addresses).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .costs import PAGE_SIZE as PAGE
from .costs import CostTable, Prices
from .trackers import TRACKED_PID, TrackerConfig, drain_ring, reverse_map_pairs, run_tracker
from .trackers import tracked_machine
from .workloads import churn_trace, replay_dirty_oracle

__all__ = [
    "BrokenChain",
    "CheckpointImage",
    "CheckpointSession",
    "CheckpointTiming",
    "CorruptImage",
    "MissedPoint",
    "NoBaseline",
    "VerifyResult",
    "checkpoint_time_model",
    "load_image",
    "missed_pages_experiment",
    "restore",
    "restore_verify",
    "save_image",
]

ZERO_PAGE = b"\x00" * PAGE

#: Page retirements per tracking interval used by the missed-pages sweep.
#: Calibrated so the miss proportion spans roughly 0.70 down to 0.02 over
#: the default working-set range.
DEFAULT_CHURN_EVENTS = 360
DEFAULT_WORKING_SETS = (512, 1024, 2048, 4096, 8192, 16384)


class NoBaseline(RuntimeError):
    """Incremental dump requested without a prior image to build on."""


class BrokenChain(RuntimeError):
    """Restore chain is empty, does not start full, or is mislinked."""


class CorruptImage(RuntimeError):
    """A saved image fails its manifest hash check."""


# --------------------------------------------------------------------------
# images and chains
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointImage:
    """One dump: page contents plus the address-space shape at its instant.

    ``pages`` maps each dumped virtual page to its content at the dump
    instant.  ``mapped`` is the full set of mapped page addresses at that
    moment; restore prunes to the final image's mapped set, so pages the
    process dropped do not survive as stale restored content.
    """

    sequence_no: int
    mode: str  # "full" | "incremental"
    pages: dict[int, bytes]
    mapped: frozenset[int] = frozenset()
    parent: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("full", "incremental"):
            raise ValueError(f"mode must be full or incremental, got {self.mode!r}")
        if self.mode == "incremental" and self.parent is None:
            raise NoBaseline("incremental image needs a parent")
        if self.mode == "full" and self.parent is not None:
            raise ValueError("full image cannot have a parent")
        for gva, content in self.pages.items():
            if gva % PAGE:
                raise ValueError(f"page address not aligned: {gva:#x}")
            if len(content) != PAGE:
                raise ValueError(f"page {gva:#x} content is not page-sized")
            if gva not in self.mapped:
                raise ValueError(f"dumped page {gva:#x} missing from mapped set")


def restore(chain: list[CheckpointImage]) -> dict[int, bytes]:
    """Replay a dump chain into the memory state it encodes.

    Full images reset the state, incrementals overlay it, and the final
    image's mapped set prunes addresses the process no longer had.
    """
    if not chain:
        raise BrokenChain("empty chain")
    if chain[0].mode != "full":
        raise BrokenChain("chain must start with a full image")
    state: dict[int, bytes] = {}
    prev: CheckpointImage | None = None
    for image in chain:
        if image.mode == "full":
            state = dict(image.pages)
        else:
            assert prev is not None  # chain[0] is full
            if image.parent != prev.sequence_no:
                raise BrokenChain(
                    f"image {image.sequence_no} expects parent {image.parent}, "
                    f"previous image is {prev.sequence_no}"
                )
            state.update(image.pages)
        prev = image
    final_mapped = chain[-1].mapped
    return {gva: content for gva, content in state.items() if gva in final_mapped}


@dataclass(frozen=True)
class VerifyResult:
    consistent: bool
    divergent: frozenset[int]


def restore_verify(
    chain: list[CheckpointImage], oracle: dict[int, bytes]
) -> VerifyResult:
    """Compare a restored chain against the dump-instant memory snapshot.

    Pages absent on either side count as zero-filled, so never-written
    mappings need no explicit dump.  Divergent pages are those whose
    restored content differs from the snapshot — a still-mapped page whose
    latest write never reached the dump (the tracker lost its log entry to
    churn) restores stale content and shows up here.
    """
    state = restore(chain)
    divergent = frozenset(
        gva
        for gva in set(state) | set(oracle)
        if state.get(gva, ZERO_PAGE) != oracle.get(gva, ZERO_PAGE)
    )
    return VerifyResult(consistent=not divergent, divergent=divergent)


# --------------------------------------------------------------------------
# on-disk layout: one directory per image
# --------------------------------------------------------------------------


def _page_filename(gva: int) -> str:
    return f"page-{gva:016x}.bin"


def save_image(image: CheckpointImage, directory: str | Path) -> Path:
    """Write an image as page files plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for gva in sorted(image.pages):
        content = image.pages[gva]
        name = _page_filename(gva)
        (directory / name).write_bytes(content)
        entries.append(
            {
                "gva": f"{gva:#x}",
                "file": name,
                "sha256": hashlib.sha256(content).hexdigest(),
            }
        )
    manifest = {
        "sequence_no": image.sequence_no,
        "mode": image.mode,
        "parent": image.parent,
        "mapped": [f"{gva:#x}" for gva in sorted(image.mapped)],
        "pages": entries,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def load_image(directory: str | Path) -> CheckpointImage:
    """Read an image back, verifying every page against its manifest hash."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    pages: dict[int, bytes] = {}
    for entry in manifest["pages"]:
        content = (directory / entry["file"]).read_bytes()
        if hashlib.sha256(content).hexdigest() != entry["sha256"]:
            raise CorruptImage(f"{entry['file']} does not match its manifest hash")
        pages[int(entry["gva"], 16)] = content
    return CheckpointImage(
        sequence_no=manifest["sequence_no"],
        mode=manifest["mode"],
        pages=pages,
        mapped=frozenset(int(g, 16) for g in manifest["mapped"]),
        parent=manifest["parent"],
    )


# --------------------------------------------------------------------------
# timing model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointTiming:
    """Closed-form cost of one dump: collection charges plus copy-out."""

    technique: str
    memory_bytes: int
    collect_us: float
    dump_us: float

    @property
    def total_us(self) -> float:
        return self.collect_us + self.dump_us

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0


def checkpoint_time_model(
    technique: str,
    memory_bytes: int,
    *,
    dirty_pages: int | None = None,
    table: CostTable | None = None,
) -> CheckpointTiming:
    """Predict one dump's duration for a given technique and dirty count.

    ``dirty_pages`` defaults to the whole space (the steady state of a
    workload that rewrites every page between dumps).  Collection charges:
    the soft-dirty tracker pays a bit-clear plus a page-table walk; the
    shadowed device tracker pays a walk plus one reverse-mapping pass over
    the dirty set; the extended device and the fault tracker deliver
    virtual addresses during monitoring, so collection is free at dump
    time.  Every dump then pays a fixed base cost plus a per-page copy.
    A bad argument raises ``ValueError`` naming it.
    """
    cfg = TrackerConfig(technique, memory_bytes, table=table)
    if dirty_pages is not None and dirty_pages < 0:
        raise ValueError("dirty_pages: must be >= 0")
    dirty = cfg.pages if dirty_pages is None else dirty_pages
    return _dump_timing(technique, cfg.cost_table().prices(memory_bytes), dirty)


def _dump_timing(technique: str, prices: Prices, dirty: int) -> CheckpointTiming:
    """One dump of ``dirty`` pages at ``prices`` (arguments already checked)."""
    if technique == "proc":
        collect = prices.m15 + prices.m16
    elif technique == "spml":
        collect = prices.m16 + dirty * prices.m17_pp
    else:  # epml, uffd
        collect = 0.0
    dump = prices.dump_base + dirty * prices.dump_page
    return CheckpointTiming(technique, prices.memory_bytes, collect, dump)


# --------------------------------------------------------------------------
# live sessions
# --------------------------------------------------------------------------


class CheckpointSession:
    """A tracked process that can be dumped mid-run.

    The session owns the machine, keeps payloads enabled so dumps are
    byte-verifiable, and freezes the process around each dump (the freeze
    flushes partially filled device buffers, so the collection below it
    always sees a complete log).  The ``TrackerConfig`` it builds checks its
    arguments: a bad one raises ``ValueError`` naming the field.
    """

    def __init__(
        self,
        technique: str,
        memory_bytes: int,
        *,
        table: CostTable | None = None,
        ring_capacity: int = 16384,
    ):
        cfg = TrackerConfig(technique, memory_bytes, ring_capacity=ring_capacity, table=table)
        self.technique = technique
        self.vm, self.gvas, _init_us = tracked_machine(cfg)
        self.vm.kernel.on_schedule(TRACKED_PID, "in")
        self.images: list[CheckpointImage] = []
        self.timings: list[CheckpointTiming] = []
        self.lost: list[tuple[int, int]] = []
        self.inaccurate: list[tuple[int, int]] = []
        self.last_snapshot: dict[int, bytes] = {}
        self._token = 0
        self._seq = 0
        self._raw: list[tuple[int, int]] = []  # staged device-log entries
        self._epml_names: set[int] = set()

    # ------------------------------------------------------------ workload

    def write(self, gva: int) -> None:
        """One store with a fresh, non-zero, deterministic payload."""
        self._token += 1
        payload = self._token.to_bytes(8, "little")
        res = self.vm.write_one(TRACKED_PID, gva, payload=payload)
        if res.stalled:
            # the ring holds at least one full buffer (TrackerConfig checks
            # it), so once it is drained the flush fits
            self._stage_ring()
            self.vm.hv.handle_pml_full_vmexit(refused=res.refused)
        if res.softirq_copied:
            self._epml_names.update(self.vm.kernel.epml_consume_ring())

    def map(self, gva: int | None = None) -> int:
        return self.vm.map_fresh(TRACKED_PID, gva)

    def unmap(self, gva: int) -> None:
        self.vm.unmap(TRACKED_PID, gva)

    def run_ops(self, ops) -> None:
        """Feed a trace: (write|map|unmap|remap, addresses...) tuples."""
        for op in ops:
            if op[0] == "write":
                self.write(op[1])
            else:
                self.vm.apply_op(TRACKED_PID, op)

    @property
    def mapped(self) -> frozenset[int]:
        """The tracked process's mapped page addresses, read from its page table."""
        return frozenset(self.vm.kernel.processes[TRACKED_PID].table.mapped_set())

    # ------------------------------------------------------------- dumping

    def checkpoint(self, mode: str) -> CheckpointImage:
        if mode not in ("full", "incremental"):
            raise ValueError(f"mode must be full or incremental, got {mode!r}")
        if mode == "incremental" and not self.images:
            raise NoBaseline("no full image to build an incremental dump on")
        kernel = self.vm.kernel
        kernel.on_schedule(TRACKED_PID, "out")  # freeze flushes device buffers
        names = self._collect()
        mapped = self.mapped
        if mode == "full":
            dump_gvas = mapped
            parent = None
        else:
            dump_gvas = names & mapped
            parent = self.images[-1].sequence_no
        gvas = list(mapped)  # each mapped page read once
        contents = dict(zip(gvas, self.vm.read_pages(TRACKED_PID, gvas, ZERO_PAGE)))
        image = CheckpointImage(
            sequence_no=self._seq,
            mode=mode,
            pages={gva: contents[gva] for gva in sorted(dump_gvas)},
            mapped=mapped,
            parent=parent,
        )
        self._seq += 1
        self.images.append(image)
        self.timings.append(_dump_timing(self.technique, kernel.uio.prices, len(image.pages)))
        self.last_snapshot = {g: c for g, c in contents.items() if c != ZERO_PAGE}
        kernel.on_schedule(TRACKED_PID, "in")
        return image

    def oracle(self) -> dict[int, bytes]:
        """Memory snapshot taken at the most recent dump instant."""
        return dict(self.last_snapshot)

    # ------------------------------------------------------------ plumbing

    def _stage_ring(self) -> None:
        res = drain_ring(self.vm)
        self._raw.extend(res.raw)

    def _collect(self) -> set[int]:
        kernel = self.vm.kernel
        # the kernel names pages by number: back to addresses at this edge
        if self.technique == "proc":
            dirty, _us = kernel.read_pagemap(TRACKED_PID)
            kernel.clear_soft_dirty(TRACKED_PID)
            return set(map(PAGE.__mul__, dirty))
        if self.technique == "uffd":
            return set(map(PAGE.__mul__, kernel.uffd_harvest(TRACKED_PID)))
        if self.technique == "epml":
            names = self._epml_names | set(kernel.epml_consume_ring())
            self._epml_names = set()
            return names
        # shadowed device: resolve each logged frame once, newest name wins
        self._stage_ring()
        res = reverse_map_pairs(kernel.processes[TRACKED_PID].table, dict(self._raw).items())
        self._raw = []
        self.lost.extend(res.lost)
        self.inaccurate.extend(res.inaccurate)
        return set(res.gvas)


# --------------------------------------------------------------------------
# missed-pages sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MissedPoint:
    working_set_pages: int
    missed: int
    dirty: int

    @property
    def proportion(self) -> float:
        return self.missed / self.dirty if self.dirty else 0.0


def missed_pages_experiment(
    working_set_sizes=DEFAULT_WORKING_SETS,
    *,
    technique: str = "spml",
    churn_events: int = DEFAULT_CHURN_EVENTS,
    seed: int = 0,
    table: CostTable | None = None,
) -> list[MissedPoint]:
    """Miss proportion per working-set size under page churn.

    Each point writes every page of the working set once and then retires
    ``churn_events`` of the most recently written pages before collection.
    The shadowed tracker cannot resolve retired frames, so its proportion
    is churn/working-set; trackers that log virtual addresses miss nothing.
    """
    points = []
    for ws in working_set_sizes:
        trace = churn_trace(ws, churn_events, seed=seed)
        report = run_tracker(
            TrackerConfig(
                technique=technique,
                memory_bytes=ws * PAGE,
                trace=trace,
                table=table,
            )
        )
        oracle = replay_dirty_oracle(trace.ops, trace.initial_gvas())
        points.append(MissedPoint(ws, len(report.missed), len(oracle.dirty)))
    return points
