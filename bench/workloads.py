"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``__init__`` (that is
set-up time) and replays them in :meth:`run`, the timed pass.  A pass is a
closed loop: each call into the simulator starts when the previous one
returns.  Every call goes through a module attribute (``trackers.run_tracker``
rather than an imported name) so that the recorder and the tracer see it.
:meth:`run` returns the artifacts the pass produced beyond tracker reports.
After the timer has stopped, :meth:`summary` turns them into plain data
for the pass digest and :meth:`checks` judges that summary.

See ``bench/README.md`` for why each workload exists and which layer it
isolates.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
from pathlib import Path

import numpy as np

from oohsim import cli, experiments, trackers, workloads
from oohsim.trackers import TrackerConfig
from oohsim.workloads import KV_FOOTPRINTS, MB, PAGE, KvWorkloadSpec, TraceWorkload

# the package re-exports a function named ``checkpoint``, which shadows the
# submodule as an attribute of ``oohsim``
checkpoint = importlib.import_module("oohsim.checkpoint")

TECHNIQUES = ("proc", "uffd", "spml", "epml")
ESTIMATOR_SEED = 2024


class Workload:
    name = ""

    def __init__(self, seed: int, table, scratch: Path):
        self.seed = seed
        self.table = table
        self.scratch = scratch

    def run(self) -> dict:
        raise NotImplementedError

    def summary(self, artifacts: dict) -> dict:
        return artifacts

    def checks(self, summary: dict) -> list[tuple[str, bool]]:
        return []


class KvSparse(Workload):
    """fig8's key-value trace for the ``stdhash`` engine: 614,400 pages
    mapped, 20,000 zipf writes touching about 1.6% of them."""

    name = "kv-sparse"
    techniques = ("proc", "spml", "epml")

    def __init__(self, seed: int, table, scratch: Path):
        super().__init__(seed, table, scratch)
        self.trace = KvWorkloadSpec(
            name="stdhash", footprint_bytes=KV_FOOTPRINTS["stdhash"], seed=seed
        ).make_trace(table)

    def run(self) -> dict:
        for tech in self.techniques:
            trackers.run_tracker(
                TrackerConfig(
                    tech,
                    memory_bytes=self.trace.memory_bytes,
                    table=self.table,
                    trace=self.trace,
                    defer_reverse_map=(tech == "spml"),  # as fig8 runs it
                )
            )
        return {}


class DenseSweep(Workload):
    """The mechanical page sweep: every page of a 16 MB region written in
    each of 13 rounds, under all four techniques."""

    name = "dense-sweep"
    memory_bytes = 16 * MB  # 4096 pages: well above the 512-page buffer

    def __init__(self, seed: int, table, scratch: Path):
        super().__init__(seed, table, scratch)
        # the seed moves the scheduler quantum, which reorders sched events
        # against buffer-full events without changing the write count
        self.quantum_us = float(np.random.default_rng(seed).integers(8_000, 12_001))

    def run(self) -> dict:
        for tech in TECHNIQUES:
            trackers.run_tracker(
                TrackerConfig(
                    tech,
                    memory_bytes=self.memory_bytes,
                    quantum_us=self.quantum_us,
                    mechanical=True,
                    table=self.table,
                )
            )
        return {}


def premapped(trace: TraceWorkload, pages: int) -> TraceWorkload:
    """The same ops over a pre-mapped region of exactly ``pages`` pages.

    ``random_trace`` draws its pre-mapped page count uniformly from
    1..max_pages, which would make the mapping work, and with it the host
    time, swing with the seed.  Its ops only touch that drawn prefix and
    addresses above ``max_pages``, so pre-mapping all ``max_pages`` pages
    keeps every op valid and fixes the amount of mapping per trace.
    """
    return TraceWorkload(ops=trace.ops, name=trace.name, initial_pages=pages)


def with_remaps(trace: TraceWorkload, seed: int, p_remap: float = 0.05) -> TraceWorkload:
    """Insert mremap-style moves into a trace.

    After each op, with probability ``p_remap``, a random mapped page moves
    to a fresh address; later ops follow the page to its new name, as a
    program does with the pointer mremap returns.  Addresses are never
    reused, so the replay oracle can follow every name.
    """
    rng = np.random.default_rng(seed)
    mapped = trace.initial_gvas()
    fresh = (1 << 30) * PAGE
    renamed: dict[int, int] = {}
    ops: list[tuple] = []
    for op in trace.ops:
        op = (op[0],) + tuple(renamed.get(a, a) for a in op[1:])
        ops.append(op)
        if op[0] == "map":
            mapped.append(op[1])
        elif op[0] == "unmap":
            mapped.remove(op[1])
        if mapped and rng.random() < p_remap:
            i = int(rng.integers(len(mapped)))
            old = mapped[i]
            mapped[i] = fresh
            ops.append(("remap", old, fresh))
            for orig, cur in renamed.items():
                if cur == old:
                    renamed[orig] = fresh
            renamed[old] = fresh
            fresh += PAGE
    return TraceWorkload(ops=ops, name=f"{trace.name}-remap", initial_pages=trace.initial_pages)


def _image_digest(image) -> str:
    h = hashlib.sha256(f"{image.sequence_no}/{image.mode}/{image.parent}".encode())
    for gva in sorted(image.mapped):
        h.update(gva.to_bytes(8, "little"))
    for gva in sorted(image.pages):
        h.update(gva.to_bytes(8, "little"))
        h.update(image.pages[gva])
    return h.hexdigest()


class ChurnCkpt(Workload):
    """Gate-07-style churn traces under every technique, the fig9 sweep, and
    one checkpoint session per technique and session trace."""

    name = "churn-ckpt"
    max_pages = (64, 256, 1024, 4096)
    traces_per_size = 25
    session_pages = 1024
    session_ops = 400
    dumps = 4  # one full, then incrementals

    def __init__(self, seed: int, table, scratch: Path):
        super().__init__(seed, table, scratch)
        base = seed * 1_000_003
        self.traces = [
            premapped(workloads.random_trace(base + i, max_pages=size), size)
            for size in self.max_pages
            for i in range(self.traces_per_size)
        ]
        plain, moving = (
            workloads.random_trace(base + k, max_pages=self.session_pages, n_ops=self.session_ops)
            for k in (999_998, 999_999)
        )
        # moves are drawn before pre-mapping, so they hit pages the trace uses
        self.session_traces = {
            "plain": premapped(plain, self.session_pages),
            "remap": premapped(with_remaps(moving, seed), self.session_pages),
        }

    def run(self) -> dict:
        for trace in self.traces:
            for tech in TECHNIQUES:
                trackers.run_tracker(
                    TrackerConfig(
                        tech, memory_bytes=trace.memory_bytes, trace=trace, table=self.table
                    )
                )
        points = checkpoint.missed_pages_experiment(table=self.table)
        sessions = []
        for tech in TECHNIQUES:
            for kind, trace in self.session_traces.items():
                sess = checkpoint.CheckpointSession(tech, trace.memory_bytes, table=self.table)
                ops = trace.ops
                step = -(-len(ops) // self.dumps)
                verdicts = []
                for k in range(self.dumps):
                    sess.run_ops(ops[k * step : (k + 1) * step])
                    sess.checkpoint("full" if k == 0 else "incremental")
                    verdicts.append(checkpoint.restore_verify(sess.images, sess.oracle()))
                sessions.append((tech, kind, sess, verdicts))
        return {"fig9": points, "sessions": sessions}

    def summary(self, artifacts: dict) -> dict:
        return {
            "fig9": [(p.working_set_pages, p.missed, p.dirty) for p in artifacts["fig9"]],
            "sessions": [
                {
                    "technique": tech,
                    "trace": kind,
                    "divergent": [len(v.divergent) for v in verdicts],
                    "consistent": [v.consistent for v in verdicts],
                    "lost": len(sess.lost),
                    "images": [_image_digest(img) for img in sess.images],
                }
                for tech, kind, sess, verdicts in artifacts["sessions"]
            ],
        }

    def checks(self, summary: dict) -> list[tuple[str, bool]]:
        # Sessions on the remap trace are recorded, not checked: at this
        # commit a page that moves after it was dumped, or is written and
        # then moved, restores stale under every technique (see README).
        return [
            (f"restore_verify {s['technique']}/plain dump {k}", ok)
            for s in summary["sessions"]
            if s["trace"] == "plain"
            for k, ok in enumerate(s["consistent"])
        ]


class ClosedForm(Workload):
    """The user-facing closed-form commands: a CLI sweep over the 7-size
    grid, four repro grids, and the estimator cross-check."""

    name = "closed-form"
    sizes = "1MB,10MB,50MB,100MB,250MB,500MB,1GB"
    figures = ("table1", "table5", "fig6", "coexist")

    def run(self) -> dict:
        out = str(self.scratch)
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes["sweep"] = cli.main(
                ["sweep", "--sizes", self.sizes, "--techniques", ",".join(TECHNIQUES),
                 "--seed", str(self.seed), "--out", out]
            )
            for fig in self.figures:
                codes[fig] = cli.main(["repro", "--figure", fig, "--out", out])
        # the estimator keeps gate 04's seed: its 20 random run shapes differ
        # in size by up to 20x, so a per-seed draw would move this workload's
        # host time by more than a regression bound
        estimator = experiments.validate_estimator(seed=ESTIMATOR_SEED, table=self.table)
        return {"exit_codes": codes, "estimator": estimator}

    def summary(self, artifacts: dict) -> dict:
        return {
            "exit_codes": artifacts["exit_codes"],
            "files": {
                p.name: p.read_text(encoding="utf-8") for p in sorted(self.scratch.iterdir())
            },
            "estimator": [
                (c.memory_bytes, c.rounds, c.quantum_us, c.sim_us, c.est_us)
                for c in artifacts["estimator"]
            ],
        }

    def checks(self, summary: dict) -> list[tuple[str, bool]]:
        out = [(f"cli {cmd} exit 0", code == 0) for cmd, code in summary["exit_codes"].items()]
        violations = [
            line.split(",")[4]
            for line in summary["files"].get("repro_coexist.csv", "").splitlines()
            if line.startswith("coexist,coordination_violations,")
        ]
        out.append(("coexist coordination_violations == 0", violations == ["0.000"]))
        return out

    def reference_rows(self, summary: dict) -> list[float]:
        """|rel_err_pct| of every repro row that carries a published value."""
        errs = []
        for fig in self.figures:
            for line in summary["files"].get(f"repro_{fig}.csv", "").splitlines()[1:]:
                rel = line.split(",")[5]
                if rel:
                    errs.append(abs(float(rel)))
        return errs


WORKLOADS = {w.name: w for w in (KvSparse, DenseSweep, ChurnCkpt, ClosedForm)}
