"""The knob space of a tracker run, as one hypothesis strategy.

:func:`runs` draws the :class:`~oohsim.trackers.TrackerConfig` of one run on
one engine: a segment sweep, a mechanical sweep or a mechanical trace.  The
engine twin tests draw from it, and its knobs range over:

* technique: all four;
* pages: 1 to 12,800 (50 MB), around a log buffer (512, 513) and at sizes
  whose rounds end mid-buffer; rounds: 0 to 13;
* quantum: 0.5 µs (below one write, so every write swaps) to 10 ms, and ∞;
* collection interval: 40 µs to 5 ms; for ``proc`` and ``uffd``, which
  schedule no tick, also any float from 0.5 µs to 10 s (:func:`intervals`);
* ring: 512 (one log buffer) to 16,384 entries, ``stall`` and ``drop``,
  deferred reverse mapping or not;
* horizon: 0, a few ms (which stops a run mid-round or mid-stall) and 60 s;
* a trace's shape (:func:`trace`), pages, op count, share of maps, unmaps
  and moves, hot set and seed.

A sweep's writes (pages × rounds) are capped by engine and quantum, so that
each reference run stays cheap (:func:`runs`).
"""

from __future__ import annotations

import math
import random

from hypothesis import strategies as st

from oohsim.costs import PAGE_SIZE
from oohsim.guest import TECHNIQUES
from oohsim.trackers import TrackerConfig
from oohsim.workloads import TraceWorkload, churn_trace, random_trace

ENGINES = ("segment", "mechanical", "trace")

PAGES = (1, 77, 300, 512, 513, 700, 1_280, 1_500, 4_096, 12_800)
QUANTA_US = (0.5, 300.0, 3_000.0, 10_000.0, math.inf)
INTERVALS_US = (40.0, 250.0, 1_000.0, 2_000.0, 5_000.0)
RINGS = (512, 1_024, 16_384)
HORIZONS_US = (0.0, 350.0, 3_000.0, 12_000.0, 6e7)

SHAPES = ("stretch", "random", "premapped", "remap", "churn")
TRACE_PAGES = (3, 300, 512, 700)
N_OPS = (1, 60, 700, 2_000, 2_500)
P_CHURN = (0.0, 0.002, 0.05, 0.2)
HOT = (1, 40, 1_000)


def intervals(technique: str) -> st.SearchStrategy[float]:
    """A collection interval for ``technique``.  An ``spml`` or ``epml`` run
    ticks at every interval, so a sub-µs one would take millions of ticks:
    only ``proc`` and ``uffd``, which schedule none, draw any float."""
    sampled = st.sampled_from(INTERVALS_US)
    if technique in ("spml", "epml"):
        return sampled
    return st.one_of(sampled, st.floats(min_value=0.5, max_value=1e7, allow_nan=False))


@st.composite
def runs(draw, engine: str, techniques=TECHNIQUES) -> TrackerConfig:
    """One run on ``engine`` (one of :data:`ENGINES`) of one of ``techniques``."""
    technique = draw(st.sampled_from(techniques))
    quantum_us = draw(st.sampled_from(QUANTA_US))
    knobs = dict(
        quantum_us=quantum_us,
        collection_interval_us=draw(intervals(technique)),
        ring_capacity=draw(st.sampled_from(RINGS)),
        ring_full_policy=draw(st.sampled_from(("stall", "drop"))),
        defer_reverse_map=draw(st.booleans()),
        horizon_us=draw(st.sampled_from(HORIZONS_US)),
    )
    if engine == "trace":
        return trace_run(
            technique,
            shape=draw(st.sampled_from(SHAPES)),
            pages=draw(st.sampled_from(TRACE_PAGES)),
            n_ops=draw(st.sampled_from(N_OPS)),
            p_churn=draw(st.sampled_from(P_CHURN)),
            hot=draw(st.sampled_from(HOT)),
            seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
            **knobs,
        )
    rounds = draw(st.integers(min_value=0, max_value=13))
    # The most writes a sweep draws, by what its reference steps through: the
    # mechanical reference writes every page through ``write_one``, the
    # segment one takes a stretch of writes at a time.  The least quantum,
    # below one write's cost, swaps at every write, an event of both engines
    # and both references, so a sweep at that quantum gets the least.
    if quantum_us == QUANTA_US[0]:
        cap = 700 * 3
    else:
        cap = 4_096 * 3 if engine == "mechanical" else 12_800 * 13
    pages = draw(st.sampled_from([p for p in PAGES if p * max(rounds, 1) <= cap]))
    return TrackerConfig(
        technique, pages * PAGE_SIZE, rounds=rounds, mechanical=engine == "mechanical", **knobs
    )


def trace(
    shape: str, pages: int, n_ops: int, p_churn: float, hot: int, seed: int
) -> TraceWorkload:
    """A trace of one of :data:`SHAPES`, over ``pages`` pages mapped at the start:

    * ``stretch``: :func:`stretch_trace`, stale writes included;
    * ``random``: :func:`~oohsim.workloads.random_trace`, ``p_churn`` split
      between maps and unmaps, over the pages it maps itself (1 to ``pages``);
    * ``premapped``: the same ops over all ``pages``, as churn-ckpt runs them;
    * ``remap``: that, with moves (:func:`with_remaps`);
    * ``churn``: :func:`~oohsim.workloads.churn_trace`, every page written
      once, then up to ``n_ops`` of them unmapped.
    """
    if shape == "stretch":
        ops = stretch_trace(seed, pages, n_ops, p_churn, hot, stale=True)
        return TraceWorkload(ops, initial_pages=pages)
    if shape == "churn":
        return churn_trace(pages, min(n_ops, pages - 1), seed=seed)
    plain = random_trace(seed, pages, n_ops, p_unmap=p_churn / 2, p_map=p_churn / 2)
    if shape == "random":
        return plain
    premapped = TraceWorkload(plain.ops, initial_pages=pages)
    return premapped if shape == "premapped" else with_remaps(premapped, seed)


def trace_run(technique: str, shape: str, pages: int, n_ops: int, p_churn: float, hot: int,
              seed: int, **knobs) -> TrackerConfig:
    """A run of :func:`trace`'s trace at its memory size, with ``knobs``."""
    workload = trace(shape, pages, n_ops, p_churn, hot, seed)
    return TrackerConfig(technique, workload.memory_bytes, trace=workload, **knobs)


def stretch_trace(
    seed: int, pages: int, n_ops: int, p_churn: float, hot: int, stale: bool = False
) -> list[tuple]:
    """Writes, most to a few hot pages and some to any page or to one that is
    not mapped, mixed with maps, unmaps and moves of live pages.  A write to a
    page not mapped names one the trace maps later; with ``stale``, half of
    them name one it unmapped or moved away earlier, where there is one."""
    rng = random.Random(seed)
    mapped = [(i + 1) * PAGE_SIZE for i in range(pages)]
    unmapped: list[int] = []
    fresh = (pages + 1) * PAGE_SIZE
    ops: list[tuple] = []
    for _ in range(n_ops):
        r = rng.random()
        if r < p_churn and len(mapped) > 1:
            kind = rng.choice(["map", "unmap", "remap"])
            if kind == "map":
                ops.append(("map", fresh))
                mapped.append(fresh)
            elif kind == "unmap":
                unmapped.append(mapped.pop(rng.randrange(len(mapped))))
                ops.append(("unmap", unmapped[-1]))
                continue
            else:
                i = rng.randrange(len(mapped))
                ops.append(("remap", mapped[i], fresh))
                unmapped.append(mapped[i])
                mapped[i] = fresh
            fresh += PAGE_SIZE
        elif r < 0.5:
            ops.append(("write", mapped[rng.randrange(min(hot, len(mapped)))]))
        elif r < 0.51:
            if stale and unmapped and rng.random() < 0.5:
                ops.append(("write", rng.choice(unmapped)))
            else:
                ops.append(("write", fresh + PAGE_SIZE * rng.randrange(4)))
        else:
            ops.append(("write", rng.choice(mapped)))
    return ops


def with_remaps(trace: TraceWorkload, seed: int, p_remap: float = 0.05) -> TraceWorkload:
    """``trace`` with mremap-style moves: after each op, with probability
    ``p_remap``, a mapped page moves to a fresh address, and later ops follow
    it to its new name.  Addresses are never reused."""
    rng = random.Random(seed)
    mapped = trace.initial_gvas()
    fresh = (1 << 30) * PAGE_SIZE
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
            i = rng.randrange(len(mapped))
            old, mapped[i] = mapped[i], fresh
            ops.append(("remap", old, fresh))
            for orig, cur in renamed.items():
                if cur == old:
                    renamed[orig] = fresh
            renamed[old] = fresh
            fresh += PAGE_SIZE
    return TraceWorkload(ops=ops, name=f"{trace.name}-remap", initial_pages=trace.initial_pages)
