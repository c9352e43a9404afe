"""Workload generators and the brute-force dirty oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oohsim.costs import CostTable
from oohsim.trackers import TrackerConfig, run_tracker
from oohsim.workloads import (
    KV_FOOTPRINTS,
    MB,
    PAGE,
    KvWorkloadSpec,
    churn_trace,
    random_trace,
    replay_dirty_oracle,
)

GB = 1000 * MB


# ---------------------------------------------------------------- kv store


def test_kv_footprints_are_positive_and_named():
    assert set(KV_FOOTPRINTS) == {"baby", "cache", "stdhash", "stdtree", "tiny"}
    assert all(v > 0 for v in KV_FOOTPRINTS.values())


def test_kv_trace_is_deterministic_per_seed():
    spec = KvWorkloadSpec("t", footprint_bytes=4 * MB, n_ops=500, seed=9)
    assert spec.make_trace().ops == spec.make_trace().ops
    other = KvWorkloadSpec("t", footprint_bytes=4 * MB, n_ops=500, seed=10)
    assert spec.make_trace().ops != other.make_trace().ops


def test_kv_trace_write_count_and_skew():
    spec = KvWorkloadSpec("t", footprint_bytes=16 * MB, n_ops=20_000, seed=3)
    trace = spec.make_trace()
    assert trace.n_writes == 20_000
    counts: dict[int, int] = {}
    for op in trace.ops:
        if op[0] == "write":
            counts[op[1]] = counts.get(op[1], 0) + 1
    top_share = max(counts.values()) / 20_000
    assert top_share > 10 / spec.num_pages  # far above the uniform share


def test_kv_churn_produces_the_expected_unmap_count():
    spec = KvWorkloadSpec(
        "t", footprint_bytes=4 * MB, n_ops=10_000, churn_rate=200_000.0, seed=1
    )
    trace = spec.make_trace()
    unmaps = sum(1 for op in trace.ops if op[0] == "unmap")
    # 200k/s over 10k ops * 0.9 µs = 1800 retirements
    assert unmaps == 1800
    maps = sum(1 for op in trace.ops if op[0] == "map")
    assert maps == unmaps


def test_kv_trace_never_writes_an_unmapped_address():
    spec = KvWorkloadSpec(
        "t", footprint_bytes=2 * MB, n_ops=5_000, churn_rate=300_000.0, seed=2
    )
    trace = spec.make_trace()
    mapped = set(trace.initial_gvas())
    for op in trace.ops:
        if op[0] == "write":
            assert op[1] in mapped
        elif op[0] == "map":
            mapped.add(op[1])
        elif op[0] == "unmap":
            mapped.remove(op[1])


def _kv_loop_ops(spec: KvWorkloadSpec) -> list[tuple]:
    """KvWorkloadSpec.make_trace's ops, built one write at a time."""
    rng = np.random.default_rng(spec.seed)
    pages = spec.num_pages
    cdf = np.cumsum(np.arange(1, pages + 1, dtype=np.float64) ** (-spec.write_skew))
    slot_of_rank = rng.permutation(pages)
    draws = np.searchsorted(cdf, rng.random(spec.n_ops) * cdf[-1])
    churns = int(spec.churn_rate * (spec.n_ops * CostTable.default().param("write_cost_us")) / 1e6)
    churn_every = spec.n_ops // (churns + 1) if churns else 0
    moved: dict[int, int] = {}
    next_fresh = (pages + 1) * PAGE
    ops: list[tuple] = []
    churned = 0
    for i, rank_idx in enumerate(draws, start=1):
        slot = int(slot_of_rank[rank_idx])
        gva = moved.get(slot, (slot + 1) * PAGE)
        ops.append(("write", gva))
        if churns and churned < churns and i % churn_every == 0:
            ops.append(("unmap", gva))
            moved[slot] = next_fresh
            ops.append(("map", next_fresh))
            next_fresh += PAGE
            churned += 1
    return ops


def _same_ops(got: list[tuple], want: list[tuple]) -> None:
    """Equal ops, each address a Python int as in ``want``."""
    assert got == want
    assert [tuple(map(type, op)) for op in got] == [tuple(map(type, op)) for op in want]


@pytest.mark.parametrize(
    "footprint, churn_rate, n_ops",
    [
        (KV_FOOTPRINTS["stdhash"], 0.0, 20_000),  # fig8's trace: one gather
        (KV_FOOTPRINTS["stdhash"], 5_000.0, 20_000),  # 90 churn events
        (4 * MB, 200_000.0, 10_000),  # 1,800 events, hot ranks moved again and again
    ],
)
def test_kv_trace_matches_the_write_by_write_build(footprint, churn_rate, n_ops):
    spec = KvWorkloadSpec("t", footprint, churn_rate=churn_rate, n_ops=n_ops, seed=5)
    _same_ops(spec.make_trace().ops, _kv_loop_ops(spec))


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("churn_rate", {"churn_rate": -1e6}),  # made no churn, without a word
        ("churn_rate", {"churn_rate": math.nan}),
        ("churn_rate", {"churn_rate": math.inf}),
        ("n_ops", {"n_ops": -5}),  # failed inside NumPy: "negative dimensions"
    ],
)
def test_kv_spec_rejects_a_negative_churn_rate_or_op_count(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field}: "):
        KvWorkloadSpec("t", 4 * MB, **kwargs)


def test_kv_trace_rejects_more_churn_events_than_writes():
    spec = KvWorkloadSpec("t", 4 * MB, churn_rate=1e9, n_ops=100)
    with pytest.raises(ValueError, match="churn events"):
        spec.make_trace()


@pytest.mark.parametrize("working_set, churn", [(512, 0), (512, 360), (7, 6)])
def test_churn_trace_matches_the_write_by_write_build(working_set, churn):
    order = np.random.default_rng(3).permutation(working_set)
    want: list[tuple] = [("write", (int(i) + 1) * PAGE) for i in order]
    if churn:
        want += [("unmap", (int(i) + 1) * PAGE) for i in reversed(order[-churn:])]
    _same_ops(churn_trace(working_set, churn, seed=3).ops, want)


# ------------------------------------------------------------------ oracle


def test_oracle_tracks_unmap_and_remap():
    ops = [
        ("write", 0x1000),
        ("write", 0x2000),
        ("unmap", 0x1000),
        ("remap", 0x2000, 0x9000),
        ("write", 0x3000),
    ]
    res = replay_dirty_oracle(ops, initial_pages=[0x1000, 0x2000, 0x3000])
    assert res.dirty == {0x1000, 0x9000, 0x3000}
    assert res.unmapped_dirty == {0x1000}


def test_oracle_ignores_writes_to_unmapped_pages():
    ops = [("unmap", 0x1000), ("write", 0x1000)]
    res = replay_dirty_oracle(ops, initial_pages=[0x1000])
    assert res.dirty == set()


def test_oracle_matches_trackers_on_fuzzed_traces():
    for seed in range(5):
        trace = random_trace(seed, max_pages=64, n_ops=120)
        oracle = replay_dirty_oracle(trace.ops, trace.initial_gvas())
        for technique in ("proc", "uffd", "epml"):
            rep = run_tracker(
                TrackerConfig(
                    technique=technique,
                    memory_bytes=trace.memory_bytes,
                    trace=trace,
                )
            )
            assert rep.dirty_set == oracle.dirty, (technique, seed)
        spml = run_tracker(
            TrackerConfig(technique="spml", memory_bytes=trace.memory_bytes, trace=trace)
        )
        assert spml.missed == oracle.unmapped_dirty, seed
        assert spml.dirty_set == oracle.dirty - oracle.unmapped_dirty, seed


# ----------------------------------------------------------------- churn


def test_churn_trace_misses_exactly_the_retired_fraction():
    ws, churn = 512, 360
    trace = churn_trace(ws, churn)
    spml = run_tracker(
        TrackerConfig(technique="spml", memory_bytes=ws * PAGE, trace=trace)
    )
    assert len(spml.missed) == churn
    epml = run_tracker(
        TrackerConfig(technique="epml", memory_bytes=ws * PAGE, trace=trace)
    )
    assert epml.missed == set()


def test_churn_trace_rejects_full_retirement():
    with pytest.raises(ValueError):
        churn_trace(100, 100)


def test_churn_trace_rejects_a_negative_churn_count():
    # churn_trace(10, -3) made a trace of seven unmaps
    with pytest.raises(ValueError, match="^churn_events: "):
        churn_trace(10, -3)
