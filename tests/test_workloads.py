"""Workload generators and the brute-force dirty oracle."""

from __future__ import annotations

import pytest

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
