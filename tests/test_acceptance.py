"""Release gates: ten checks, one pass/fail line each (run with -v).

Each test exercises one end-to-end behavior of the simulator at its stated
tolerance — device semantics, overhead ordering and calibration anchors,
estimator agreement, collection-phase bottleneck, checkpoint-time grid,
oracle equivalence, missed-page trend, migration coexistence, and
determinism.  Wall-clock bounds are asserted where a gate states one.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from oohsim.checkpoint import checkpoint_time_model, missed_pages_experiment
from oohsim.costs import CostTable
from oohsim.experiments import ExperimentConfig, repro, run
from oohsim.hypervisor import model_check_coordination
from oohsim.pml import INDEX_DISABLED, LogResult, PmlBuffer
from oohsim.reports import render
from oohsim.trackers import TrackerConfig, run_tracker, spml_bottleneck_breakdown
from oohsim.workloads import MB, random_trace, replay_dirty_oracle

from helpers import rel_err

SIZES_50MB_UP = (50 * MB, 100 * MB, 250 * MB, 500 * MB, 1000 * MB)


def test_gate_01_log_device_semantics_hold_over_fuzzed_traces():
    started = time.perf_counter()

    # concrete protocol: 512 logs fill a fresh buffer, the 513th attempt
    # raises the full signal, and the disabled index suppresses logging
    buf = PmlBuffer(index=511)
    for i in range(512):
        assert buf.log(i) == LogResult.LOGGED
    assert buf.index == -1 and buf.full
    assert buf.log(512) == LogResult.FULL
    assert len(buf.entries) == 512 and buf.drops_while_full == 1

    disabled = PmlBuffer(index=INDEX_DISABLED)
    assert disabled.log(1) == LogResult.DISABLED
    assert disabled.entries.tolist() == [] and disabled.index == INDEX_DISABLED

    # property fuzz: the device tracks a three-line reference model exactly
    rng = np.random.default_rng(0xB0F)
    for _ in range(10_000):
        dev = PmlBuffer()
        index, entries, drops = INDEX_DISABLED, [], 0
        for op in rng.integers(0, 8, size=int(rng.integers(5, 40))):
            if op <= 4:  # log attempt (most common)
                got = dev.log(int(op))
                if index == INDEX_DISABLED:
                    want = LogResult.DISABLED
                elif index < 0:
                    want, drops = LogResult.FULL, drops + 1
                else:
                    want = LogResult.LOGGED
                    entries.append(int(op))
                    index -= 1
                assert got == want
            elif op == 5:  # drain: copy out then re-arm unless disabled
                assert dev.drain().tolist() == entries
                entries = []
                if index != INDEX_DISABLED:
                    index = 511
            else:  # reset to fresh (511) or disabled (512)
                value = 511 if op == 6 else INDEX_DISABLED
                dev.reset(value)
                index, entries = value, []
            assert (dev.index, dev.entries.tolist(), dev.drops_while_full) == (
                index,
                entries,
                drops,
            ), "device diverged from the reference model"
    assert time.perf_counter() - started < 5.0


def test_gate_02_overhead_ordering_at_every_size_from_50mb():
    started = time.perf_counter()
    for size in SIZES_50MB_UP:
        by_tech = {
            tech: run_tracker(
                TrackerConfig(tech, memory_bytes=size)
            ).overhead_tracked_pct
            for tech in ("epml", "proc", "uffd", "spml")
        }
        assert (
            by_tech["epml"] < by_tech["proc"] < by_tech["uffd"] < by_tech["spml"]
        ), f"ordering broken at {size >> 20}MB: {by_tech}"
    assert time.perf_counter() - started < 60.0


def test_gate_03_calibrated_1gb_overheads_match_published_anchors():
    size = 1000 * MB
    proc = run_tracker(TrackerConfig("proc", memory_bytes=size))
    uffd = run_tracker(TrackerConfig("uffd", memory_bytes=size))
    epml = run_tracker(TrackerConfig("epml", memory_bytes=size))
    assert abs(proc.overhead_tracked_pct - 335.0) / 335.0 <= 0.30
    assert abs(uffd.overhead_tracked_pct - 1463.0) / 1463.0 <= 0.30
    assert epml.overhead_tracked_pct <= 1.0


def test_gate_04_estimator_matches_simulation_on_20_random_configs():
    from oohsim.experiments import validate_estimator

    checks = validate_estimator(n_configs=20, seed=2024)
    assert len(checks) == 20
    worst = max(checks, key=rel_err)
    assert rel_err(worst) <= 0.01, (
        f"worst case {rel_err(worst):.4%} at {worst.memory_bytes >> 20}MB, "
        f"rounds={worst.rounds}, quantum={worst.quantum_us}us"
    )


def test_gate_05_reverse_mapping_dominates_collection_from_100mb():
    for size in (100 * MB, 250 * MB, 500 * MB, 1000 * MB):
        rep = run_tracker(TrackerConfig("spml", memory_bytes=size))
        frac = spml_bottleneck_breakdown(rep)["reverse_mapping_frac"]
        assert frac >= 0.55, f"{size >> 20}MB: reverse mapping only {frac:.2f}"


def test_gate_06_checkpoint_times_within_2x_and_1gb_ratios():
    rows = repro("table5")
    assert len(rows) == 21
    for row in rows:
        ratio = row.simulated / row.published
        assert 0.5 <= ratio <= 2.0, f"{row.label}: x{ratio:.2f} off published"
    table = CostTable.default()
    gb = 1000 * MB
    proc = checkpoint_time_model("proc", gb, table=table).total_ms
    spml = checkpoint_time_model("spml", gb, table=table).total_ms
    epml = checkpoint_time_model("epml", gb, table=table).total_ms
    # "faster by N%" follows the published arithmetic: (slower - epml) / epml
    # (the reference grid's 1627 vs 1011 ms is its quoted "about 61%")
    assert (proc - epml) / epml >= 0.40
    assert spml / proc >= 5.0


def test_gate_07_trackers_agree_with_the_replay_oracle_on_1000_traces():
    started = time.perf_counter()
    churny_traces = 0
    for seed in range(1000):
        trace = random_trace(seed, max_pages=(64, 256, 1024, 4096)[seed % 4])
        oracle = replay_dirty_oracle(trace.ops, trace.initial_gvas())
        for tech in ("proc", "uffd", "epml", "spml"):
            rep = run_tracker(
                TrackerConfig(tech, memory_bytes=trace.memory_bytes, trace=trace)
            )
            if tech == "spml":
                assert rep.dirty_set <= oracle.dirty, f"seed {seed}: not a subset"
                assert rep.dirty_set == oracle.dirty - oracle.unmapped_dirty
                assert rep.missed == oracle.unmapped_dirty, f"seed {seed}"
                churny_traces += bool(oracle.unmapped_dirty)
            else:
                assert rep.dirty_set == oracle.dirty, f"seed {seed}: {tech} diverged"
    assert churny_traces > 100  # the fuzz really exercises churn
    assert time.perf_counter() - started < 120.0


def test_gate_08_missed_proportion_trend_over_the_working_set_sweep():
    points = missed_pages_experiment()
    props = [p.proportion for p in points]
    assert all(a >= b for a, b in zip(props, props[1:])), "not monotone"
    assert props[-1] > 0 and props[0] / props[-1] >= 10.0
    for p in missed_pages_experiment(technique="epml"):
        assert p.missed == 0


def test_gate_09_shared_log_inflates_migration_and_protocol_is_safe():
    started = time.perf_counter()
    by_label = {row.label: row.simulated for row in repro("coexist")}
    inflation = by_label["migration_inflation"]
    assert 20.0 <= inflation <= 80.0, f"inflation {inflation:.1f}% out of band"
    result = model_check_coordination(depth=12)
    assert result.violations == [], result.violations[:3]
    assert result.states_explored > 0
    assert time.perf_counter() - started < 120.0


def test_gate_10_same_seed_and_config_render_byte_identical_csv():
    cfg = ExperimentConfig(memory_sizes=(MB, 10 * MB), seed=3)
    assert render(run(cfg), "csv") == render(run(cfg), "csv")
    kv = ExperimentConfig(workload="kv:stdtree", kv_ops=1000, seed=8)
    assert render(run(kv), "csv") == render(run(kv), "csv")
    from oohsim.experiments import comparison_csv

    assert comparison_csv(repro("fig9")) == comparison_csv(repro("fig9"))
