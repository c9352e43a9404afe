"""Cost table, interpolation, calibration files, price list, and estimator."""

from __future__ import annotations

import math
import re
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oohsim.checkpoint import checkpoint_time_model
from oohsim.costs import (
    MB,
    CalibrationError,
    CostTable,
    EpmlEstimate,
    UnknownMetric,
    estimate_epml,
    load_calibration_file,
    overhead,
    pages_for,
)
from oohsim.guest import TECHNIQUES
from oohsim.trackers import TrackerConfig, run_tracker

from helpers import time_doubled


def mb(n: float) -> int:
    return int(n * MB)


def test_fixed_metric_defaults():
    t = CostTable.default()
    assert t.cost_us("M1") == 0.315
    assert t.cost_us("M7") == 0.936
    assert t.cost_us("M8") == 0.801
    assert t.cost_us("M9") == 5495.0
    assert t.cost_us("M10") == 5878.0
    assert t.cost_us("M13") == 0.3
    # fixed metrics ignore memory size
    assert t.cost_us("M8", mb(500)) == 0.801


def test_sized_metric_hits_every_anchor():
    t = CostTable.default()
    anchors = {
        "M5": (0.003, 0.3, 1.68, 3.34, 8.39, 16.79, 33.58),
        "M6": (2.5, 27.3, 152.3, 347.1, 882.8, 1585.0, 3483.0),
        "M14": (0.042, 0.047, 0.138, 0.156, 0.189, 0.203, 0.208),
        "M15": (0.032, 0.0912, 0.174, 0.288, 0.613, 1.153, 2.234),
        "M16": (1.912, 14.479, 41.832, 82.289, 161.973, 307.109, 594.187),
        "M17": (6.183, 24.653, 85.117, 255.437, 1211.0, 4123.0, 15738.0),
        "M18": (0.003, 0.01, 0.03, 0.048, 0.109, 0.383, 0.671),
    }
    sizes_mb = (1, 10, 50, 100, 250, 500, 1000)
    for metric, values in anchors.items():
        for size, ms_value in zip(sizes_mb, values):
            assert t.cost_us(metric, mb(size)) == pytest.approx(ms_value * 1000.0)


def test_interpolation_midpoint_oracle():
    # Hand-derived: 750MB sits exactly halfway between the 500MB and 1GB
    # anchors, so M17 must be (4123 + 15738) / 2 = 9930.5 ms.
    t = CostTable.default()
    assert t.cost_us("M17", mb(750)) == pytest.approx(9930.5 * 1000.0)


def test_interpolation_general_point_oracle():
    # 64MB between the 50MB and 100MB anchors:
    # 85.117 + (14/50) * (255.437 - 85.117) = 132.8066 ms.
    t = CostTable.default()
    assert t.cost_us("M17", mb(64)) == pytest.approx(132.8066 * 1000.0)
    # M5 at 750MB: 16.79 + 0.5 * (33.58 - 16.79) = 25.185 ms.
    assert t.cost_us("M5", mb(750)) == pytest.approx(25.185 * 1000.0)


def test_extrapolation_beyond_largest_anchor():
    # Slope of the last M17 segment is (15738 - 4123) / 500 ms per MB;
    # at 2000MB: 15738 + 1000 * 23.23 = 38968 ms.
    t = CostTable.default()
    assert t.cost_us("M17", mb(2000)) == pytest.approx(38968.0 * 1000.0)


def test_clamp_below_smallest_anchor():
    t = CostTable.default()
    assert t.cost_us("M17", mb(0.5)) == pytest.approx(6.183 * 1000.0)
    assert t.cost_us("M15", 4096) == pytest.approx(0.032 * 1000.0)


def test_per_page_rate():
    t = CostTable.default()
    # 1GB = 1000MB = 256_000 pages; M17 total 15_738_000 us.
    assert pages_for(mb(1000)) == 256_000
    assert t.per_page_us("M17", mb(1000)) == pytest.approx(61.4765625)
    assert pages_for(mb(1)) == 256


def test_unknown_metric_errors():
    t = CostTable.default()
    with pytest.raises(UnknownMetric):
        t.cost_us("M99")
    with pytest.raises(UnknownMetric):
        t.cost_us("M17")  # sized metric needs a memory size
    with pytest.raises(UnknownMetric):
        t.param("no_such_param")


def test_calibration_file_roundtrip(tmp_path):
    t = CostTable.default()
    path = tmp_path / "table.cal"
    path.write_text(t.dump_calibration())
    overrides = load_calibration_file(str(path))
    fresh = CostTable.default()
    fresh.apply_overrides(overrides)
    assert fresh.fixed_us == t.fixed_us
    assert fresh.sized_ms == t.sized_ms
    assert fresh.params == t.params


def test_calibration_overrides(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_text(
        """
        # comment line
        M8 = 0.9
        M17@750MB = 5000   # new anchor, ms
        M17@1GB = 16000
        write_cost_us = 1.1
        """
    )
    t = CostTable.from_calibration(str(path))
    assert t.cost_us("M8") == 0.9
    assert t.cost_us("M17", mb(750)) == pytest.approx(5000.0 * 1000.0)
    assert t.cost_us("M17", mb(1000)) == pytest.approx(16000.0 * 1000.0)
    assert t.param("write_cost_us") == 1.1
    # unrelated anchors untouched
    assert t.cost_us("M17", mb(1)) == pytest.approx(6.183 * 1000.0)


def test_calibration_env_var(tmp_path, monkeypatch):
    path = tmp_path / "env.cal"
    path.write_text("M13 = 0.7\n")
    monkeypatch.setenv("OOHSIM_CALIBRATION", str(path))
    assert CostTable.from_calibration().cost_us("M13") == 0.7
    # explicit path wins over the environment
    other = tmp_path / "other.cal"
    other.write_text("M13 = 0.5\n")
    assert CostTable.from_calibration(str(other)).cost_us("M13") == 0.5
    monkeypatch.delenv("OOHSIM_CALIBRATION")
    assert CostTable.from_calibration().cost_us("M13") == 0.3


def test_calibration_errors(tmp_path):
    t = CostTable.default()
    with pytest.raises(CalibrationError):
        t.apply_overrides({"M17": 5.0})  # sized metric without @size
    with pytest.raises(CalibrationError):
        t.apply_overrides({"M8@10MB": 5.0})  # fixed metric with a size
    with pytest.raises(CalibrationError):
        t.apply_overrides({"bogus_key": 1.0})
    with pytest.raises(CalibrationError):
        t.apply_overrides({"migration_page_xfer_us": 2.5})  # nothing would read it
    with pytest.raises(CalibrationError):
        t.apply_overrides({"M17@10parsecs": 1.0})
    bad = tmp_path / "bad.cal"
    bad.write_text("M8 0.9\n")
    with pytest.raises(CalibrationError):
        load_calibration_file(str(bad))
    worse = tmp_path / "worse.cal"
    worse.write_text("M8 = not_a_number\n")
    with pytest.raises(CalibrationError):
        load_calibration_file(str(worse))


@pytest.mark.parametrize("bad", [0, 0.5, -64, math.nan, math.inf])
def test_drain_batch_must_be_a_whole_number_of_entries(bad):
    # an empty batch left a stalled spml run waiting to the horizon (and
    # forever at an infinite one); a negative one broke the report
    t = CostTable.default()
    with pytest.raises(CalibrationError, match="spml_drain_batch"):
        t.apply_overrides({"spml_drain_batch": bad})
    assert t.param("spml_drain_batch") == 64.0
    t.apply_overrides({"spml_drain_batch": 1.0})
    assert t.prices(1 << 20).drain_batch == 1


@pytest.mark.parametrize(
    ("key", "bad"),
    [
        ("write_cost_us", 0.0),  # divided a segment run's quantum: ZeroDivisionError
        ("write_cost_us", -0.9),
        ("write_cost_us", math.nan),  # ValueError in the stretch arithmetic
        ("write_cost_us", math.inf),  # a run that never ends
        ("vmexit_ept_clear_us", math.nan),  # a nan overhead, without a word
        ("M1", -5.0),
        ("M8", math.inf),
        ("M17@1GB", math.nan),
        ("M17@1GB", -1.0),
        ("M17@infMB", 1.0),
        ("dump_page_us", -math.inf),
    ],
)
def test_a_non_finite_or_negative_calibration_value_is_rejected(key, bad):
    t = CostTable.default()
    with pytest.raises(CalibrationError, match=key.replace("@", ".")):
        t.apply_overrides({key: bad})
    default = CostTable.default()
    assert (t.fixed_us, t.sized_ms, t.params) == (
        default.fixed_us, default.sized_ms, default.params
    )


@pytest.mark.parametrize("size", ["-5MB", "0MB", "0GB", "-0.5KB"])
def test_an_anchor_at_or_below_zero_size_is_rejected(size):
    # M16@-5MB = 1000 moved M16 at 0.5 MB from 1,912 to 85,086 us
    t = CostTable.default()
    with pytest.raises(CalibrationError, match=re.escape(f"M16@{size}")):
        t.apply_overrides({f"M16@{size}": 1000.0})
    assert t.sized_ms == CostTable.default().sized_ms


def test_a_zero_cost_is_a_legal_calibration_value():
    t = CostTable.default()
    t.apply_overrides({"M1": 0.0, "M17@1GB": 0.0, "vmexit_ept_clear_us": 0.0})
    assert t.cost_us("M1") == 0.0 and t.param("vmexit_ept_clear_us") == 0.0


def _results(table: CostTable) -> list:
    """Every report field of four 4 MB, 3-round runs (ring 1,024) and every
    technique's modelled checkpoint, at ``table``'s prices."""
    out = []
    for technique in TECHNIQUES:
        config = TrackerConfig(technique, mb(4), rounds=3, ring_capacity=1024, table=table)
        out += [asdict(run_tracker(config)), checkpoint_time_model(technique, mb(4), table=table)]
    return out


def test_every_calibration_key_changes_a_result():
    # a key that moves no result is a knob that does nothing
    default = CostTable.default()
    doubled = {metric: {metric: 2 * us} for metric, us in default.fixed_us.items()}
    doubled.update(
        (metric, {f"{metric}@{size}MB": 2 * ms for size, ms in anchors})
        for metric, anchors in default.sized_ms.items()
    )
    doubled.update((key, {key: 2 * value}) for key, value in default.params.items())
    base, unmoved = _results(default), []
    for key, overrides in doubled.items():
        table = CostTable.default()
        table.apply_overrides(overrides)
        if _results(table) == base:
            unmoved.append(key)
    assert unmoved == []


def test_anchor_lists_strictly_increasing_after_overrides():
    t = CostTable.default()
    t.apply_overrides({"M17@2GB": 30000.0, "M17@750MB": 9000.0})
    sizes = [s for s, _ in t.sized_ms["M17"]]
    assert sizes == sorted(sizes)
    assert len(sizes) == len(set(sizes))
    # interpolation now uses the inserted 2GB anchor
    mid = t.cost_us("M17", mb(1500))
    assert mid == pytest.approx((15738.0 + 30000.0) / 2 * 1000.0)


def test_estimator_trivial_case():
    t = CostTable.default()
    est = estimate_epml(123.0, 0, t, c_copyrb_us=0.0)
    assert est.p_epml_us == 123.0


def test_estimator_worked_example():
    t = CostTable.default()
    est = estimate_epml(1_000_000.0, 1000, t, c_copyrb_us=42.0)
    assert est.p_epml_us == pytest.approx(
        1_000_000.0 + 1000 * (3 * 0.801 + 0.936) + 42.0
    )
    assert est.p_epml_us == pytest.approx(1_003_381.0)


def test_estimator_uses_m18_at_memory_size():
    t = CostTable.default()
    est = estimate_epml(0.0, 0, t, memory_bytes=mb(1000))
    assert est.c_copyrb_us == pytest.approx(671.0)
    assert est.p_epml_us == pytest.approx(671.0)


def test_estimator_identity_enforced():
    with pytest.raises(ValueError):
        EpmlEstimate(
            p_vanilla_us=1.0,
            n_events=1,
            c_vmread_us=1.0,
            c_vmwrite_us=1.0,
            c_copyrb_us=0.0,
            p_epml_us=999.0,
        )
    with pytest.raises(ValueError):
        estimate_epml(1.0, -1, CostTable.default())


@settings(deadline=None)
@given(
    technique=st.sampled_from(TECHNIQUES),
    memory_bytes=st.integers(3 * 1024, 2_400 * MB),
    dirty_share=st.none() | st.floats(0.0, 1.0),
    p_vanilla_us=st.floats(0.0, 1e9),
    n_events=st.integers(0, 10**7),
)
# the ends of the range: below the first anchor (1 MB) and past the last (1 GB),
# at stdhash's footprint
@example(technique="spml", memory_bytes=3 * 1024, dirty_share=None, p_vanilla_us=1.0, n_events=1)
@example(technique="proc", memory_bytes=2_400 * MB, dirty_share=0.016, p_vanilla_us=3e6,
         n_events=6_840)
def test_closed_forms_scale_with_every_price(
    technique, memory_bytes, dirty_share, p_vanilla_us, n_events
):
    """Doubling every µs and ms price doubles a dump's collect and dump µs
    (:func:`checkpoint_time_model`) and, with the vanilla time doubled too,
    :func:`estimate_epml`'s ``p_epml_us``, exactly: both are sums and
    products of prices, interpolated linearly between anchors or past the
    last, and a double of a float is exact through each."""
    table = CostTable.default()
    doubled = time_doubled(table)
    dirty = None if dirty_share is None else int(dirty_share * pages_for(memory_bytes))
    base = checkpoint_time_model(technique, memory_bytes, dirty_pages=dirty, table=table)
    twice = checkpoint_time_model(technique, memory_bytes, dirty_pages=dirty, table=doubled)
    assert (twice.collect_us, twice.dump_us) == (2 * base.collect_us, 2 * base.dump_us)
    est = estimate_epml(p_vanilla_us, n_events, table, memory_bytes=memory_bytes)
    est2 = estimate_epml(2 * p_vanilla_us, n_events, doubled, memory_bytes=memory_bytes)
    assert est2.p_epml_us == 2 * est.p_epml_us


def test_overhead_definition():
    assert overhead(110.0, 100.0) == pytest.approx(10.0)
    assert overhead(100.0, 100.0) == 0.0
    assert math.isclose(overhead(250.0, 100.0), 150.0)
    with pytest.raises(ValueError):
        overhead(1.0, 0.0)
