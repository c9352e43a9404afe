"""Config validation, experiment runs, and comparison-grid behavior."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oohsim.checkpoint import DEFAULT_WORKING_SETS, checkpoint_time_model
from oohsim.experiments import (
    ComparisonRow,
    ConfigError,
    ExperimentConfig,
    REPRO_FIGURES,
    SIZE_GRID,
    UnknownFigure,
    comparison_csv,
    emit_reports,
    parse_size,
    reference_values,
    repro,
    repro_fig8,
    run,
    validate_estimator,
)
from oohsim.reports import CSV_COLUMNS, render, rows_from_csv
from oohsim.workloads import KV_FOOTPRINTS, MB, KvWorkloadSpec

from helpers import rel_err


# ----------------------------------------------------------- config parsing


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    assert cfg.techniques == ("proc", "uffd", "spml", "epml")
    assert cfg.memory_sizes == (100 * MB,)


def test_parse_size_accepts_suffixes_and_bytes():
    assert parse_size("1MB") == MB
    assert parse_size("1GB") == 1000 * MB
    assert parse_size("512KB") == MB // 2
    assert parse_size(4096) == 4096
    assert parse_size("4096") == 4096
    with pytest.raises(ConfigError):
        parse_size("10 acres")


def test_unknown_key_rejected():
    # a misspelt key, and ones that would change no result
    for key in ("memory_size", "competitors", "vcpus"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_mapping({key: "1"})


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"seed": -1}, "seed"),
        ({"memory_sizes": (1.5,)}, "memory_sizes"),
        ({"memory_sizes": ()}, "memory_sizes"),
        ({"memory_sizes": (0,)}, "memory_sizes"),
        ({"techniques": ()}, "techniques"),
        ({"techniques": ("vmware",)}, "techniques"),
        ({"workload": "kv:rocksdb"}, "workload"),
        ({"workload": "macrobench"}, "workload"),
        ({"rounds": -1}, "rounds"),
        ({"kv_ops": -5}, "kv_ops"),
        ({"kv_churn_rate": -0.1}, "kv_churn_rate"),
        ({"quantum_us": 0}, "quantum_us"),
        ({"seed": 1.5}, "seed"),
        ({"collection_interval_us": 0}, "collection_interval_us"),
        ({"ring_capacity": 0}, "ring_capacity"),
        ({"ring_full_policy": "panic"}, "ring_full_policy"),
        ({"horizon_us": -1}, "horizon_us"),
        ({"techniques": ("spml",), "ring_capacity": 256}, "ring_capacity"),
        ({"kv_churn_rate": float("nan")}, "kv_churn_rate"),
        ({"kv_churn_rate": math.inf}, "kv_churn_rate"),
        ({"workload": "kv:tiny", "kv_churn_rate": math.inf}, "kv_churn_rate"),
    ],
)
def test_bad_field_names_itself_in_the_diagnostic(overrides, field):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**overrides)


@settings(max_examples=60, deadline=None)
@given(
    workload=st.sampled_from(["microbench", "kv:tiny", "kv:stdtree"]),
    churn_rate=st.one_of(st.sampled_from([0.0, math.inf, -math.inf, math.nan]), st.floats()),
)
def test_a_config_takes_the_churn_rates_the_kv_spec_takes(workload, churn_rate):
    # whatever the workload, the spec's rule decides, and the config's error
    # names the config key
    try:
        KvWorkloadSpec("kv", MB, churn_rate=churn_rate)
    except ValueError:
        with pytest.raises(ConfigError, match="^kv_churn_rate: "):
            ExperimentConfig(workload=workload, kv_churn_rate=churn_rate)
    else:
        ExperimentConfig(workload=workload, kv_churn_rate=churn_rate)  # accepted


def test_from_mapping_coerces_strings():
    cfg = ExperimentConfig.from_mapping(
        {
            "seed": "7",
            "memory_sizes": "1MB, 50MB",
            "techniques": "epml, proc",
            "quantum_us": "5000",
            "ring_full_policy": "drop",
        }
    )
    assert cfg.seed == 7
    assert cfg.memory_sizes == (MB, 50 * MB)
    assert cfg.techniques == ("epml", "proc")
    assert cfg.quantum_us == 5000.0
    assert cfg.ring_full_policy == "drop"


def test_from_ini_roundtrip(tmp_path: Path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\n"
        "seed = 3\n"
        "memory_sizes = 10MB\n"
        "techniques = epml\n"
        "rounds = 2\n"
    )
    cfg = ExperimentConfig.from_ini(path)
    assert cfg == ExperimentConfig(
        seed=3, memory_sizes=(10 * MB,), techniques=("epml",), rounds=2
    )


def test_from_ini_rejects_missing_section_and_unknown_key(tmp_path: Path):
    empty = tmp_path / "empty.ini"
    empty.write_text("[other]\nx = 1\n")
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_ini(empty)
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nmemory_size = 1MB\n")
    with pytest.raises(ConfigError, match="memory_size"):
        ExperimentConfig.from_ini(bad)
    twosec = tmp_path / "two.ini"
    twosec.write_text("[experiment]\nseed = 1\n[extra]\nx = 2\n")
    with pytest.raises(ConfigError, match="extra"):
        ExperimentConfig.from_ini(twosec)


def test_points_are_sorted_cross_product():
    cfg = ExperimentConfig(
        techniques=("uffd", "epml"), memory_sizes=(50 * MB, MB)
    )
    assert cfg.points() == [
        ("epml", MB),
        ("epml", 50 * MB),
        ("uffd", MB),
        ("uffd", 50 * MB),
    ]


def test_kv_workload_pins_size_to_the_engine_footprint():
    cfg = ExperimentConfig(
        workload="kv:stdtree", techniques=("epml",), memory_sizes=(MB, 50 * MB)
    )
    assert cfg.points() == [("epml", KV_FOOTPRINTS["stdtree"])]


# ------------------------------------------------------------------- run()


def test_zero_horizon_yields_empty_report():
    report = run(ExperimentConfig(horizon_us=0))
    assert report.rows == []


def test_full_sweep_has_28_rows_sorted():
    cfg = ExperimentConfig(memory_sizes=tuple(size for _, size in SIZE_GRID))
    report = run(cfg)
    assert len(report.rows) == 28
    keys = [(r.technique, r.memory_bytes) for r in report.rows]
    assert keys == sorted(keys)
    assert all(r.checkpoint_ms > 0 for r in report.rows)


def test_same_config_twice_renders_identical_csv():
    cfg = ExperimentConfig(memory_sizes=(MB, 10 * MB), seed=11)
    first = render(run(cfg), "csv")
    second = render(run(cfg), "csv")
    assert first == second
    assert first.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_kv_run_uses_observed_dirty_pages_for_the_checkpoint_column():
    cfg = ExperimentConfig(workload="kv:stdtree", techniques=("epml",), kv_ops=500)
    row = run(cfg).rows[0]
    footprint = KV_FOOTPRINTS["stdtree"]
    full_dirty = checkpoint_time_model("epml", footprint).total_ms
    assert 0 < row.checkpoint_ms < full_dirty


def test_kv_run_builds_its_trace_once(monkeypatch):
    cfg = ExperimentConfig(workload="kv:stdtree", kv_ops=500)
    alone = [
        row
        for tech in cfg.techniques
        for row in run(ExperimentConfig(workload="kv:stdtree", kv_ops=500, techniques=(tech,))).rows
    ]
    calls = []
    make_trace = KvWorkloadSpec.make_trace

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return make_trace(self, *args, **kwargs)

    monkeypatch.setattr(KvWorkloadSpec, "make_trace", counted)
    rows = run(cfg).rows
    assert len(cfg.techniques) == 4 and calls == ["stdtree"]
    assert rows == sorted(alone, key=lambda r: (r.technique, r.memory_bytes))


def test_emit_reports_writes_each_format(tmp_path: Path):
    report = run(ExperimentConfig(techniques=("epml",), memory_sizes=(MB,)))
    paths = emit_reports(report, out_dir=tmp_path)
    assert [p.name for p in paths] == ["report.csv", "report.json", "report.plotdata"]
    rows = rows_from_csv(paths[0].read_text())
    assert rows[0]["technique"] == "epml"
    with pytest.raises(ConfigError, match="xml"):
        emit_reports(report, formats=("xml",), out_dir=tmp_path)


def test_emit_reports_on_empty_report_writes_headers_only(tmp_path: Path):
    paths = emit_reports(run(ExperimentConfig(horizon_us=0)), out_dir=tmp_path)
    assert paths[0].read_text() == ",".join(CSV_COLUMNS) + "\n"


# -------------------------------------------------------- comparison grids


def test_reference_data_file_has_provenance_and_grids():
    ref = reference_values()
    for section in (
        "table1.tracked.proc",
        "table1.tracked.uffd",
        "table1.tracker.proc",
        "table1.tracker.uffd",
        "table5.proc",
        "table5.spml",
        "table5.epml",
        "fig6",
        "fig8",
        "fig9",
        "coexist",
    ):
        assert ref.has_section(section), section
    assert float(ref["table1.tracked.proc"]["1GB"]) == 335
    assert float(ref["table5.spml"]["1GB"]) == 16326
    assert float(ref["coexist"]["migration_inflation_pct"]) == 45


def test_comparison_csv_formats_blanks_for_unpublished_cells():
    rows = [
        ComparisonRow("f", "a", "%", 10.0, 11.0),
        ComparisonRow("f", "b", "%", None, 5.0),
        ComparisonRow("f", "c", "%", 0.0, 5.0),
    ]
    text = comparison_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "figure,label,unit,published,simulated,rel_err_pct"
    assert lines[1] == "f,a,%,10.000,11.000,10.000"
    assert lines[2] == "f,b,%,,5.000,"
    assert lines[3] == "f,c,%,0.000,5.000,"


def test_unknown_figure_raises():
    with pytest.raises(UnknownFigure, match="fig42"):
        repro("fig42")
    assert set(REPRO_FIGURES) == {
        "table1",
        "table5",
        "fig6",
        "fig8",
        "fig9",
        "coexist",
    }


def test_repro_table5_is_the_published_21_cell_grid():
    rows = repro("table5")
    assert len(rows) == 21
    assert all(row.published is not None for row in rows)
    assert all(abs(row.rel_err_pct) < 100.0 for row in rows)
    # pure over (calibration, seed): a second run is identical
    assert comparison_csv(rows) == comparison_csv(repro("table5"))


def test_repro_table1_anchors_hold_at_the_largest_size():
    by_label = {row.label: row for row in repro("table1")}
    assert abs(by_label["tracked/proc@1GB"].rel_err_pct) <= 30
    assert abs(by_label["tracked/uffd@1GB"].rel_err_pct) <= 30
    assert by_label["tracked/epml@1GB"].simulated <= 1.0
    assert len(by_label) == 30


def test_repro_fig6_average_fraction_meets_the_published_floor():
    rows = repro("fig6")
    avg = rows[-1]
    assert avg.label == "rm_fraction_avg"
    assert avg.simulated >= avg.published >= 0.55


def test_repro_fig9_covers_the_working_set_sweep():
    rows = repro("fig9")
    assert len(rows) == len(DEFAULT_WORKING_SETS)
    assert rows[0].published == 76.7 and rows[-1].published == 2.7
    sims = [row.simulated for row in rows]
    assert sims == sorted(sims, reverse=True)


def test_repro_fig8_orders_techniques_per_engine():
    rows = repro_fig8(n_ops=2000, engines=("stdtree",))
    by_label = {row.label: row.simulated for row in rows}
    assert (
        by_label["epml@stdtree"]
        < by_label["proc@stdtree"]
        < by_label["spml@stdtree"]
    )
    assert rows[-1].label == "epml@average"


def test_repro_coexist_inflation_is_inside_the_reported_band():
    by_label = {row.label: row for row in repro("coexist")}
    inflation = by_label["migration_inflation"].simulated
    assert 20.0 <= inflation <= 80.0
    assert by_label["coordination_violations"].simulated == 0


# ------------------------------------------------------ estimator validation


def test_estimator_matches_simulation_within_one_percent():
    checks = validate_estimator(n_configs=6, seed=5)
    assert len(checks) == 6
    assert all(rel_err(c) <= 0.01 for c in checks)
    assert len({c.memory_bytes for c in checks}) > 1
