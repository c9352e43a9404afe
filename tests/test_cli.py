"""Exit codes, file outputs, and flag handling of the command line."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from oohsim import experiments, trackers
from oohsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from oohsim.costs import CostTable
from oohsim.reports import CSV_COLUMNS, rows_from_csv


def write_config(tmp_path: Path, body: str) -> str:
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return str(path)


GOLDEN = Path(__file__).parent / "golden"
SMALL = "[experiment]\nmemory_sizes = 1MB\ntechniques = epml, proc\nrounds = 3\n"


# ------------------------------------------------------------------- run


def test_run_writes_reports_and_succeeds(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert [Path(p).name for p in printed] == [
        "report.csv",
        "report.json",
        "report.plotdata",
    ]
    rows = rows_from_csv((out / "report.csv").read_text())
    assert [(r["technique"], r["memory_bytes"]) for r in rows] == [
        ("epml", 1 << 20),
        ("proc", 1 << 20),
    ]


def test_run_without_config_uses_defaults(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path), "--formats", "csv"]) == EXIT_OK
    rows = rows_from_csv((tmp_path / "report.csv").read_text())
    assert len(rows) == 4  # default grid: one size, four techniques


def test_malformed_config_exits_2(tmp_path, capsys):
    for key in ("memory_size", "competitors"):  # misspelt, and never read
        cfg = write_config(tmp_path, f"[experiment]\n{key} = 1\n")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
    cal = tmp_path / "old.cal"
    for key in ("migration_max_rounds", "M3"):  # a retired knob, and a metric no run charges
        cal.write_text(f"{key} = 30\n")
        assert main(["run", "--calibration", str(cal)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0", "0.5", "-64", "nan", "inf"])
def test_an_empty_or_partial_drain_batch_exits_2(tmp_path, capsys, bad):
    cal = tmp_path / "batch.cal"
    cal.write_text(f"spml_drain_batch = {bad}\n")
    cfg = write_config(tmp_path, "[experiment]\nmemory_sizes = 1MB\ntechniques = spml\n")
    assert main(["run", "--config", cfg, "--calibration", str(cal)]) == EXIT_CONFIG
    assert "spml_drain_batch" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("key", "bad"),
    [
        ("write_cost_us", "0"),
        ("write_cost_us", "nan"),
        ("write_cost_us", "inf"),
        ("vmexit_ept_clear_us", "nan"),
        ("M1", "-5"),
        ("M17@1GB", "nan"),
    ],
)
def test_a_bad_calibration_value_exits_2_before_any_run(tmp_path, capsys, key, bad):
    cal = tmp_path / "bad.cal"
    cal.write_text(f"{key} = {bad}\n")

    def no_run(self):  # an infinite write cost would never finish
        raise AssertionError("a tracker run started")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trackers._Run, "_workload", no_run)
        code = main([
            "sweep", "--sizes", "4MB", "--techniques", "proc,spml", "--rounds", "2",
            "--calibration", str(cal), "--out", str(tmp_path / "out"),
        ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("technique", ["spml", "epml"])
def test_an_infinite_collection_interval_exits_2(tmp_path, capsys, technique):
    cfg = write_config(
        tmp_path,
        f"[experiment]\nmemory_sizes = 4MB\ntechniques = {technique}\n"
        "collection_interval_us = inf\n",
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "collection_interval_us" in err


def test_an_infinite_churn_rate_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    calls = []
    real = experiments.run_tracker
    monkeypatch.setattr(experiments, "run_tracker", lambda cfg: calls.append(cfg) or real(cfg))
    out = tmp_path / "out"
    for workload in ("microbench", "kv:stdtree"):
        cfg = write_config(tmp_path, SMALL + f"workload = {workload}\nkv_churn_rate = inf\n")
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "kv_churn_rate" in err
    assert calls == [] and not out.exists()


def test_churn_that_does_not_fit_between_the_writes_exits_2_naming_both_keys(
    tmp_path, capsys, monkeypatch
):
    # 1e12 churn events a second over 10 writes of 0.9 µs: 9,000,000 events
    calls = []
    real = experiments.run_tracker
    monkeypatch.setattr(experiments, "run_tracker", lambda cfg: calls.append(cfg) or real(cfg))
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "[experiment]\nworkload = kv:stdtree\nkv_ops = 10\nkv_churn_rate = 1e12\n"
    )
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: kv_churn_rate:") and "kv_ops" in err
    assert calls == [] and not out.exists()


def test_missing_config_file_exits_3(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_unwritable_out_dir_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["run", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == EXIT_IO


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, SMALL + "seed = 1\n")
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    main(["run", "--config", cfg, "--out", str(out_a), "--formats", "csv"])
    main(["run", "--config", cfg, "--out", str(out_b), "--formats", "csv", "--seed", "1"])
    main(["run", "--config", cfg, "--out", str(out_c), "--formats", "csv", "--seed", "9"])
    text_a = (out_a / "report.csv").read_text()
    assert text_a == (out_b / "report.csv").read_text()
    # deterministic microbench: the seed changes nothing in this workload
    assert text_a == (out_c / "report.csv").read_text()


def test_unknown_format_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert main(["run", "--config", cfg, "--formats", "pdf"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("formats", ["", " , ", "csv,xml"])
def test_an_empty_or_unknown_format_list_exits_2_before_any_run(
    tmp_path, capsys, monkeypatch, command, formats
):
    calls = []
    real = experiments.run_tracker
    monkeypatch.setattr(experiments, "run_tracker", lambda cfg: calls.append(cfg) or real(cfg))
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--formats", formats]) == EXIT_CONFIG
    assert "format" in capsys.readouterr().err
    assert calls == [] and not out.exists()


# ----------------------------------------------------------------- sweep


def test_sweep_cross_product_merges_sorted(tmp_path):
    code = main(
        [
            "sweep",
            "--sizes", "10MB,1MB",
            "--techniques", "uffd,epml",
            "--rounds", "2",
            "--out", str(tmp_path),
            "--formats", "csv",
        ]
    )
    assert code == EXIT_OK
    rows = rows_from_csv((tmp_path / "sweep.csv").read_text())
    assert [(r["technique"], r["memory_bytes"]) for r in rows] == [
        ("epml", 1 << 20),
        ("epml", 10 << 20),
        ("uffd", 1 << 20),
        ("uffd", 10 << 20),
    ]


def test_sweep_single_cell_is_one_row(tmp_path):
    main(
        [
            "sweep",
            "--sizes", "1MB",
            "--techniques", "epml",
            "--out", str(tmp_path),
            "--formats", "csv",
        ]
    )
    assert len(rows_from_csv((tmp_path / "sweep.csv").read_text())) == 1


def test_sweep_report_equals_the_golden_files(tmp_path, capsys):
    """Every column of the 7-size x 4-technique sweep, in each format, byte for
    byte; a change that alters them on purpose regenerates tests/golden/sweep.*."""
    code = main(
        [
            "sweep",
            "--sizes", "1MB,10MB,50MB,100MB,250MB,500MB,1GB",
            "--techniques", "proc,uffd,spml,epml",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    for name in ("sweep.csv", "sweep.json", "sweep.plotdata"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_sweep_empty_technique_list_exits_2(tmp_path, capsys):
    code = main(["sweep", "--techniques", "", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "techniques" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["infMB", "nanMB", "1e300GB"])
def test_sweep_a_size_of_no_finite_byte_count_exits_2_naming_it(tmp_path, capsys, size):
    code = main(["sweep", "--sizes", size, "--techniques", "proc", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert repr(size) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------- calibrate


def test_calibrate_prints_and_dumps_the_effective_table(tmp_path, capsys):
    assert main(["calibrate"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "M1 = " in stdout and "M17@1GB = " in stdout
    dump = tmp_path / "eff.cal"
    assert main(["calibrate", "--dump", str(dump)]) == EXIT_OK
    assert dump.read_text().splitlines()[0].startswith("#")


def test_calibrate_check_accepts_good_and_rejects_bad(tmp_path, capsys):
    good = tmp_path / "good.cal"
    good.write_text("M1 = 0.5\nM17@1GB = 12000\n")
    assert main(["calibrate", "--check", str(good)]) == EXIT_OK
    bad = tmp_path / "bad.cal"
    bad.write_text("M99_unknown = 3\n")
    assert main(["calibrate", "--check", str(bad)]) == EXIT_CONFIG


def test_calibrate_check_rejects_an_anchor_at_a_negative_size(tmp_path, capsys):
    bad = tmp_path / "negative.cal"
    bad.write_text("M16@-5MB = 1000\n")
    assert main(["calibrate", "--check", str(bad)]) == EXIT_CONFIG
    assert "M16@-5MB" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["calibrate", "--check", "{cal}"], False),
        (["calibrate", "--calibration", "{cal}", "--dump", "{out}/eff.cal"], False),
        (["repro", "--figure", "table5", "--out", "{out}", "--calibration", "{cal}"], False),
        (["run", "--out", "{out}"], True),
    ],
    ids=["check", "dump", "repro", "env"],
)
def test_a_calibration_key_set_twice_exits_2_naming_both_lines(
    tmp_path, capsys, monkeypatch, argv, env
):
    # a second line must not silently win over the first
    cal, out = tmp_path / "twice.cal", tmp_path / "out"
    cal.write_text("M1 = 0.5\nM8 = 0.9\nM1 = 0.7\n")
    if env:
        monkeypatch.setenv("OOHSIM_CALIBRATION", str(cal))
    assert main([arg.format(cal=cal, out=out) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "'M1' is already set on line 1" in captured.err and ":3:" in captured.err
    assert captured.out == "" and not out.exists()


def test_calibration_env_var_feeds_the_run(tmp_path, monkeypatch):
    cal = tmp_path / "env.cal"
    # an absurd write cost makes the ideal time obviously calibrated
    cal.write_text("write_cost_us = 9.0\n")
    out_default, out_env = tmp_path / "d", tmp_path / "e"
    main(["run", "--out", str(out_default), "--formats", "csv"])
    monkeypatch.setenv("OOHSIM_CALIBRATION", str(cal))
    main(["run", "--out", str(out_env), "--formats", "csv"])
    base = rows_from_csv((out_default / "report.csv").read_text())
    env = rows_from_csv((out_env / "report.csv").read_text())
    assert env[0]["ideal_us"] == pytest.approx(10 * base[0]["ideal_us"])


def test_calibration_flag_beats_defaults_for_repro(tmp_path, capsys):
    cal = tmp_path / "flat.cal"
    cal.write_text("dump_base_ms = 208.8\n")
    assert (
        main(["repro", "--figure", "table5", "--out", str(tmp_path), "--calibration", str(cal)])
        == EXIT_OK
    )
    text = (tmp_path / "repro_table5.csv").read_text()
    cell_1mb = next(r for r in text.splitlines() if r.startswith("table5,proc@1MB"))
    # doubled dump base: the 1MB cell grows by ~104 ms over the default model
    from oohsim.checkpoint import checkpoint_time_model

    grown = checkpoint_time_model(
        "proc", 1 << 20, table=CostTable.from_calibration(str(cal))
    ).total_ms
    assert f"{grown:.3f}" in cell_1mb


# ---------------------------------------------------------------- report


def test_report_rerenders_between_formats(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out / "report.json"), "--format", "csv"]) == EXIT_OK
    from_json = capsys.readouterr().out
    assert from_json == (out / "report.csv").read_text()
    dest = tmp_path / "again.plotdata"
    main(["report", str(out / "report.csv"), "--format", "plotdata", "--out", str(dest)])
    assert dest.read_text() == (out / "report.plotdata").read_text()


def test_report_on_garbage_exits_2(tmp_path, capsys):
    garbage = tmp_path / "x.csv"
    garbage.write_text("not,a,report\n1,2,3\n")
    assert main(["report", str(garbage)]) == EXIT_CONFIG
    # well-formed files with rows of the wrong shape name what is wrong
    header = ",".join(CSV_COLUMNS)
    for name, text, named in (
        ("row.json", '{"rows":[{"technique":"proc"}]}', "'memory_bytes'"),
        ("list.json", "[]", '"rows"'),
        ("short.csv", f"{header}\nproc,1\n", "'ideal_us'"),
        ("long.csv", f"{header}\nproc" + ",1" * len(CSV_COLUMNS) + "\n", "more cells"),
    ):
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        assert main(["report", str(tmp_path / name)]) == EXIT_CONFIG, name
        assert named in capsys.readouterr().err, name


def test_report_missing_input_exits_3(tmp_path):
    assert main(["report", str(tmp_path / "none.csv")]) == EXIT_IO


# ----------------------------------------------------------------- repro


def test_repro_writes_comparison_grid(tmp_path, capsys):
    assert main(["repro", "--figure", "table5", "--out", str(tmp_path)]) == EXIT_OK
    captured = capsys.readouterr()
    dest = tmp_path / "repro_table5.csv"
    assert dest.exists()
    assert captured.out == dest.read_text()
    lines = captured.out.splitlines()
    assert lines[0] == "figure,label,unit,published,simulated,rel_err_pct"
    assert len(lines) == 1 + 21


def test_repro_unknown_figure_exits_2(tmp_path, capsys):
    assert main(["repro", "--figure", "fig42", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "fig42" in capsys.readouterr().err


def test_repro_reruns_identically(tmp_path, capsys):
    main(["repro", "--figure", "fig9", "--out", str(tmp_path / "a")])
    first = capsys.readouterr().out
    main(["repro", "--figure", "fig9", "--out", str(tmp_path / "b")])
    assert capsys.readouterr().out == first


# ------------------------------------------------------------- structure


def test_exactly_one_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_CONFIG


def test_console_entry_point_is_wired():
    import oohsim.cli as cli

    assert callable(cli.main)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'oohsim = "oohsim.cli:main"' in pyproject.read_text()
