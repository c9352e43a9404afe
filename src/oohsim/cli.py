"""Command-line front end.

Five subcommands, one per invocation:

* ``run`` — execute one configured experiment and write its reports.
* ``sweep`` — cross-product of sizes and techniques, merged into one report.
* ``calibrate`` — print, dump, or check a cost-calibration file.
* ``report`` — re-render a saved report in another format.
* ``repro`` — run a canned comparison grid against published measurements.

Exit codes: 0 success, 2 configuration error (bad flags, malformed config,
unknown figure, empty technique list), 3 I/O error.  Diagnostics go to
standard error.  The ``OOHSIM_CALIBRATION`` environment variable supplies a
calibration file when ``--calibration`` is not given.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .costs import CalibrationError, CostTable, load_calibration_file
from .experiments import (
    REPRO_FIGURES,
    ExperimentConfig,
    comparison_csv,
    emit_reports,
    parse_formats,
    repro,
    run,
)
from .reports import REPORT_FORMATS, RunReport, RunRow, render, rows_from_csv, rows_from_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file's experiment, else the default one, with every
    flag given whose ``dest`` is a config key applied over it."""
    cfg = ExperimentConfig.from_ini(args.config) if args.config else ExperimentConfig()
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    return cfg.override(given)


def cmd_run(args: argparse.Namespace, stem: str = "report") -> int:
    formats = parse_formats(args.formats)  # before the run, which may take long
    cfg = _config_from_args(args)
    for path in emit_reports(run(cfg), formats, out_dir=cfg.out_dir, stem=stem):
        print(path)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    return cmd_run(args, "sweep")


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.check:
        overrides = load_calibration_file(args.check)
        CostTable.from_calibration(args.check)  # keys must also apply cleanly
        print(f"ok: {args.check} ({len(overrides)} overrides)")
        return EXIT_OK
    table = CostTable.from_calibration(args.calibration)
    text = table.dump_calibration()
    if args.dump:
        Path(args.dump).write_text(text, encoding="utf-8")
        print(args.dump)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.input)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        raw_rows = rows_from_json(text)
    else:
        raw_rows = rows_from_csv(text)
    report = RunReport(rows=[RunRow(**r) for r in raw_rows])
    rendered = render(report, args.format)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8", newline="")
        print(args.out)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def cmd_repro(args: argparse.Namespace) -> int:
    table = CostTable.from_calibration(args.calibration)
    rows = repro(args.figure, table)
    text = comparison_csv(rows)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / f"repro_{args.figure}.csv"
    dest.write_text(text, encoding="utf-8", newline="")
    sys.stdout.write(text)
    print(dest, file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oohsim",
        description="Deterministic simulator of dirty-page tracking techniques.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, metavar="N", help="override the seed")
        p.add_argument(
            "--calibration", metavar="PATH", help="cost-calibration file"
        )
        p.add_argument(
            "--formats",
            default=",".join(REPORT_FORMATS),
            metavar="LIST",
            help="comma list of csv,json,plotdata (default: all)",
        )

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", metavar="PATH", help="INI file, [experiment] section")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross-product of sizes x techniques")
    p_sweep.add_argument("--config", metavar="PATH", help="base INI config")
    p_sweep.add_argument(
        "--sizes", dest="memory_sizes", metavar="LIST", help="comma list, e.g. 1MB,1GB"
    )
    p_sweep.add_argument(
        "--techniques", metavar="LIST", help="comma list of proc,uffd,spml,epml"
    )
    p_sweep.add_argument("--rounds", type=int, metavar="N")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="print, dump, or check calibration")
    p_cal.add_argument("--calibration", metavar="PATH", help="overrides to merge")
    p_cal.add_argument("--dump", metavar="PATH", help="write the effective table")
    p_cal.add_argument("--check", metavar="PATH", help="validate a calibration file")
    p_cal.set_defaults(func=cmd_calibrate)

    p_rep = sub.add_parser("report", help="re-render a saved report")
    p_rep.add_argument("input", metavar="PATH", help="existing .csv or .json report")
    p_rep.add_argument(
        "--format", default="csv", choices=sorted(REPORT_FORMATS), help="output format"
    )
    p_rep.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p_rep.set_defaults(func=cmd_report)

    p_repro = sub.add_parser(
        "repro", help="compare simulated values with published measurements"
    )
    p_repro.add_argument(
        "--figure",
        required=True,
        metavar="ID",
        help=f"one of {', '.join(REPRO_FIGURES)} (fig8 is the slow one)",
    )
    p_repro.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p_repro.add_argument("--calibration", metavar="PATH", help="cost-calibration file")
    p_repro.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CalibrationError, ValueError) as exc:
        # ConfigError and UnknownFigure are ValueErrors; argparse handles
        # flag syntax itself (also exiting 2)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
