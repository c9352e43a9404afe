"""Result rows and deterministic emission in csv / json / plotdata formats.

One :class:`RunRow` summarizes one tracked run (technique x memory size).
Serialization is canonical: floats are rounded to three decimals in every
format and columns appear in a fixed order, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from typing import Any, TextIO, get_type_hints

__all__ = [
    "CSV_COLUMNS",
    "REPORT_FORMATS",
    "RunRow",
    "RunReport",
    "render",
    "write_report",
    "rows_from_csv",
    "rows_from_json",
]

@dataclass
class RunRow:
    technique: str
    memory_bytes: int
    ideal_us: float
    tracked_us: float
    tracker_us: float
    overhead_tracked_pct: float
    overhead_tracker_pct: float
    init_us: float
    collect_us: float
    suspension_us: float
    n_sched_events: int
    vmexits: int
    missed: int
    dropped: int
    checkpoint_ms: float

    def canonical(self) -> dict[str, Any]:
        """Column -> value with floats rounded to the emission precision."""
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float):
                v = round(v, 3)
            out[f.name] = v
        return out


#: A row's columns, in emission order: :class:`RunRow`'s fields, the one home
#: of their names, order and types (a cell read back is parsed as its type).
CSV_COLUMNS = tuple(f.name for f in fields(RunRow))
_COLUMN_TYPES = get_type_hints(RunRow)


@dataclass
class RunReport:
    rows: list[RunRow] = field(default_factory=list)

    def add(self, row: RunRow) -> None:
        self.rows.append(row)


def _fmt_cell(column: str, value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        rec = row.canonical()
        writer.writerow(_fmt_cell(c, rec[c]) for c in CSV_COLUMNS)
    return buf.getvalue()


def _json_default(obj: Any) -> Any:
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _render_json(report: RunReport) -> str:
    payload = {"rows": [row.canonical() for row in report.rows]}
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _render_plotdata(report: RunReport) -> str:
    """Long-format series for plotting: one line per (technique, size) point.

    ``x`` is the memory size in bytes, ``y`` the tracked-overhead percentage.
    """
    lines = ["series,x,y"]
    for row in report.rows:
        rec = row.canonical()
        lines.append(
            f"{rec['technique']},{rec['memory_bytes']},{_fmt_cell('y', float(rec['overhead_tracked_pct']))}"
        )
    return "\n".join(lines) + "\n"


_RENDERERS = {"csv": _render_csv, "json": _render_json, "plotdata": _render_plotdata}
REPORT_FORMATS = tuple(_RENDERERS)


def render(report: RunReport, fmt: str) -> str:
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown report format: {fmt!r}") from None
    return renderer(report)


def write_report(report: RunReport, fmt: str, dest: str | TextIO) -> None:
    text = render(report, fmt)
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        dest.write(text)


def _typed_row(rec: Any, where: str) -> dict[str, Any]:
    if not isinstance(rec, dict):
        raise ValueError(f"{where} is not a row of named columns")
    if None in rec:  # csv.DictReader files surplus cells under None
        raise ValueError(f"{where} has more cells than columns")
    for c in CSV_COLUMNS:
        if rec.get(c) is None:
            raise ValueError(f"{where} has no {c!r} column")
    return {c: _COLUMN_TYPES[c](str(rec[c])) for c in CSV_COLUMNS}


def rows_from_csv(text: str) -> list[dict[str, Any]]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
        raise ValueError("unexpected csv header")
    return [_typed_row(rec, f"csv line {reader.line_num}") for rec in reader]


def rows_from_json(text: str) -> list[dict[str, Any]]:
    payload = json.loads(text)
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise ValueError('a json report is an object whose "rows" is a list')
    return [_typed_row(rec, f"json row {i}") for i, rec in enumerate(rows)]
