"""Experiment orchestration: validated configs, runs, comparison grids.

This module turns a declarative :class:`ExperimentConfig` into tracker runs
and report rows (:func:`run`, :func:`emit_reports`), and packages the canned
comparison experiments (:func:`repro`) that set simulated numbers side by
side with published measurements of the reference system.  The published
numbers live in ``data/reference_values.ini`` — they are loaded for display
only and never steer the simulation.

Determinism contract: the same config (seed included) always produces the
same report rows, and therefore byte-identical rendered output.  Repro grids
are likewise pure functions of the cost table and the seed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from functools import cache
from importlib import resources
from pathlib import Path
from statistics import fmean
from typing import Any, Mapping

import numpy as np

from .checkpoint import checkpoint_time_model, missed_pages_experiment
from .costs import CalibrationError, CostTable, estimate_epml, _parse_size_mb
from .hypervisor import (
    MigrationJob,
    ModelCheckResult,
    model_check_coordination,
    run_migration,
)
from .reports import RunReport, write_report
from .trackers import (
    TECHNIQUES,
    TrackerConfig,
    TrackerPhaseReport,
    run_tracker,
    spml_bottleneck_breakdown,
    to_run_row,
)
from .workloads import KV_FOOTPRINTS, KvWorkloadSpec, MB

__all__ = [
    "ComparisonRow",
    "ConfigError",
    "EstimatorCheck",
    "ExperimentConfig",
    "REPRO_FIGURES",
    "SIZE_GRID",
    "UnknownFigure",
    "comparison_csv",
    "emit_reports",
    "reference_values",
    "repro",
    "run",
    "validate_estimator",
]

# The canonical memory sweep: label and byte count per point.  Labels follow
# the calibration-file convention (1MB = 2^20 bytes, 1GB = 1000 MB).
SIZE_GRID: tuple[tuple[str, int], ...] = tuple(
    (label, mb * MB)
    for label, mb in (
        ("1MB", 1),
        ("10MB", 10),
        ("50MB", 50),
        ("100MB", 100),
        ("250MB", 250),
        ("500MB", 500),
        ("1GB", 1000),
    )
)

REPORT_FORMATS = ("csv", "json", "plotdata")


class ConfigError(ValueError):
    """A config field is missing, unknown, or fails validation."""


class UnknownFigure(ValueError):
    """Requested comparison grid does not exist."""


def parse_size(value: Any) -> int:
    """Bytes from a plain integer or a ``KB``/``MB``/``GB``-suffixed string."""
    if isinstance(value, bool):
        raise ConfigError(f"memory size {value!r} is not a size")
    if isinstance(value, int):
        return value
    text = str(value).strip()
    if text.isdigit():
        return int(text)
    try:
        return int(_parse_size_mb(text) * MB)
    except CalibrationError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_list(value: Any) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    return tuple(str(v) for v in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, validated up front.

    ``workload`` is ``"microbench"`` (write every page, ``rounds`` times,
    over each entry of ``memory_sizes``) or ``"kv:<engine>"`` (a skewed
    key-value write trace at that engine's fixed footprint, so
    ``memory_sizes`` is ignored).  ``calibration`` overrides the cost table;
    when ``None`` the ``OOHSIM_CALIBRATION`` environment variable applies,
    then the built-in defaults.
    """

    seed: int = 0
    memory_sizes: tuple[int, ...] = (100 * MB,)
    techniques: tuple[str, ...] = ("proc", "uffd", "spml", "epml")
    workload: str = "microbench"
    rounds: int = 13
    kv_ops: int = 20_000
    kv_churn_rate: float = 0.0
    quantum_us: float = 10_000.0
    collection_interval_us: float = 1_000.0
    ring_capacity: int = 16_384
    ring_full_policy: str = "stall"
    horizon_us: float = 60_000_000.0
    calibration: str | None = None
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed: must be a non-negative integer")
        if not self.memory_sizes:
            raise ConfigError("memory_sizes: at least one size is required")
        for size in self.memory_sizes:
            if not isinstance(size, int) or size <= 0:
                raise ConfigError(f"memory_sizes: {size!r} is not a positive byte count")
        if not self.techniques:
            raise ConfigError("techniques: at least one technique is required")
        for tech in self.techniques:
            if tech not in TECHNIQUES:
                raise ConfigError(
                    f"techniques: {tech!r} is not one of {sorted(TECHNIQUES)}"
                )
        if self.workload != "microbench":
            prefix, _, engine = self.workload.partition(":")
            if prefix != "kv" or engine not in KV_FOOTPRINTS:
                raise ConfigError(
                    "workload: expected 'microbench' or 'kv:<engine>' with "
                    f"engine in {sorted(KV_FOOTPRINTS)}, got {self.workload!r}"
                )
        if self.kv_ops < 0:
            raise ConfigError("kv_ops: must be >= 0")
        if not self.kv_churn_rate >= 0:  # NaN fails too
            raise ConfigError("kv_churn_rate: must be >= 0")
        try:
            for technique, size in self.points():
                self.tracker_config(technique, size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # -- construction -----------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ExperimentConfig":
        """Build from loosely-typed keys (e.g. a parsed config file section).

        Unknown keys are rejected; values arriving as strings are coerced to
        the field's type, with ``KB``/``MB``/``GB`` suffixes accepted for
        memory sizes.
        """
        known = {f.name: f for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for key, raw in mapping.items():
            name = key.strip()
            if name not in known:
                raise ConfigError(f"unknown config key {name!r}")
            try:
                kwargs[name] = _coerce_field(name, raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_ini(cls, path: str | Path) -> "ExperimentConfig":
        """Load the ``[experiment]`` section of an INI file."""
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case so typos are reported verbatim
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not parser.has_section("experiment"):
            raise ConfigError(f"{path}: missing [experiment] section")
        extra = [s for s in parser.sections() if s != "experiment"]
        if extra:
            raise ConfigError(f"{path}: unknown section(s) {extra}")
        return cls.from_mapping(dict(parser["experiment"]))

    # -- derived ------------------------------------------------------------

    def cost_table(self) -> CostTable:
        return CostTable.from_calibration(self.calibration)

    def tracker_config(
        self, technique: str, size: int, *, table: CostTable | None = None, trace: Any = None
    ) -> TrackerConfig:
        """The tracker run of one (technique, size) point of this config."""
        return TrackerConfig(
            technique=technique,
            memory_bytes=size,
            rounds=self.rounds,
            quantum_us=self.quantum_us,
            collection_interval_us=self.collection_interval_us,
            ring_capacity=self.ring_capacity,
            ring_full_policy=self.ring_full_policy,
            horizon_us=self.horizon_us,
            table=table,
            trace=trace,
        )

    def points(self) -> list[tuple[str, int]]:
        """The (technique, memory_bytes) grid this config runs, sorted."""
        techniques = sorted(set(self.techniques))
        if self.workload.startswith("kv:"):
            footprint = KV_FOOTPRINTS[self.workload.partition(":")[2]]
            sizes: list[int] = [footprint]
        else:
            sizes = sorted(set(self.memory_sizes))
        return [(tech, size) for tech in techniques for size in sizes]


def _coerce_field(name: str, raw: Any) -> Any:
    if name == "memory_sizes":
        if isinstance(raw, str):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
        elif isinstance(raw, int):
            parts = [raw]
        else:
            parts = list(raw)
        return tuple(parse_size(p) for p in parts)
    if name == "techniques":
        return _parse_list(raw)
    if name in ("seed", "rounds", "kv_ops", "ring_capacity"):
        return int(str(raw).strip()) if not isinstance(raw, int) else raw
    if name in ("kv_churn_rate", "quantum_us", "collection_interval_us", "horizon_us"):
        return float(raw)
    if name == "calibration":
        text = str(raw).strip()
        return text or None
    return str(raw).strip() if isinstance(raw, str) else raw


# ---------------------------------------------------------------- execution


def run(config: ExperimentConfig) -> RunReport:
    """Run every (technique, size) point of ``config`` and collect rows.

    Rows are ordered by (technique, size) regardless of input order, so two
    configs naming the same grid produce identical reports.  A zero horizon
    yields an empty report.
    """
    report = RunReport()
    if config.horizon_us == 0:
        return report
    table = config.cost_table()
    trace = None
    if config.workload.startswith("kv:"):  # one trace, shared by every point
        engine = config.workload.partition(":")[2]
        trace = KvWorkloadSpec(
            name=engine,
            footprint_bytes=KV_FOOTPRINTS[engine],
            churn_rate=config.kv_churn_rate,
            n_ops=config.kv_ops,
            seed=config.seed,
        ).make_trace(table)
    for technique, size in config.points():
        phase = run_tracker(config.tracker_config(technique, size, table=table, trace=trace))
        dirty = phase.dirty_pages if phase.dirty_set is not None else None
        model = checkpoint_time_model(technique, size, dirty_pages=dirty, table=table)
        report.add(to_run_row(phase, checkpoint_ms=model.total_ms))
    return report


def emit_reports(
    report: RunReport,
    formats: tuple[str, ...] = REPORT_FORMATS,
    out_dir: str | Path = ".",
    stem: str = "report",
) -> list[Path]:
    """Write ``report`` once per requested format; returns the paths written."""
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ConfigError(f"unknown report format {fmt!r}")
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for fmt in formats:
        dest = directory / f"{stem}.{fmt}"
        write_report(report, fmt, str(dest))
        paths.append(dest)
    return paths


# ------------------------------------------------------- comparison grids


@cache
def reference_values() -> configparser.ConfigParser:
    """Published measurements of the reference system, from the data file."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    text = (
        resources.files("oohsim")
        .joinpath("data/reference_values.ini")
        .read_text("utf-8")
    )
    parser.read_string(text)
    return parser


@dataclass(frozen=True)
class ComparisonRow:
    """One grid cell: a simulated value next to the published one (if any)."""

    figure: str
    label: str
    unit: str
    published: float | None
    simulated: float

    @property
    def rel_err_pct(self) -> float | None:
        if self.published is None or self.published == 0:
            return None
        return 100.0 * (self.simulated - self.published) / abs(self.published)


def comparison_csv(rows: list[ComparisonRow]) -> str:
    """Deterministic CSV rendering of a comparison grid."""
    out = ["figure,label,unit,published,simulated,rel_err_pct"]
    for row in rows:
        published = "" if row.published is None else f"{row.published:.3f}"
        rel = "" if row.rel_err_pct is None else f"{row.rel_err_pct:.3f}"
        out.append(
            f"{row.figure},{row.label},{row.unit},{published},"
            f"{row.simulated:.3f},{rel}"
        )
    return "\n".join(out) + "\n"


def _micro(technique: str, size: int, table: CostTable) -> TrackerPhaseReport:
    return run_tracker(TrackerConfig(technique, memory_bytes=size, table=table))


def repro_table1(table: CostTable | None = None) -> list[ComparisonRow]:
    """Micro-benchmark tracking overheads vs the published sweep.

    Covers both published sub-tables (slowdown of the monitored process and
    CPU consumed by the monitor) for the pagemap and write-protect trackers
    at every size, plus the published scalar quotes for the two ring
    trackers at 1 GB.
    """
    t = table or CostTable.default()
    ref = reference_values()
    reps = {
        (tech, size): _micro(tech, size, t)
        for tech in ("proc", "uffd")
        for _, size in SIZE_GRID
    }
    rows = []
    for side, attr in (
        ("tracked", "overhead_tracked_pct"),
        ("tracker", "overhead_tracker_pct"),
    ):
        for tech in ("proc", "uffd"):
            section = ref[f"table1.{side}.{tech}"]
            for label, size in SIZE_GRID:
                rows.append(
                    ComparisonRow(
                        figure="table1",
                        label=f"{side}/{tech}@{label}",
                        unit="%",
                        published=float(section[label]),
                        simulated=getattr(reps[(tech, size)], attr),
                    )
                )
    scalars = ref["table1.scalars"]
    size_1gb = dict(SIZE_GRID)["1GB"]
    rows.append(
        ComparisonRow(
            figure="table1",
            label="tracked/spml@1GB",
            unit="%",
            published=float(scalars["spml_tracked_overhead_max_pct"]),
            simulated=_micro("spml", size_1gb, t).overhead_tracked_pct,
        )
    )
    rows.append(
        ComparisonRow(
            figure="table1",
            label="tracked/epml@1GB",
            unit="%",
            published=float(scalars["epml_tracked_overhead_pct"]),
            simulated=_micro("epml", size_1gb, t).overhead_tracked_pct,
        )
    )
    return rows


def repro_table5(table: CostTable | None = None) -> list[ComparisonRow]:
    """Incremental-checkpoint durations vs the published 21-cell grid."""
    t = table or CostTable.default()
    ref = reference_values()
    rows = []
    for tech in ("proc", "spml", "epml"):
        section = ref[f"table5.{tech}"]
        for label, size in SIZE_GRID:
            rows.append(
                ComparisonRow(
                    figure="table5",
                    label=f"{tech}@{label}",
                    unit="ms",
                    published=float(section[label]),
                    simulated=checkpoint_time_model(tech, size, table=t).total_ms,
                )
            )
    return rows


def repro_fig6(table: CostTable | None = None) -> list[ComparisonRow]:
    """Share of ring-tracker collection time spent reverse mapping.

    Per-size fractions are simulation-only; the published anchor is the
    reported average floor (reverse mapping was "more than 60%" of
    collection time on average), attached to the final average row.
    """
    t = table or CostTable.default()
    ref = reference_values()
    rows = []
    fractions = []
    for label, size in SIZE_GRID:
        rep = _micro("spml", size, t)
        frac = spml_bottleneck_breakdown(rep)["reverse_mapping_frac"]
        fractions.append(frac)
        rows.append(
            ComparisonRow(
                figure="fig6",
                label=f"rm_fraction@{label}",
                unit="fraction",
                published=None,
                simulated=frac,
            )
        )
    rows.append(
        ComparisonRow(
            figure="fig6",
            label="rm_fraction_avg",
            unit="fraction",
            published=float(ref["fig6"]["reverse_mapping_fraction_avg_min"]),
            simulated=fmean(fractions),
        )
    )
    return rows


def repro_fig8(
    table: CostTable | None = None,
    *,
    n_ops: int = 20_000,
    engines: tuple[str, ...] | None = None,
) -> list[ComparisonRow]:
    """Key-value store tracking overheads per engine and technique.

    Published anchors exist only for two quoted cells: the ring tracker on
    the largest-footprint engine, and the hardware-assisted tracker's
    average across engines.
    """
    t = table or CostTable.default()
    ref = reference_values()["fig8"]
    chosen = engines if engines is not None else tuple(sorted(KV_FOOTPRINTS))
    rows = []
    epml_overheads = []
    for engine in chosen:
        trace = KvWorkloadSpec(
            name=engine, footprint_bytes=KV_FOOTPRINTS[engine], n_ops=n_ops
        ).make_trace(t)
        for tech in ("proc", "spml", "epml"):
            rep = run_tracker(
                TrackerConfig(
                    tech,
                    memory_bytes=trace.memory_bytes,
                    table=t,
                    trace=trace,
                    defer_reverse_map=(tech == "spml"),
                )
            )
            published = None
            if tech == "spml" and engine == "tiny":
                published = float(ref["spml_tiny_overhead_pct"])
            if tech == "epml":
                epml_overheads.append(rep.overhead_tracked_pct)
            rows.append(
                ComparisonRow(
                    figure="fig8",
                    label=f"{tech}@{engine}",
                    unit="%",
                    published=published,
                    simulated=rep.overhead_tracked_pct,
                )
            )
    if epml_overheads:
        rows.append(
            ComparisonRow(
                figure="fig8",
                label="epml@average",
                unit="%",
                published=float(ref["epml_tkrzw_overhead_pct"]),
                simulated=fmean(epml_overheads),
            )
        )
    return rows


def repro_fig9(table: CostTable | None = None) -> list[ComparisonRow]:
    """Missed-page proportion of the ring tracker over the working-set sweep."""
    t = table or CostTable.default()
    ref = reference_values()["fig9"]
    points = missed_pages_experiment(table=t)
    rows = []
    for i, point in enumerate(points):
        published = None
        if i == 0:
            published = float(ref["smallest_ws_pct"])
        elif i == len(points) - 1:
            published = float(ref["largest_ws_pct"])
        rows.append(
            ComparisonRow(
                figure="fig9",
                label=f"ws={point.working_set_pages}",
                unit="%",
                published=published,
                simulated=100.0 * point.proportion,
            )
        )
    return rows


def repro_coexist(table: CostTable | None = None) -> list[ComparisonRow]:
    """Migration slowdown when a guest tracker shares the hardware log.

    The guest side is the ring tracker on a 50 MB working set; its observed
    log-full vmexit cadence and per-service cost become a recurring load on
    the hypervisor's service core while a second machine migrates.  The grid
    also records the exhaustive coordination-protocol check (zero expected
    violations).
    """
    t = table or CostTable.default()
    ref = reference_values()["coexist"]
    guest = _micro("spml", 50 * MB, t)
    period_us = guest.monitor_span_us / max(1, guest.vmexits)
    service_us = t.prices(50 * MB).vmexit_service
    solo = run_migration(MigrationJob(), t)
    shared = run_migration(MigrationJob(), t, concurrent_load=(period_us, service_us))
    inflation = 100.0 * (shared.total_ms / solo.total_ms - 1.0)
    check: ModelCheckResult = model_check_coordination(depth=12)
    return [
        ComparisonRow(
            figure="coexist",
            label="migration_inflation",
            unit="%",
            published=float(ref["migration_inflation_pct"]),
            simulated=inflation,
        ),
        ComparisonRow(
            figure="coexist",
            label="solo_migration_time",
            unit="ms",
            published=None,
            simulated=solo.total_ms,
        ),
        ComparisonRow(
            figure="coexist",
            label="shared_migration_time",
            unit="ms",
            published=None,
            simulated=shared.total_ms,
        ),
        ComparisonRow(
            figure="coexist",
            label="coordination_violations",
            unit="count",
            published=None,
            simulated=float(len(check.violations)),
        ),
    ]


REPRO_FIGURES = {
    "table1": repro_table1,
    "table5": repro_table5,
    "fig6": repro_fig6,
    "fig8": repro_fig8,
    "fig9": repro_fig9,
    "coexist": repro_coexist,
}


def repro(figure: str, table: CostTable | None = None) -> list[ComparisonRow]:
    """Run one canned comparison grid by its figure id."""
    try:
        fn = REPRO_FIGURES[figure]
    except KeyError:
        raise UnknownFigure(
            f"unknown figure {figure!r}; choose from {sorted(REPRO_FIGURES)}"
        ) from None
    return fn(table)


# ------------------------------------------------- estimator cross-check


@dataclass(frozen=True)
class EstimatorCheck:
    """Closed-form estimate vs the event-driven run it predicts."""

    memory_bytes: int
    rounds: int
    quantum_us: float
    sim_us: float
    est_us: float


def validate_estimator(
    n_configs: int = 20,
    seed: int = 2024,
    table: CostTable | None = None,
) -> list[EstimatorCheck]:
    """Cross-validate the closed-form estimate on random run shapes.

    Each check runs the hardware-assisted tracker at a random size, round
    count, and scheduler quantum, then feeds the run's own baseline time and
    schedule-event count into the closed form.  The ring-copy term is the
    per-round copy cost times the rounds completed — the same charge the
    event-driven run makes.
    """
    t = table or CostTable.default()
    rng = np.random.default_rng(seed)
    checks = []
    for _ in range(n_configs):
        size = int(rng.integers(50, 1001)) * MB
        rounds = int(rng.integers(5, 21))
        quantum_us = float(rng.integers(5_000, 20_001))
        rep = run_tracker(
            TrackerConfig(
                "epml",
                memory_bytes=size,
                rounds=rounds,
                quantum_us=quantum_us,
                table=t,
            )
        )
        estimate = estimate_epml(
            rep.ideal_us,
            rep.n_sched_events,
            t,
            memory_bytes=size,
            c_copyrb_us=rep.rounds_done * t.cost_us("M18", size),
        )
        checks.append(
            EstimatorCheck(
                memory_bytes=size,
                rounds=rounds,
                quantum_us=quantum_us,
                sim_us=rep.tracked_us,
                est_us=estimate.p_epml_us,
            )
        )
    return checks
