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
import math
import re
from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from statistics import fmean
from typing import Any, Mapping, get_type_hints

import numpy as np

from .checkpoint import _dump_timing, checkpoint_time_model, missed_pages_experiment
from .costs import CalibrationError, CostTable, estimate_epml, _parse_size_mb
from .hypervisor import (
    MigrationJob,
    ModelCheckResult,
    model_check_coordination,
    run_migration,
)
from .reports import REPORT_FORMATS, RunReport, write_report
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
    "parse_formats",
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
        size = _parse_size_mb(text) * MB
    except CalibrationError as exc:
        raise ConfigError(str(exc)) from exc
    if not math.isfinite(size):  # infMB, nanMB, or 1e300GB's byte count
        raise ConfigError(f"memory size {value!r} is not a finite number of bytes")
    return int(size)


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
    then the built-in defaults.  Each point's run knobs
    (``rounds``, ``quantum_us``, ``collection_interval_us``, the ring's two and
    ``horizon_us``) take their defaults and rules from
    :class:`~oohsim.trackers.TrackerConfig`, and the ``kv_`` fields theirs
    from :class:`~oohsim.workloads.KvWorkloadSpec`, whatever the workload.
    """

    seed: int = 0
    memory_sizes: tuple[int, ...] = (TrackerConfig.memory_bytes,)
    techniques: tuple[str, ...] = TECHNIQUES
    workload: str = "microbench"
    rounds: int = TrackerConfig.rounds
    kv_ops: int = KvWorkloadSpec.n_ops
    kv_churn_rate: float = KvWorkloadSpec.churn_rate
    quantum_us: float = TrackerConfig.quantum_us
    collection_interval_us: float = TrackerConfig.collection_interval_us
    ring_capacity: int = TrackerConfig.ring_capacity
    ring_full_policy: str = TrackerConfig.ring_full_policy
    horizon_us: float = TrackerConfig.horizon_us
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
        try:
            KvWorkloadSpec.check_knobs(self.kv_churn_rate, self.kv_ops)
        except ValueError as exc:
            raise _kv_error(exc) from exc
        try:  # points() checks the workload too, as it builds the kv spec
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
        return cls().override(mapping)

    def override(self, mapping: Mapping[str, Any]) -> "ExperimentConfig":
        """This config with the keys of ``mapping`` replaced, checked and coerced
        as :meth:`from_mapping` does."""
        kwargs: dict[str, Any] = {}
        for key, raw in mapping.items():
            name = key.strip()
            if name not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {name!r}")
            try:
                kwargs[name] = _coerce_field(name, raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        return replace(self, **kwargs)

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
        knobs = {name: getattr(self, name) for name in _RUN_KNOBS}
        return TrackerConfig(technique, size, table=table, trace=trace, **knobs)

    @cached_property
    def kv_spec(self) -> KvWorkloadSpec | None:
        """The key-value workload a ``kv:<engine>`` config runs, at that engine's
        footprint; None for the micro-benchmark."""
        if self.workload == "microbench":
            return None
        prefix, _, engine = self.workload.partition(":")
        if prefix != "kv" or engine not in KV_FOOTPRINTS:
            raise ConfigError(
                "workload: expected 'microbench' or 'kv:<engine>' with "
                f"engine in {sorted(KV_FOOTPRINTS)}, got {self.workload!r}"
            )
        return KvWorkloadSpec(engine, KV_FOOTPRINTS[engine], churn_rate=self.kv_churn_rate,
                              n_ops=self.kv_ops, seed=self.seed)

    def points(self) -> list[tuple[str, int]]:
        """The (technique, memory_bytes) grid this config runs, sorted."""
        techniques = sorted(set(self.techniques))
        spec = self.kv_spec
        sizes = [spec.footprint_bytes] if spec else sorted(set(self.memory_sizes))
        return [(tech, size) for tech in techniques for size in sizes]


#: The fields each point's :class:`~oohsim.trackers.TrackerConfig` takes as they are.
_RUN_KNOBS = (
    "rounds",
    "quantum_us",
    "collection_interval_us",
    "ring_capacity",
    "ring_full_policy",
    "horizon_us",
)
_FIELD_TYPES = get_type_hints(ExperimentConfig)
#: The config key of each :class:`~oohsim.workloads.KvWorkloadSpec` field a config sets.
_KV_KEYS = {"churn_rate": "kv_churn_rate", "n_ops": "kv_ops"}


def _kv_error(exc: ValueError) -> ConfigError:
    """A kv spec's error, with its fields named by their config keys."""
    return ConfigError(re.sub(r"\b(churn_rate|n_ops)\b", lambda m: _KV_KEYS[m[0]], str(exc)))


def _coerce_field(name: str, raw: Any) -> Any:
    """``raw`` as a value of field ``name``'s type; sizes take suffixes."""
    kind = _FIELD_TYPES[name]
    if kind == tuple[int, ...]:  # memory sizes
        parts = [raw] if isinstance(raw, int) else _parse_list(raw) if isinstance(raw, str) else raw
        return tuple(parse_size(p) for p in parts)
    if kind == tuple[str, ...]:
        return _parse_list(raw)
    if kind is int:
        return int(str(raw).strip()) if not isinstance(raw, int) else raw
    if kind is float:
        return float(raw)
    if kind == str | None:
        return str(raw).strip() or None
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
    spec = config.kv_spec
    try:  # one trace, shared by every point; its churn must fit at the calibrated write price
        trace = spec.make_trace(table) if spec else None
    except ValueError as exc:
        raise _kv_error(exc) from exc
    for technique, size in config.points():
        tracked = config.tracker_config(technique, size, table=table, trace=trace)
        phase = run_tracker(tracked)
        dirty = phase.dirty_pages if phase.dirty_set is not None else tracked.pages
        model = _dump_timing(technique, tracked.prices, dirty)
        report.add(to_run_row(phase, checkpoint_ms=model.total_ms))
    return report


def parse_formats(value: str | tuple[str, ...]) -> tuple[str, ...]:
    """The report formats ``value`` names, as a comma list or a tuple; it must
    name at least one, and only formats :mod:`~oohsim.reports` renders."""
    formats = _parse_list(value)
    if not formats:
        raise ConfigError("formats: at least one report format is required")
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ConfigError(f"unknown report format {fmt!r}")
    return formats


def emit_reports(
    report: RunReport,
    formats: tuple[str, ...] = REPORT_FORMATS,
    out_dir: str | Path = ".",
    stem: str = "report",
) -> list[Path]:
    """Write ``report`` once per requested format; returns the paths written."""
    formats = parse_formats(formats)
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
    n_ops: int = KvWorkloadSpec.n_ops,
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
    guest_cfg = TrackerConfig("spml", memory_bytes=50 * MB, table=t)
    guest = run_tracker(guest_cfg)
    period_us = guest.monitor_span_us / max(1, guest.vmexits)
    service_us = guest_cfg.prices.vmexit_service  # the price list the run read
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
