"""oohsim: deterministic discrete-event simulator of dirty-page tracking.

Models a virtualized machine in which a Tracker process monitors the pages a
Tracked process writes, comparing four techniques — /proc soft-dirty,
userfaultfd write-protect, Shadow PML (SPML), and Extended PML (EPML) — plus
an incremental checkpointer, a calibrated timing model, a closed-form EPML
performance estimator, and a pre-copy live-migration coexistence model.
"""

from __future__ import annotations

from oohsim.checkpoint import (
    CheckpointImage,
    CheckpointSession,
    checkpoint_time_model,
    missed_pages_experiment,
    restore,
    restore_verify,
)
from oohsim.costs import (
    CostTable,
    EpmlEstimate,
    estimate_epml,
    overhead,
)
from oohsim.experiments import (
    ComparisonRow,
    ConfigError,
    ExperimentConfig,
    UnknownFigure,
    comparison_csv,
    emit_reports,
    repro,
    run,
    validate_estimator,
)
from oohsim.hypervisor import (
    MigrationJob,
    MigrationReport,
    model_check_coordination,
    run_migration,
)
from oohsim.reports import RunReport, RunRow, render, write_report
from oohsim.trackers import (
    TECHNIQUES,
    TrackerConfig,
    TrackerPhaseReport,
    run_tracker,
    spml_bottleneck_breakdown,
)
from oohsim.vm import VirtualMachine
from oohsim.workloads import (
    KV_FOOTPRINTS,
    KvWorkloadSpec,
    TraceWorkload,
    churn_trace,
    random_trace,
    replay_dirty_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointImage",
    "CheckpointSession",
    "ComparisonRow",
    "ConfigError",
    "CostTable",
    "EpmlEstimate",
    "ExperimentConfig",
    "KV_FOOTPRINTS",
    "KvWorkloadSpec",
    "MigrationJob",
    "MigrationReport",
    "RunReport",
    "RunRow",
    "TECHNIQUES",
    "TraceWorkload",
    "TrackerConfig",
    "TrackerPhaseReport",
    "UnknownFigure",
    "VirtualMachine",
    "checkpoint_time_model",
    "churn_trace",
    "comparison_csv",
    "emit_reports",
    "estimate_epml",
    "missed_pages_experiment",
    "model_check_coordination",
    "overhead",
    "random_trace",
    "render",
    "replay_dirty_oracle",
    "repro",
    "restore",
    "restore_verify",
    "run",
    "run_migration",
    "run_tracker",
    "spml_bottleneck_breakdown",
    "validate_estimator",
    "write_report",
    "__version__",
]
