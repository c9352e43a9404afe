"""Calibrated timing model: metric catalog, size interpolation, price list.

Every simulated action is priced through a :class:`CostTable`.  Metrics are
named ``M1`` .. ``M18``:

======  =====================================================  ==========
metric  meaning                                                unit
======  =====================================================  ==========
M1      context switch, user to kernel space                   us (fixed)
M2      userfaultfd write-protect ioctl (folded into M6)       --
M3      ioctl path: PML init                                   not modelled
M4      ioctl path: PML deactivation                           not modelled
M5      page-fault handling in kernel space                    ms @ size
M6      page-fault handling in userspace                       ms @ size
M7      vmread on the shadow VMCS                              us (fixed)
M8      vmwrite on the shadow VMCS                             us (fixed)
M9      hypercall: PML init                                    us (fixed)
M10     hypercall: PML init + VMCS shadowing init              us (fixed)
M11     hypercall: PML deactivation                            not modelled
M12     hypercall: PML + VMCS shadowing deactivation           not modelled
M13     hypercall: enable PML logging                          us (fixed)
M14     hypercall: disable PML logging                         ms @ size
M15     soft-dirty clear (write 4 to /proc/PID/clear_refs)     ms @ size
M16     page-table walk in userspace                           ms @ size
M17     reverse mapping GPA -> GVA                             ms @ size
M18     ring-buffer copy                                       ms @ size
======  =====================================================  ==========

No run charges M2, M3, M4, M11 or M12, so none is a calibration key: a
calibration file that names one fails as an unknown key.

Size-dependent metrics are anchored at seven tracked-memory sizes and the
table linearly interpolates between anchors, linearly extrapolates beyond
the largest anchor, and clamps below the smallest.  The size axis is in MB
(1 MB = 2**20 bytes) with 1 GB treated as 1000 MB so that every anchor maps
to an integral page count (256 pages per MB).

A run looks its prices up once: :meth:`CostTable.prices` returns the frozen
:class:`Prices` of one memory size, read by the kernel, the tracker engines
and the checkpoint and migration models.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = [
    "PAGE_SIZE",
    "MB",
    "SIZE_ANCHORS_MB",
    "UnknownMetric",
    "CalibrationError",
    "CostTable",
    "Prices",
    "EpmlEstimate",
    "estimate_epml",
    "overhead",
    "pages_for",
    "load_calibration_file",
    "resolve_calibration_path",
]

PAGE_SIZE = 4096
MB = 1 << 20
PAGES_PER_MB = MB // PAGE_SIZE  # 256

#: Anchor sizes for the size-dependent metrics, in MB (1GB == 1000MB here).
SIZE_ANCHORS_MB = (1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0)

US_PER_MS = 1000.0

ENV_CALIBRATION = "OOHSIM_CALIBRATION"

_FIXED_DEFAULTS_US = {
    "M1": 0.315,
    "M7": 0.936,
    "M8": 0.801,
    "M9": 5495.0,
    "M10": 5878.0,
    "M13": 0.3,
}

_SIZED_DEFAULTS_MS = {
    "M5": (0.003, 0.3, 1.68, 3.34, 8.39, 16.79, 33.58),
    "M6": (2.5, 27.3, 152.3, 347.1, 882.8, 1585.0, 3483.0),
    "M14": (0.042, 0.047, 0.138, 0.156, 0.189, 0.203, 0.208),
    "M15": (0.032, 0.0912, 0.174, 0.288, 0.613, 1.153, 2.234),
    "M16": (1.912, 14.479, 41.832, 82.289, 161.973, 307.109, 594.187),
    "M17": (6.183, 24.653, 85.117, 255.437, 1211.0, 4123.0, 15738.0),
    "M18": (0.003, 0.01, 0.03, 0.048, 0.109, 0.383, 0.671),
}

#: Scalar knobs that live alongside the metric table in calibration files.
_PARAM_DEFAULTS: dict[str, float] = {
    # Ideal cost of one page-sized write in the micro-benchmark loop.
    "write_cost_us": 0.9,
    # Per-entry EPT dirty-bit clear + invalidation inside the buffer-full
    # vmexit handler (added on top of the M14-anchored handler base).
    "vmexit_ept_clear_us": 4.0,
    # Checkpoint dump: fixed per-image overhead and per-page copy cost.
    "dump_base_ms": 104.4,
    "dump_page_us": 4.0,
    # Tracker-side ring consumption budget per collection tick (SPML).
    "spml_drain_batch": 64.0,
}


class UnknownMetric(KeyError):
    """Raised when a cost is requested for a metric the table does not know."""


class CalibrationError(ValueError):
    """Raised for malformed calibration files or override keys."""


def pages_for(memory_bytes: int) -> int:
    """Number of 4 KiB pages backing ``memory_bytes`` (rounded up)."""
    return max(1, -(-int(memory_bytes) // PAGE_SIZE))


def _interp(anchors: list[tuple[float, float]], size_mb: float) -> float:
    """Piecewise-linear lookup over ``(size_mb, value)`` anchors.

    Clamps below the first anchor and extrapolates linearly beyond the last
    one using the slope of the final segment.
    """
    if size_mb <= anchors[0][0]:
        return anchors[0][1]
    if size_mb >= anchors[-1][0]:
        (x0, y0), (x1, y1) = anchors[-2], anchors[-1]
        slope = (y1 - y0) / (x1 - x0)
        return y1 + (size_mb - x1) * slope
    for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
        if x0 <= size_mb <= x1:
            return y0 + (size_mb - x0) * (y1 - y0) / (x1 - x0)
    raise AssertionError("unreachable: anchors are sorted and bracket size_mb")


def _parse_size_mb(text: str) -> float:
    """Parse a size suffix like ``750MB``, ``1GB``, ``512KB`` into MB."""
    t = text.strip().upper()
    for suffix, factor in (("GB", 1000.0), ("MB", 1.0), ("KB", 1.0 / 1024.0)):
        if t.endswith(suffix):
            try:
                return float(t[: -len(suffix)]) * factor
            except ValueError as exc:
                raise CalibrationError(f"bad size {text!r}") from exc
    raise CalibrationError(f"size {text!r} needs a KB/MB/GB suffix")


@dataclass
class CostTable:
    """Immutable-by-convention catalog of calibrated costs.

    ``fixed_us`` holds memory-agnostic metric costs in microseconds;
    ``sized_ms`` holds ``(size_mb, ms)`` anchor lists for memory-dependent
    metrics; ``params`` holds the scalar model knobs documented in
    ``_PARAM_DEFAULTS``.
    """

    fixed_us: dict[str, float]
    sized_ms: dict[str, list[tuple[float, float]]]
    params: dict[str, float]

    @classmethod
    def default(cls) -> "CostTable":
        return cls(
            fixed_us=dict(_FIXED_DEFAULTS_US),
            sized_ms={
                m: list(zip(SIZE_ANCHORS_MB, vals))
                for m, vals in _SIZED_DEFAULTS_MS.items()
            },
            params=dict(_PARAM_DEFAULTS),
        )

    @classmethod
    def from_calibration(cls, path: str | None = None) -> "CostTable":
        """Default table with overrides from ``path`` (or the environment).

        Resolution order: explicit ``path`` argument, then the
        ``OOHSIM_CALIBRATION`` environment variable, then defaults only.
        """
        table = cls.default()
        resolved = resolve_calibration_path(path)
        if resolved is not None:
            table.apply_overrides(load_calibration_file(resolved))
        return table

    # -- lookup ---------------------------------------------------------

    def cost_us(self, metric: str, memory_bytes: int | None = None) -> float:
        """Cost of ``metric`` in microseconds.

        Size-dependent metrics require ``memory_bytes`` and return the whole
        anchored cost at that size (use :meth:`per_page_us` for per-page
        rates).  Fixed metrics ignore ``memory_bytes``.
        """
        if metric in self.fixed_us:
            return self.fixed_us[metric]
        if metric in self.sized_ms:
            if memory_bytes is None:
                raise UnknownMetric(
                    f"{metric} depends on memory size; pass memory_bytes"
                )
            size_mb = memory_bytes / MB
            return _interp(self.sized_ms[metric], size_mb) * US_PER_MS
        raise UnknownMetric(metric)

    def per_page_us(self, metric: str, memory_bytes: int) -> float:
        """Anchored cost divided by the page count of ``memory_bytes``.

        The anchor tables publish whole-run totals (one traversal of the
        tracked memory); per-event charges are the total divided by the page
        count at that size.
        """
        return self.cost_us(metric, memory_bytes) / pages_for(memory_bytes)

    def param(self, key: str) -> float:
        try:
            return self.params[key]
        except KeyError as exc:
            raise UnknownMetric(key) from exc

    def prices(self, memory_bytes: int) -> "Prices":
        """Every price of a run that tracks ``memory_bytes``, looked up once."""
        m5_pp = self.per_page_us("M5", memory_bytes)
        m14 = self.cost_us("M14", memory_bytes)
        return Prices(
            memory_bytes=memory_bytes,
            write=self.param("write_cost_us"),
            softdirty_fault=m5_pp,
            uffd_fault=m5_pp + self.per_page_us("M6", memory_bytes),
            m1=self.cost_us("M1"),
            m7=self.cost_us("M7"),
            m8=self.cost_us("M8"),
            m9=self.cost_us("M9"),
            m10=self.cost_us("M10"),
            m13=self.cost_us("M13"),
            m14=m14,
            m15=self.cost_us("M15", memory_bytes),
            m16=self.cost_us("M16", memory_bytes),
            m17_pp=self.per_page_us("M17", memory_bytes),
            m18_pp=self.per_page_us("M18", memory_bytes),
            vmexit_service=m14 + 512 * self.param("vmexit_ept_clear_us"),
            drain_batch=int(self.param("spml_drain_batch")),
            dump_base=self.param("dump_base_ms") * 1000.0,
            dump_page=self.param("dump_page_us"),
        )

    # -- calibration ----------------------------------------------------

    def apply_overrides(self, overrides: dict[str, float]) -> None:
        """Apply flat calibration keys.

        Keys are ``M<k>`` (fixed metrics, value in us), ``M<k>@<size>``
        (size-dependent metrics, value in ms at that anchor; new sizes insert
        new anchors) or any scalar knob name from ``params``.  Every value
        and anchor size must be a finite number, every value >= 0 and every
        anchor size > 0;
        ``write_cost_us`` must be positive and ``spml_drain_batch`` a whole
        number >= 1.
        """
        for key, value in overrides.items():
            value = float(value)
            # nan or inf would print a nan overhead or run forever, and a
            # negative cost would run the clock backwards
            if not (math.isfinite(value) and value >= 0):
                raise CalibrationError(f"{key} must be a finite number >= 0, got {value}")
            if "@" in key:
                metric, _, size_text = key.partition("@")
                metric = metric.strip().upper()
                if metric not in self.sized_ms:
                    raise CalibrationError(
                        f"{metric} is not a size-dependent metric"
                    )
                size_mb = _parse_size_mb(size_text)
                # an anchor at or below 0 MB would steer the whole interpolation
                if not (math.isfinite(size_mb) and size_mb > 0):
                    raise CalibrationError(f"{key}: the size must be finite and > 0")
                anchors = [a for a in self.sized_ms[metric] if a[0] != size_mb]
                anchors.append((size_mb, value))
                anchors.sort()
                self.sized_ms[metric] = anchors
            elif key.upper() in self.fixed_us:
                self.fixed_us[key.upper()] = value
            elif key.upper() in self.sized_ms:
                raise CalibrationError(
                    f"{key} depends on memory size; use {key}@<size>"
                )
            elif key in self.params:
                # a write's cost divides the quantum and the tick gaps into writes
                if key == "write_cost_us" and value == 0:
                    raise CalibrationError("write_cost_us must be positive, got 0.0")
                # a stalled spml run waits for ticks that each drain a batch:
                # an empty one would wait to the horizon
                if key == "spml_drain_batch" and not (value >= 1 and value.is_integer()):
                    raise CalibrationError(
                        f"spml_drain_batch must be a whole number of entries >= 1, got {value}"
                    )
                self.params[key] = value
            else:
                raise CalibrationError(f"unknown calibration key {key!r}")

    def dump_calibration(self) -> str:
        """Render the full effective table in calibration-file syntax."""
        lines = ["# oohsim calibration (flat key = value)"]
        lines.append("# fixed metrics, microseconds")
        for metric in sorted(self.fixed_us, key=_metric_order):
            lines.append(f"{metric} = {self.fixed_us[metric]}")
        lines.append("# size-dependent metrics, milliseconds at each anchor")
        for metric in sorted(self.sized_ms, key=_metric_order):
            for size_mb, value in self.sized_ms[metric]:
                lines.append(f"{metric}@{_format_size(size_mb)} = {value}")
        lines.append("# model parameters")
        for key in sorted(self.params):
            lines.append(f"{key} = {self.params[key]}")
        return "\n".join(lines) + "\n"


def _metric_order(metric: str) -> int:
    return int(metric[1:]) if metric[1:].isdigit() else 99


def _format_size(size_mb: float) -> str:
    if size_mb >= 1000 and size_mb % 1000 == 0:
        return f"{int(size_mb // 1000)}GB"
    if size_mb == int(size_mb):
        return f"{int(size_mb)}MB"
    return f"{size_mb}MB"


def resolve_calibration_path(path: str | None = None) -> str | None:
    """Explicit path if given, else ``$OOHSIM_CALIBRATION``, else None."""
    if path:
        return path
    env = os.environ.get(ENV_CALIBRATION)
    return env or None


def load_calibration_file(path: str) -> dict[str, float]:
    """Parse a flat ``key = value`` calibration file.

    Blank lines and ``#`` comments are ignored.  Values are floats; units
    follow the table conventions (us for fixed metrics and scalar knobs, ms
    for ``M<k>@<size>`` anchors).
    """
    overrides: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CalibrationError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                overrides[key] = float(value.strip())
            except ValueError as exc:
                raise CalibrationError(
                    f"{path}:{lineno}: bad value for {key!r}"
                ) from exc
    return overrides


@dataclass(frozen=True)
class Prices:
    """The price list of one tracked run, in µs, at one tracked-memory size.

    ``m<k>`` is metric ``M<k>``, whole; ``m17_pp``/``m18_pp`` are per page.
    ``write`` is one ideal write, ``softdirty_fault`` a post-clear kernel fault
    (M5 per page), ``uffd_fault`` a userspace-resolved fault (M5 + M6 per page),
    ``vmexit_service`` one buffer-full vmexit (M14 plus an EPT dirty-bit clear
    per buffer slot), ``drain_batch`` the spml ring entries drained per tick,
    and ``dump_base``/``dump_page`` a checkpoint dump's base and per-page cost.
    """

    memory_bytes: int
    write: float
    softdirty_fault: float
    uffd_fault: float
    m1: float
    m7: float
    m8: float
    m9: float
    m10: float
    m13: float
    m14: float
    m15: float
    m16: float
    m17_pp: float
    m18_pp: float
    vmexit_service: float
    drain_batch: int
    dump_base: float
    dump_page: float

    def register_us(self, technique: str) -> float:
        """The init hypercall (spml M9, epml M10), else opening the interface (M1)."""
        return {"spml": self.m9, "epml": self.m10}.get(technique, self.m1)

    def init_us(self, technique: str) -> float:
        """Registration; ``proc`` also clears its bits once (M15) to start clean."""
        if technique == "proc":
            return self.m1 + self.m15
        return self.register_us(technique)

    def sched_us(self, technique: str, direction: str) -> float:
        """One schedule in/out: spml turns logging on (M13) or off (M14); epml
        writes the buffer address and index (2 M8) or reads and parks it (M7 + M8)."""
        if technique == "spml":
            return self.m13 if direction == "in" else self.m14
        if technique == "epml":
            return 2 * self.m8 if direction == "in" else self.m7 + self.m8
        return 0.0

    def copy_us(self, k: int) -> float:
        """One copy of ``k`` log entries: a context switch (M1) plus M18 per entry."""
        return self.m1 + k * self.m18_pp


@dataclass(frozen=True)
class EpmlEstimate:
    """Closed-form EPML execution-time estimate and its inputs.

    The defining identity (checked in ``__post_init__``) is::

        p_epml = p_vanilla + n_events * (3 * c_vmwrite + c_vmread) + c_copyrb

    where ``n_events`` counts schedule-in plus schedule-out events involving
    the tracked process and ``c_copyrb`` is the ring-copy cost at the run's
    memory size.
    """

    p_vanilla_us: float
    n_events: int
    c_vmread_us: float
    c_vmwrite_us: float
    c_copyrb_us: float
    p_epml_us: float

    def __post_init__(self) -> None:
        expected = (
            self.p_vanilla_us
            + self.n_events * (3.0 * self.c_vmwrite_us + self.c_vmread_us)
            + self.c_copyrb_us
        )
        if self.p_epml_us != expected:
            raise ValueError("estimate does not satisfy its defining identity")


def estimate_epml(
    p_vanilla_us: float,
    n_events: int,
    table: CostTable,
    *,
    memory_bytes: int | None = None,
    c_copyrb_us: float | None = None,
) -> EpmlEstimate:
    """Estimate tracked execution time under EPML.

    ``c_copyrb_us`` defaults to the M18 ring-copy cost at ``memory_bytes``
    (zero when no size is given).
    """
    if n_events < 0:
        raise ValueError("n_events must be >= 0")
    c_vmread = table.cost_us("M7")
    c_vmwrite = table.cost_us("M8")
    if c_copyrb_us is None:
        c_copyrb_us = (
            table.cost_us("M18", memory_bytes) if memory_bytes is not None else 0.0
        )
    p_epml = p_vanilla_us + n_events * (3.0 * c_vmwrite + c_vmread) + c_copyrb_us
    return EpmlEstimate(
        p_vanilla_us=p_vanilla_us,
        n_events=n_events,
        c_vmread_us=c_vmread,
        c_vmwrite_us=c_vmwrite,
        c_copyrb_us=c_copyrb_us,
        p_epml_us=p_epml,
    )


def overhead(tracked_time_us: float, ideal_time_us: float) -> float:
    """Percentage slowdown of a tracked run relative to its ideal run."""
    if ideal_time_us <= 0:
        raise ValueError("ideal_time_us must be > 0")
    return 100.0 * (tracked_time_us / ideal_time_us - 1.0)
