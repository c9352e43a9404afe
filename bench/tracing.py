"""Layer spans and counters recorded from outside the simulator.

Nothing in ``src/`` is edited.  Each traced entry point is replaced, where
callers look it up, by a wrapper that records a span: a name, a start, an
end and the span that was open when it began.  Module-level functions are
patched in every module that imported them (``oohsim.trackers.drain_ring``
and ``oohsim.checkpoint.drain_ring`` are two lookups of one function);
methods are patched on their class.  Spans are kept in flat arrays in
memory and written out when the benchmark ends; self time is a span's
duration minus the durations of its direct children.

Some entry points are counted without a span, because they run so often
that timing each call would swamp what they do (cost-table lookups, event
scheduling).

:class:`Recorder` is separate from tracing and is active in every run: it
wraps ``run_tracker`` so that every tracker report a workload produces,
including those made inside ``repro`` grids and the CLI, is kept for the
simulated-output record and the output checks.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter

# (span name, module, attribute) for module-level functions, patched in each
# listed module because ``from x import f`` binds a separate name there.
FUNCTION_SPANS = (
    ("trackers.drain_ring", ("oohsim.trackers", "oohsim.checkpoint"), "drain_ring"),
    ("trackers.reverse_map_raw", ("oohsim.trackers",), "reverse_map_raw"),
    ("checkpoint.restore_verify", ("oohsim.checkpoint",), "restore_verify"),
    ("workloads.replay_dirty_oracle", ("oohsim.checkpoint",), "replay_dirty_oracle"),
    ("workloads.random_trace", ("oohsim.workloads",), "random_trace"),
    ("hypervisor.run_migration", ("oohsim.experiments",), "run_migration"),
    ("hypervisor.model_check", ("oohsim.experiments",), "model_check_coordination"),
    ("experiments.validate_estimator", ("oohsim.experiments",), "validate_estimator"),
    ("cli.sweep", ("oohsim.cli",), "cmd_sweep"),
    ("reports.render", ("oohsim.reports",), "render"),
)

# (span name, module, class, method)
METHOD_SPANS = (
    ("vm.allocate", "oohsim.vm", "VirtualMachine", "allocate"),
    ("vm.map_fresh", "oohsim.vm", "VirtualMachine", "map_fresh"),
    ("vm.unmap", "oohsim.vm", "VirtualMachine", "unmap"),
    ("vm.remap", "oohsim.vm", "VirtualMachine", "remap"),
    ("vm.write_one", "oohsim.vm", "VirtualMachine", "write_one"),
    ("memory.write_page", "oohsim.memory", "GuestPageTable", "write_page"),
    ("memory.reverse_map", "oohsim.memory", "GuestPageTable", "reverse_map"),
    ("hypervisor.log_write", "oohsim.hypervisor", "Hypervisor", "log_write"),
    ("hypervisor.pml_full_vmexit", "oohsim.hypervisor", "Hypervisor", "handle_pml_full_vmexit"),
    ("guest.read_pagemap", "oohsim.guest", "GuestKernel", "read_pagemap"),
    ("guest.clear_soft_dirty", "oohsim.guest", "GuestKernel", "clear_soft_dirty"),
    ("guest.deliver_guest_buffer_full", "oohsim.guest", "GuestKernel", "deliver_guest_buffer_full"),
    ("guest.on_schedule", "oohsim.guest", "GuestKernel", "on_schedule"),
    ("trackers.segment", "oohsim.trackers", "_SegmentRun", "run"),
    ("checkpoint.session_init", "oohsim.checkpoint", "CheckpointSession", "__init__"),
    ("checkpoint.dump", "oohsim.checkpoint", "CheckpointSession", "checkpoint"),
    ("workloads.make_trace", "oohsim.workloads", "KvWorkloadSpec", "make_trace"),
)

# (counter name, module, class, method): counted, not timed
METHOD_COUNTS = (
    ("costs.lookup.calls", "oohsim.costs", "CostTable", "cost_us"),
    ("costs.lookup.calls", "oohsim.costs", "CostTable", "per_page_us"),
    ("engine.schedule.calls", "oohsim.engine", "SimEngine", "schedule_at"),
)

# Work counted from a traced call's arguments or result.
EXTRA_COUNTS = {
    "vm.allocate": ("vm.allocate.pages", lambda args, res: args[2]),
    "trackers.drain_ring": ("trackers.drain_ring.entries", lambda args, res: res.consumed),
    "hypervisor.model_check": ("hypervisor.model_check.states", lambda args, res: res.states_explored),
}

# vm.map_fresh is only a span outside vm.allocate: allocation maps every
# page through it, and that work is already vm.allocate's.
SUPPRESSED_INSIDE = {"vm.allocate": "vm.map_fresh"}

CHURN_SPANS = ("vm.map_fresh", "vm.unmap", "vm.remap")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self._suppress = 0
        self.counts = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        extra = EXTRA_COUNTS.get(name)
        suppresses = name in SUPPRESSED_INSIDE
        suppressed = name in SUPPRESSED_INSIDE.values()
        tracer = self

        def traced(*args, **kwargs):
            if suppressed and tracer._suppress:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            if suppresses:
                tracer._suppress += 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                if suppresses:
                    tracer._suppress -= 1
            if extra is not None:
                key, get = extra
                tracer.counts[key] = tracer.counts.get(key, 0) + get(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        for name, modules, attr in FUNCTION_SPANS:
            for modname in modules:
                mod = importlib.import_module(modname)
                self._patches.set(mod, attr, self.span(name, mod.__dict__[attr]))
        for name, modname, clsname, attr in METHOD_SPANS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._patches.set(cls, attr, self.span(name, cls.__dict__[attr]))
        for name, modname, clsname, attr in METHOD_COUNTS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._patches.set(cls, attr, self.counter(name, cls.__dict__[attr]))
        # repro() looks each grid up in this table at call time
        figures = importlib.import_module("oohsim.experiments").REPRO_FIGURES
        for fig in list(figures):
            self._patches.set_item(figures, fig, self.span(f"experiments.repro.{fig}", figures[fig]))

    def uninstall(self) -> None:
        self._patches.undo()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        names = self.names
        for i in range(n):
            rec = out.setdefault(names[self.name_id[i]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            rec["total_s"] += dur[i]
        return out

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated lines: index, name, parent, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


class Recorder:
    """Keeps every tracker config and report a pass produces."""

    SITES = ("oohsim.trackers", "oohsim.experiments", "oohsim.checkpoint", "oohsim.workloads")

    def __init__(self):
        self.runs: list[tuple[object, object]] = []
        self.before_call = None  # called before each tracker run when set
        self._patches = Patches()

    def install(self) -> None:
        original = importlib.import_module("oohsim.trackers").run_tracker
        recorder = self

        def run_tracker(cfg):
            if recorder.before_call is not None:
                recorder.before_call()
            report = original(cfg)
            recorder.runs.append((cfg, report))
            return report

        for modname in self.SITES:
            self._patches.set(importlib.import_module(modname), "run_tracker", run_tracker)

    def take(self) -> list[tuple[object, object]]:
        out = list(self.runs)
        self.runs.clear()
        return out
