"""One workload in one fresh interpreter; ``bench/run.py`` starts it.

Modes:

* ``setup`` — import oohsim, load the cost table, make the inputs, report
  the time that took, and exit;
* ``run`` — set up, then replay timed passes until ``--seconds`` have
  passed (at least two, so determinism is checked inside every run).
  Between passes it starts ``SETUP_PROBES`` ``setup`` runs, so the set-up
  times are sampled across the run rather than in one burst.  The
  reference loop samples the host's speed around and inside every pass
  (see ``HostSpeed``);
* ``trace`` — set up with tracing on, replay untraced passes for
  ``--seconds``, then traced passes for another ``--seconds``; report the
  per-layer numbers and the tracing overhead, and write the spans.

The result goes to the JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from time import perf_counter

T0 = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))

from oohsim.costs import CostTable  # noqa: E402
from oohsim.workloads import replay_dirty_oracle  # noqa: E402

from tracing import CHURN_SPANS, Recorder, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
SAMPLE_EVERY_S = 1.0

SIM_COUNTS = (
    "writes_done",
    "vmexits",
    "softirq_copies",
    "sched_events",
    "dropped",
    "missed",
    "truncated_runs",
    "restore_divergent",
)


def _canonical(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(type(value).__name__)


def report_record(report) -> dict:
    return {f.name: getattr(report, f.name) for f in fields(report)}


class Evaluator:
    """Output checks, simulated counts and the digest of one pass."""

    def __init__(self):
        self._oracles: dict[int, tuple[object, object]] = {}

    def oracle(self, trace):
        hit = self._oracles.get(id(trace))
        if hit is None:
            hit = (trace, replay_dirty_oracle(trace.ops, trace.initial_gvas()))
            self._oracles[id(trace)] = hit
        return hit[1]

    def evaluate(self, workload, runs, summary) -> dict:
        # keep only this pass's traces: fig9 makes new ones every pass, and
        # holding them would make the peak RSS grow with the pass count
        current = {id(cfg.trace) for cfg, _ in runs if cfg.trace is not None}
        self._oracles = {k: v for k, v in self._oracles.items() if k in current}
        checks: list[tuple[str, bool]] = []
        sim = dict.fromkeys(SIM_COUNTS, 0)
        written = mapped = 0
        digest = hashlib.sha256()
        for i, (cfg, rep) in enumerate(runs):
            label = f"run {i} {rep.technique}@{rep.memory_bytes}"
            sim["writes_done"] += rep.writes_done
            sim["vmexits"] += rep.vmexits
            sim["softirq_copies"] += rep.softirq_copies
            sim["sched_events"] += rep.n_sched_events
            sim["dropped"] += rep.dropped
            sim["missed"] += len(rep.missed)
            sim["truncated_runs"] += int(rep.truncated)
            if cfg.trace is not None:
                trace = cfg.trace
                oracle = self.oracle(trace)
                if rep.technique == "spml":
                    ok = (
                        rep.dirty_set == oracle.dirty - oracle.unmapped_dirty
                        and rep.missed == oracle.unmapped_dirty
                    )
                else:
                    ok = rep.dirty_set == oracle.dirty
                checks.append((f"{label} matches replay_dirty_oracle", ok))
                written += len(oracle.dirty)
                mapped += trace.initial_pages + sum(1 for op in trace.ops if op[0] == "map")
            else:
                if cfg.mechanical:
                    ok = (
                        rep.dirty_set == {(p + 1) * 0x1000 for p in range(cfg.pages)}
                        and not rep.missed
                    )
                    checks.append((f"{label} reports every page dirty, none missed", ok))
                written += rep.dirty_pages
                mapped += cfg.pages
            digest.update(
                json.dumps(report_record(rep), sort_keys=True, default=_canonical).encode()
            )
        sim["restore_divergent"] = sum(
            sum(s["divergent"]) for s in summary.get("sessions", ())
        )
        digest.update(json.dumps(summary, sort_keys=True).encode())
        checks.extend(workload.checks(summary))
        return {
            "sim": sim,
            "touched_page_ratio": written / mapped if mapped else 0.0,
            "digest": digest.hexdigest(),
            "checks_attempted": len(checks),
            "checks_failed": [name for name, ok in checks if not ok],
        }


def reference_s() -> float:
    """Host time of a fixed pure-Python loop, the yardstick of host speed.

    The loop does the kind of work the simulator does (dict and set
    updates, tuple and small-object churn) in a footprint of about a
    megabyte, so it barely moves the peak RSS.  It never changes, so how
    long it takes (about 0.1 s) measures only how fast the host runs Python
    at that moment.
    """
    started = perf_counter()
    for _ in range(30):
        table: dict[int, tuple[int, int]] = {}
        for i in range(10_000):
            table[i] = (i, i * 7 % 4096)
        marked = set()
        for key, (_, frame) in table.items():
            if frame & 1:
                marked.add(key)
        for key in list(marked)[::3]:
            del table[key]
    return perf_counter() - started


class HostSpeed:
    """Reference-loop samples that judge the host's speed during one pass.

    One sample opens the pass.  When ``between_calls`` is hooked before each
    tracker call, it adds one whenever ``SAMPLE_EVERY_S`` have passed since
    the last, so a long pass is not judged by its ends alone.  The time
    spent sampling inside the pass is kept out of the pass's wall time.
    """

    def __init__(self):
        self.samples = [reference_s()]
        self.last = perf_counter()
        self.spent = 0.0

    def between_calls(self) -> None:
        now = perf_counter()
        if now - self.last >= SAMPLE_EVERY_S:
            self.samples.append(reference_s())
            self.last = perf_counter()
            self.spent += self.last - now


def bracket(passes: list[dict]) -> None:
    """Give each pass the mean of its samples and the next pass's first one."""
    closing = [p["ref_samples"][0] for p in passes[1:]] + [reference_s()]
    for p, close in zip(passes, closing):
        samples = p.pop("ref_samples") + [close]
        p["ref_s"] = sum(samples) / len(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(agg: dict, counts: dict) -> dict[str, float]:
    """Self-time and call totals under the per-layer metric names."""
    out: dict[str, float] = {}
    for name, rec in agg.items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.s"] = rec["self_s"]
    out["vm.churn.s"] = sum(agg.get(n, {}).get("self_s", 0.0) for n in CHURN_SPANS)
    out.update(counts)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="trace mode: where to write the spans")
    args = ap.parse_args(argv)
    out_path = Path(args.out)

    tracer = Tracer() if args.mode == "trace" else None
    with tempfile.TemporaryDirectory(dir=out_path.parent) as scratch:
        scratch = Path(scratch)
        (scratch / "workload").mkdir()
        table = CostTable.default()
        if tracer:
            tracer.install()
        workload = WORKLOADS[args.workload](args.seed, table, scratch / "workload")
        setup_s = perf_counter() - T0
        if args.mode == "setup":
            out_path.write_text(json.dumps({"setup_s": setup_s, "ref_s": reference_s()}))
            return 0
        result: dict = {}
        if tracer:
            tracer.uninstall()
            setup_layers = layer_metrics(tracer.aggregate(), tracer.counts)
            tracer.reset()

        recorder = Recorder()
        recorder.install()
        evaluator = Evaluator()

        def one_pass(sample_inside: bool) -> dict:
            gc.collect()  # every pass starts from the same heap, whatever the last left
            speed = HostSpeed()
            # inside a traced pass a sample would land in the enclosing spans
            recorder.before_call = speed.between_calls if sample_inside else None
            started = perf_counter()
            artifacts = workload.run()
            wall = perf_counter() - started - speed.spent
            recorder.before_call = None
            summary = workload.summary(artifacts)
            rec = evaluator.evaluate(workload, recorder.take(), summary)
            rec["wall_s"] = wall
            rec["ref_samples"] = speed.samples
            if args.workload == "closed-form":
                rec["reference_abs_rel_err_pct"] = workload.reference_rows(summary)
            return rec

        def setup_probe() -> dict:
            probe_out = scratch / "setup-probe.json"
            subprocess.run(
                [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--mode", "setup", "--out", str(probe_out)],
                stdout=subprocess.DEVNULL,
                check=True,
            )
            return json.loads(probe_out.read_text())

        passes = []
        probes = []
        deadline = perf_counter() + args.seconds
        min_passes = 1 if tracer else 2
        while len(passes) < min_passes or perf_counter() < deadline:
            passes.append(one_pass(sample_inside=True))
            if not tracer and len(probes) < SETUP_PROBES:
                probes.append(setup_probe())
        bracket(passes)
        while not tracer and len(probes) < SETUP_PROBES:
            probes.append(setup_probe())
        result["peak_rss_mb"] = peak_rss_mb()
        result["passes"] = passes
        result["setup_probes"] = probes

        if tracer:
            traced = []
            layers = []
            tracer.install()
            deadline = perf_counter() + args.seconds
            while not traced or perf_counter() < deadline:
                tracer.reset()
                traced.append(one_pass(sample_inside=False))
                layers.append(layer_metrics(tracer.aggregate(), tracer.counts))
            tracer.uninstall()
            bracket(traced)
            if args.spans:
                tracer.write(args.spans)
            agg = tracer.aggregate()
            merged = {}
            for key in set().union(*layers):
                vals = [lay.get(key, 0) for lay in layers]
                merged[key] = statistics.median(vals) if key.endswith(".s") else vals[0]
            merged["workloads.make_trace.s"] = setup_layers.get("workloads.make_trace.s", 0.0)
            merged["workloads.random_trace.s"] = setup_layers.get("workloads.random_trace.s", 0.0)
            result["traced_passes"] = traced
            result["layers"] = merged
            result["inclusive_s"] = {name: rec["total_s"] for name, rec in agg.items()}

    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
