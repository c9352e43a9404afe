"""oohsim benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload dense-sweep --seed 1 --seconds 20 --trace 0

Workloads: kv-sparse, dense-sweep, churn-ckpt, closed-form (see
``bench/README.md``).  Every timing is host time; simulated statistics are
printed beside it as exact counts.

The workload runs in a fresh interpreter (``bench/worker.py``), so the peak
RSS it reports is that workload's alone.  Set-up time is measured in further
fresh interpreters started between passes, and the median is reported.

Host speed on a shared machine drifts by tens of percent over tens of
seconds.  So every timed pass, and every set-up, is bracketed by a fixed
reference loop, and the gated times are scaled to ``REF_NOMINAL_S``: they
read as host seconds on a host where that loop takes 0.1 s.  The raw host
seconds are printed beside them and kept in the result file.

With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics
from a separate traced replay, and the tracing overhead.  Results and spans
are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("kv-sparse", "dense-sweep", "churn-ckpt", "closed-form")
DEADLINE_S = 170.0
REF_NOMINAL_S = 0.100


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}  n=1" if values else "n=0"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def scaled(records: list[dict], key: str) -> list[float]:
    """``key`` of each record, scaled from the record's host speed to nominal."""
    return [r[key] * REF_NOMINAL_S / r["ref_s"] for r in records]


def environment(root: Path) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def run_worker(root: Path, args: list[str], out: Path, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OOHSIM_CALIBRATION"}
    env["PYTHONHASHSEED"] = "0"
    # its own process group, so a timeout also stops the set-up probes it starts
    proc = subprocess.Popen(
        [sys.executable, str(root / "bench" / "worker.py"), *args, "--out", str(out)],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def main(argv=None) -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds within 1..60")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "oohsim" / "__init__.py").is_file():
        return fail(f"{root} holds no oohsim source tree (src/oohsim); run from a checkout root")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        worker_args += ["--mode", "trace", "--spans", str(out_dir / f"{tag}-spans.tsv.gz")]
    else:
        worker_args += ["--mode", "run"]
    try:
        res = run_worker(root, worker_args, out_dir / f"{tag}-worker.json",
                         DEADLINE_S - (perf_counter() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(f"worker failed: {exc}")

    passes = res["passes"]
    traced = res.get("traced_passes", [])
    all_passes = passes + traced
    first = passes[0]
    attempted = sum(p["checks_attempted"] for p in all_passes)
    failures = [name for p in all_passes for name in p["checks_failed"]]
    # determinism: every later pass, traced ones included, repeats the first
    for i, p in enumerate(all_passes[1:], start=1):
        attempted += 1
        if p["digest"] != first["digest"] or p["sim"] != first["sim"]:
            failures.append(f"pass {i} digest {p['digest'][:12]} != pass 0 {first['digest'][:12]}")
    walls = scaled(passes, "wall_s")
    setups = scaled(res.get("setup_probes", []), "setup_s")
    writes = first["sim"]["writes_done"]

    env_info = environment(root)
    print(f"oohsim bench  workload={args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"pass host s, raw               {describe([p['wall_s'] for p in passes])}")
    print(f"reference loop s               {describe([p['ref_s'] for p in passes])}")
    print(f"pass host s, at nominal speed  {describe(walls)}")
    if setups:
        print(f"setup host s, raw              {describe([p['setup_s'] for p in res['setup_probes']])}")
        print(f"setup host s, at nominal speed {describe(setups)}")
    print(f"peak_rss_mb                    {res['peak_rss_mb']:.1f}")
    print("sim  " + "  ".join(f"{k}={v}" for k, v in first["sim"].items())
          + f"  touched_page_ratio={first['touched_page_ratio']:.6f}")
    print(f"sim  digest={first['digest']}  identical across {len(all_passes)} passes: "
          f"{all(p['digest'] == first['digest'] for p in all_passes)}")
    ref_err = first.get("reference_abs_rel_err_pct")
    if ref_err:
        print(f"reference error (context, not gated): median |rel_err_pct| = "
              f"{statistics.median(ref_err):.2f}% over {len(ref_err)} repro rows with a published value")
    else:
        print("reference error: n/a (this workload runs no repro grid with published values)")
    print(f"checks  attempted={attempted}  failed={len(failures)}  fail_ratio={len(failures) / attempted:.6f}")
    for name in failures[:20]:
        print(f"  FAILED {name}")

    values = {
        "wall_s": statistics.median(walls),
        "host_us_per_write": statistics.median(w / writes * 1e6 for w in walls) if writes else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups) if setups else 0.0,
    }
    if args.trace:
        untraced = values["wall_s"]
        traced_wall = statistics.median(scaled(traced, "wall_s"))
        values.update(res["layers"])
        values["trace.untraced_wall_s"] = untraced
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced) / untraced
        values.update({f"sim.{key}": value for key, value in first["sim"].items()})
        values["touched_page_ratio"] = first["touched_page_ratio"]
        incl = res["inclusive_s"]
        last_wall = traced[-1]["wall_s"]
        print(f"tracing overhead: traced {traced_wall:.4f} s vs untraced {untraced:.4f} s per pass "
              f"at nominal speed ({values['trace.overhead_pct']:+.1f}%)")
        print(f"attribution, inclusive span time / host time of the last traced pass: "
              f"vm.allocate {100 * incl.get('vm.allocate', 0.0) / last_wall:.1f}%  "
              f"vm.write_one pipeline {100 * incl.get('vm.write_one', 0.0) / last_wall:.1f}%")
        selected = spec["per_layer"]
    else:
        selected = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in selected}
    if not args.trace:
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    record = {"args": vars(args), "env": env_info, "worker": res, "metrics": metrics,
              "checks_attempted": attempted, "checks_failed": failures}
    (out_dir / f"{tag}-result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
