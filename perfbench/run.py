"""Benchmark for semshard: run one workload for a fixed time, check its
outputs, and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; semshard is imported from its src/. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The lines before it are the
report: the machine, each metric by name with its unit, the workload's own
figures, operations attempted and failed, and output digests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("adaptive-train", "sweep", "pos-rounds")
SETUP_PROBES = 15
SETUP_TIMEOUT_S = 60


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc(), "cpu": cpu_model()}


def setup_probe(name: str, seed: int, work: Path) -> float:
    """The workload's set-up time in a fresh interpreter, corrected for host
    speed by reference timings taken just before and after it."""
    work.mkdir(exist_ok=True)
    before = speed.scale()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         str(work)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    wall = float(proc.stdout.strip().splitlines()[-1])
    return wall * (before + speed.scale()) / 2


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import selftest
    import tracing
    import workloads
    from semshard import cli, consensus, core, dqn, env

    work = OUT / f"{name}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        problems = selftest.run(work)
        w = workloads.WORKLOADS[name](seed, work, nproc())
        w.prepare()
        w.build()
        tracer = None
        if trace:
            trace_dir = OUT / f"trace-{name}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            tracer = tracing.Tracer((cli, consensus, core, dqn, env))
        traced_walls: list[float] = []
        setup_s: list[float] = []
        clock = speed.SpeedClock()
        if not trace:
            workloads.clock = clock.now
        start = perf_counter()
        while True:
            # a traced run alternates untraced and traced passes
            w.traced = trace and w.passes % 2 == 1
            w.span = tracer.active if w.traced else contextlib.nullcontext
            with contextlib.nullcontext() if trace else clock:
                wall = w.run_pass()
            (traced_walls if w.traced else w.walls).append(wall)
            w.traced, w.span = False, contextlib.nullcontext
            w.untimed()
            w.passes += 1
            done = min(1.0, (perf_counter() - start) / seconds)
            # set-up probes run between passes, spread over the run, so that
            # no one slow stretch of a shared host holds all of them
            while not trace and len(setup_s) < SETUP_PROBES * done:
                setup_s.append(setup_probe(name, seed, work / "probe"))
            if done == 1.0 and (traced_walls or not trace):
                break
        if not trace:
            w.figures["host_slowdown"] = (
                median(clock.references) / speed.NOMINAL_S, "ratio")
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if w.worker_rss_mb:
            w.figures["peak_rss_parent_mb"] = (own_rss, "MiB")
            w.figures["peak_rss_largest_worker_mb"] = (w.worker_rss_mb, "MiB")
        ops_per_s = w.ops_per_s()
        result = {"workload": w, "problems": problems + w.problems,
                  "passes": w.passes}
        if trace:
            stats, counts = tracer.rec.table()
            tracer.rec.save(trace_dir / "spans-main.npz")
            passes = len(traced_walls)
            overhead = (median(traced_walls) / median(w.walls) - 1.0) * 100.0
            layer = tracing.layer_metrics(stats, counts, passes)
            layer["trace.overhead_pct"] = overhead
            table = tracing.format_table(stats, counts, passes)
            (trace_dir / "table.txt").write_text("\n".join(table) + "\n")
            result.update(metrics={k: (v, layer_unit(k)) for k, v in layer.items()},
                          table=table, trace_dir=trace_dir)
        else:
            result["metrics"] = {
                "setup_s": (median(setup_s), "s"),
                "wall_s": (w.wall_s(), "s"),
                "ops_per_s": (ops_per_s, "1/s"),
                "peak_rss_mb": (max(own_rss, w.worker_rss_mb), "MiB"),
            }
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_unit(metric: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_pct", "%")):
        if metric.endswith(suffix):
            return unit
    return "count"


def report(name: str, seed: int, trace: bool, r: dict) -> dict:
    w = r["workload"]
    print(f"semshard benchmark: workload {name}, seed {seed}, "
          f"trace {int(trace)}, {r['passes']} passes")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine().items()))
    for metric, (value, unit) in r["metrics"].items():
        print(f"  {metric:36s} {value:16.6f} {unit}")
    for figure, (value, unit) in w.figures.items():
        print(f"  {figure:36s} {value:16.6f} {unit}  (workload figure)")
    print(f"  operations ({w.op}): attempted {w.attempted}, failed {w.failed}")
    for output, digest in w.digests.items():
        print(f"  sha256 {output}: {digest}")
    if trace:
        print(f"  trace: {r['trace_dir']} (self-time table below, per traced pass)")
        for line in r["table"]:
            print("    " + line)
    for problem in r["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": not r["problems"], "attempted": w.attempted,
            "failed": w.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in r["metrics"].items()}}


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semshard" / "__init__.py").is_file():
        print(f"error: no semshard sources under {SRC}; run from the root "
              "of a semshard checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
