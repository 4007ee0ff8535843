"""Run the benchmark in pairs on two checkouts and judge each end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S

PARENT and CHANGE are checkouts of semshard. Pair i runs
`perfbench/run.py --workload W --seed S+i --trace 0` in each checkout, one
process at a time, for the run length set in PARENT's BENCHMARK.json; the
pairs alternate which side runs first. The script prints each pair's
end-to-end metrics, each side's median and quartiles, the change's win
count, and one verdict per metric:

- gain: the change wins at least nine pairs in ten (ties count for neither)
  and the medians differ, in the better direction, by more than the
  distance between the parent's quartiles;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, a fraction of the parent's median;
- unresolved: neither, and one side's quartiles lie further apart than the
  bound, unless every run of the change reads better than every run of the
  parent;
- within bound: none of these.

Then one line per side counts its runs that were not `correct` and its
failed operations against those attempted, over all pairs; the change's
line ends in `failed share rose` when its share of failed operations
exceeds the parent's, and in `failed share held` otherwise.

BENCHMARK.json is only read.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs the change wins; a tie counts for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The verdict on one metric; parent[i] and change[i] ran as pair i."""
    sign = 1 if better == "lower" else -1
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    gain = sign * (p_med - c_med)  # > 0: the change's median is better
    if 10 * wins(parent, change, better) >= 9 * len(parent) \
            and gain > p_q3 - p_q1:
        return "gain"
    if -gain > bound * p_med:
        return "regression"
    apart = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(p_q3 - p_q1, c_q3 - c_q1) > bound * p_med and not apart:
        return "unresolved"
    return "within bound"


def tally(results: list[dict]) -> tuple[int, int, int]:
    """(runs not correct, operations failed, operations attempted)."""
    return (sum(not r["correct"] for r in results),
            sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def failure_verdict(parent: tuple[int, int, int],
                    change: tuple[int, int, int]) -> str:
    """Whether the change failed a larger share of the operations it
    attempted than the parent; each side is a tally()."""
    def share(counts):
        _, failed, attempted = counts
        return failed / attempted if attempted else 0.0
    return ("failed share rose" if share(change) > share(parent)
            else "failed share held")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; its closing JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs: at least 2, for quartiles")

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    results = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed,
                              bench["run_seconds"])
            results[side].append(result)
            if not result["correct"] or result["failed"]:
                print(f"pair {i + 1} {side}: correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}")
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
        line = ", ".join(f"{m['name']} {values['parent'][m['name']][-1]:.4f}"
                         f"/{values['change'][m['name']][-1]:.4f}"
                         for m in metrics)
        print(f"pair {i + 1}, seed {seed}, {order[0]} first "
              f"(parent/change): {line}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}: median (quartiles)")
    for m in metrics:
        name, better = m["name"], m["better"]
        parent, change = values["parent"][name], values["change"][name]
        cols = [f"{side} {med:.4f} ({q1:.4f}-{q3:.4f})"
                for side, (med, q1, q3) in (("parent", summary(parent)),
                                            ("change", summary(change)))]
        print(f"  {name:12s} {m['unit']:4s} {cols[0]}, {cols[1]}, "
              f"change wins {wins(parent, change, better)}/{args.pairs}: "
              f"{verdict(parent, change, better, m['bound'])}")
    counts = {side: tally(results[side]) for side in sides}
    for side, (wrong, failed, attempted) in counts.items():
        end = (f": {failure_verdict(counts['parent'], counts['change'])}"
               if side == "change" else "")
        print(f"  {side}: {wrong} of {args.pairs} runs not correct, "
              f"{failed} of {attempted} operations failed{end}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
