"""Run the benchmark K times in fresh processes and report the spread.

    python3 benchmarks/layers/spread.py --runs 5
    python3 benchmarks/layers/spread.py --runs 10 --seed 101 --out results/b.json \
        --compare benchmarks/layers/results/spread.json

Run ``i`` of every workload uses seed ``--seed + i``; the workloads take
turns, so a slow spell of the machine spreads over all of them.  For
each end-to-end metric and workload it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a
share of the median, and the largest deviation of any run from the
median, each next to the metric's bound in BENCHMARK.json.  With
``--compare`` it also prints how far this set's medians moved from an
earlier set's, in the worsening direction.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def machine() -> dict:
    """Facts later changes can size their claims against."""
    import os

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def _run(workload: str, seed: int, seconds: float) -> "tuple[dict, float]":
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(values: "list[float]", bound: float) -> dict:
    median = statistics.median(values)
    q1, __, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "max_dev_share": max(abs(v - median) for v in values) / median,
        "bound": bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", type=Path, default=HERE / "results" / "spread.json")
    parser.add_argument("--compare", type=Path, default=None,
                        help="an earlier spread.json to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]

    values = {w: {m: [] for m in bounds} for w in names}
    walls = {w: [] for w in names}
    for i in range(args.runs):
        for workload in names:
            result, wall = _run(workload, args.seed + i, seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {args.seed + i}: incorrect")
            walls[workload].append(wall)
            for metric in bounds:
                values[workload][metric].append(result["metrics"][metric]["value"])
            print(f"run {i + 1}/{args.runs} {workload}: {wall:.1f} s wall",
                  file=sys.stderr, flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    report = {"machine": machine(), "runs": args.runs, "first_seed": args.seed,
              "seconds": seconds, "wall_s": walls, "metrics": {}}
    print(f"{'workload':<14} {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'iqr/med':>8} {'maxdev':>8} {'bound':>6}"
          + (f" {'moved':>8}" if earlier else ""))
    for workload in names:
        report["metrics"][workload] = {}
        for metric, decl in bounds.items():
            row = summarize(values[workload][metric], decl["bound"])
            line = (f"{workload:<14} {metric:<22} {row['median']:>12.5g}"
                    f" {row['q1']:>12.5g} {row['q3']:>12.5g}"
                    f" {row['iqr_share']:>8.3f} {row['max_dev_share']:>8.3f}"
                    f" {decl['bound']:>6.2f}")
            if earlier:
                old = earlier["metrics"][workload][metric]["median"]
                worse = (row["median"] - old) / old
                if decl["better"] == "higher":
                    worse = -worse
                row["worsened_share_vs_compare"] = worse
                line += f" {worse:>8.3f}"
            report["metrics"][workload][metric] = row
            print(line)
    print(f"wall per run: " + ", ".join(
        f"{w} {statistics.median(t):.1f} s" for w, t in walls.items()))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
