"""One wall-clock benchmark for every layer of the NN-cell system.

Run from the root of a checkout:

    python3 benchmarks/layers/run.py                      # all workloads
    python3 benchmarks/layers/run.py --workload query --seed 3
    python3 benchmarks/layers/run.py --workload serve --trace 1 --trace-dir out

With one ``--workload`` the run happens in this process; otherwise each
workload runs in a fresh subprocess.  Every metric is printed as
``workload  name  value  unit``, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload again with spans around every layer and reports the per-layer
metrics instead.  A wrong answer makes the exit code 1.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _parse(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of each workload's timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="with --trace 1, write <workload>.spans.json here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the test suite")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, trace_dir, smoke, spec) -> dict:
    """Measure one workload in this process; the result object."""
    import layers
    import workloads
    from spans import Tracer, write_spans

    sizes = workloads.SMOKE if smoke else workloads.FULL
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    workload = workloads.WORKLOADS[name](seed, sizes, workdir)
    try:
        workload.prepare()
        plain = workload.run(seconds)
        plain.metrics["peak_rss_mb"] = _peak_rss_mb()
        results = [plain]
        declared = spec["end_to_end"]
        values = plain.metrics
        if trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = workload.run(seconds, tracer)
            finally:
                tracer.uninstall()
            traced.facts.setdefault("spans", tracer.take())
            results.append(traced)
            declared = spec["per_layer"]
            values = layers.layer_metrics(
                name, plain, traced, _overhead_pct(name, plain, traced),
                [m["name"] for m in declared],
            )
            if trace_dir is not None:
                write_spans(
                    traced.facts["spans"], Path(trace_dir) / f"{name}.spans.json"
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for r in results for p in r.problems]
    for problem in problems:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems and all(r.failed == 0 for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def _overhead_pct(name, plain, traced) -> float:
    """How much slower the traced run was on the workload's main number."""
    if name.startswith("serve"):
        ratio = plain.metrics["throughput_qps"] / traced.metrics["throughput_qps"]
    else:
        ratio = traced.metrics["op_p50_ms"] / plain.metrics["op_p50_ms"]
    return 100.0 * (ratio - 1.0)


def _print_table(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<14} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")


def _run_subprocess(name: str, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace_dir is not None:
        cmd += ["--trace-dir", str(args.trace_dir)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if len(names) == 1:
        result = run_workload(names[0], args.seed, args.seconds, args.trace,
                              args.trace_dir, args.smoke, spec)
        _print_table(names[0], result)
    else:
        parts = {name: _run_subprocess(name, args) for name in names}
        for name, part in parts.items():
            _print_table(name, part)
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, part in parts.items()
                for metric, entry in part["metrics"].items()
            },
        }
    bad = [k for k, e in result["metrics"].items() if not math.isfinite(e["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
