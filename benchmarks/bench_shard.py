"""Sharding trajectory: build time and batched throughput vs shard count.

The sharding layer trades *total work* for *latency*: every scatter
query scans each shard's candidate set (the fleet-summed
``expected_candidates`` from the paper's Section 5 cost model grows
with N because smaller shards have coarser solution spaces), but the
per-shard walks run concurrently, and the shards, built one after
another, build faster than the whole because each shard's cells are
computed against fewer points.  This bench publishes that trade as a
machine-readable root-level ``BENCH_shard.json``:

* ``shard{N}_build_seconds`` — wall time of
  :meth:`ShardedNNCellIndex.build` for N shards (N=1 is effectively
  the unsharded baseline plus routing bookkeeping);
* ``shard{N}_batch_qps`` — ``query_batch`` scatter-gather throughput
  over the same query workload, best of ``REPEATS`` interleaved
  passes;
* ``shard{N}_expected_candidates`` — the cost-model harness: the
  fleet-summed expected candidate-set size from
  :meth:`ShardedNNCellIndex.stats`, i.e. the model's prediction of the
  extra scan work sharding introduces (context, never gated);
* ``parity_mismatches`` — scatter answers diffed against the unsharded
  index over the full workload; anything but 0.0 is a bug.

Only the ``_seconds`` / ``_qps`` metrics gate (see
``tools/compare_bench.py``); the cost-model numbers are context.
Runnable both ways::

    PYTHONPATH=src pytest benchmarks/bench_shard.py --benchmark-only -s
    PYTHONPATH=src python benchmarks/bench_shard.py
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.shard import ShardConfig, ShardedNNCellIndex

try:  # direct `python benchmarks/bench_shard.py` runs too
    from bench_common import scaled
except ImportError:  # pragma: no cover - pytest inserts benchmarks/ on path
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_common import scaled

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_shard.json"

#: Shard counts on the measured trajectory (1 = routing-only baseline).
SHARD_COUNTS = (1, 2, 4, 8)

#: Interleaved throughput rounds per shard count; best pass kept
#: (loaded-box noise is one-sided, so max qps is the honest estimator).
REPEATS = 3


def _batch_qps(index, queries) -> float:
    """One timed ``query_batch`` pass (queries/s)."""
    started = time.perf_counter()
    index.query_batch(queries)
    elapsed = time.perf_counter() - started
    return queries.shape[0] / elapsed if elapsed > 0 else 0.0


def measure_shard_trajectory(points, queries) -> dict:
    """Build/throughput/cost-model numbers for every shard count."""
    flat = NNCellIndex.build(points)
    exp_ids, exp_dists, __ = flat.query_batch(queries)

    fleet = {}
    metrics_out = {}
    for n in SHARD_COUNTS:
        started = time.perf_counter()
        fleet[n] = ShardedNNCellIndex.build(points, ShardConfig(n_shards=n))
        metrics_out[f"shard{n}_build_seconds"] = (
            time.perf_counter() - started
        )
        metrics_out[f"shard{n}_expected_candidates"] = (
            fleet[n].stats()["expected_candidates"]
        )

    best = {n: 0.0 for n in SHARD_COUNTS}
    for __ in range(REPEATS):
        for n in SHARD_COUNTS:
            best[n] = max(best[n], _batch_qps(fleet[n], queries))
    for n in SHARD_COUNTS:
        metrics_out[f"shard{n}_batch_qps"] = best[n]

    mismatches = 0
    for n, sharded in fleet.items():
        ids, dists, __ = sharded.query_batch(queries)
        mismatches += int(np.sum(ids != exp_ids))
        mismatches += int(np.sum(dists != exp_dists))
        sharded.close()
    metrics_out["parity_mismatches"] = float(mismatches)
    return metrics_out


def run_bench(out_path: Path = BENCH_PATH) -> dict:
    """Build the workload, measure, and write the BENCH document."""
    dim = 6
    n_points = scaled(400)
    n_queries = scaled(300)
    points = uniform_points(n_points, dim, seed=281)
    queries = query_points(n_queries, dim, seed=282)

    document = {
        "bench": "shard",
        "format_version": 1,
        "config": {
            "n_points": n_points,
            "dim": dim,
            "n_queries": n_queries,
            "shard_counts": list(SHARD_COUNTS),
            "repeats": REPEATS,
        },
        "metrics": measure_shard_trajectory(points, queries),
    }
    mismatches = document["metrics"]["parity_mismatches"]
    if mismatches:
        raise AssertionError(
            f"sharded answers diverged from the unsharded index"
            f" ({mismatches:.0f} mismatched values)"
        )
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def bench_shard(benchmark):
    document = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    m = document["metrics"]
    assert m["parity_mismatches"] == 0.0
    for n in SHARD_COUNTS:
        assert m[f"shard{n}_build_seconds"] > 0.0
        assert m[f"shard{n}_batch_qps"] > 0.0
        assert m[f"shard{n}_expected_candidates"] > 0.0
    print(f"\n(bench document written to {BENCH_PATH})")
    for name in sorted(m):
        print(f"  {name:<28} {m[name]:.3f}")


if __name__ == "__main__":
    result = run_bench()
    print(json.dumps(result, indent=2, sort_keys=True))
