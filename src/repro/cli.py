"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main workflows for shell use:

* ``build``  — precompute a solution-space index over a dataset (a
  generated workload or a ``.npy``/``.csv`` point file) and save it;
* ``query``  — load a saved index and answer (k-)NN queries;
* ``serve``  — run the concurrent micro-batching query service over a
  saved index, speaking JSON-lines on stdin/stdout (docs/serving.md);
  ``--metrics-port`` binds a Prometheus scrape endpoint,
  ``--stats-interval`` prints a windowed dashboard line to stderr, and
  ``--events`` appends a JSONL record per sampled lifecycle;
* ``explain`` — full account of how one query is answered: the leaf
  rectangles hit, the candidate distances, tolerance retries and the
  fallback path, as text or ``--json``;
* ``info``   — print a saved index's statistics;
* ``stats``  — same statistics, plus ``--live`` metrics from a sample
  query workload run with instrumentation enabled, or ``--watch`` for a
  continuously refreshing windowed telemetry table;
* ``analyze`` — drive a captured workload (from ``serve --capture``)
  through an index with access accounting on and print the hotspot
  report: per-shard work shares, hot cells/pages, cache-hit ratio and
  a partitioner-balance verdict (exit 2 on skew; docs/analytics.md);
* ``replay`` — re-execute a captured workload and verify every answer
  is bit-identical to the capture (exit 1 on any mismatch);
* ``experiment`` — run one of the paper's figure experiments and print
  (optionally save) its table.

``build`` and ``query`` accept ``--profile PATH``: the command runs with
:mod:`repro.obs` metrics and tracing enabled and writes a profile JSON
document (counters, histograms, nested spans) to ``PATH``.

``build --workers N`` runs cell construction on ``N`` parallel workers
(``0`` = all CPU cores) — the built index is identical to a serial build.
``query --batch FILE`` answers every query point in ``FILE`` through one
batched index walk instead of one walk per query (docs/scaling.md).

Examples::

    python -m repro build --dataset uniform --n 500 --dim 6 --out idx.nnc
    python -m repro build --dataset uniform --n 2000 --dim 16 \
        --selector nn-direction --workers 0 --out idx.nnc
    python -m repro query idx.nnc --point 0.5,0.5,0.5,0.5,0.5,0.5 -k 3
    python -m repro query idx.nnc --batch queries.npy
    echo '[0.5, 0.5, 0.5, 0.5, 0.5, 0.5]' | python -m repro serve idx.nnc
    python -m repro serve idx.nnc --metrics-port 9100 --stats-interval 5
    python -m repro explain idx.nnc --point 0.5,0.5,0.5,0.5,0.5,0.5
    python -m repro info idx.nnc
    python -m repro stats idx.nnc --live
    python -m repro stats idx.nnc --watch --duration 10
    python -m repro analyze fleet --workload capture.jsonl --json
    python -m repro replay fleet --workload capture.jsonl --mode batch
    python -m repro build --dataset uniform --n 200 --dim 4 \
        --out idx.nnc --profile build_profile.json
    python -m repro experiment figure4 --param dims=2,4 --param n_points=50
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .core.candidates import SelectorKind, SelectorParams
from .core.decomposition import DecompositionConfig
from .core.nncell_index import BuildConfig, NNCellIndex
from .core.persistence import (
    is_sharded_archive,
    load_any_index,
    save_index,
    save_sharded_index,
)
from .data.registry import dataset_names, make_dataset
from .data.synthetic import query_points
from .eval import experiments as experiments_module
from .eval.loadgen import run_service_load
from .eval.replay import replay as run_replay
from .eval.reporting import ResultTable
from .obs import analytics as obs_analytics
from .obs import export as obs_export
from .obs import metrics as obs_metrics
from .obs import workload as obs_workload
from .obs import timeseries as obs_timeseries
from .obs import tracectx as obs_tracectx
from .obs import tracestore as obs_tracestore
from .obs import tracing as obs_tracing
from .serve import (
    QueryService,
    ServeConfig,
    ServeError,
    TelemetryConfig,
    TelemetrySession,
)
from .shard import PARTITIONER_KINDS, ShardConfig, ShardedNNCellIndex

__all__ = ["main"]

_EXPERIMENTS = {
    "figure2": experiments_module.figure2_cell_gallery,
    "figure4": experiments_module.figure4_selector_tradeoff,
    "figure5": experiments_module.figure5_quality_performance,
    "figure7-9": experiments_module.figure7_to_9_dimension_sweep,
    "figure10": experiments_module.figure10_size_sweep,
    "figure11-12": experiments_module.figure11_12_fourier,
    "figure13": experiments_module.figure13_decomposition,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point: parse ``argv`` and run the selected command."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Voronoi NN-cell nearest-neighbor search (ICDE 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="precompute and save an index")
    source = build.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", choices=dataset_names(),
        help="generate a synthetic workload",
    )
    source.add_argument(
        "--points", type=Path,
        help=".npy or .csv file with one point per row (unit-cube data)",
    )
    build.add_argument("--n", type=int, default=500,
                       help="points to generate (with --dataset)")
    build.add_argument("--dim", type=int, default=8,
                       help="dimensionality (with --dataset)")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--selector",
        choices=[k.value for k in SelectorKind],
        default=SelectorKind.SPHERE.value,
    )
    build.add_argument("--sphere-radius-factor", type=float, default=2.0)
    build.add_argument("--decompose", action="store_true",
                       help="decompose cells (Section 3)")
    build.add_argument("--k-max", type=int, default=100,
                       help="decomposition budget")
    build.add_argument("--workers", type=int, default=1,
                       help="cell-construction worker processes"
                            " (0 = all CPU cores; see docs/scaling.md)")
    build.add_argument("--shards", type=int, default=0,
                       help="partition the index across N shards"
                            " (0 = unsharded; see docs/sharding.md)")
    build.add_argument("--partitioner", choices=list(PARTITIONER_KINDS),
                       default="hash",
                       help="point-to-shard routing policy (with --shards)")
    build.add_argument("--out", type=Path, required=True,
                       help="output archive file, written at exactly this"
                            " path (a directory with --shards)")
    _add_profile_argument(build)
    build.set_defaults(handler=_cmd_build)

    query = sub.add_parser("query", help="query a saved index")
    query.add_argument("index", type=Path)
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--point",
        help="comma-separated query coordinates",
    )
    what.add_argument(
        "--batch", type=Path, metavar="FILE",
        help=".npy or .csv file of query points, answered in one"
             " batched index walk",
    )
    query.add_argument("-k", type=int, default=1,
                       help="number of neighbors (with --point)")
    query.add_argument("--batch-size", type=int, default=None,
                       help="queries per batched walk (with --batch;"
                            " default: the whole file at once)")
    _add_profile_argument(query)
    query.set_defaults(handler=_cmd_query)

    serve = sub.add_parser(
        "serve",
        help="micro-batching query service over a saved index"
             " (JSON lines on stdin/stdout)",
    )
    serve.add_argument("index", type=Path)
    serve.add_argument("--shards", type=int, default=0,
                       help="re-shard an unsharded archive across N"
                            " shards at startup (sharded archives load"
                            " with their built shard count)")
    serve.add_argument("--max-batch-size", type=int, default=32,
                       help="most queries one flush may coalesce")
    serve.add_argument("--queue-depth", type=int, default=1024,
                       help="admission-control bound on pending queries"
                            " (0 = unbounded)")
    serve.add_argument("--admission", choices=["reject", "block"],
                       default="reject",
                       help="what a submission hitting a full queue does")
    serve.add_argument("--timeout-ms", type=float, default=None,
                       help="default per-request deadline")
    serve.add_argument("--shard-timeout-ms", type=float, default=None,
                       metavar="MS",
                       help="per-shard probe timeout; a timed-out probe"
                            " retries with exponential backoff"
                            " (sharded index; docs/resilience.md)")
    serve.add_argument("--shard-retries", type=int, default=2,
                       metavar="N",
                       help="probe attempts after the first, per shard"
                            " (with a resilience flag)")
    serve.add_argument("--hedge-after-ms", type=float, default=None,
                       metavar="MS",
                       help="launch a duplicate probe this long into an"
                            " unanswered attempt; first answer wins"
                            " (sharded index)")
    serve.add_argument("--allow-partial", action="store_true",
                       help="answer from the surviving shards when some"
                            " fail permanently, marking the response"
                            " degraded with its failed_shards, instead"
                            " of failing the query")
    serve.add_argument("--stats", action="store_true",
                       help="print serving statistics to stderr at EOF")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="bind a Prometheus scrape endpoint on this"
                            " port (0 = ephemeral; the bound port is"
                            " announced on stderr)")
    serve.add_argument("--stats-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="print a windowed dashboard line (QPS,"
                            " p50/p99, queue depth, fallback %%) to"
                            " stderr every N seconds")
    serve.add_argument("--events", type=Path, default=None, metavar="PATH",
                       help="append one JSONL record per sampled"
                            " query/flush lifecycle to PATH")
    serve.add_argument("--events-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="event sampling rate in [0, 1]"
                            " (with --events)")
    serve.add_argument("--tracing", action="store_true",
                       help="record request traces into a tail-sampled"
                            " store (slowest + degraded requests;"
                            " resolve ids via GET /trace/<id>)")
    serve.add_argument("--slo", action="store_true",
                       help="run the SLO burn-rate watchdog (alert state"
                            " on /telemetry, 503 /healthz while paging)")
    serve.add_argument("--analytics", action="store_true",
                       help="record cell/page access heatmaps and"
                            " per-shard load shares; the skew report is"
                            " served at GET /analytics (docs/analytics.md)")
    serve.add_argument("--capture", type=Path, default=None, metavar="PATH",
                       help="append served queries and their answers to a"
                            " replayable workload log (JSONL;"
                            " see 'repro replay')")
    serve.add_argument("--capture-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="workload capture sampling rate in (0, 1]"
                            " (with --capture)")
    serve.set_defaults(handler=_cmd_serve)

    analyze = sub.add_parser(
        "analyze",
        help="drive a captured workload through an index with access"
             " accounting on and print the hotspot/skew report"
             " (per-shard load shares, Gini, hot cells/pages,"
             " partitioner-balance verdict; docs/analytics.md)",
    )
    analyze.add_argument("index", type=Path)
    analyze.add_argument("--workload", type=Path, required=True,
                         metavar="PATH",
                         help="captured workload (JSONL or NPZ; from"
                              " 'serve --capture' or save_workload_npz)")
    analyze.add_argument("--shards", type=int, default=0,
                         help="re-shard an unsharded archive across N"
                              " shards before analyzing")
    analyze.add_argument("--mode", choices=["serial", "batch"],
                         default="serial",
                         help="how to re-execute the workload")
    analyze.add_argument("--top", type=int, default=10,
                         help="hot cells/pages listed in the report")
    analyze.add_argument("--json", action="store_true",
                         help="emit the raw analytics report document")
    analyze.set_defaults(handler=_cmd_analyze)

    replay = sub.add_parser(
        "replay",
        help="re-execute a captured workload against an index and verify"
             " bit parity of every answer (A/B re-sharding, rebuilds,"
             " cache sizing; docs/analytics.md)",
    )
    replay.add_argument("index", type=Path)
    replay.add_argument("--workload", type=Path, required=True,
                        metavar="PATH",
                        help="captured workload (JSONL or NPZ)")
    replay.add_argument("--shards", type=int, default=0,
                        help="re-shard an unsharded archive across N"
                             " shards before replaying")
    replay.add_argument("--mode", choices=["serial", "batch"],
                        default="serial",
                        help="one query at a time, or batched walks")
    replay.add_argument("--batch-size", type=int, default=None,
                        metavar="N",
                        help="bound on queries per batched walk"
                             " (--mode batch)")
    replay.add_argument("--json", action="store_true",
                        help="emit the replay report as JSON")
    replay.set_defaults(handler=_cmd_replay)

    chaos = sub.add_parser(
        "chaos",
        help="run a reproducible failure drill against a sharded index:"
             " inject faults, serve a concurrent workload, verify every"
             " answer is bit-exact or explicitly degraded"
             " (docs/resilience.md)",
    )
    chaos.add_argument("index", type=Path)
    chaos.add_argument("--shards", type=int, default=0,
                       help="re-shard an unsharded archive across N"
                            " shards for the drill")
    chaos.add_argument("--queries", type=int, default=200,
                       help="concurrent workload size")
    chaos.add_argument("--threads", type=int, default=4,
                       help="concurrent client threads")
    chaos.add_argument("--seed", type=int, default=0,
                       help="workload and fault-plan seed")
    chaos.add_argument("--slow-shard", type=int, action="append",
                       default=None, metavar="S",
                       help="afflict shard S with latency spikes"
                            " (repeatable)")
    chaos.add_argument("--slow-p", type=float, default=1.0,
                       help="per-attempt spike probability on slow shards")
    chaos.add_argument("--slow-ms", type=float, default=20.0,
                       help="injected latency of one spike")
    chaos.add_argument("--fail-shard", type=int, action="append",
                       default=None, metavar="S",
                       help="afflict shard S with raised probe faults"
                            " (repeatable)")
    chaos.add_argument("--fail-p", type=float, default=1.0,
                       help="per-attempt fault probability on failing"
                            " shards")
    chaos.add_argument("--flaky-p", type=float, default=0.0,
                       help="per-read flaky-page probability (storage"
                            " layer, all shards)")
    chaos.add_argument("--shard-timeout-ms", type=float, default=None,
                       metavar="MS",
                       help="resilience under test: per-probe timeout")
    chaos.add_argument("--shard-retries", type=int, default=2,
                       metavar="N",
                       help="resilience under test: retries per shard")
    chaos.add_argument("--hedge-after-ms", type=float, default=None,
                       metavar="MS",
                       help="resilience under test: hedge delay")
    chaos.add_argument("--allow-partial", action="store_true",
                       help="resilience under test: degraded partial"
                            " answers instead of failed queries")
    chaos.add_argument("--json", action="store_true",
                       help="emit the drill report as JSON")
    chaos.set_defaults(handler=_cmd_chaos)

    explain = sub.add_parser(
        "explain",
        help="full account of how one query is answered"
             " (rectangles hit, candidates, retries, fallback path)",
    )
    explain.add_argument("index", type=Path)
    explain.add_argument("--point", required=True,
                         help="comma-separated query coordinates")
    explain.add_argument("--json", action="store_true",
                         help="emit the raw QueryExplain document")
    explain.set_defaults(handler=_cmd_explain)

    info = sub.add_parser("info", help="statistics of a saved index")
    info.add_argument("index", type=Path)
    info.set_defaults(handler=_cmd_info)

    stats = sub.add_parser(
        "stats", help="index statistics and (optionally) live metrics"
    )
    stats.add_argument("index", type=Path)
    stats.add_argument(
        "--live", action="store_true",
        help="run a sample workload with instrumentation enabled and"
             " print the collected metrics",
    )
    stats.add_argument(
        "--watch", action="store_true",
        help="run the sample workload continuously and refresh a"
             " windowed telemetry table (QPS, p50/p99) in place",
    )
    stats.add_argument("--queries", type=int, default=20,
                       help="workload size for --live / --watch")
    stats.add_argument("--seed", type=int, default=0,
                       help="workload seed for --live / --watch")
    stats.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="refresh period for --watch")
    stats.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="stop --watch after this long"
                            " (default: until interrupted)")
    stats.set_defaults(handler=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="run a traced sample workload through the query service and"
             " inspect the tail: slowest requests, per-stage critical"
             " path, Chrome trace export",
    )
    trace.add_argument("index", type=Path)
    trace.add_argument("action", choices=["top", "show", "export"],
                       help="top: slowest-request table with stage"
                            " attribution; show: one trace's span tree +"
                            " critical path; export: Chrome trace-event"
                            " JSON (load in Perfetto)")
    trace.add_argument("--queries", type=int, default=200,
                       help="workload size driven through the service")
    trace.add_argument("--seed", type=int, default=0,
                       help="workload seed")
    trace.add_argument("--threads", type=int, default=4,
                       help="concurrent client threads")
    trace.add_argument("--limit", type=int, default=10,
                       help="rows in the top table")
    trace.add_argument("--trace-id", default=None, metavar="ID",
                       help="trace to show (default: the slowest"
                            " request)")
    trace.add_argument("--out", type=Path, default=None, metavar="PATH",
                       help="write the Chrome trace JSON here (export;"
                            " default: stdout)")
    trace.set_defaults(handler=_cmd_trace)

    experiment = sub.add_parser(
        "experiment", help="run a paper experiment and print its table"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="experiment keyword (int, float, or comma list of ints)",
    )
    experiment.add_argument("--csv", type=Path,
                            help="also write the table as CSV")
    experiment.set_defaults(handler=_cmd_experiment)

    return parser


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------

def _add_profile_argument(subparser: argparse.ArgumentParser) -> None:
    """The shared ``--profile PATH`` option of build and query."""
    subparser.add_argument("--profile", type=Path, metavar="PATH",
                           help="write a metrics+trace profile JSON")


def _require_parent_dir(path: Path, what: str) -> None:
    """Fail before the expensive build/query, not after, when an output
    path cannot possibly be written."""
    parent = path.parent
    if not parent.is_dir():
        raise OSError(f"{what} directory {parent} does not exist")


@contextmanager
def _profiled(path: "Path | None", **meta):
    """Run a block under metrics + tracing; write profile JSON to ``path``.

    A no-op (instrumentation stays off) when ``path`` is ``None``.
    """
    if path is None:
        yield
        return
    _require_parent_dir(path, "profile")
    with obs_metrics.collecting(fresh=True) as registry:
        with obs_tracing.collecting() as tracer:
            yield
    obs_export.write_profile(path, registry, tracer, meta=meta)
    print(f"(profile written to {path})")


def _print_stats(stats: dict, title: str) -> None:
    """Render index statistics through the shared exporter table."""
    print(obs_export.stats_table(stats, title).render())


def _cmd_build(args: argparse.Namespace) -> int:
    _require_parent_dir(args.out, "output")
    if args.dataset:
        points = make_dataset(
            args.dataset, **_dataset_params(args)
        )
    else:
        points = _load_points(args.points)
    config = BuildConfig(
        selector=SelectorKind(args.selector),
        selector_params=SelectorParams(
            sphere_radius_factor=args.sphere_radius_factor
        ),
        decompose=args.decompose,
        decomposition=DecompositionConfig(k_max=args.k_max),
        workers=args.workers,
    )
    if args.shards < 0:
        raise ValueError("--shards must be >= 0 (0 means unsharded)")
    with _profiled(args.profile, command="build",
                   selector=args.selector,
                   workers=args.workers,
                   shards=args.shards,
                   n_points=int(points.shape[0]),
                   dim=int(points.shape[1])):
        if args.shards:
            index = ShardedNNCellIndex.build(
                points,
                ShardConfig(
                    n_shards=args.shards, partitioner=args.partitioner
                ),
                config,
            )
        else:
            index = NNCellIndex.build(points, config)
    if args.shards:
        save_sharded_index(index, args.out)
    else:
        save_index(index, args.out)
    stats = index.stats()
    print(
        f"built index over {int(stats['n_points'])} points "
        f"({int(stats['n_rectangles'])} rectangles) -> {args.out}"
    )
    if args.shards:
        sizes = ", ".join(str(s) for s in index.shard_sizes())
        print(f"shards ({args.partitioner} partitioner): [{sizes}]")
    _print_stats(stats, "Build statistics")
    return 0


def _dataset_params(args: argparse.Namespace) -> dict:
    if args.dataset == "grid":
        per_axis = max(2, int(round(args.n ** (1.0 / args.dim))))
        return {"per_axis": per_axis, "dim": args.dim}
    return {"n": args.n, "dim": args.dim, "seed": args.seed}


def _load_points(path: Path) -> np.ndarray:
    if not path.exists():
        raise OSError(f"point file {path} does not exist")
    if path.suffix == ".npy":
        return np.load(path)
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _cmd_query(args: argparse.Namespace) -> int:
    index = load_any_index(args.index)
    if args.batch is not None:
        return _query_batch_file(args, index)
    point = _parse_point(args.point, index.dim)
    with _profiled(args.profile, command="query", k=args.k,
                   dim=index.dim):
        if args.k == 1:
            pid, dist, info = index.nearest(point)
            ids: "List[int]" = [pid]
            dists = [dist]
        else:
            ids, dists, info = index.k_nearest(point, args.k)
    for rank, (pid, dist) in enumerate(zip(ids, dists), start=1):
        coords = ", ".join(f"{c:.4f}" for c in index.points[pid])
        print(f"#{rank}  point {pid}  distance {dist:.6f}  [{coords}]")
    print(
        f"candidates: {info.n_candidates}, pages: {info.pages}, "
        f"fallback: {info.fallback}"
    )
    return 0


#: --batch prints every answer up to this many queries, then summarises.
_BATCH_PRINT_LIMIT = 20


def _query_batch_file(args: argparse.Namespace, index) -> int:
    if args.k != 1:
        raise ValueError("--batch answers 1-NN queries; -k must be 1")
    queries = _load_points(args.batch)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(
            f"batch file must hold (m, {index.dim}) points, "
            f"got shape {queries.shape}"
        )
    with _profiled(args.profile, command="query-batch",
                   n_queries=int(queries.shape[0]), dim=index.dim):
        ids, dists, info = index.query_batch(
            queries, batch_size=args.batch_size
        )
    shown = min(len(ids), _BATCH_PRINT_LIMIT)
    for i in range(shown):
        print(f"query {i}  ->  point {ids[i]}  distance {dists[i]:.6f}")
    if shown < len(ids):
        print(f"... ({len(ids) - shown} more)")
    print(
        f"batch: {info.n_queries} queries, pages: {info.pages}, "
        f"candidates: {info.n_candidates}, fallbacks: {info.fallbacks}"
    )
    return 0


# ----------------------------------------------------------------------
# serve: JSON-lines request loop
# ----------------------------------------------------------------------
#
# Request per line: a bare coordinate array ``[0.5, 0.5]`` or an object
# ``{"point": [...], "id": ..., "timeout_ms": ..., "explain": true}``.
# Response per line (in input order): ``{"ok": true, "point_id": ...,
# "distance": ..., "source": ..., "id": ...}`` or ``{"ok": false,
# "error": <code>, "message": ...}``; with ``"explain": true`` the ok
# response additionally carries the full ``QueryExplain`` document under
# ``"explain"``.  Responses stream as soon as the head of the pipeline
# completes, so batching shows through without reordering.

def _parse_serve_request(line: str, dim: int):
    """``(point, request_id, timeout_ms, explain)`` from one JSONL line.

    Each coordinate must be a JSON number a float can hold (not a bool
    or a string), and ``explain``, when present, ``true`` or ``false``.
    Parse errors are raised as :class:`ValueError` with a ``request_id``
    attribute (when the request carried one), so the error response can
    still be correlated with the request that caused it.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"bad JSON: {err}") from None
    request_id = None
    timeout_ms = None
    explain = False
    if isinstance(payload, dict):
        request_id = payload.get("id")
        timeout_ms = payload.get("timeout_ms")
        explain = payload.get("explain", False)
        payload = payload.get("point")

    def bail(message: str) -> "ValueError":
        err = ValueError(message)
        err.request_id = request_id
        return err

    if not isinstance(explain, bool):
        raise bail("explain must be true or false")
    if not isinstance(payload, list) or len(payload) != dim:
        raise bail(f"point must be a {dim}-element array")
    if not all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in payload
    ):
        raise bail("point coordinates must be numbers")
    try:
        point = [float(v) for v in payload]
    except OverflowError:
        raise bail("point coordinate is too large for a float") from None
    return point, request_id, timeout_ms, explain


def _serve_response(pending, request_id, explain_point, index) -> dict:
    """Resolve one pending request into a JSON-serialisable response.

    ``explain_point`` is the request's point when it asked for an
    explanation, else ``None``; the explain traversal runs here, after
    the answer, so it never slows the micro-batched path for requests
    that did not opt in.
    """
    try:
        result = pending.result()
        response = {
            "ok": True,
            "point_id": result.point_id,
            "distance": result.distance,
            "source": result.source,
            "trace_id": result.trace_id,
        }
        if result.degraded:
            # Degradation is always explicit: the flag, the casualty
            # list, and the surviving-shard count travel with the
            # answer (docs/resilience.md).
            response["degraded"] = True
            response["failed_shards"] = [
                int(s) for s in result.failed_shards
            ]
            response["shards_answered"] = result.shards_answered
        if explain_point is not None:
            response["explain"] = index.explain(explain_point).as_dict()
    except ServeError as err:
        response = {"ok": False, "error": err.code, "message": str(err)}
        # Failed requests are the ones worth looking up afterwards:
        # echo the trace id so the client can hit /trace/<id> or grep
        # the event log.
        if getattr(err, "trace_id", ""):
            response["trace_id"] = err.trace_id
    if request_id is not None:
        response["id"] = request_id
    return response


def _resolve_entry(entry, index) -> dict:
    """One pipeline entry — already-decided dict or pending — resolved."""
    head, head_id, explain_point = entry
    if isinstance(head, dict):
        return head
    return _serve_response(head, head_id, explain_point, index)


def _serve_telemetry(args: argparse.Namespace) -> "TelemetrySession | None":
    """A :class:`TelemetrySession` when any serve telemetry flag is set."""
    config = TelemetryConfig(
        metrics_port=args.metrics_port,
        stats_interval_s=args.stats_interval,
        events_path=str(args.events) if args.events is not None else None,
        events_sample=args.events_sample,
        tracing=args.tracing,
        slo=args.slo,
        analytics=args.analytics,
        capture_path=(
            str(args.capture) if args.capture is not None else None
        ),
        capture_sample=args.capture_sample,
    )
    if not config.active:
        return None
    if args.events is not None:
        _require_parent_dir(args.events, "events")
    if args.capture is not None:
        _require_parent_dir(args.capture, "capture")
    session = TelemetrySession(config)
    if session.port is not None:
        print(
            f"metrics endpoint: http://{config.metrics_host}:"
            f"{session.port}/metrics",
            file=sys.stderr, flush=True,
        )
    return session


def _cmd_serve(args: argparse.Namespace) -> int:
    index = load_any_index(args.index)
    if args.shards:
        if isinstance(index, ShardedNNCellIndex):
            if index.n_shards != args.shards:
                raise ValueError(
                    f"archive is sharded {index.n_shards} ways; --shards"
                    f" {args.shards} conflicts (omit --shards to serve a"
                    " sharded archive as built)"
                )
        else:
            # Re-shard in memory: partition the live points and rebuild
            # per-shard solution spaces.  Ids compact to the live order.
            index = ShardedNNCellIndex.from_index(
                index, ShardConfig(n_shards=args.shards)
            )
    resilience = _resilience_from_args(args)
    if resilience is not None:
        if not isinstance(index, ShardedNNCellIndex):
            raise ValueError(
                "--shard-timeout-ms/--hedge-after-ms/--allow-partial"
                " need a sharded index (serve a sharded archive or pass"
                " --shards N)"
            )
        index.set_resilience(resilience)
    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.queue_depth or None,
        admission=args.admission,
        default_timeout_ms=args.timeout_ms,
    )
    print(
        f"serving {args.index} (n={len(index)}, d={index.dim}); "
        "one JSON request per line on stdin",
        file=sys.stderr,
    )
    telemetry = _serve_telemetry(args)
    # Entries: (pending | response dict, request id, explain point).
    pipeline: "deque" = deque()
    try:
        with QueryService(index, config) as service:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                request_id = None
                try:
                    point, request_id, timeout_ms, explain = (
                        _parse_serve_request(line, index.dim)
                    )
                    pipeline.append((
                        service.submit_async(point, timeout_ms=timeout_ms),
                        request_id,
                        point if explain else None,
                    ))
                except (ValueError, ServeError) as err:
                    code = (
                        err.code if isinstance(err, ServeError)
                        else "bad_request"
                    )
                    request_id = getattr(err, "request_id", request_id)
                    response = {
                        "ok": False, "error": code, "message": str(err),
                    }
                    if request_id is not None:
                        response["id"] = request_id
                    pipeline.append((response, None, None))
                # Stream every response that is already decided,
                # preserving input order (the head may still be in
                # flight).
                while pipeline and (
                    isinstance(pipeline[0][0], dict) or pipeline[0][0].done()
                ):
                    print(
                        json.dumps(_resolve_entry(pipeline.popleft(), index)),
                        flush=True,
                    )
            while pipeline:
                print(
                    json.dumps(_resolve_entry(pipeline.popleft(), index)),
                    flush=True,
                )
            stats = service.stats()
        if args.stats:
            print(
                obs_export.stats_table(stats, "Serving statistics").render(),
                file=sys.stderr,
            )
            if telemetry is not None:
                print(
                    obs_timeseries.telemetry_table(
                        telemetry.registry
                    ).render(),
                    file=sys.stderr,
                )
    finally:
        if telemetry is not None:
            telemetry.close()
    return 0


def _resilience_from_args(args: argparse.Namespace):
    """A :class:`ResilienceConfig` when any resilience flag is set.

    Shared by ``serve`` and ``chaos``; ``None`` (all flags at their
    defaults) keeps the original wait-for-everything scatter.
    """
    from .shard import ResilienceConfig

    if (
        args.shard_timeout_ms is None
        and args.hedge_after_ms is None
        and not args.allow_partial
    ):
        return None
    return ResilienceConfig(
        probe_timeout_ms=args.shard_timeout_ms,
        max_retries=args.shard_retries,
        hedge_after_ms=args.hedge_after_ms,
        allow_partial=args.allow_partial,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: one reproducible failure drill, verdict on stdout.

    Builds the fault plan from the flags, installs the resilience policy
    under test, drives a concurrent workload through a
    :class:`QueryService` over the faulted fleet, and verifies the
    resilience contract on every response (bit-exact or explicitly
    degraded — never silently wrong).  Exit status 0 iff the contract
    held.
    """
    from dataclasses import replace as dc_replace

    from .chaos import FaultPlan, PageFaults, ShardFaults, run_drill

    index = load_any_index(args.index)
    if not isinstance(index, ShardedNNCellIndex):
        if args.shards < 2:
            raise ValueError(
                "chaos drills need a sharded index: serve a sharded"
                " archive or pass --shards N (N >= 2)"
            )
        index = ShardedNNCellIndex.from_index(
            index, ShardConfig(n_shards=args.shards)
        )
    elif args.shards and index.n_shards != args.shards:
        raise ValueError(
            f"archive is sharded {index.n_shards} ways; --shards"
            f" {args.shards} conflicts"
        )
    shard_faults: dict = {}
    for s in args.slow_shard or ():
        shard_faults[s] = ShardFaults(
            slow_p=args.slow_p, slow_ms=args.slow_ms
        )
    for s in args.fail_shard or ():
        base = shard_faults.get(s, ShardFaults())
        shard_faults[s] = dc_replace(base, fail_p=args.fail_p)
    plan = FaultPlan(
        shards=shard_faults,
        pages=PageFaults(flaky_p=args.flaky_p),
        seed=args.seed,
    )
    resilience = _resilience_from_args(args)
    if resilience is not None:
        index.set_resilience(resilience)
    try:
        report = run_drill(
            index,
            plan,
            n_queries=args.queries,
            n_threads=args.threads,
            seed=args.seed,
        )
    finally:
        index.close()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.passed else 1
    verdict = "PASSED" if report.passed else "FAILED"
    print(
        f"chaos drill: {verdict}  ({report.n_queries} queries,"
        f" {report.n_threads} threads, seed {args.seed})"
    )
    outcomes = ", ".join(
        f"{key}={count}" for key, count in sorted(report.outcomes.items())
    )
    print(f"outcomes:  {outcomes or 'none'}")
    injected = ", ".join(
        f"{key}={count}"
        for key, count in sorted(report.injected.items())
        if "." not in key
    )
    print(f"injected:  {injected or 'none'}")
    counters = ", ".join(
        f"{name}={int(value)}"
        for name, value in sorted(report.counters.items())
    )
    print(f"observed:  {counters or 'none'}")
    print(
        f"latency:   p50 {report.latency_p50_ms:.2f} ms, p95"
        f" {report.latency_p95_ms:.2f} ms over {report.answered} answers"
    )
    if report.faulted_shards:
        shards = ", ".join(str(s) for s in report.faulted_shards)
        print(f"degraded answers named shards: [{shards}]")
    if not report.passed:
        print(
            f"CONTRACT VIOLATIONS: {report.mismatches} silent wrong"
            f" answers, {report.unaccounted_degraded} unaccounted"
            f" degraded, {report.untyped_errors} untyped errors"
        )
    return 0 if report.passed else 1


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse point {text!r}") from None
    if len(values) != dim:
        raise ValueError(
            f"query has {len(values)} coordinates; the index is {dim}-d"
        )
    return np.asarray(values)


#: explain prints every rectangle/candidate up to this many, then elides.
_EXPLAIN_PRINT_LIMIT = 10


def _maybe_reshard(index, n_shards: int):
    """Honour a ``--shards N`` request against a loaded archive."""
    if not n_shards:
        return index
    if isinstance(index, ShardedNNCellIndex):
        if index.n_shards != n_shards:
            raise ValueError(
                f"archive is sharded {index.n_shards} ways; --shards"
                f" {n_shards} conflicts (omit --shards to keep the"
                " built shard count)"
            )
        return index
    return ShardedNNCellIndex.from_index(
        index, ShardConfig(n_shards=n_shards)
    )


def _print_analytics_report(report: dict, top: int) -> None:
    """Human rendering of an :meth:`AccessRecorder.report` document."""
    shards = report.get("shards", {})
    if shards:
        print(f"shard load ({report['total_probes']} probes,"
              f" gini={report['gini']:.3f}):")
        for shard in sorted(shards, key=int):
            row = shards[shard]
            bar = "#" * int(round(40 * row["load_share"]))
            ratio = row["cache_hit_ratio"]
            hit = "n/a" if ratio is None else f"{ratio:.1%}"
            print(
                f"  shard {shard:>3}: {row['load_share']:6.1%}"
                f"  pages={row['pages']:<6d}"
                f" cache_hit={hit}  {bar}"
            )
    verdict = report["verdict"]
    if verdict["balanced"]:
        print("verdict: balanced — no shard exceeds its fair share")
    else:
        hot = ", ".join(str(s) for s in verdict["hot_shards"])
        print(f"verdict: SKEWED — hot shard(s): {hot}")
    print(f"  {verdict['advice']}")
    for kind in ("hot_cells", "hot_pages"):
        sketch = report[kind]
        rows = sketch["top"][:top]
        if not rows:
            continue
        label = kind.replace("_", " ")
        print(f"{label} (decayed counts; tracking"
              f" {sketch['tracked']}/{sketch['capacity']} keys):")
        for row in rows:
            print(f"  {label[4:-1]} {row['key']:>8}: {row['count']:.0f}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze``: re-run a captured workload with access accounting on.

    Exit status 0 when the partitioner verdict is *balanced*, 2 when the
    report names hot shards — scriptable skew detection.
    """
    captured = obs_workload.load_workload(args.workload)
    index = _maybe_reshard(load_any_index(args.index), args.shards)
    with obs_analytics.recording() as recorder:
        run_replay(index, captured, mode=args.mode)
        report = recorder.report(top_k=args.top)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"analyzed {len(captured)} captured queries"
            f" against {args.index}"
        )
        _print_analytics_report(report, args.top)
    return 0 if report["verdict"]["balanced"] else 2


def _cmd_replay(args: argparse.Namespace) -> int:
    """``replay``: bit-parity verdict of a capture vs. an index.

    Exit status 0 iff every replayed answer matched the capture.
    """
    captured = obs_workload.load_workload(args.workload)
    index = _maybe_reshard(load_any_index(args.index), args.shards)
    report = run_replay(
        index, captured, mode=args.mode, batch_size=args.batch_size
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.bit_identical else 1
    print(
        f"replayed {report.n_queries} queries ({report.mode}) in"
        f" {report.wall_seconds:.3f}s ({report.throughput_qps():.0f}"
        f" qps): {report.pages} pages"
        f" (captured: {report.captured_pages})"
    )
    if report.bit_identical:
        print("parity: bit-identical — every id and distance matched")
        return 0
    print(f"parity: {len(report.mismatches)} MISMATCHES")
    for mismatch in report.mismatches[:10]:
        print(
            f"  query {mismatch.index}: expected"
            f" ({mismatch.expected_id}, {mismatch.expected_distance!r})"
            f" got ({mismatch.got_id}, {mismatch.got_distance!r})"
        )
    return 1


def _cmd_explain(args: argparse.Namespace) -> int:
    index = load_any_index(args.index)
    point = _parse_point(args.point, index.dim)
    # Explain is a one-request workflow: mint and bind a trace id so any
    # span/event the traversal records is attributed, and echo the id so
    # the output joins against the event log / trace store.
    trace_id = obs_tracectx.new_trace_id()
    with obs_tracectx.bind(trace_id):
        result = index.explain(point)
    if args.json:
        document = result.as_dict()
        document["trace_id"] = trace_id
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    coords = ", ".join(f"{c:.4f}" for c in result.query)
    print(f"query: [{coords}]")
    print(f"trace: {trace_id}")
    retry = "  (after tolerance retry)" if result.retried_atol else ""
    print(f"path:  {result.path}{retry}")
    print(f"atol:  {result.atol:g}")
    print(
        f"answer: point {result.nearest_id}"
        f"  distance {result.nearest_distance:.6f}"
    )
    print(
        f"cost:  {result.pages} pages, "
        f"{result.nodes_visited} index nodes visited"
    )
    if not result.candidates:
        print("no cell candidates: branch-and-bound fallback answered")
        return 0
    print(f"leaf rectangles containing the query: {len(result.rectangles)}")
    print(f"candidates ({len(result.candidates)}, nearest first):")
    for pid, dist in result.candidates[:_EXPLAIN_PRINT_LIMIT]:
        marker = "  <- answer" if pid == result.nearest_id else ""
        print(f"  point {pid:>6}  distance {dist:.6f}{marker}")
    if len(result.candidates) > _EXPLAIN_PRINT_LIMIT:
        print(f"  ... ({len(result.candidates) - _EXPLAIN_PRINT_LIMIT} more)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index = load_any_index(args.index)
    print(f"index: {args.index}")
    print(f"  selector:       {index.config.selector.value}")
    print(f"  decomposed:     {index.config.decompose}")
    print(f"  dimensionality: {index.dim}")
    if is_sharded_archive(args.index):
        sizes = ", ".join(str(s) for s in index.shard_sizes())
        print(
            f"  sharding:       {index.n_shards} shards"
            f" ({index.shard_config.partitioner} partitioner),"
            f" sizes [{sizes}]"
        )
    _print_stats(index.stats(), "Statistics")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    index = load_any_index(args.index)
    _print_stats(index.stats(), f"Index statistics: {args.index}")
    if args.watch:
        return _stats_watch(args, index)
    if args.live:
        workload = query_points(args.queries, index.dim, seed=args.seed)
        with obs_metrics.collecting(fresh=True) as registry:
            for q in workload:
                index.nearest(q)
        print()
        print(
            obs_export.metrics_table(
                registry,
                f"Live metrics ({args.queries} sample queries)",
            ).render()
        )
    return 0


def _stats_watch(args: argparse.Namespace, index) -> int:
    """``stats --watch``: drive the sample workload and render windows.

    Each query's wall-clock latency is recorded as ``query.latency_ms``,
    which the dashboard falls back to when there is no serving layer —
    so the table shows the same QPS/p50/p99 columns ``serve
    --stats-interval`` prints, sourced from direct ``nearest`` calls.
    Runs until ``--duration`` elapses (or Ctrl-C).
    """
    if args.queries < 0:
        raise ValueError("--queries must be >= 0")
    workload = (
        query_points(args.queries, index.dim, seed=args.seed)
        if args.queries else np.empty((0, index.dim))
    )
    if args.interval <= 0:
        raise ValueError("--interval must be > 0")
    deadline = (
        None if args.duration is None
        else time.monotonic() + args.duration
    )
    with TelemetrySession(TelemetryConfig()) as session:
        next_render = time.monotonic() + args.interval
        i = 0
        try:
            while deadline is None or time.monotonic() < deadline:
                # An empty workload (--queries 0) must still render the
                # (all-zero) telemetry windows, not divide by zero.
                if len(workload):
                    q = workload[i % len(workload)]
                    i += 1
                    started = time.perf_counter()
                    index.nearest(q)
                    obs_metrics.observe(
                        "query.latency_ms",
                        1e3 * (time.perf_counter() - started),
                    )
                else:
                    time.sleep(min(0.05, args.interval))
                now = time.monotonic()
                if now >= next_render:
                    print(
                        obs_timeseries.telemetry_table(
                            session.registry
                        ).render()
                    )
                    print(flush=True)
                    next_render = now + args.interval
        except KeyboardInterrupt:
            pass
        print(
            obs_timeseries.telemetry_table(
                session.registry, title=f"Live telemetry ({i} queries)"
            ).render()
        )
    return 0


#: ``trace top`` column -> critical-path stage.
_TRACE_STAGE_COLUMNS = (
    ("queue_ms", "queue_wait"),
    ("walk_ms", "tree_walk"),
    ("scan_ms", "candidate_scan"),
    ("lp_ms", "lp"),
    ("fallback_ms", "fallback"),
    ("deliver_ms", "deliver"),
)


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: traced service workload + tail inspection.

    Drives ``--queries`` sample queries through a :class:`QueryService`
    with tracing enabled (the same wiring ``serve --tracing`` uses),
    then reads the populated trace store: the slowest-request table
    (``top``), one span tree with its critical path (``show``), or a
    Chrome trace-event export (``export``).
    """
    index = load_any_index(args.index)
    if args.queries < 1:
        raise ValueError("--queries must be >= 1")
    if args.action == "export" and args.out is not None:
        _require_parent_dir(args.out, "trace output")
    workload = query_points(args.queries, index.dim, seed=args.seed)
    with TelemetrySession(TelemetryConfig(tracing=True)) as session:
        report = run_service_load(index, workload, n_threads=args.threads)
        store = session.tracestore
        if args.action == "top":
            _trace_top(store, args.limit, report)
        elif args.action == "show":
            _trace_show(store, args.trace_id)
        else:
            _trace_export(store, args.out)
    return 0


def _trace_top(store, limit: int, report) -> None:
    rows = store.slowest(limit, kind="request")
    table = ResultTable(
        title=(
            f"Slowest requests — {len(rows)} of {len(store)} stored"
            f" traces ({report.n_queries} queries,"
            f" {report.errors} errors)"
        ),
        columns=(
            ["trace_id", "total_ms", "coverage"]
            + [column for column, __ in _TRACE_STAGE_COLUMNS]
            + ["flags"]
        ),
    )
    for trace in rows:
        path = obs_tracestore.critical_path(trace, store)
        flags = ",".join(
            flag for flag, on in
            (("error", trace.error), ("fallback", trace.fallback),
             ("degraded", trace.degraded)) if on
        )
        row = {
            "trace_id": trace.trace_id,
            "total_ms": f"{trace.duration_ms:.3f}",
            "coverage": f"{100.0 * path.coverage:.0f}%",
            "flags": flags or "-",
        }
        for column, stage in _TRACE_STAGE_COLUMNS:
            row[column] = f"{path.stages.get(stage, 0.0):.3f}"
        table.add_row(**row)
    print(table.render())


def _trace_show(store, trace_id: "str | None") -> None:
    if trace_id is not None:
        trace = store.get(trace_id)
        if trace is None:
            raise ValueError(f"no stored trace with id {trace_id!r}")
    else:
        slowest = store.slowest(1, kind="request")
        if not slowest:
            raise ValueError("no request traces were stored")
        trace = slowest[0]
    path = obs_tracestore.critical_path(trace, store)
    flags = ",".join(
        flag for flag, on in
        (("error", trace.error), ("fallback", trace.fallback),
         ("degraded", trace.degraded)) if on
    )
    print(f"trace:    {trace.trace_id}  ({trace.kind})")
    print(f"duration: {trace.duration_ms:.3f} ms")
    if flags:
        print(f"flags:    {flags}")
    if trace.links:
        print(f"links:    {', '.join(trace.links)}")
    print(f"critical path (coverage {100.0 * path.coverage:.0f}%):")
    for stage in obs_tracestore.STAGES:
        if stage in path.stages:
            print(f"  {stage:<14} {path.stages[stage]:10.3f} ms")
    print("spans:")
    _print_span_tree(trace.root, 0, trace.root.start)
    # A request's compute segment is one opaque span; the detail lives
    # in the micro-batch flush trace it links to.  Show it too.
    for child in trace.root.children:
        flush_id = child.attributes.get("flush")
        if flush_id:
            flush = store.get(str(flush_id))
            if flush is not None:
                print(f"flush {flush.trace_id} spans:")
                _print_span_tree(flush.root, 0, trace.root.start)


def _print_span_tree(span, depth: int, base: float) -> None:
    """One span per line: name, offset from ``base``, duration."""
    offset_ms = 1e3 * (span.start - base)
    label = "  " * depth + span.name
    print(
        f"  {label:<36} +{offset_ms:9.3f} ms"
        f"  {1e3 * span.duration_seconds:9.3f} ms"
    )
    for child in span.children:
        _print_span_tree(child, depth + 1, base)


def _trace_export(store, out: "Path | None") -> None:
    document = obs_tracestore.to_chrome_trace(store.traces())
    text = json.dumps(document, sort_keys=True)
    if out is None:
        print(text)
        return
    out.write_text(text + "\n")
    print(
        f"({len(document['traceEvents'])} trace events written to {out})",
        file=sys.stderr,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        key, __, raw = item.partition("=")
        params[key] = _parse_param(raw)
    if args.csv:
        _require_parent_dir(args.csv, "csv")
    table = _EXPERIMENTS[args.name](**params)
    print(table.render())
    if args.csv:
        args.csv.write_text(table.to_csv() + "\n")
        print(f"(csv written to {args.csv})")
    return 0


def _parse_param(raw: str):
    if "," in raw:
        return tuple(int(v) for v in raw.split(",") if v)
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
