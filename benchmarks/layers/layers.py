"""Layer boundaries the traced run wraps, and the per-layer metrics.

:func:`install` puts a span (or, for page reads, a counter) around each
public function a layer exposes, at the name its callers look up.
:func:`layer_metrics` reduces one workload's spans to the metrics
declared under ``per_layer`` in BENCHMARK.json.  A metric whose layer
does no work on a workload reads 0 there.

"Per op" means per build on ``build`` and per write on ``update``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

import numpy as np

from spans import Span, Tracer, fold

__all__ = ["install", "layer_metrics"]

_OBS = "obs"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; :meth:`Tracer.uninstall` undoes it."""
    from repro.core import approximation, nncell_index, persistence
    from repro.core.candidates import CandidateSelector
    from repro.engine import batch
    from repro.index import bulk
    from repro.index.rstar import RStarTree
    from repro.obs import analytics, metrics, workload
    from repro.storage.page import PageManager

    def rows(span, args, result):
        span.attrs = {"rows": np.shape(args[1])[0]}

    def size(span, args, result):
        span.attrs = {"size": len(result)}

    def probe(span, args, result):
        span.attrs = {
            "n": len(args[1]), "dists": result[1],
            "candidates": result[2].n_candidates,
        }

    def engine_batch(span, args, result):
        span.attrs = {"n": len(args[1]), "pairs": result[2].n_candidates}

    wrap = tracer.wrap
    wrap(approximation, "maximize", "lp.solve", rows)
    wrap(approximation, "minimize", "lp.solve", rows)
    wrap(nncell_index, "approximate_cell", "core.approximate_cell")
    wrap(nncell_index, "approximate_system", "core.approximate_system")
    wrap(CandidateSelector, "candidates", "core.candidates", size)
    wrap(nncell_index, "cell_system", "core.cell_system")
    wrap(nncell_index, "bulk_load", "index.bulk_load")
    wrap(bulk, "bulk_load", "index.bulk_load")
    wrap(persistence, "save_index", "persistence.save")
    wrap(persistence, "load_index", "persistence.load")
    wrap(persistence, "load_any_index", "persistence.load")
    wrap(nncell_index.NNCellIndex, "nearest", "core.nearest")
    wrap(nncell_index.NNCellIndex, "query_batch", "core.query_batch", probe)
    wrap(nncell_index.NNCellIndex, "insert", "core.insert")
    wrap(nncell_index.NNCellIndex, "delete", "core.delete")
    wrap(RStarTree, "point_query", "index.point_query", size)
    wrap(nncell_index, "distances_to_points", "scan", rows)
    wrap(nncell_index, "rkv_nearest", "fallback")
    wrap(batch, "rkv_nearest", "fallback")
    wrap(batch, "query_batch", "batch.query_batch", engine_batch)
    wrap(batch, "batched_point_query", "batch.walk")
    for module, names in (
        (metrics, ("inc", "observe", "set_gauge")),
        (analytics, ("record_cells", "record_page", "record_probe")),
        (workload, ("record_query", "record_batch")),
    ):
        for name in names:
            wrap(module, name, _OBS)
    tracer.count_pages(PageManager, "read")


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------

def _in_scope(span: Span) -> bool:
    """Spans of the timed region: under a ``bench.*`` root, a flush, or
    an observability call the flush loop makes outside its batch."""
    name = span.root.name
    return name.startswith("bench.") or name in ("serve.flush", _OBS)


def _count_below(span: Span, name: str) -> int:
    todo, found = list(span.children or ()), 0
    while todo:
        kid = todo.pop()
        found += kid.name == name
        todo.extend(kid.children or ())
    return found


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _serve_stages(step, flushes: "List[Span]") -> "Dict[str, np.ndarray]":
    """Match requests to flushes in FIFO order: one generator submits,
    the service pops its queue in order, flush k takes the next n_k."""
    accepted = np.flatnonzero(~np.isnan(step.done))
    sizes = [f.attrs["n"] for f in flushes]
    if sum(sizes) != accepted.size:
        raise RuntimeError(
            f"{accepted.size} answered requests but flushes hold {sum(sizes)}"
        )
    which = np.repeat(np.arange(len(flushes)), sizes)
    f_start = np.array([f.start for f in flushes])[which]
    f_end = np.array([f.end for f in flushes])[which]
    return {
        "queue_wait": 1e3 * (f_start - step.submitted[accepted]),
        "deliver": 1e3 * (step.done[accepted] - f_end),
        "lag": 1e3 * (step.submitted[accepted] - step.due[accepted]),
        "latency": 1e3 * (step.done[accepted] - step.due[accepted]),
    }


def layer_metrics(
    workload: str, plain, traced, overhead_pct: float, names: "List[str]"
) -> "Dict[str, float]":
    """The per-layer metrics ``names`` of one workload.

    ``plain`` and ``traced`` are the untraced and traced
    :class:`workloads.Result`; timings that are end-to-end in nature
    (the typical op, throughput, tail latency, write latencies,
    generator lag) come from the untraced one.
    """
    out = dict.fromkeys(names, 0.0)
    out["op_p50_ms"] = plain.metrics["op_p50_ms"]
    out["throughput_qps"] = plain.metrics["throughput_qps"]
    spans = traced.facts["spans"]
    setup_spans = traced.facts.get("setup_spans", [])
    fold(spans)
    fold(setup_spans)
    spans = [s for s in spans if _in_scope(s)]
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    facts = traced.facts
    ops = max(1, facts["ops"])

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in by[name])

    def mean_attr(name, key):
        vals = [s.attrs[key] for s in by[name]]
        return float(np.mean(vals)) if vals else 0.0

    lp = by["lp.solve"]
    if lp:
        out["lp.solves"] = len(lp) / ops
        out["lp.self_s"] = total("lp.solve", "self_time") / ops
        out["lp.us_per_solve"] = 1e6 * total("lp.solve") / len(lp)
        out["lp.rows_per_solve"] = mean_attr("lp.solve", "rows")
        if workload == "update":
            out["lp.solves_per_write"] = len(lp) / ops
    out["core.approximation.self_s"] = total("core.approximate_cell", "self_time") / ops
    out["core.candidates.self_s"] = total("core.candidates", "self_time") / ops
    out["core.candidates.per_cell"] = mean_attr("core.candidates", "size")
    out["core.constraints.self_s"] = total("core.cell_system", "self_time") / ops
    out["index.bulk_load.self_s"] = total("index.bulk_load", "self_time") / ops
    if workload == "build":
        out["core.persistence.save_s"] = total("persistence.save") / ops
    loads = [s for s in setup_spans
             if s.name == "persistence.load" and s.parent is None]
    out["core.persistence.load_s"] = (
        statistics.median(s.duration for s in loads) if loads else 0.0
    )
    out["core.persistence.archive_bytes"] = float(facts["archive_bytes"])
    out["archive_amplification"] = facts["archive_amplification"]

    nearest = by["core.nearest"]
    if nearest:
        out["core.nearest.self_us"] = (
            1e6 * total("core.nearest", "self_time") / len(nearest)
        )
        out["storage.page.reads_per_query"] = (
            sum(s.sub_pages for s in nearest) / len(nearest)
        )
    pq = by["index.point_query"]
    if pq:
        out["index.point_query.us_per_call"] = (
            1e6 * total("index.point_query") / len(pq)
        )
        out["index.point_query.rects_per_query"] = mean_attr(
            "index.point_query", "size"
        )
    scans = by["scan"]
    if scans:
        rows_scanned = sum(s.attrs["rows"] for s in scans)
        out["scan.us_per_call"] = 1e6 * total("scan") / len(scans)
        out["scan.candidates_per_query"] = rows_scanned / len(scans)
        out["scan.useful_ratio"] = len(scans) / rows_scanned
    batched = by["batch.query_batch"]
    batched_n = sum(s.attrs["n"] for s in batched)
    answered = len(nearest) + batched_n
    if answered:
        out["fallback.share"] = len(by["fallback"]) / answered
    if by["fallback"]:
        out["fallback.us_per_call"] = 1e6 * total("fallback") / len(by["fallback"])
    if batched_n:
        out["storage.page.reads_per_batched_query"] = (
            sum(s.sub_pages for s in batched) / batched_n
        )
        out["batch.walk_us_per_query"] = 1e6 * total("batch.walk") / batched_n
        out["batch.self_us_per_query"] = (
            1e6 * total("batch.query_batch", "self_time") / batched_n
        )
        out["batch.pairs_per_query"] = (
            sum(s.attrs["pairs"] for s in batched) / batched_n
        )

    # Observability calls on the query paths (build and write ops excluded).
    obs = [s for s in by[_OBS] if s.root.name != "bench.op"]
    queries = facts.get("queries") or answered
    if queries:
        out["obs.calls_per_query"] = len(obs) / queries
        out["obs.us_per_query"] = 1e6 * sum(s.duration for s in obs) / queries

    if workload == "update":
        out["core.insert.p50_ms"] = plain.facts["insert_p50_ms"]
        out["core.delete.p50_ms"] = plain.facts["delete_p50_ms"]
        # An insert also approximates the new point's own cell.
        ins = [_count_below(s, "core.approximate_system") - 1
               for s in by["core.insert"]]
        dels = [_count_below(s, "core.approximate_system")
                for s in by["core.delete"]]
        out["core.insert.cells_recomputed"] = float(np.mean(ins)) if ins else 0.0
        out["core.delete.cells_recomputed"] = float(np.mean(dels)) if dels else 0.0
        recomputed = sum(ins) + sum(dels)
        changed = sum(c for __, c in facts["changed"])
        out["core.update.useful_recompute_ratio"] = (
            changed / recomputed if recomputed else 0.0
        )

    if "steps" in facts:
        _serve_layers(out, plain, facts["steps"], by["serve.flush"])
        if workload == "serve_sharded":
            _shard_layers(out, by["serve.flush"])
    else:
        roots = [s for s in spans if s.parent is None and s.name.startswith("bench.")]
        wall = sum(s.duration for s in roots)
        out["unattributed_share"] = (
            sum(s.self_time for s in roots) / wall if wall else 0.0
        )
    out["tail.read_p90_ms"] = plain.facts["read_p90_ms"]
    out["tail.read_p99_ms"] = plain.facts["read_p99_ms"]
    out["trace.overhead_pct"] = overhead_pct
    undeclared = set(out) - set(names)
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    return out


def _serve_layers(out, plain, steps, flushes: "List[Span]") -> None:
    flushes = sorted(flushes, key=lambda f: f.start)
    starts = np.array([f.start for f in flushes])
    grouped = defaultdict(list)
    for label, step in steps:
        done = step.done[~np.isnan(step.done)]
        lo = np.searchsorted(starts, step.started)
        hi = np.searchsorted(starts, done.max(), side="right")
        mine = flushes[lo:hi]
        grouped[label].append((step, mine, _serve_stages(step, mine)))
    for label, runs in grouped.items():
        stages = {k: np.concatenate([r[2][k] for r in runs]) for k in runs[0][2]}
        mine = [f for r in runs for f in r[1]]
        span_s = sum(np.nanmax(r[0].done) - r[0].started for r in runs)
        out[f"serve.{label}.queue_wait_ms_p50"] = _p(stages["queue_wait"], 50)
        out[f"serve.{label}.queue_wait_ms_p99"] = _p(stages["queue_wait"], 99)
        out[f"serve.{label}.flush_ms_p50"] = _p([1e3 * f.duration for f in mine], 50)
        out[f"serve.{label}.deliver_ms_p50"] = _p(stages["deliver"], 50)
        out[f"serve.{label}.batch_size_mean"] = float(
            np.mean([f.attrs["n"] for f in mine])
        )
        out[f"serve.{label}.flushes_per_s"] = len(mine) / span_s
        if label == "light":
            # Queue wait, flush and delivery tile submit -> answer; what
            # is left of due -> answer is the generator's lateness.
            out["unattributed_share"] = float(
                np.sum(stages["lag"]) / np.sum(stages["latency"])
            )
    out["serve.busy.p50_ms"] = plain.facts["busy_p50_ms"]
    out["loadgen.lag_p99_ms"] = plain.facts["lag_p99_ms"]


def _shard_layers(out, flushes: "List[Span]") -> None:
    """Each flush scatters to the shards; its probes are its children."""
    probes = [(f, [k for k in (f.children or ()) if k.name == "core.query_batch"])
              for f in flushes]
    probes = [(f, ks) for f, ks in probes if ks]
    if probes:
        n_queries = sum(f.attrs["n"] for f, __ in probes)
        out["shard.probes_per_flush"] = float(np.mean([len(ks) for __, ks in probes]))
        out["shard.probe_ms_p50"] = _p(
            [1e3 * k.duration for __, ks in probes for k in ks], 50
        )
        out["shard.scatter_overhead_ms_p50"] = _p(
            [1e3 * (f.duration - max(k.duration for k in ks)) for f, ks in probes], 50
        )
        out["shard.candidates_per_query"] = (
            sum(k.attrs["candidates"] for __, ks in probes for k in ks) / n_queries
        )
        useful = sum(
            int(np.sum(k.attrs["dists"] == f.attrs["dists"]))
            for f, ks in probes
            for k in ks
        )
        out["shard.useful_probe_ratio"] = useful / sum(
            len(ks) * f.attrs["n"] for f, ks in probes
        )
