"""Observability overhead: query throughput across telemetry modes.

The contract every ``repro.obs`` layer signs is *cheap when disabled* —
a hot-path event site pays one boolean check, and the acceptance bar is
< 3% query-throughput overhead with telemetry fully off.  This bench
measures the trajectory of that contract and publishes it as a
machine-readable root-level ``BENCH_obs.json``:

* ``disabled_qps`` / ``metrics_qps`` / ``metrics_events_qps`` /
  ``analytics_qps`` / ``tracing_qps`` — direct ``nearest`` throughput
  with telemetry off, with the metrics registry (and its per-second
  windows) on, with the structured event log on too, with the workload-analytics
  access recorder on top of metrics (the ``serve --analytics``
  configuration), and with span tracing recording into a tail-sampling
  :class:`~repro.obs.tracestore.TraceStore` (``serve --tracing``);
* ``overhead_metrics_pct`` / ``overhead_events_pct`` /
  ``overhead_tracing_pct`` — the same as relative slowdowns against
  ``disabled_qps``, plus ``overhead_analytics_pct`` measured against
  ``metrics_qps`` (the analytics recorder rides on an already-metered
  process).  Two numbers are *hard-gated*: ``run_bench`` raises when
  tracing overhead exceeds ``TRACING_OVERHEAD_BUDGET_PCT`` (25%) or
  analytics-over-metrics overhead exceeds
  ``ANALYTICS_OVERHEAD_BUDGET_PCT`` (10%), so both the CI bench leg
  and a local regeneration fail loudly.  The others are context;
* ``serve_wall_qps`` / ``serve_p50_ms`` / ``serve_p99_ms`` — a
  concurrent service run measured through the registry's 60s window
  (:func:`repro.obs.timeseries.window`), i.e. the numbers the live
  dashboard would show.

Diff two snapshots with ``python tools/compare_bench.py`` — it fails on
a >10% regression in any gated metric.  Runnable both ways::

    PYTHONPATH=src pytest benchmarks/bench_obs_overhead.py --benchmark-only -s
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.eval.loadgen import run_service_load
from repro.obs import analytics, events, metrics, timeseries, tracestore, tracing
from repro.serve import ServeConfig

try:  # direct `python benchmarks/bench_obs_overhead.py` runs too
    from bench_common import scaled
except ImportError:  # pragma: no cover - pytest inserts benchmarks/ on path
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_common import scaled

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_obs.json"

#: Interleaved timing rounds per mode; the fastest pass is kept
#: (loaded-box noise is one-sided, so min elapsed is the honest
#: estimator).
REPEATS = 5

#: Hard ceiling on the tracing-mode slowdown vs fully-disabled.  Spans
#: are the most expensive per-query instrumentation (object per stage,
#: two clock reads each); the tracing leg of CI fails when recording
#: them costs more than this share of direct query throughput.
TRACING_OVERHEAD_BUDGET_PCT = 25.0

#: Hard ceiling on the analytics-mode slowdown vs metrics-only.  The
#: access recorder adds one locked dict-plus-sketch update per hook, so
#: it must stay within a tenth of the already-metered throughput — the
#: promise ``serve --analytics`` makes to a production fleet.
ANALYTICS_OVERHEAD_BUDGET_PCT = 10.0


def _throughput_qps(index, queries) -> float:
    """One timed pass of direct ``nearest`` calls (queries/s)."""
    started = time.perf_counter()
    for q in queries:
        index.nearest(q)
    elapsed = time.perf_counter() - started
    return queries.shape[0] / elapsed if elapsed > 0 else 0.0


@contextmanager
def _mode_disabled():
    metrics.disable()
    events.disable()
    yield


@contextmanager
def _mode_metrics():
    with metrics.collecting(fresh=True) as registry:
        registry.enable_windows()
        try:
            yield
        finally:
            registry.disable_windows()


@contextmanager
def _mode_events():
    with _mode_metrics():
        with events.collecting():
            yield


@contextmanager
def _mode_analytics():
    # The `serve --analytics` configuration: metrics + windows on, and
    # the access recorder aggregating every cell/page touch.
    with _mode_metrics():
        analytics.install()
        try:
            yield
        finally:
            analytics.uninstall()


@contextmanager
def _mode_tracing():
    # The `serve --tracing` configuration: metrics + windows stay on,
    # and every span records into a tail-sampling store (events off,
    # as in the serve default).
    with _mode_metrics():
        store = tracestore.install(tracestore.TraceStore())
        tracing.enable(store)
        try:
            yield
        finally:
            tracing.disable()
            tracestore.uninstall()


_MODES = (
    ("disabled", _mode_disabled),
    ("metrics", _mode_metrics),
    ("events", _mode_events),
    ("analytics", _mode_analytics),
    ("tracing", _mode_tracing),
)


def measure_obs_overhead(index, queries) -> dict:
    """The four-mode throughput comparison as a flat metrics dict.

    Modes are interleaved round-robin — ``REPEATS`` rounds, one timed
    pass per mode per round, best pass kept — so slow machine drift
    (frequency scaling, a noisy neighbour) hits every mode about
    equally instead of penalising whichever mode happened to run last.
    """
    best = {name: 0.0 for name, __ in _MODES}
    for __ in range(REPEATS):
        for name, mode in _MODES:
            with mode():
                best[name] = max(best[name], _throughput_qps(index, queries))

    disabled_qps = best["disabled"]

    def overhead_pct(qps: float) -> float:
        if disabled_qps <= 0.0:
            return 0.0
        return 100.0 * (1.0 - qps / disabled_qps)

    metrics_qps = best["metrics"]
    analytics_over_metrics = (
        100.0 * (1.0 - best["analytics"] / metrics_qps)
        if metrics_qps > 0.0
        else 0.0
    )
    return {
        "disabled_qps": disabled_qps,
        "metrics_qps": metrics_qps,
        "metrics_events_qps": best["events"],
        "analytics_qps": best["analytics"],
        "tracing_qps": best["tracing"],
        "overhead_metrics_pct": overhead_pct(best["metrics"]),
        "overhead_events_pct": overhead_pct(best["events"]),
        "overhead_analytics_pct": analytics_over_metrics,
        "overhead_tracing_pct": overhead_pct(best["tracing"]),
    }


def measure_serve_windows(index, queries) -> dict:
    """Concurrent-serve latency as reported by the sliding windows.

    The service run is measured the way an operator would see it: the
    registry's windows aggregate ``serve.latency_ms`` into the 60s
    window, and p50/p99/QPS are read back from there.
    """
    with metrics.collecting(fresh=True) as registry:
        registry.enable_windows()
        try:
            report = run_service_load(
                index, queries, n_threads=4,
                config=ServeConfig(max_batch_size=64, max_wait_ms=2.0),
            )
            window = timeseries.window(registry, 60).get("serve.latency_ms")
        finally:
            registry.disable_windows()
    return {
        "serve_wall_qps": report.throughput_qps(),
        "serve_p50_ms": window.percentile(50) if window else 0.0,
        "serve_p99_ms": window.percentile(99) if window else 0.0,
        "serve_errors": float(report.errors),
    }


def run_bench(out_path: Path = BENCH_PATH) -> dict:
    """Build the workload, measure, and write the BENCH document."""
    dim = 6
    n_points = scaled(300)
    n_queries = scaled(400)
    index = NNCellIndex.build(uniform_points(n_points, dim, seed=271))
    queries = query_points(n_queries, dim, seed=272)

    document = {
        "bench": "obs_overhead",
        "format_version": 1,
        "config": {
            "n_points": n_points,
            "dim": dim,
            "n_queries": n_queries,
            "repeats": REPEATS,
        },
        "metrics": {
            **measure_obs_overhead(index, queries),
            **measure_serve_windows(index, queries),
        },
    }
    overhead = document["metrics"]["overhead_tracing_pct"]
    if overhead > TRACING_OVERHEAD_BUDGET_PCT:
        raise AssertionError(
            f"tracing overhead {overhead:.1f}% exceeds the"
            f" {TRACING_OVERHEAD_BUDGET_PCT:.0f}% budget"
            f" (disabled {document['metrics']['disabled_qps']:.0f} qps,"
            f" tracing {document['metrics']['tracing_qps']:.0f} qps)"
        )
    analytics_overhead = document["metrics"]["overhead_analytics_pct"]
    if analytics_overhead > ANALYTICS_OVERHEAD_BUDGET_PCT:
        raise AssertionError(
            f"analytics overhead {analytics_overhead:.1f}% over"
            f" metrics-only exceeds the"
            f" {ANALYTICS_OVERHEAD_BUDGET_PCT:.0f}% budget"
            f" (metrics {document['metrics']['metrics_qps']:.0f} qps,"
            f" analytics {document['metrics']['analytics_qps']:.0f} qps)"
        )
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def bench_obs_overhead(benchmark):
    document = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    m = document["metrics"]
    assert m["disabled_qps"] > 0.0
    assert m["metrics_qps"] > 0.0
    assert m["tracing_qps"] > 0.0
    assert m["analytics_qps"] > 0.0
    assert m["overhead_tracing_pct"] <= TRACING_OVERHEAD_BUDGET_PCT
    assert m["overhead_analytics_pct"] <= ANALYTICS_OVERHEAD_BUDGET_PCT
    assert m["serve_errors"] == 0.0
    assert m["serve_p99_ms"] >= m["serve_p50_ms"] > 0.0
    print(f"\n(bench document written to {BENCH_PATH})")
    for name in sorted(m):
        print(f"  {name:<24} {m[name]:.3f}")


if __name__ == "__main__":
    result = run_bench()
    print(json.dumps(result, indent=2, sort_keys=True))
