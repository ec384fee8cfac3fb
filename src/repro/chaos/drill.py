"""Reproducible failure drills: chaos in, verified resilience out.

A *drill* is the closed loop the ``repro chaos`` CLI subcommand and the
chaos leg of ``tools/smoke.py`` both run:

1. take a built :class:`~repro.shard.ShardedNNCellIndex` (and a clean
   unsharded twin over the same points for ground truth);
2. install a seeded :class:`~repro.chaos.faults.ChaosInjector` on the
   scatter path (and, when the plan has page faults, on every shard's
   page managers);
3. drive ``n_queries`` concurrent queries through a
   :class:`~repro.serve.QueryService` over the faulted fleet;
4. verify the resilience contract on every single response:

   * an **ok** (non-degraded) answer must be bit-identical to the clean
     index's answer — faults may cost latency, never correctness;
   * a **degraded** answer must say so explicitly and name its missing
     shards (silently-partial answers are the one unforgivable bug);
   * an error must be a *typed* serve failure — injected faults never
     surface as raw exceptions.

The returned :class:`DrillReport` carries the outcome tally, the
injected-fault counts, the ``shard.retry`` / ``shard.hedge`` /
``shard.timeout`` / ``shard.degraded`` counters observed during the
drill, so callers can assert the mitigation actually engaged, and the
median and p95 of the answered queries' wall-clock latency, so two
drills under different mitigation policies can be compared.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.nncell_index import NNCellIndex
from ..data.synthetic import query_points
from ..obs import metrics
from ..serve import QueryService, ServeConfig, ServeError
from .faults import ChaosInjector, FaultPlan

__all__ = ["DrillReport", "install_page_chaos", "run_drill"]

#: Counters the report extracts from the drill-scoped registry.  The
#: ``shard.*`` resilience counters and ``serve.fallback`` are dimensional
#: (``shard=`` / ``stage=`` labels); the report aggregates every label
#: set back under the base name via :func:`repro.obs.metrics.sum_labeled`.
_DRILL_COUNTERS = (
    "shard.retry",
    "shard.hedge",
    "shard.timeout",
    "shard.degraded",
    "serve.degraded_answers",
    "serve.fallback",
    "storage.flaky_reads",
)


@dataclass
class DrillReport:
    """Everything one drill observed, verified and counted."""

    n_queries: int
    n_threads: int
    #: ``"ok"`` / ``"degraded"`` / ``"error:<code>"`` -> count.
    outcomes: "Dict[str, int]" = field(default_factory=dict)
    #: Non-degraded answers that differed from the clean index (bugs).
    mismatches: int = 0
    #: Degraded answers that failed to name their missing shards (bugs).
    unaccounted_degraded: int = 0
    #: Raw (non-``ServeError``) exceptions that reached a client (bugs).
    untyped_errors: int = 0
    #: What the injector actually fired (``ChaosInjector.counts``).
    injected: "Dict[str, int]" = field(default_factory=dict)
    #: Resilience counters observed during the drill.
    counters: "Dict[str, float]" = field(default_factory=dict)
    #: Union of every failed-shard id reported on degraded answers.
    faulted_shards: "List[int]" = field(default_factory=list)
    #: Median and p95 of ``QueryResult.latency_ms`` (submission to
    #: completion) over the ``answered`` queries, ok and degraded alike.
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    answered: int = 0

    @property
    def passed(self) -> bool:
        """The resilience contract held for every response."""
        return (
            self.mismatches == 0
            and self.unaccounted_degraded == 0
            and self.untyped_errors == 0
        )

    @property
    def degraded(self) -> int:
        return self.outcomes.get("degraded", 0)

    @property
    def errors(self) -> int:
        return sum(
            count for key, count in self.outcomes.items()
            if key.startswith("error:")
        )

    def as_dict(self) -> "Dict[str, object]":
        return {
            "n_queries": self.n_queries,
            "n_threads": self.n_threads,
            "outcomes": dict(self.outcomes),
            "mismatches": self.mismatches,
            "unaccounted_degraded": self.unaccounted_degraded,
            "untyped_errors": self.untyped_errors,
            "injected": dict(self.injected),
            "counters": dict(self.counters),
            "faulted_shards": list(self.faulted_shards),
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "answered": self.answered,
            "passed": self.passed,
        }


def install_page_chaos(index, injector: "Optional[ChaosInjector]") -> None:
    """Hook (or unhook, with ``None``) every live shard's page reads:
    its cell-tree walk and its page managers."""
    for __, shard in index._live_shards():
        shard.set_page_chaos(injector)


def run_drill(
    index,
    plan: FaultPlan,
    n_queries: int = 200,
    n_threads: int = 4,
    seed: int = 0,
    serve_config: "ServeConfig | None" = None,
    truth: "NNCellIndex | None" = None,
) -> DrillReport:
    """Run one failure drill against ``index`` (sharded) under ``plan``.

    ``index`` should already carry the resilience policy under test
    (:meth:`~repro.shard.ShardedNNCellIndex.set_resilience`).  ``truth``
    overrides the clean unsharded twin (built here otherwise).  The
    injector is installed for the duration of the drill and removed —
    and its stuck probes released — on the way out, whatever happens.
    """
    if n_queries < 1 or n_threads < 1:
        raise ValueError("n_queries and n_threads must be >= 1")
    if truth is None:
        truth = NNCellIndex.build(index.points, index.config)
    queries = query_points(n_queries, index.dim, seed=seed)
    exp_ids, exp_dists, __ = truth.query_batch(queries)

    injector = ChaosInjector(plan)
    report = DrillReport(n_queries=n_queries, n_threads=n_threads)
    results: "List[Optional[object]]" = [None] * n_queries
    failures: "List[Tuple[int, BaseException]]" = []
    fail_lock = threading.Lock()

    index.set_chaos(injector)
    if plan.pages.any_active:
        install_page_chaos(index, injector)
    try:
        with metrics.collecting(fresh=True) as registry:
            config = serve_config or ServeConfig(
                max_batch_size=32, max_wait_ms=5.0
            )
            with QueryService(index, config) as service:
                def client(thread_idx: int) -> None:
                    for i in range(thread_idx, n_queries, n_threads):
                        try:
                            results[i] = service.submit(queries[i])
                        except BaseException as err:  # verified below
                            with fail_lock:
                                failures.append((i, err))

                threads = [
                    threading.Thread(
                        target=client, args=(t,), name=f"drill-client-{t}"
                    )
                    for t in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            snapshot = registry.snapshot()
    finally:
        injector.release()
        index.set_chaos(None)
        if plan.pages.any_active:
            install_page_chaos(index, None)

    # ------------------------------------------------------------------
    # Verify the contract response by response.
    # ------------------------------------------------------------------
    faulted: "set" = set()
    for i, result in enumerate(results):
        if result is None:
            continue
        if result.degraded:
            _tally(report.outcomes, "degraded")
            if not result.failed_shards:
                report.unaccounted_degraded += 1
            faulted.update(result.failed_shards)
            continue
        _tally(report.outcomes, "ok")
        if (
            result.point_id != int(exp_ids[i])
            or result.distance != float(exp_dists[i])
        ):
            report.mismatches += 1
    for __, err in failures:
        if isinstance(err, ServeError):
            _tally(report.outcomes, f"error:{err.code}")
        else:
            report.untyped_errors += 1
            _tally(report.outcomes, f"error:{type(err).__name__}")

    report.injected = injector.counts()
    # One aggregate entry per base name, plus each labeled child under
    # its canonical key (`serve.fallback{stage="scan"}`) so the report
    # says which rung / which shard, not just how often.
    counters: "Dict[str, float]" = {}
    for name in _DRILL_COUNTERS:
        total = metrics.sum_labeled(snapshot, name)
        if not total:
            continue
        counters[name] = total
        prefix = name + "{"
        for key, value in sorted(snapshot.items()):
            if key.startswith(prefix) and value:
                counters[key] = value
    report.counters = counters
    report.faulted_shards = sorted(faulted)
    latencies = [r.latency_ms for r in results if r is not None]
    if latencies:
        p50, p95 = np.percentile(latencies, [50, 95])
        report.latency_p50_ms, report.latency_p95_ms = float(p50), float(p95)
    report.answered = len(latencies)
    return report


def _tally(outcomes: "Dict[str, int]", key: str) -> None:
    outcomes[key] = outcomes.get(key, 0) + 1
