"""Sharded NN-cell index: partition, scatter, gather — exactly.

A :class:`ShardedNNCellIndex` splits the database across ``n_shards``
independent :class:`~repro.core.nncell_index.NNCellIndex` instances and
answers queries by *scatter-gather*: fan the query out to every live
shard (concurrently, on a thread pool), then k-merge the per-shard
``(distance, id)`` results.  The merge is **exact**, not approximate:

* every shard's solution space tiles the *whole* data space (the
  NN-cells of any subset partition the box), so each shard answers with
  its true nearest member for any in-box query;
* the global nearest neighbor lives in some shard and is, a fortiori,
  that shard's nearest member — so it is always among the gathered
  per-shard winners (the same argument gives k-NN exactness: the global
  top-k is contained in the union of per-shard top-k's);
* per-shard distances come from the very same arithmetic the unsharded
  index uses (``distances_to_points`` + ``sqrt`` on identical
  operands), so the merged answer is *bit-identical* to the unsharded
  one, ties breaking to the smallest global id exactly as ``np.argmin``
  over the serially deduplicated candidate array does.

``tests/shard/test_shard_parity.py`` property-tests this equivalence
across partitioners, shard counts and dynamic insert/delete sequences;
``docs/sharding.md`` spells out the full exactness argument.

Global point ids are preserved: shard ``s`` keeps a local→global id map
and every result is translated before merging, so ids returned by the
sharded index are the positions in the original build array — the same
ids the unsharded index would return.  ``insert``/``delete`` route to
the owning shard through the (deterministic) partitioner.

Construction fans per-shard builds out over a thread pool and each
shard build honours ``BuildConfig.workers`` — i.e. the existing
:mod:`repro.engine` pool machinery (``resolve_workers`` /
``parallel_cells``) runs *inside* each shard, giving two composable
axes of build parallelism (see docs/sharding.md for tuning guidance).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.nncell_index import (
    BuildConfig,
    NNCellIndex,
    QueryExplain,
    QueryInfo,
)
from ..engine.batch import BatchQueryInfo
from ..engine.parallel import resolve_workers
from ..geometry.mbr import MBR
from ..obs import analytics, metrics, workload
from ..obs.tracing import carrier, span
from .partition import PARTITIONER_KINDS, make_partitioner
from .resilience import (
    ResilienceConfig,
    ScatterReport,
    complete_report,
    resilient_gather,
)

__all__ = ["ShardConfig", "ShardedNNCellIndex"]


@dataclass(frozen=True)
class ShardConfig:
    """Sharding parameters, orthogonal to the per-shard ``BuildConfig``.

    ``build_workers`` counts *threads fanning out shard builds* (0 = one
    per CPU core, capped at ``n_shards``); each shard build additionally
    honours its ``BuildConfig.workers``.  ``query_workers`` sizes the
    scatter pool (0 = one thread per shard, 1 = scatter inline/serially).
    """

    n_shards: int = 4
    partitioner: str = "hash"  # "hash" | "hilbert"
    hilbert_bits: int = 10
    build_workers: int = 0
    query_workers: int = 0

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.partitioner not in PARTITIONER_KINDS:
            raise ValueError(
                f"partitioner must be one of {PARTITIONER_KINDS}"
            )
        if self.hilbert_bits < 1:
            raise ValueError("hilbert_bits must be >= 1")
        if self.build_workers < 0 or self.query_workers < 0:
            raise ValueError("worker counts must be >= 0 (0 means auto)")


class ShardedNNCellIndex:
    """Scatter-gather wrapper over N independent NN-cell indexes.

    Duck-type compatible with :class:`NNCellIndex` where the serving
    stack needs it (``dim`` / ``points`` / ``active_ids`` / ``nearest``
    / ``k_nearest`` / ``query_batch`` / ``explain`` / ``stats``), so a
    :class:`repro.serve.QueryService` runs unmodified on top — its
    micro-batch flushes scatter across the shards inside one flush span.
    """

    def __init__(
        self,
        points: np.ndarray,
        shard_config: "ShardConfig | None" = None,
        build_config: "BuildConfig | None" = None,
    ):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.shard_config = shard_config or ShardConfig()
        self.config = build_config or BuildConfig()
        self.points = pts.copy()
        self.dim = pts.shape[1]
        self.box = self.config.data_space or MBR.unit_cube(self.dim)
        if self.box.dim != self.dim:
            raise ValueError("data_space dimensionality mismatch")
        # Shards must share one data space: each shard's cells tile the
        # *global* box, which is what makes every shard answer any
        # in-box query exactly (the exactness precondition).
        self._shard_build_config = replace(self.config, data_space=self.box)
        self.partitioner = make_partitioner(
            self.shard_config.partitioner,
            self.shard_config.n_shards,
            pts,
            hilbert_bits=self.shard_config.hilbert_bits,
        )
        self._active = np.ones(pts.shape[0], dtype=bool)
        self._shards: "List[Optional[NNCellIndex]]" = (
            [None] * self.shard_config.n_shards
        )
        #: Per shard: local row -> global id (rows keep their slots on
        #: delete, exactly as NNCellIndex rows do).
        self._globals: "List[List[int]]" = (
            [[] for __ in range(self.shard_config.n_shards)]
        )
        self._shard_of: "List[int]" = []
        self._local_of: "List[int]" = []
        self._pool: "Optional[ThreadPoolExecutor]" = None
        self._resilience: "Optional[ResilienceConfig]" = None
        self._chaos = None  # fault-injection hook (repro.chaos)
        self._build()

    # ==================================================================
    # Construction
    # ==================================================================
    @classmethod
    def build(
        cls,
        points: np.ndarray,
        shard_config: "ShardConfig | None" = None,
        build_config: "BuildConfig | None" = None,
    ) -> "ShardedNNCellIndex":
        """Partition ``points`` and build every shard (in parallel)."""
        return cls(points, shard_config, build_config)

    @classmethod
    def from_index(
        cls, index: NNCellIndex, shard_config: "ShardConfig | None" = None
    ) -> "ShardedNNCellIndex":
        """Re-shard a built unsharded index (``serve --shards``).

        The live points are re-partitioned and each shard's solution
        space rebuilt; ids are compacted to the live points' order, so
        use this for serving fresh processes, not for id-stable
        migrations (save/load of a sharded archive preserves ids).
        """
        return cls(index.points[index.active_ids], shard_config, index.config)

    @classmethod
    def _restore(
        cls,
        *,
        points: np.ndarray,
        active: np.ndarray,
        shard_config: ShardConfig,
        build_config: BuildConfig,
        partitioner,
        shards: "List[Optional[NNCellIndex]]",
        globals_: "List[List[int]]",
        shard_of: "List[int]",
        local_of: "List[int]",
    ) -> "ShardedNNCellIndex":
        """Wire a fully-specified instance (persistence load path)."""
        self = cls.__new__(cls)
        self.shard_config = shard_config
        self.config = build_config
        self.points = np.asarray(points, dtype=np.float64)
        self.dim = self.points.shape[1]
        self.box = build_config.data_space or MBR.unit_cube(self.dim)
        self._shard_build_config = replace(build_config, data_space=self.box)
        self.partitioner = partitioner
        self._active = np.asarray(active, dtype=bool)
        self._shards = shards
        self._globals = globals_
        self._shard_of = shard_of
        self._local_of = local_of
        self._pool = None
        self._resilience = None
        self._chaos = None
        return self

    def _build(self) -> None:
        n = self.points.shape[0]
        n_shards = self.shard_config.n_shards
        assignment = self.partitioner.shard_of_batch(self.points)
        members = [np.flatnonzero(assignment == s) for s in range(n_shards)]
        self._shard_of = [int(s) for s in assignment]
        self._local_of = [0] * n
        for s, ids in enumerate(members):
            self._globals[s] = [int(g) for g in ids]
            for local, g in enumerate(ids):
                self._local_of[int(g)] = local

        workers = min(
            max(1, len([m for m in members if m.size])),
            resolve_workers(self.shard_config.build_workers),
        )
        with span(
            "shard.build",
            n_shards=n_shards,
            partitioner=self.partitioner.kind,
            workers=workers,
        ) as root:
            submit_ctx = carrier()

            def build_shard(s: int) -> "Optional[NNCellIndex]":
                if members[s].size == 0:
                    return None
                with span("shard.build_shard", shard=s,
                          n_points=int(members[s].size)):
                    return NNCellIndex.build(
                        self.points[members[s]], self._shard_build_config
                    )

            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    self._shards = list(
                        pool.map(
                            lambda s: submit_ctx.call(build_shard, s),
                            range(n_shards),
                        )
                    )
            else:
                self._shards = [build_shard(s) for s in range(n_shards)]
            root.set("shards_live", len(self._live_shards()))
        metrics.inc("shard.build.count")
        for s, ids in enumerate(members):
            metrics.observe("shard.build.points", int(ids.size))

    # ==================================================================
    # Scatter plumbing
    # ==================================================================
    def _live_shards(self) -> "List[Tuple[int, NNCellIndex]]":
        return [
            (s, shard)
            for s, shard in enumerate(self._shards)
            if shard is not None
        ]

    def set_resilience(self, config: "Optional[ResilienceConfig]") -> None:
        """Install (or, with ``None``, remove) the scatter mitigation policy.

        With a policy installed every scatter runs through
        :func:`repro.shard.resilience.resilient_gather` — per-probe
        timeouts, backoff retries, hedging, optional partial answers —
        and query infos carry ``degraded``/``failed_shards``.  Without
        one, the original wait-for-everything gather runs unchanged.
        The scatter pool is rebuilt on the next query (a resilient pool
        carries headroom for hedges and retries).
        """
        if config is not None and not isinstance(config, ResilienceConfig):
            raise TypeError("expected a ResilienceConfig or None")
        self._resilience = config
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def resilience(self) -> "Optional[ResilienceConfig]":
        return self._resilience

    def set_chaos(self, injector) -> None:
        """Install (or, with ``None``, remove) a fault injector.

        ``injector`` duck-types :class:`repro.chaos.ChaosInjector`: its
        ``before_probe(shard)`` runs inside every ``shard.probe`` span
        and may sleep or raise.  The hook is a single ``is None`` check
        when disabled — production scatters pay nothing.
        """
        self._chaos = injector

    def _scatter_pool(self) -> "Optional[ThreadPoolExecutor]":
        """The persistent fan-out pool (``None`` = scatter inline).

        A resilient scatter always gets a pool — timeouts and hedges
        need probes the gather thread does not sit behind — and it is
        oversized 2x so hedge duplicates and retries of stuck probes
        never queue behind the stragglers they are meant to beat.
        """
        workers = self.shard_config.query_workers
        resilient = self._resilience is not None
        if not resilient and (
            workers == 1 or self.shard_config.n_shards == 1
        ):
            return None
        if self._pool is None:
            size = self.shard_config.n_shards if workers == 0 else workers
            size = min(size, self.shard_config.n_shards)
            if resilient:
                size = max(2 * self.shard_config.n_shards, 2)
            self._pool = ThreadPoolExecutor(
                max_workers=size,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def _scatter(
        self, probe: "Callable[[NNCellIndex], object]"
    ) -> "Tuple[List[Tuple[int, object]], ScatterReport]":
        """Run ``probe`` against every live shard; results in shard order.

        Each probe runs under a ``shard.probe`` span re-entered from the
        submitting context (:func:`repro.obs.tracing.carrier`), so shard
        work nests beneath the caller's span — a serve flush span
        contains the scatter — and carries the request's trace id.

        Returns ``(results, report)``: with no resilience policy the
        report is trivially complete (and a shard exception propagates,
        exactly as before); with one, the report accounts retries,
        hedges, timeouts and — under ``allow_partial`` — the shards
        missing from a degraded answer.
        """
        live = self._live_shards()
        resilience = self._resilience
        chaos = self._chaos
        pool = (
            self._scatter_pool()
            if (len(live) > 1 or resilience is not None)
            else None
        )
        submit_ctx = carrier()

        def run(item: "Tuple[int, NNCellIndex]"):
            s, shard = item
            # shard_scope is entered here, *on* the probing thread, so the
            # page/cell hooks below attribute their traffic to shard ``s``
            # (contextvars do not propagate into pool threads by default).
            with span("shard.probe", shard=s), analytics.shard_scope(s):
                analytics.record_probe(s)
                if chaos is not None:
                    chaos.before_probe(s)
                return probe(shard)

        metrics.observe("shard.fanout", len(live))
        if resilience is None:
            if pool is None:
                return (
                    [(s, run((s, shard))) for s, shard in live],
                    complete_report([s for s, __ in live]),
                )
            futures = [
                (s, pool.submit(submit_ctx.call, run, (s, shard)))
                for s, shard in live
            ]
            return (
                [(s, f.result()) for s, f in futures],
                complete_report([s for s, __ in live]),
            )

        shards = dict(live)

        def submit(s: int):
            return pool.submit(submit_ctx.call, run, (s, shards[s]))

        results, report = resilient_gather(
            [s for s, __ in live], submit, resilience
        )
        if report.degraded:
            metrics.inc("shard.degraded")
        return results, report

    def close(self) -> None:
        """Shut the scatter pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedNNCellIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ==================================================================
    # Queries
    # ==================================================================
    def nearest(
        self, query: Sequence[float]
    ) -> "Tuple[int, float, QueryInfo]":
        """Exact global nearest neighbor via scatter-gather.

        Returns ``(global id, distance, info)`` bit-identical to an
        unsharded index over the same points; ``info`` sums the
        per-shard traffic (``fallback``/``retried_atol`` are ORs).
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must be a {self.dim}-vector")
        info = QueryInfo()
        with span("shard.nearest", dim=self.dim) as root:
            gathered, report = self._scatter(lambda shard: shard.nearest(q))
            with span("shard.merge", results=len(gathered)):
                best_gid, best_dist = -1, np.inf
                for s, (local, dist, shard_info) in gathered:
                    gid = self._globals[s][int(local)]
                    if dist < best_dist or (
                        dist == best_dist and gid < best_gid
                    ):
                        best_gid, best_dist = gid, dist
                    info.n_candidates += shard_info.n_candidates
                    info.pages += shard_info.pages
                    info.distance_computations += (
                        shard_info.distance_computations
                    )
                    info.fallback = info.fallback or shard_info.fallback
                    info.retried_atol = (
                        info.retried_atol or shard_info.retried_atol
                    )
            info.degraded = report.degraded
            info.failed_shards = report.failed_shards
            info.shards_answered = report.shards_answered
            root.set("candidates", info.n_candidates)
            root.set("pages", info.pages)
            if report.degraded:
                root.set("degraded", True)
                root.set("failed_shards", list(report.failed_shards))
        workload.record_query(q, int(best_gid), float(best_dist), info)
        return int(best_gid), float(best_dist), info

    def k_nearest(
        self, query: Sequence[float], k: int
    ) -> "Tuple[List[int], List[float], QueryInfo]":
        """Exact k nearest neighbors: per-shard top-k, then a k-merge.

        The global top-k is a subset of the union of per-shard top-k's
        (any global top-k member is within its own shard's top-k), so
        merging by ``(distance, global id)`` and truncating is exact.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must be a {self.dim}-vector")
        k_eff = min(k, len(self))
        info = QueryInfo()
        with span("shard.k_nearest", dim=self.dim, k=k_eff) as root:
            gathered, report = self._scatter(
                lambda shard: shard.k_nearest(q, k)
            )
            with span("shard.merge", results=len(gathered)):
                merged: "List[Tuple[float, int]]" = []
                for s, (ids, dists, shard_info) in gathered:
                    merged.extend(
                        (float(d), self._globals[s][int(i)])
                        for i, d in zip(ids, dists)
                    )
                    info.n_candidates += shard_info.n_candidates
                    info.pages += shard_info.pages
                    info.distance_computations += (
                        shard_info.distance_computations
                    )
                    info.fallback = info.fallback or shard_info.fallback
                    info.retried_atol = (
                        info.retried_atol or shard_info.retried_atol
                    )
                merged.sort()
                merged = merged[:k_eff]
            info.degraded = report.degraded
            info.failed_shards = report.failed_shards
            info.shards_answered = report.shards_answered
            root.set("candidates", info.n_candidates)
            root.set("pages", info.pages)
            if report.degraded:
                root.set("degraded", True)
                root.set("failed_shards", list(report.failed_shards))
        metrics.inc("shard.query.count")
        metrics.observe("shard.query.pages", info.pages)
        return (
            [gid for __, gid in merged],
            [dist for dist, __ in merged],
            info,
        )

    def query_batch(
        self, queries: np.ndarray, batch_size: "int | None" = None
    ) -> "Tuple[np.ndarray, np.ndarray, BatchQueryInfo]":
        """Batched scatter-gather: one batched walk *per shard*.

        The whole batch fans out to every shard's
        :meth:`NNCellIndex.query_batch` concurrently; winners merge
        per query by ``(distance, global id)``.  Returns
        ``(ids, distances, info)`` with ``info`` aggregating per-shard
        traffic — ``pages`` is the sum over shards (each shard walks
        its own tree).
        """
        qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if qs.ndim != 2 or qs.shape[1] != self.dim:
            raise ValueError(f"queries must be (m, {self.dim})")
        m = qs.shape[0]
        info = BatchQueryInfo(n_queries=m)
        ids = np.full(m, -1, dtype=np.int64)
        dists = np.full(m, np.inf)
        if m == 0:
            dists[:] = np.nan
            return ids, dists, info
        with span("shard.query_batch", n_queries=m) as root:
            gathered, report = self._scatter(
                lambda shard: shard.query_batch(qs, batch_size=batch_size)
            )
            with span("shard.merge", results=len(gathered)):
                for s, (lids, ldists, binfo) in gathered:
                    gids = np.asarray(self._globals[s], dtype=np.int64)[lids]
                    better = (ldists < dists) | (
                        (ldists == dists) & (gids < ids)
                    )
                    ids[better] = gids[better]
                    dists[better] = ldists[better]
                    info.pages += binfo.pages
                    info.distance_computations += binfo.distance_computations
                    info.n_candidates += binfo.n_candidates
                    info.fallbacks += binfo.fallbacks
                    info.retried_atol += binfo.retried_atol
                    info.n_batches += binfo.n_batches
            info.degraded = report.degraded
            info.failed_shards = report.failed_shards
            info.shards_answered = report.shards_answered
            root.set("pages", info.pages)
            root.set("candidates", info.n_candidates)
            if report.degraded:
                root.set("degraded", True)
                root.set("failed_shards", list(report.failed_shards))
        workload.record_batch(qs, ids, dists, info)
        return ids, dists, info

    def nearest_batch(
        self, queries: np.ndarray
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Vectorised convenience: NN ids and distances for many queries."""
        ids, dists, __ = self.query_batch(queries)
        return ids, dists

    def explain(self, query: Sequence[float]) -> QueryExplain:
        """Merged account of one query: per-shard explains, one answer.

        Rectangles and candidates carry *global* owner ids;
        ``nodes_visited``/``pages`` sum over shards; ``path``/``atol``
        come from the shard that produced the winning answer.  The
        answer fields agree with :meth:`nearest`.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must be a {self.dim}-vector")
        gathered, report = self._scatter(lambda shard: shard.explain(q))
        best: "Optional[Tuple[float, int, QueryExplain]]" = None
        rectangles = []
        candidates: "List[Tuple[int, float]]" = []
        visited = 0
        pages = 0
        for s, explain in gathered:
            gid = self._globals[s][int(explain.nearest_id)]
            key = (explain.nearest_distance, gid)
            if best is None or key < (best[0], best[1]):
                best = (explain.nearest_distance, gid, explain)
            rectangles.extend(
                (self._globals[s][int(owner)], rect)
                for owner, rect in explain.rectangles
            )
            candidates.extend(
                (self._globals[s][int(owner)], dist)
                for owner, dist in explain.candidates
            )
            visited += explain.nodes_visited
            pages += explain.pages
        candidates.sort(key=lambda pair: (pair[1], pair[0]))
        distance, gid, winner = best
        return QueryExplain(
            query=q,
            path=winner.path,
            atol=winner.atol,
            retried_atol=any(e.retried_atol for __, e in gathered),
            nearest_id=int(gid),
            nearest_distance=float(distance),
            rectangles=rectangles,
            candidates=candidates,
            nodes_visited=visited,
            pages=pages,
            degraded=report.degraded,
            failed_shards=report.failed_shards,
            shards_answered=report.shards_answered,
        )

    # ==================================================================
    # Dynamic updates
    # ==================================================================
    def insert(self, point: Sequence[float]) -> int:
        """Insert a point into its owning shard; returns the global id."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dim,):
            raise ValueError(f"point must be a {self.dim}-vector")
        if not self.box.contains_point(p, atol=1e-12):
            raise ValueError("point lies outside the data space")
        gid = self.points.shape[0]
        s = self.partitioner.shard_of(p)
        with span("shard.insert", shard=s):
            if self._shards[s] is None:
                self._shards[s] = NNCellIndex.build(
                    p[None, :], self._shard_build_config
                )
                self._globals[s] = []
                local = 0
            else:
                local = self._shards[s].insert(p)
            self._globals[s].append(gid)
        self.points = np.vstack([self.points, p[None, :]])
        self._active = np.append(self._active, True)
        self._shard_of.append(int(s))
        self._local_of.append(int(local))
        metrics.inc("shard.insert.count")
        return gid

    def delete(self, point_id: int) -> None:
        """Remove a point from its owning shard.

        A shard whose last member is removed is torn down (and lazily
        rebuilt if a later insert routes to it); removing the globally
        last point raises ``ValueError``, as the unsharded index does.
        """
        if not (
            0 <= point_id < self._active.shape[0]
            and bool(self._active[point_id])
        ):
            raise KeyError(f"point {point_id} is not in the index")
        if int(np.sum(self._active)) == 1:
            raise ValueError("cannot delete the last remaining point")
        s = self._shard_of[point_id]
        shard = self._shards[s]
        with span("shard.delete", shard=s):
            if len(shard) == 1:
                self._shards[s] = None
                self._globals[s] = []
            else:
                shard.delete(self._local_of[point_id])
        self._active[point_id] = False
        metrics.inc("shard.delete.count")

    # ==================================================================
    # Introspection
    # ==================================================================
    def __len__(self) -> int:
        return int(np.sum(self._active))

    @property
    def n_shards(self) -> int:
        return self.shard_config.n_shards

    @property
    def active_ids(self) -> np.ndarray:
        return np.flatnonzero(self._active)

    def shard_sizes(self) -> "List[int]":
        """Live point count of every shard (0 for torn-down shards)."""
        return [
            0 if shard is None else len(shard) for shard in self._shards
        ]

    def stats(self) -> "Dict[str, float]":
        """Aggregated sizing diagnostics across shards.

        ``expected_candidates`` sums per-shard expectations — a scatter
        query scans every shard's candidates; tree heights report the
        worst shard; ``cell_tree_blocks`` is the fleet total.
        """
        per_shard = [shard.stats() for __, shard in self._live_shards()]
        return {
            "n_points": float(len(self)),
            "n_shards": float(self.n_shards),
            "shards_live": float(len(per_shard)),
            "n_rectangles": sum(s["n_rectangles"] for s in per_shard),
            "expected_candidates": sum(
                s["expected_candidates"] for s in per_shard
            ),
            "cell_tree_height": max(
                (s["cell_tree_height"] for s in per_shard), default=0.0
            ),
            "data_tree_height": max(
                (s["data_tree_height"] for s in per_shard), default=0.0
            ),
            "cell_tree_blocks": sum(
                s["cell_tree_blocks"] for s in per_shard
            ),
        }
