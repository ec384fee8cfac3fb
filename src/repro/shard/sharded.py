"""Sharded NN-cell index: partition, scatter, gather — exactly.

A :class:`ShardedNNCellIndex` splits the database across ``n_shards``
independent :class:`~repro.core.nncell_index.NNCellIndex` instances and
answers queries by *scatter-gather*: fan the query out to every live
shard (on the calling thread for small batches, on a thread pool for
large ones or under a resilience policy), then k-merge the per-shard
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

Every query surface answers through one gather (:meth:`_gather`); a
surface keeps only its probe and the shape of its answer.

Global point ids are preserved: shard ``s`` keeps a local→global id map
(a read-only int64 array, replaced whole by a write) and every result is
translated before merging, so ids returned by the
sharded index are the positions in the original build array — the same
ids the unsharded index would return.  ``insert`` routes a new point
through the (deterministic) partitioner; ``delete`` binary-searches the
maps, which ascend (a build lays each out in id order, and a write only
appends a larger id), so no other routing table is kept.

Construction builds the shards one after another on the calling
thread; each shard build honours ``BuildConfig.workers``, so the
:mod:`repro.engine` worker processes (``parallel_cells``) run *inside*
each shard (see docs/sharding.md for tuning guidance).
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
    as_k,
    as_query,
)
from ..engine.batch import BatchQueryInfo
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

#: Most rows per live shard that a scatter with no resilience policy
#: probes on the calling thread; a larger batch goes through the pool.
#: The pool's hand-off costs more than the GIL lets the probes overlap
#: until each shard walks about this many rows.  On a shared 2-vCPU VM
#: (d=6, 2-8 Hilbert shards; the table is in docs/sharding.md) the
#: calling thread answered 2.9-4.6x the pool's q/s for one row, 1.2-1.9x
#: at 32 rows per shard with 50-100 points per shard but 0.84x with 250,
#: and the pool won or tied from 64 rows per shard.  A served flush (at
#: most ``ServeConfig.max_batch_size``, 32 rows) stays below the cut.
_INLINE_ROWS_PER_SHARD = 32


def id_map(ids) -> np.ndarray:
    """A shard's local→global id map: a read-only int64 copy of ``ids``."""
    ids = np.array(ids, dtype=np.int64)
    ids.flags.writeable = False
    return ids


_NO_IDS = id_map([])  # the map of a shard with no rows


def _row(local: int, distance: float, info) -> tuple:
    """One answer as the gather ranks a one-row probe's answers."""
    return (local,), (distance,), info


def _rank_row(gathered, maps, keep: int) -> "Tuple[List[int], List[float]]":
    """One row's ``keep`` best answers over the shards by ``(distance,
    global id)``, as Python ints and floats."""
    ranked = sorted(
        (float(dist), maps[s].item(local))
        for s, (ids, dists, __) in gathered
        for local, dist in zip(ids, dists)
    )[:keep]
    return [gid for __, gid in ranked], [dist for dist, __ in ranked]


def _rank_rows(gathered, maps, rows: int) -> "Tuple[np.ndarray, np.ndarray]":
    """Each of ``rows`` rows' best answer over the shards by ``(distance,
    global id)``: one shard's answers fold in at a time, vectorised."""
    ids = np.full(rows, -1, dtype=np.int64)
    dists = np.full(rows, np.inf)
    for s, (local, local_dists, __) in gathered:
        gids = maps[s][local]
        better = (local_dists < dists) | ((local_dists == dists) & (gids < ids))
        ids[better] = gids[better]
        dists[better] = local_dists[better]
    return ids, dists


def _add_query(total: QueryInfo, gathered, maps) -> None:
    for __, (__, __, part) in gathered:
        total.n_candidates += part.n_candidates
        total.pages += part.pages
        total.distance_computations += part.distance_computations
        total.fallback = total.fallback or part.fallback
        total.retried_atol = total.retried_atol or part.retried_atol


def _add_batch(total: BatchQueryInfo, gathered, maps) -> None:
    for __, (__, __, part) in gathered:
        total.pages += part.pages
        total.distance_computations += part.distance_computations
        total.n_candidates += part.n_candidates
        total.fallbacks += part.fallbacks
        total.retried_atol += part.retried_atol
        total.n_batches += part.n_batches


def _add_explain(total: QueryExplain, gathered, maps) -> None:
    for s, (__, __, part) in gathered:
        owners = maps[s]
        total.retried_atol = total.retried_atol or part.retried_atol
        total.rectangles.extend(
            (owners.item(owner), rect) for owner, rect in part.rectangles
        )
        total.candidates.extend(
            (owners.item(owner), dist) for owner, dist in part.candidates
        )
        total.nodes_visited += part.nodes_visited
        total.pages += part.pages


#: How the gather adds the shards' infos into the total, by info type;
#: ``maps`` are the shards' id maps (an explain's owners are global).
_ADD_INFO = {
    QueryInfo: _add_query,
    BatchQueryInfo: _add_batch,
    QueryExplain: _add_explain,
}


@dataclass(frozen=True)
class ShardConfig:
    """Sharding parameters, orthogonal to the per-shard ``BuildConfig``:
    how many shards, and which partitioner routes points to them.

    A fleet keeps only its fitted partitioner, which holds both; its
    :attr:`ShardedNNCellIndex.shard_config` is read back from it.
    Build parallelism is the per-shard ``BuildConfig.workers``.
    """

    n_shards: int = 4
    partitioner: str = "hash"  # "hash" | "hilbert"

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.partitioner not in PARTITIONER_KINDS:
            raise ValueError(
                f"partitioner must be one of {PARTITIONER_KINDS}"
            )


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
        shard_config = shard_config or ShardConfig()
        partitioner = make_partitioner(
            shard_config.partitioner, shard_config.n_shards, pts
        )
        self._wire(
            pts.copy(), np.ones(pts.shape[0], dtype=bool),
            build_config or BuildConfig(), partitioner,
            [None] * partitioner.n_shards, [],
        )
        self._build()

    def _wire(self, points, active, config, partitioner, shards, globals_):
        """Set every field; the build and the load path both end here."""
        self.config = config
        self.points = points
        self.dim = points.shape[1]
        self.box = config.data_space or MBR.unit_cube(self.dim)
        if self.box.dim != self.dim:
            raise ValueError("data_space dimensionality mismatch")
        # Shards must share one data space: each shard's cells tile the
        # *global* box, which is what makes every shard answer any
        # in-box query exactly (the exactness precondition).
        self._shard_build_config = replace(config, data_space=self.box)
        self.partitioner = partitioner
        self._active = active
        self._shards: "List[Optional[NNCellIndex]]" = shards
        #: Per shard: local row -> global id, a read-only int64 array
        #: that ascends (rows keep their slots on delete, exactly as
        #: NNCellIndex rows do); a write replaces a shard's map by one
        #: assignment.
        self._globals: "List[np.ndarray]" = globals_
        self._pool: "Optional[ThreadPoolExecutor]" = None
        self._resilience: "Optional[ResilienceConfig]" = None
        self._chaos = None  # fault-injection hook (repro.chaos)

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
        """Partition ``points`` and build every shard."""
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
        build_config: BuildConfig,
        partitioner,
        shards: "List[Optional[NNCellIndex]]",
        globals_: "List[np.ndarray]",
    ) -> "ShardedNNCellIndex":
        """Wire a fully-specified instance (persistence load path);
        ``globals_`` are the shards' :func:`id_map` arrays, each
        ascending."""
        self = cls.__new__(cls)
        self._wire(
            np.asarray(points, dtype=np.float64),
            np.asarray(active, dtype=bool),
            build_config, partitioner, shards, globals_,
        )
        return self

    def _build(self) -> None:
        n_shards = self.n_shards
        assignment = self.partitioner.shard_of_batch(self.points)
        members = [np.flatnonzero(assignment == s) for s in range(n_shards)]
        self._globals = [id_map(ids) for ids in members]
        with span(
            "shard.build",
            n_shards=n_shards,
            partitioner=self.partitioner.kind,
        ) as root:
            for s, ids in enumerate(members):
                if ids.size == 0:
                    continue
                with span("shard.build_shard", shard=s, n_points=int(ids.size)):
                    self._shards[s] = NNCellIndex.build(
                        self.points[ids], self._shard_build_config
                    )
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

        With a policy installed every scatter, one query too, runs
        through :func:`repro.shard.resilience.resilient_gather` on the
        scatter pool — per-probe timeouts, backoff retries, hedging,
        optional partial answers — and query infos carry
        ``degraded``/``failed_shards``.  Without one, the
        wait-for-everything gather runs, on the calling thread unless
        the batch is large (:meth:`_scatter`).  The pool is shut down
        here and made again by the next scatter that needs it (a
        resilient pool carries headroom for hedges and retries).
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

    def _scatter_pool(self) -> ThreadPoolExecutor:
        """The persistent fan-out pool, made on first use.

        Only :meth:`_scatter` asks for it, for a batch too large to
        probe on the calling thread or for a scatter under a resilience
        policy.  It holds one thread per shard.  A resilient pool
        instead holds ``2 * n_shards`` — timeouts and hedges need probes
        the gather thread does not sit behind, and the headroom keeps
        hedge duplicates and retries of stuck probes from queueing
        behind the stragglers they are meant to beat.
        """
        if self._pool is None:
            size = self.n_shards
            if self._resilience is not None:
                size *= 2
            self._pool = ThreadPoolExecutor(
                max_workers=size,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def _scatter(
        self, probe: "Callable[[NNCellIndex], object]", rows: int
    ) -> "Tuple[List[Tuple[int, object]], ScatterReport]":
        """Run ``probe`` against every live shard; results in shard order.

        The one place that decides where probes run, from the ``rows``
        each probe answers (1 for ``nearest``, ``k_nearest`` and
        ``explain``, the batch size for ``query_batch``).  With no
        resilience policy, every probe runs on the calling thread, one
        after another in shard order, unless the batch holds more than
        ``_INLINE_ROWS_PER_SHARD`` rows per live shard: only then do the
        probes go to the pool, where threads overlap enough numpy work
        to beat the hand-off.  Under a policy every scatter uses the
        pool.

        Each probe runs under a ``shard.probe`` span and a
        :func:`repro.obs.analytics.shard_scope`.  On the pool, the
        submitting context is re-entered around it
        (:func:`repro.obs.tracing.carrier`); either way shard work nests
        beneath the caller's span — a serve flush span contains the
        scatter — and carries the request's trace id.

        Returns ``(results, report)``: with no resilience policy the
        report is trivially complete and a shard exception propagates
        (on the calling thread, the shards after it are not probed);
        with one, the report accounts retries, hedges, timeouts and —
        under ``allow_partial`` — the shards missing from a degraded
        answer.
        """
        live = self._live_shards()
        resilience = self._resilience
        chaos = self._chaos

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
            report = complete_report([s for s, __ in live])
            if len(live) < 2 or rows <= _INLINE_ROWS_PER_SHARD * len(live):
                return [(s, run((s, shard))) for s, shard in live], report
            pool, submit_ctx = self._scatter_pool(), carrier()
            futures = [
                (s, pool.submit(submit_ctx.call, run, (s, shard)))
                for s, shard in live
            ]
            return [(s, f.result()) for s, f in futures], report

        pool, submit_ctx = self._scatter_pool(), carrier()
        shards = dict(live)

        def submit(s: int):
            return pool.submit(submit_ctx.call, run, (s, shards[s]))

        return resilient_gather([s for s, __ in live], submit, resilience)

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
    def _gather(
        self,
        surface: str,
        probe: "Callable[[NNCellIndex], tuple]",
        rows: int,
        info,
        keep: int = 1,
        **attributes,
    ) -> "Tuple[Sequence, Sequence, List[Tuple[int, tuple]]]":
        """The one scatter-gather behind every query surface.

        Opens ``shard.<surface>`` (with ``attributes``) and scatters
        ``probe`` (:meth:`_scatter`, for ``rows`` query rows), which
        returns a shard's ``(local ids, distances, info)``: an answer per
        row, or one row's answers.  Under ``shard.merge`` it adds each
        shard's info into ``info`` and ranks each row's answers by
        ``(distance, global id)``, keeping ``keep``; then it tags
        ``info`` with the scatter's degradation.  Returns the best ids
        and distances (lists for one row, arrays for more) and the
        shards' results in shard order.
        """
        maps = self._globals
        with span(f"shard.{surface}", **attributes) as root:
            gathered, report = self._scatter(probe, rows)
            with span("shard.merge", results=len(gathered)):
                _ADD_INFO[type(info)](info, gathered, maps)
                if rows == 1:
                    ids, dists = _rank_row(gathered, maps, keep)
                else:
                    ids, dists = _rank_rows(gathered, maps, rows)
            info.degraded = report.degraded
            info.failed_shards = report.failed_shards
            info.shards_answered = report.shards_answered
            root.set("pages", info.pages)
            if not isinstance(info, QueryExplain):  # it lists candidates
                root.set("candidates", info.n_candidates)
            if report.degraded:
                metrics.inc("shard.degraded")
                root.set("degraded", True)
                root.set("failed_shards", list(report.failed_shards))
        return ids, dists, gathered

    def nearest(
        self, query: Sequence[float]
    ) -> "Tuple[int, float, QueryInfo]":
        """Exact global nearest neighbor via scatter-gather.

        Returns ``(global id, distance, info)`` bit-identical to an
        unsharded index over the same points; ``info`` sums the
        per-shard traffic (``fallback``/``retried_atol`` are ORs).
        """
        q = as_query(query, self.dim)
        info = QueryInfo()
        (gid,), (dist,), __ = self._gather(
            "nearest", lambda shard: _row(*shard.nearest(q)), 1, info,
            dim=self.dim,
        )
        workload.record_query(q, gid, dist, info)
        return gid, dist, info

    def k_nearest(
        self, query: Sequence[float], k: int
    ) -> "Tuple[List[int], List[float], QueryInfo]":
        """Exact k nearest neighbors: per-shard top-k, then a k-merge.

        The global top-k is a subset of the union of per-shard top-k's
        (any global top-k member is within its own shard's top-k), so
        merging by ``(distance, global id)`` and truncating is exact.
        ``k`` must be an int >= 1 (:func:`as_k`).
        """
        k = as_k(k)
        q = as_query(query, self.dim)
        keep = min(k, len(self))
        info = QueryInfo()
        ids, dists, __ = self._gather(
            "k_nearest", lambda shard: shard.k_nearest(q, k), 1, info,
            keep=keep, dim=self.dim, k=keep,
        )
        workload.record_k_nearest(info)
        return ids, dists, info

    def query_batch(
        self, queries: np.ndarray, batch_size: "int | None" = None
    ) -> "Tuple[np.ndarray, np.ndarray, BatchQueryInfo]":
        """Batched scatter-gather: one batched walk *per shard*.

        The whole batch fans out to every shard's
        :meth:`NNCellIndex.query_batch` (on the calling thread, or on
        the scatter pool for a large batch — :meth:`_scatter`); winners
        merge per query by ``(distance, global id)``.  Returns
        ``(ids, distances, info)`` with ``info`` aggregating per-shard
        traffic — ``pages`` is the sum over shards (each shard walks
        its own tree).
        """
        qs = as_query(queries, self.dim, batch=True)
        m = qs.shape[0]
        info = BatchQueryInfo(n_queries=m)
        if m == 0:
            return np.empty(0, dtype=np.int64), np.empty(0), info
        ids, dists, __ = self._gather(
            "query_batch",
            lambda shard: shard.query_batch(qs, batch_size=batch_size),
            m, info, n_queries=m,
        )
        ids = np.asarray(ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
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

        Rectangles carry *global* owner ids in shard order, candidates
        too, sorted by ``(distance, global id)``;
        ``nodes_visited``/``pages`` sum over shards and ``retried_atol``
        is an OR; ``path``/``atol`` come from the shard that produced
        the winning answer.  The answer fields agree with
        :meth:`nearest`.
        """
        q = as_query(query, self.dim)
        info = QueryExplain(
            query=q, path="", atol=0.0, retried_atol=False, nearest_id=-1,
            nearest_distance=np.inf, rectangles=[], candidates=[],
            nodes_visited=0, pages=0,
        )

        def probe(shard: NNCellIndex) -> tuple:
            part = shard.explain(q)
            return _row(part.nearest_id, part.nearest_distance, part)

        (gid,), (dist,), gathered = self._gather(
            "explain", probe, 1, info, dim=self.dim
        )
        info.nearest_id, info.nearest_distance = gid, dist
        info.path, info.atol = next(
            (part.path, part.atol)
            for s, (__, __, part) in gathered
            if self._globals[s][part.nearest_id] == gid
        )
        info.candidates.sort(key=lambda pair: (pair[1], pair[0]))
        return info

    # ==================================================================
    # Dynamic updates
    # ==================================================================
    def insert(self, point: Sequence[float]) -> int:
        """Insert a point into the shard its partitioner names; returns
        the global id."""
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
                self._globals[s] = id_map([gid])
            else:
                self._shards[s].insert(p)
                self._globals[s] = id_map(np.append(self._globals[s], gid))
        self.points = np.vstack([self.points, p[None, :]])
        self._active = np.append(self._active, True)
        metrics.inc("shard.insert.count")
        return gid

    def delete(self, point_id: int) -> None:
        """Remove a point from the shard whose map holds it.

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
        # An active id is in exactly one map, and the maps ascend.
        for s, ids in enumerate(self._globals):
            row = int(np.searchsorted(ids, point_id))
            if row < ids.size and ids[row] == point_id:
                break
        shard = self._shards[s]
        with span("shard.delete", shard=s):
            if len(shard) == 1:
                self._shards[s] = None
                self._globals[s] = _NO_IDS
            else:
                shard.delete(row)
        self._active[point_id] = False
        metrics.inc("shard.delete.count")

    # ==================================================================
    # Introspection
    # ==================================================================
    def __len__(self) -> int:
        return int(np.sum(self._active))

    @property
    def n_shards(self) -> int:
        return self.partitioner.n_shards

    @property
    def shard_config(self) -> ShardConfig:
        """The :class:`ShardConfig` the fleet's partitioner was fitted
        with."""
        return ShardConfig(self.partitioner.n_shards, self.partitioner.kind)

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
