"""Batched query engine: many point queries, one tree walk.

Serving batches is where the solution-space approach shines — a NN query
is a *point query*, and point queries over the same tree share their
descent.  Instead of walking root→leaf once per query, the batched walk
carries a whole *set* of query points down the tree: each node is read
once, its entry rectangles are tested against every live query in one
vectorised containment check, and the query set splits across children.
Page reads (the paper's cost currency) are therefore paid per *node
touched by the batch*, not per query; the candidate distance scan at the
end is likewise one NumPy pass over all (query, owner) pairs.

**Semantics.**  ``query_batch(index, Q)`` returns exactly what calling
``index.nearest(q)`` per row returns — the same ids and bit-identical
distances, including the serial path's tolerance-retry and
branch-and-bound fallback behaviour (ties break to the smallest owner
id, matching ``np.argmin`` over the serially deduplicated candidate
array).  The parity suite in ``tests/engine/test_batch.py`` asserts
this.  Only the *accounting* differs: page counts are amortised, and
diagnostics come back as one :class:`BatchQueryInfo` for the batch.

``batch_size`` bounds how many queries walk together (the vectorised
containment test materialises an ``entries × queries`` mask per node);
``None`` walks the whole batch at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..index.nnsearch import rkv_nearest
from ..index.rstar import RStarTree
from ..obs import workload
from ..obs.tracing import span

__all__ = ["BatchQueryInfo", "batched_point_query", "query_batch"]


@dataclass
class BatchQueryInfo:
    """Aggregated diagnostics of one :func:`query_batch` call.

    The per-query counterpart is :class:`repro.core.nncell_index.QueryInfo`;
    fields here are sums over the batch, except ``pages``, which is the
    *shared* page traffic — the amortisation being measured.
    """

    n_queries: int = 0
    pages: int = 0
    distance_computations: int = 0
    n_candidates: int = 0
    fallbacks: int = 0
    retried_atol: int = 0
    n_batches: int = 0  # internal walks (ceil(n_queries / batch_size))
    #: Sharded serving only: the batch answered without every shard
    #: (every query in the batch shares the casualty list).
    degraded: bool = False
    failed_shards: "Tuple[int, ...]" = ()
    #: Shards that contributed (``None`` outside sharded serving).
    shards_answered: "Optional[int]" = None


def batched_point_query(
    tree: RStarTree, queries: np.ndarray, atol: float = 1e-12
) -> "Tuple[np.ndarray, np.ndarray]":
    """All (query index, entry id) containment pairs in one tree walk.

    The multi-query generalisation of :meth:`RStarTree.point_query`,
    using the same containment arithmetic (``low <= q + atol``); each
    node on the union of the queries' paths is read exactly once.  Pairs
    may repeat when an entry id is stored under several rectangles
    (decomposed cells) — callers deduplicate, as the serial path does.
    """
    q = np.asarray(queries, dtype=np.float64)
    out_queries = []
    out_entries = []
    if q.shape[0]:
        stack = [(tree.root_id, np.arange(q.shape[0]))]
        while stack:
            node_id, live = stack.pop()
            node = tree._read(node_id)
            if node.n_entries == 0:
                continue
            sub = q[live]
            mask = np.all(
                node.lows[:, None, :] <= sub[None, :, :] + atol, axis=2
            )
            mask &= np.all(
                sub[None, :, :] <= node.highs[:, None, :] + atol, axis=2
            )
            if node.is_leaf:
                entry_idx, query_idx = np.nonzero(mask)
                if entry_idx.size:
                    out_queries.append(live[query_idx])
                    out_entries.append(node.ids[entry_idx])
            else:
                for entry in np.flatnonzero(np.any(mask, axis=1)):
                    stack.append(
                        (int(node.ids[entry]), live[np.flatnonzero(mask[entry])])
                    )
    if not out_queries:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return (
        np.concatenate(out_queries).astype(np.int64, copy=False),
        np.concatenate(out_entries).astype(np.int64, copy=False),
    )


def query_batch(
    index, queries: np.ndarray, batch_size: "int | None" = None
) -> "Tuple[np.ndarray, np.ndarray, BatchQueryInfo]":
    """Nearest neighbors of every row of ``queries``.

    Returns ``(ids, distances, info)``; see the module docstring for the
    equivalence guarantee with the serial :meth:`NNCellIndex.nearest`.
    """
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if qs.ndim != 2 or qs.shape[1] != index.dim:
        raise ValueError(f"queries must be (m, {index.dim})")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    m = qs.shape[0]
    info = BatchQueryInfo(n_queries=m)
    ids = np.full(m, -1, dtype=np.int64)
    dists = np.full(m, np.nan)
    if m == 0:
        return ids, dists, info
    size = m if batch_size is None else min(batch_size, m)
    started = time.perf_counter()
    candidates = np.zeros(m, dtype=np.int64)  # per query, for the record
    cells = []
    with span("query.batch", n_queries=m, dim=index.dim,
              batch_size=size) as root:
        for start in range(0, m, size):
            stop = min(start + size, m)
            cells.append(
                _walk_chunk(
                    index, qs[start:stop], ids[start:stop],
                    dists[start:stop], candidates[start:stop], info,
                )
            )
            info.n_batches += 1
        root.set("pages", info.pages)
        root.set("candidates", info.n_candidates)
        root.set("fallbacks", info.fallbacks)
    workload.record_batch(
        qs, ids, dists, info, np.concatenate(cells), candidates, started
    )
    return ids, dists, info


def _walk_chunk(
    index,
    q: np.ndarray,
    ids_out: np.ndarray,
    dists_out: np.ndarray,
    candidates_out: np.ndarray,
    info: BatchQueryInfo,
) -> np.ndarray:
    """One batched walk: point queries, retries, scan, fallbacks.

    ``ids_out``/``dists_out``/``candidates_out`` are writable views into
    the caller's per-query arrays.  Returns the candidate cells scanned,
    query by query.
    """
    atol = index.config.query_atol
    k = q.shape[0]
    # Same arithmetic as MBR.contains_point, vectorised over the chunk.
    inside = np.logical_and(
        np.all(index.box.low - atol <= q, axis=1),
        np.all(q <= index.box.high + atol, axis=1),
    )
    in_box = np.flatnonzero(inside)

    pages_before = index.cell_tree.pages.stats.logical_reads
    with span("query.batch.point_query") as lookup:
        pair_q, pair_owner = batched_point_query(
            index.cell_tree, q[in_box], atol
        )
        pair_q = in_box[pair_q]
        # Chunk-level mirror of the serial tolerance retry: queries whose
        # point query came back empty re-walk once with a looser bound
        # before falling back.
        matched = np.zeros(k, dtype=bool)
        matched[pair_q] = True
        missing = in_box[~matched[in_box]]
        if missing.size:
            info.retried_atol += int(missing.size)
            retry_q, retry_owner = batched_point_query(
                index.cell_tree, q[missing], max(atol * 1e4, 1e-6)
            )
            pair_q = np.concatenate([pair_q, missing[retry_q]])
            pair_owner = np.concatenate([pair_owner, retry_owner])
        chunk_pages = (
            index.cell_tree.pages.stats.logical_reads - pages_before
        )
        info.pages += chunk_pages
        lookup.set("pages", chunk_pages)

    if pair_q.size:
        # Deduplicate (query, owner) pairs — decomposed cells store one
        # owner under several rectangles.  The combined key sorts by
        # query then owner, reproducing the serial np.unique ordering.
        keys = np.unique(pair_q * np.int64(index.points.shape[0]) + pair_owner)
        pair_q = keys // index.points.shape[0]
        pair_owner = keys % index.points.shape[0]
        with span("query.batch.candidate_scan") as scan:
            diff = index.points[pair_owner] - q[pair_q]
            dist_sq = np.einsum("ij,ij->i", diff, diff)
            # Per-query argmin: order by (query, distance, owner) and
            # keep each query's first row — minimum distance, ties to
            # the smallest owner id, exactly like np.argmin over the
            # serially deduplicated candidate array.
            order = np.lexsort((pair_owner, dist_sq, pair_q))
            sorted_q = pair_q[order]
            first = np.ones(sorted_q.size, dtype=bool)
            first[1:] = sorted_q[1:] != sorted_q[:-1]
            best = order[first]
            ids_out[pair_q[best]] = pair_owner[best]
            dists_out[pair_q[best]] = np.sqrt(dist_sq[best])
            info.n_candidates += int(pair_q.size)
            info.distance_computations += int(pair_q.size)
            scan.set("candidates", int(pair_q.size))
        candidates_out += np.bincount(pair_q, minlength=k)

    # Out-of-box queries — and in-box ones still empty after the retry —
    # take the same branch-and-bound fallback as the serial path.
    answered = np.zeros(k, dtype=bool)
    if pair_q.size:
        answered[pair_q] = True
    for j in np.flatnonzero(~answered):
        info.fallbacks += 1
        with span("query.fallback"):
            result = rkv_nearest(index.data_tree, q[j])
        ids_out[j] = result.nearest_id
        dists_out[j] = result.nearest_distance
        info.pages += result.pages
        info.distance_computations += result.distance_computations
    return pair_owner
