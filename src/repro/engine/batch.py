"""Batched query engine: many point queries, one tree walk.

Serving batches is where the solution-space approach shines — a NN query
is a *point query*, and point queries over the same tree share their
descent.  :func:`batched_point_query` (the one walk of
:mod:`repro.index.packed`, which ``nearest`` runs as a batch of one)
carries a whole *set* of query points down the index's packed snapshot:
each level tests the entries of the nodes reached against the queries
that reached them in one vectorised pass.  Page reads (the paper's
cost currency) are therefore paid per *node touched by the batch*, not
per query; the candidate distance scan at the end is likewise one NumPy
pass over all (query, owner) pairs.

**Semantics.**  ``query_batch(index, Q)`` returns exactly what calling
``index.nearest(q)`` per row returns — the same ids and bit-identical
distances, including the serial path's tolerance-retry and
branch-and-bound fallback behaviour (ties break to the smallest owner
id, matching ``np.argmin`` over the serially deduplicated candidate
array).  The parity suite in ``tests/engine/test_batch.py`` asserts
this.  Only the *accounting* differs: page counts are amortised, and
diagnostics come back as one :class:`BatchQueryInfo` for the batch.

``batch_size`` bounds how many queries walk together (the vectorised
containment test of a level materialises a few bytes per (query,
entry) pair tested, per axis); ``None`` walks the whole batch at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.nncell_index import as_query
from ..index.packed import batched_point_query, rkv_nearest
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


def query_batch(
    index, queries: np.ndarray, batch_size: "int | None" = None
) -> "Tuple[np.ndarray, np.ndarray, BatchQueryInfo]":
    """Nearest neighbors of every row of ``queries``.

    Returns ``(ids, distances, info)``; see the module docstring for the
    equivalence guarantee with the serial :meth:`NNCellIndex.nearest`.
    """
    qs = as_query(queries, index.dim, batch=True)
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
    walks = []
    # One version of both snapshots for the whole batch.
    snapshot, data = index.snapshot, index.data_snapshot
    with span("query.batch", n_queries=m, dim=index.dim,
              batch_size=size) as root:
        for start in range(0, m, size):
            stop = min(start + size, m)
            cells.append(
                _walk_chunk(
                    index, snapshot, data, qs[start:stop], ids[start:stop],
                    dists[start:stop], candidates[start:stop], info, walks,
                )
            )
            info.n_batches += 1
        root.set("pages", info.pages)
        root.set("candidates", info.n_candidates)
        root.set("fallbacks", info.fallbacks)
    workload.record_batch(
        qs, ids, dists, info, np.concatenate(cells), candidates, started,
        reads=walks,
    )
    return ids, dists, info


def _walk_chunk(
    index,
    snapshot,
    data,
    q: np.ndarray,
    ids_out: np.ndarray,
    dists_out: np.ndarray,
    candidates_out: np.ndarray,
    info: BatchQueryInfo,
    walks: list,
) -> np.ndarray:
    """One batched walk: point queries, retries, scan, fallbacks.

    ``ids_out``/``dists_out``/``candidates_out`` are writable views into
    the caller's per-query arrays, and the walks are appended to
    ``walks``.  Returns the candidate cells scanned, query by query.
    """
    atol = index.config.query_atol
    k = q.shape[0]
    # Same arithmetic as MBR.contains_point, vectorised over the chunk.
    inside = np.logical_and(
        np.all(index.box.low - atol <= q, axis=1),
        np.all(q <= index.box.high + atol, axis=1),
    )
    in_box = np.flatnonzero(inside)

    with span("query.batch.point_query") as lookup:
        walk = batched_point_query(snapshot, q[in_box], atol, index._chaos)
        walks.append(walk)
        chunk_pages = walk.pages
        pair_q = in_box[walk.query]
        pair_owner = walk.owner
        # Chunk-level mirror of the serial tolerance retry: queries whose
        # point query came back empty re-walk once with a looser bound
        # before falling back.
        matched = np.zeros(k, dtype=bool)
        matched[pair_q] = True
        missing = in_box[~matched[in_box]]
        if missing.size:
            info.retried_atol += int(missing.size)
            retry = batched_point_query(
                snapshot, q[missing], index.config.retry_atol, index._chaos
            )
            walks.append(retry)
            chunk_pages += retry.pages
            pair_q = np.concatenate([pair_q, missing[retry.query]])
            pair_owner = np.concatenate([pair_owner, retry.owner])
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
            result = rkv_nearest(data, q[j], index._chaos)
        ids_out[j] = result.nearest_id
        dists_out[j] = result.nearest_distance
        info.pages += result.pages
        info.distance_computations += result.distance_computations
    return pair_owner
