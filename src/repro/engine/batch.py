"""The one query path: a batch of query rows against one version.

Every unsharded NN query is answered by :func:`answer`: ``nearest``,
``explain`` and ``k_nearest`` pass it one row, :func:`query_batch` one
chunk of rows at a time.  The caller pins one version of the index (the
cell snapshot, the data snapshot and ``points``), and for each row
``answer`` runs the paper's procedure: the data-space test; one walk of
the packed cell snapshot at ``query_atol`` (:func:`batched_point_query`
carries every row down the tree at once), then one retry at
``retry_atol`` for the rows it left empty; one dedupe of the (row,
owner) pairs, as a decomposed cell stores an owner under several
rectangles; one distance scan, ties going to the smallest owner id; and
branch-and-bound on the data snapshot for the rows outside the data
space or still empty.

A batch pays a page (the paper's cost currency) per node its walk
touches, not per row.  ``query_batch`` returns what ``nearest`` returns
row by row, ids and distance bits alike; only the accounting differs.
``batch_size`` bounds how many rows walk together (a level's vectorised
containment test materialises a few bytes per (row, entry) pair, per
axis); ``None`` walks the whole batch at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

# A module import: repro.core.nncell_index imports this module.
from ..core import nncell_index
from ..index.packed import PackedTree, Walk, batched_point_query, rkv_nearest
from ..obs import workload
from ..obs.tracing import span

__all__ = [
    "Answer", "BatchQueryInfo", "answer", "batched_point_query", "query_batch",
]

_NO_PAIRS, _NO_DISTANCES = np.zeros(0, dtype=np.int64), np.zeros(0)


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


class Answer(NamedTuple):
    """What :func:`answer` found for a batch of rows, and what it read."""

    #: Each row's nearest point id and distance (``-1`` and NaN for a row
    #: left to the caller's own fallback).
    ids: np.ndarray
    dists: np.ndarray
    #: The deduplicated (row, owner) candidate pairs, by row then owner,
    #: with their squared distances.
    pair_q: np.ndarray
    pair_owner: np.ndarray
    pair_dist_sq: np.ndarray
    #: The cell-snapshot walks: none when no row is inside the data
    #: space, else the first and, if any row was retried, the retry.
    walks: "List[Walk]"
    retried: np.ndarray  # rows walked again at retry_atol, ascending
    fallback: np.ndarray  # rows with no candidate, ascending
    #: Pages of the walks and of the fallback searches.
    pages: int
    distance_computations: int


def answer(
    index,
    snapshot: PackedTree,
    data: PackedTree,
    points: np.ndarray,
    q: np.ndarray,
    fallback: bool = True,
) -> Answer:
    """The answers of the ``(m, d)`` rows ``q`` on one version of
    ``index``: its cell snapshot ``snapshot``, its data snapshot ``data``
    and its ``points``.

    Runs the procedure of the module docstring.  Without ``fallback``
    the rows that need branch-and-bound keep id ``-1`` and are only
    flagged, for a caller that searches the data snapshot its own way
    (``k_nearest``).
    """
    config, chaos = index.config, index._chaos
    m = q.shape[0]
    space = index.query_space
    in_box = ((space.low <= q) & (q <= space.high)).all(axis=1).nonzero()[0]
    walks: "List[Walk]" = []
    pair_q = pair_owner = retried = _NO_PAIRS
    dist_sq = _NO_DISTANCES
    best = _NO_PAIRS  # each answered row's pair, by row
    pages = 0
    if in_box.size:
        with span("query.point_query") as lookup:
            walk = batched_point_query(
                snapshot, q if in_box.size == m else q[in_box],
                config.query_atol, chaos,
            )
            walks.append(walk)
            pages = walk.pages
            pair_q, pair_owner = in_box[walk.query], walk.owner
            if not pair_q.size:
                retried = in_box
            elif in_box.size > 1:
                hit = np.zeros(m, dtype=bool)
                hit[pair_q] = True
                retried = in_box[~hit[in_box]]
            if retried.size:
                retry = batched_point_query(
                    snapshot, q[retried], config.retry_atol, chaos
                )
                walks.append(retry)
                pages += retry.pages
                pair_q = np.concatenate([pair_q, retried[retry.query]])
                pair_owner = np.concatenate([pair_owner, retry.owner])
            lookup.set("pages", pages)
    if pair_q.size:
        if in_box.size == 1:  # every pair is that row's
            pair_owner = np.unique(pair_owner)
            pair_q = pair_q[:pair_owner.size]
        else:
            # The combined key sorts by row, then owner.
            n = np.int64(points.shape[0])
            keys = np.unique(pair_q * n + pair_owner)
            pair_q, pair_owner = keys // n, keys % n
        with span("query.candidate_scan") as scan:
            diff = points[pair_owner] - q[pair_q]
            dist_sq = np.einsum("ij,ij->i", diff, diff)
            if in_box.size == 1:
                # The first least distance: the owners ascend, so a
                # tie goes to the smallest.
                best = dist_sq.argmin(keepdims=True)
            else:
                # Each row's first pair by (row, distance, owner).
                order = np.lexsort((pair_owner, dist_sq, pair_q))
                sorted_q = pair_q[order]
                first = np.ones(sorted_q.size, dtype=bool)
                first[1:] = sorted_q[1:] != sorted_q[:-1]
                best = order[first]
            scan.set("candidates", int(pair_q.size))
    computations = pair_q.size
    if best.size == m:  # every row is answered, in row order
        ids, dists, fell = pair_owner[best], np.sqrt(dist_sq[best]), _NO_PAIRS
    else:
        ids = np.full(m, -1, dtype=np.int64)
        dists = np.full(m, np.nan)
        ids[pair_q[best]] = pair_owner[best]
        dists[pair_q[best]] = np.sqrt(dist_sq[best])
        fell = (ids < 0).nonzero()[0]
    if fallback:
        for j in fell.tolist():
            with span("query.fallback"):
                result = rkv_nearest(data, q[j], chaos)
            ids[j] = result.nearest_id
            dists[j] = result.nearest_distance
            pages += result.pages
            computations += result.distance_computations
    return Answer(
        ids, dists, pair_q, pair_owner, dist_sq, walks, retried, fell,
        pages, computations,
    )


def query_batch(
    index, queries: np.ndarray, batch_size: "int | None" = None
) -> "Tuple[np.ndarray, np.ndarray, BatchQueryInfo]":
    """Nearest neighbors of every row of ``queries``.

    Returns ``(ids, distances, info)``: per row what
    :meth:`NNCellIndex.nearest` returns, from one version of ``index``
    pinned for the whole batch (see the module docstring).
    """
    qs = nncell_index.as_query(queries, index.dim, batch=True)
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    m = qs.shape[0]
    info = BatchQueryInfo(n_queries=m)
    if m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0), info
    size = m if batch_size is None else min(batch_size, m)
    started = time.perf_counter()
    snapshot, data, points = index.snapshot, index.data_snapshot, index.points
    chunks: "List[Answer]" = []
    walks: "List[Walk]" = []
    with span("query.batch", n_queries=m, dim=index.dim,
              batch_size=size) as root:
        for start in range(0, m, size):
            chunk = answer(index, snapshot, data, points, qs[start:start + size])
            chunks.append(chunk)
            walks += chunk.walks
            info.pages += chunk.pages
            info.n_candidates += chunk.pair_q.size
            info.distance_computations += chunk.distance_computations
            info.fallbacks += chunk.fallback.size
            info.retried_atol += chunk.retried.size
            info.n_batches += 1
        root.set("pages", info.pages)
        root.set("candidates", info.n_candidates)
        root.set("fallbacks", info.fallbacks)
    ids = _joined([chunk.ids for chunk in chunks])
    dists = _joined([chunk.dists for chunk in chunks])
    workload.record_batch(
        qs, ids, dists, info, _joined([chunk.pair_owner for chunk in chunks]),
        _joined([
            np.bincount(chunk.pair_q, minlength=chunk.ids.size)
            for chunk in chunks
        ]),
        started, reads=walks,
    )
    return ids, dists, info


def _joined(arrays: "List[np.ndarray]") -> np.ndarray:
    """``arrays`` end to end (the one array itself when there is one)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
