"""Workload analytics: access heatmaps, shard load shares, skew reports.

The paper's cost model charges a query by the pages it touches, so the
*distribution* of those touches over cells, pages and shards is the
ground truth every partitioner or cache decision should be made from.
This module turns the raw access stream into that distribution:

* :class:`TopKSketch` — a bounded *space-saving* top-K counter
  (Metwally et al., ICDT 2005) with periodic exponential decay, so the
  hot set tracks the *recent* workload instead of fossilising on the
  first burst.  Memory is O(capacity) regardless of how many distinct
  cells or pages exist;
* :class:`AccessRecorder` — the thread-safe aggregation point: per-cell
  and per-page hit sketches, per-shard query/page/cache counters, and
  the :meth:`~AccessRecorder.report` skew document (load shares, Gini
  coefficient, cache-hit ratio by shard, partitioner-balance verdict);
* a module-level fast path in the house style: every hot-path hook
  (:func:`record_cells`, :func:`record_page`, :func:`record_access`,
  :func:`record_probe`)
  costs one ``is None`` check while no recorder is installed, so the
  index/storage layers stay within the metrics-off overhead contract;
* :func:`shard_scope` — a ``contextvars`` scope entered around each
  shard probe, attributing the cell and page traffic that probe causes
  to its shard (and letting the workload recorder skip the inner
  per-shard ``nearest`` calls a scatter fans out into).

Everything here is off by default; ``serve --analytics`` (or
:func:`install` directly) turns it on.  The report is served live at
``GET /analytics`` and rendered by ``repro analyze``.
"""

from __future__ import annotations

import contextvars
import threading

import numpy as np
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "AccessRecorder",
    "TopKSketch",
    "current_shard",
    "gini",
    "install",
    "uninstall",
    "get_recorder",
    "record_access",
    "record_cells",
    "record_page",
    "record_probe",
    "recording",
    "shard_scope",
    "DEFAULT_SKETCH_CAPACITY",
    "DEFAULT_DECAY_EVERY",
    "DEFAULT_DECAY_FACTOR",
    "DEFAULT_HOT_SHARE_FACTOR",
]

#: Tracked keys per sketch.  Far beyond any top-K an operator
#: inspects, yet a few tens of KiB; sized generously because eviction
#: is the sketch's only O(capacity) operation — while the working set
#: fits, every update is a dict increment.
DEFAULT_SKETCH_CAPACITY = 4096

#: Exponential decay cadence: every this-many recorded hits the whole
#: sketch is scaled by :data:`DEFAULT_DECAY_FACTOR`.  Counting events
#: rather than wall time keeps the sketch deterministic for a given
#: access stream (replayable, testable) while still forgetting cold
#: keys under sustained traffic.
DEFAULT_DECAY_EVERY = 8192

#: Multiplier applied at each decay step; 0.5 halves every cadence.
DEFAULT_DECAY_FACTOR = 0.5

#: A shard is *hot* when its work share exceeds the fair share
#: (``1 / n_shards``) by this factor.  Scatter-gather probes every
#: shard, so per-probe descent cost puts a floor under every shard's
#: share — genuine hotspots land around 1.3-1.4x fair share while
#: balanced fleets stay within ~1.05x; 1.25 splits those cleanly.
DEFAULT_HOT_SHARE_FACTOR = 1.25


def gini(values: "Iterable[float]") -> float:
    """Gini coefficient of a non-negative load distribution.

    0.0 is perfectly balanced, 1.0 is all load on one member.  Empty or
    all-zero input reports 0.0 (no traffic is not skew).
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    total = sum(ordered)
    if n == 0 or total <= 0.0:
        return 0.0
    weighted = sum((2 * i - n + 1) * v for i, v in enumerate(ordered))
    return weighted / (n * total)


class TopKSketch:
    """Bounded heavy-hitter counter with periodic exponential decay.

    The *space-saving* update: a tracked key increments its counter; an
    untracked key evicts the current minimum and inherits its count
    plus one (the classic overestimate bound: a reported count exceeds
    the true count by at most the evicted minimum).  ``decay`` scales
    every counter down, so a key that stops being hit drifts toward the
    eviction floor instead of squatting in the sketch forever.

    Not thread-safe on its own — :class:`AccessRecorder` serialises
    access under its lock.
    """

    __slots__ = ("capacity", "_counts", "_hits", "_evictions")

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY):
        if capacity < 1:
            raise ValueError("sketch capacity must be >= 1")
        self.capacity = int(capacity)
        self._counts: "Dict[int, float]" = {}
        self._hits = 0
        self._evictions = 0

    def hit(self, key: int, amount: float = 1.0) -> None:
        counts = self._counts
        self._hits += 1
        existing = counts.get(key)
        if existing is not None:
            counts[key] = existing + amount
            return
        if len(counts) < self.capacity:
            counts[key] = amount
            return
        victim = min(counts, key=counts.__getitem__)
        floor = counts.pop(victim)
        counts[key] = floor + amount
        self._evictions += 1

    def hit_all(self, keys: "List[int]") -> None:
        """:meth:`hit` each key once.  The record hooks pass a query's
        dozens of cells or pages at a time, so the update is inlined per
        key (a few dict operations each)."""
        counts = self._counts
        capacity = self.capacity
        self._hits += len(keys)
        for key in keys:
            existing = counts.get(key)
            if existing is not None:
                counts[key] = existing + 1.0
            elif len(counts) < capacity:
                counts[key] = 1.0
            else:
                victim = min(counts, key=counts.__getitem__)
                counts[key] = counts.pop(victim) + 1.0
                self._evictions += 1

    def decay(self, factor: float) -> None:
        """Scale every counter by ``factor``, dropping near-zero keys."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        counts = self._counts
        for key in list(counts):
            scaled = counts[key] * factor
            if scaled < 0.5:  # below half a hit: forget the key
                del counts[key]
            else:
                counts[key] = scaled
        self._hits = int(self._hits * factor)

    def top(self, k: int) -> "List[Tuple[int, float]]":
        """The ``k`` hottest keys as ``(key, estimated_count)`` pairs,
        hottest first (ties broken by key for determinism)."""
        ranked = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[: max(0, int(k))]

    def __len__(self) -> int:
        return len(self._counts)

    def as_dict(self, k: int = 10) -> "Dict[str, object]":
        return {
            "tracked": len(self._counts),
            "capacity": self.capacity,
            "hits": self._hits,
            "evictions": self._evictions,
            "top": [
                {"key": key, "count": round(count, 3)}
                for key, count in self.top(k)
            ],
        }


class _ShardTally:
    """Per-shard access totals (lock held by the recorder)."""

    __slots__ = (
        "probes", "pages", "blocks", "cells", "cache_hits", "cache_misses"
    )

    def __init__(self):
        self.probes = 0
        self.pages = 0
        self.blocks = 0
        self.cells = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def work(self) -> int:
        """Work units: blocks read plus candidate cells scanned — the
        paper's two cost currencies (page accesses + CPU)."""
        return self.blocks + self.cells


#: Key for traffic recorded outside any shard scope (unsharded index,
#: or the serving layer's own reads).
UNSHARDED = -1


class AccessRecorder:
    """Thread-safe aggregation of the cell/page/shard access stream.

    One lock serialises updates; each hook is a dict update plus a
    sketch hit, so recording stays well inside the ≤10%-vs-metrics-only
    overhead budget the bench gate enforces.
    """

    def __init__(
        self,
        sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
        decay_every: int = DEFAULT_DECAY_EVERY,
        decay_factor: float = DEFAULT_DECAY_FACTOR,
        hot_share_factor: float = DEFAULT_HOT_SHARE_FACTOR,
    ):
        if decay_every < 1:
            raise ValueError("decay_every must be >= 1")
        if not 0.0 < decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        self._lock = threading.Lock()
        self.cells = TopKSketch(sketch_capacity)
        self.pages = TopKSketch(sketch_capacity)
        self.decay_every = int(decay_every)
        self.decay_factor = float(decay_factor)
        self.hot_share_factor = float(hot_share_factor)
        self._events_since_decay = 0
        self._shards: "Dict[int, _ShardTally]" = {}

    # ------------------------------------------------------------------
    # Recording hooks (called via the module fast path)
    # ------------------------------------------------------------------
    def _tally(self, shard: "Optional[int]") -> _ShardTally:
        key = UNSHARDED if shard is None else int(shard)
        tally = self._shards.get(key)
        if tally is None:
            tally = self._shards[key] = _ShardTally()
        return tally

    def _tick(self, n: int = 1) -> None:
        self._events_since_decay += n
        if self._events_since_decay >= self.decay_every:
            self._events_since_decay = 0
            self.cells.decay(self.decay_factor)
            self.pages.decay(self.decay_factor)

    def record_cells(
        self, cell_ids: "Iterable[int]", shard: "Optional[int]" = None
    ) -> None:
        """Count one query's candidate cells against the heatmap."""
        with self._lock:
            self._count_cells(cell_ids, shard)

    def record_page(
        self,
        page_id: int,
        n_blocks: int = 1,
        hit: "Optional[bool]" = None,
        shard: "Optional[int]" = None,
    ) -> None:
        """Count one page read; ``hit`` attributes the cache outcome."""
        with self._lock:
            self._count_pages([int(page_id)], int(n_blocks), shard)
            tally = self._tally(shard)
            if hit is True:
                tally.cache_hits += 1
            elif hit is False:
                tally.cache_misses += 1

    def record_access(
        self,
        cell_ids: "Optional[Iterable[int]]",
        page_ids: "Iterable[int]",
        blocks: int,
        shard: "Optional[int]" = None,
    ) -> None:
        """One query's (or batch's) accesses under one lock: the pages
        its cell-tree walks read (``blocks`` in all), each as
        :meth:`record_page` counts one with no cache outcome (a walk
        reads a snapshot, not the buffer pool), then its candidate cells
        (``None``: none to count)."""
        with self._lock:
            self._count_pages(page_ids, blocks, shard)
            if cell_ids is not None:
                self._count_cells(cell_ids, shard)

    def _count_cells(
        self, cell_ids: "Iterable[int]", shard: "Optional[int]"
    ) -> None:
        """The cell update (lock held)."""
        if isinstance(cell_ids, np.ndarray):
            keys = cell_ids.tolist()
        else:
            keys = [int(cell_id) for cell_id in cell_ids]
        if not keys:
            return
        self.cells.hit_all(keys)
        self._tally(shard).cells += len(keys)
        self._tick(len(keys))

    def _count_pages(
        self, page_ids: "Iterable[int]", blocks: int, shard: "Optional[int]"
    ) -> None:
        """The page update (lock held): ``page_ids`` read, ``blocks`` in
        all."""
        if isinstance(page_ids, np.ndarray):
            keys = page_ids.tolist()
        else:
            keys = [int(page_id) for page_id in page_ids]
        if not keys:
            return
        self.pages.hit_all(keys)
        tally = self._tally(shard)
        tally.pages += len(keys)
        tally.blocks += int(blocks)
        self._tick(len(keys))

    def record_probe(self, shard: "Optional[int]" = None) -> None:
        """Count one query probe against ``shard``'s load share."""
        with self._lock:
            self._tally(shard).probes += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, top_k: int = 10) -> "Dict[str, object]":
        """The JSON-ready skew report (``GET /analytics``,
        ``repro analyze``).

        ``shards`` carries per-shard load share and cache-hit ratio.
        Because a scatter-gather probes *every* shard, probe counts are
        uniform by construction; ``load_share`` therefore measures each
        shard's share of the *work* — blocks read plus candidate cells
        scanned, the paper's two cost currencies.  ``verdict`` names
        the shards whose work share exceeds ``hot_share_factor`` times
        the fair share — the shards a re-partition would relieve.
        """
        with self._lock:
            shard_ids = sorted(
                s for s in self._shards if s != UNSHARDED
            )
            total_probes = sum(
                t.probes for s, t in self._shards.items() if s != UNSHARDED
            )
            total_work = sum(
                t.work() for s, t in self._shards.items() if s != UNSHARDED
            )
            shards: "Dict[str, object]" = {}
            shares: "List[float]" = []
            hot: "List[int]" = []
            fair = 1.0 / len(shard_ids) if shard_ids else 0.0
            for shard in shard_ids:
                tally = self._shards[shard]
                share = (
                    tally.work() / total_work if total_work else 0.0
                )
                shares.append(share)
                lookups = tally.cache_hits + tally.cache_misses
                if share > fair * self.hot_share_factor:
                    hot.append(shard)
                shards[str(shard)] = {
                    "probes": tally.probes,
                    "pages": tally.pages,
                    "blocks": tally.blocks,
                    "cells": tally.cells,
                    "work": tally.work(),
                    "load_share": round(share, 4),
                    "cache_hits": tally.cache_hits,
                    "cache_misses": tally.cache_misses,
                    "cache_hit_ratio": (
                        round(tally.cache_hits / lookups, 4)
                        if lookups
                        else None
                    ),
                }
            unsharded = self._shards.get(UNSHARDED)
            load_gini = gini(shares)
            balanced = not hot
            if not shard_ids:
                advice = "no sharded traffic observed"
            elif balanced:
                advice = (
                    f"work is balanced (gini {load_gini:.3f});"
                    f" no re-partition needed"
                )
            else:
                named = ", ".join(str(s) for s in hot)
                advice = (
                    f"shard(s) {named} absorb more than"
                    f" {self.hot_share_factor:.2f}x the fair work share;"
                    f" a re-partition (or finer shard count) would"
                    f" relieve them"
                )
            document: "Dict[str, object]" = {
                "format": "repro.analytics",
                "version": 1,
                "shards": shards,
                "total_probes": total_probes,
                "gini": round(load_gini, 4),
                "hot_cells": self.cells.as_dict(top_k),
                "hot_pages": self.pages.as_dict(top_k),
                "verdict": {
                    "balanced": balanced,
                    "hot_shards": hot,
                    "gini": round(load_gini, 4),
                    "advice": advice,
                },
            }
            if unsharded is not None:
                lookups = unsharded.cache_hits + unsharded.cache_misses
                document["unsharded"] = {
                    "probes": unsharded.probes,
                    "pages": unsharded.pages,
                    "blocks": unsharded.blocks,
                    "cells": unsharded.cells,
                    "cache_hits": unsharded.cache_hits,
                    "cache_misses": unsharded.cache_misses,
                    "cache_hit_ratio": (
                        round(unsharded.cache_hits / lookups, 4)
                        if lookups
                        else None
                    ),
                }
            return document

    def reset(self) -> None:
        with self._lock:
            self.cells = TopKSketch(self.cells.capacity)
            self.pages = TopKSketch(self.pages.capacity)
            self._shards.clear()
            self._events_since_decay = 0


# ======================================================================
# Module-level fast path (house style: one `is None` check when off)
# ======================================================================

_recorder: "Optional[AccessRecorder]" = None

#: The shard whose probe is currently executing on this thread/task.
_shard_scope: "contextvars.ContextVar[Optional[int]]" = (
    contextvars.ContextVar("repro_analytics_shard", default=None)
)


def install(
    recorder: "Optional[AccessRecorder]" = None,
) -> AccessRecorder:
    """Install (and return) the process-wide access recorder."""
    global _recorder
    _recorder = recorder if recorder is not None else AccessRecorder()
    return _recorder


def uninstall() -> None:
    """Remove the access recorder; hooks return to the one-check path."""
    global _recorder
    _recorder = None


def get_recorder() -> "Optional[AccessRecorder]":
    """The installed recorder, or ``None``."""
    return _recorder


@contextmanager
def recording(
    recorder: "Optional[AccessRecorder]" = None,
) -> "Iterator[AccessRecorder]":
    """Install a recorder for a ``with`` block, restoring the previous
    one afterwards (tests, ``repro analyze`` offline runs)."""
    global _recorder
    previous = _recorder
    installed = install(recorder)
    try:
        yield installed
    finally:
        _recorder = previous


@contextmanager
def shard_scope(shard: int) -> "Iterator[None]":
    """Attribute cell/page traffic in the block to ``shard``.

    Entered around each scatter probe; also consulted by the workload
    recorder to skip the inner per-shard ``nearest`` calls (the outer
    sharded query is the one captured).
    """
    token = _shard_scope.set(int(shard))
    try:
        yield
    finally:
        _shard_scope.reset(token)


def current_shard() -> "Optional[int]":
    """The shard scope of the calling context, or ``None``."""
    return _shard_scope.get()


def record_cells(cell_ids: "Iterable[int]") -> None:
    """Hot-path hook: count a query's candidate cells (no-op when off)."""
    recorder = _recorder
    if recorder is None:
        return
    recorder.record_cells(cell_ids, _shard_scope.get())


def record_page(
    page_id: int, n_blocks: int = 1, hit: "Optional[bool]" = None
) -> None:
    """Hot-path hook: count one page read (no-op when off)."""
    recorder = _recorder
    if recorder is None:
        return
    recorder.record_page(page_id, n_blocks, hit, _shard_scope.get())


def record_access(
    cell_ids: "Optional[Iterable[int]]",
    page_ids: "Iterable[int]",
    blocks: int,
) -> None:
    """Hook: count a query's walk pages, then its cells (no-op when
    off); see :meth:`AccessRecorder.record_access`."""
    recorder = _recorder
    if recorder is None:
        return
    recorder.record_access(cell_ids, page_ids, blocks, _shard_scope.get())


def record_probe(shard: int) -> None:
    """Hot-path hook: count one shard probe (no-op when off)."""
    recorder = _recorder
    if recorder is None:
        return
    recorder.record_probe(shard)
