"""Paged storage simulation.

The paper's evaluation is driven by *page accesses*: every index node lives
on a disk block (4 KBytes in the paper's experiments) and the reported
curves compare the number of blocks read plus CPU time.  This module
simulates that storage layer:

* :class:`PageManager` hands out fixed-size pages, tracks logical reads and
  writes, and routes reads through an optional LRU buffer
  (:mod:`repro.storage.cache`) so cache hits can be separated from physical
  accesses — the paper grants each index "the same amount of cache";
* :class:`AccessStats` is the counter bundle the evaluation harness
  snapshots around each query;
* :func:`chaos_read`, :func:`read_page` and :func:`record_reads` are the
  page hooks of a read made outside a :class:`PageManager`: the packed
  snapshots' walks and searches (:mod:`repro.index.packed`) count their
  own pages and call them.

Pages store opaque Python payloads; *capacity* questions (how many entries
fit in a node) are answered by :func:`entries_per_page` from the byte
sizes of an entry, matching how block-based trees size their fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from ..obs import analytics, metrics
from .cache import LRUCache

__all__ = [
    "AccessStats",
    "PageManager",
    "DEFAULT_PAGE_SIZE",
    "FLAKY_READ_RETRIES",
    "chaos_read",
    "entries_per_page",
    "read_page",
    "record_reads",
]

DEFAULT_PAGE_SIZE = 4096  # bytes; the paper uses 4 KByte blocks

#: Transient-read retry budget: a chaos-injected
#: :class:`~repro.chaos.faults.FlakyPageRead` is re-attempted this many
#: times before propagating to the caller (and, in a sharded deployment,
#: failing that probe attempt).
FLAKY_READ_RETRIES = 3


def chaos_read(injector, page_id: int) -> None:
    """Run ``injector.page_read(page_id)`` with the flaky-read retries.

    ``injector`` duck-types :class:`repro.chaos.ChaosInjector`.  Each
    :class:`~repro.chaos.faults.FlakyPageRead` counts
    ``storage.flaky_reads`` and is retried up to
    :data:`FLAKY_READ_RETRIES` times before it propagates.
    """
    from ..chaos.faults import FlakyPageRead  # stdlib-only module

    last: "Optional[BaseException]" = None
    for __ in range(FLAKY_READ_RETRIES + 1):
        try:
            injector.page_read(page_id)
            return
        except FlakyPageRead as err:
            metrics.inc("storage.flaky_reads")
            last = err
    raise last


def entries_per_page(
    page_size: int, entry_bytes: int, header_bytes: int = 32
) -> int:
    """How many fixed-size entries fit in one page (at least 2, so tree
    nodes always admit a legal split)."""
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    if entry_bytes <= 0:
        raise ValueError("entry_bytes must be positive")
    return max(2, (page_size - header_bytes) // entry_bytes)


def read_page(injector, page_id: int) -> None:
    """One one-block read of ``page_id`` made outside a
    :class:`PageManager`, published as an uncached
    :meth:`PageManager.read` publishes it: ``injector`` (``None``, or a
    :class:`repro.chaos.ChaosInjector`) runs first, through
    :func:`chaos_read`, then the read counts once in
    ``storage.logical_reads`` and ``storage.physical_reads`` and once on
    the page heatmap."""
    if injector is not None:
        chaos_read(injector, page_id)
    metrics.inc("storage.logical_reads")
    metrics.inc("storage.physical_reads")
    analytics.record_page(page_id)


def record_reads(page_ids: "Iterable[int]", blocks: int) -> None:
    """Publish page reads made outside a :class:`PageManager`.

    Adds their ``blocks`` to ``storage.logical_reads`` and
    ``storage.physical_reads`` (such reads bypass the buffer pool) and
    counts each page on the access heatmap with no cache outcome.  The
    query record (:mod:`repro.obs.workload`) does the same inside its own
    update; this is for the reads without one (``explain``'s walks and
    the level-by-level data searches).
    """
    if blocks:
        metrics.inc("storage.logical_reads", blocks)
        metrics.inc("storage.physical_reads", blocks)
    analytics.record_access(None, page_ids, blocks)


@dataclass
class AccessStats:
    """Counters of logical and physical page traffic."""

    logical_reads: int = 0
    physical_reads: int = 0
    logical_writes: int = 0
    physical_writes: int = 0

    def snapshot(self) -> "AccessStats":
        """Copy of the current counter values."""
        return AccessStats(
            self.logical_reads,
            self.physical_reads,
            self.logical_writes,
            self.physical_writes,
        )

    def delta_since(self, earlier: "AccessStats") -> "AccessStats":
        """Counter increments since an earlier snapshot."""
        return AccessStats(
            self.logical_reads - earlier.logical_reads,
            self.physical_reads - earlier.physical_reads,
            self.logical_writes - earlier.logical_writes,
            self.physical_writes - earlier.physical_writes,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.logical_reads = 0
        self.physical_reads = 0
        self.logical_writes = 0
        self.physical_writes = 0


@dataclass
class _Page:
    page_id: int
    payload: Any = None
    n_blocks: int = 1  # X-tree supernodes span several blocks


class PageManager:
    """Fixed-page-size storage with access accounting and an LRU buffer.

    ``cache_pages`` is the buffer-pool capacity in pages; zero disables
    caching so every logical read is also a physical read.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 0,
    ):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if cache_pages < 0:
            raise ValueError("cache_pages must be >= 0")
        self.page_size = page_size
        self.stats = AccessStats()
        self._pages: Dict[int, _Page] = {}
        self._next_id = 0
        self._cache: Optional[LRUCache] = (
            LRUCache(cache_pages) if cache_pages else None
        )
        self._chaos = None  # fault-injection hook (repro.chaos)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def entries_per_page(self, entry_bytes: int, header_bytes: int = 32) -> int:
        """:func:`entries_per_page` of this manager's pages."""
        return entries_per_page(self.page_size, entry_bytes, header_bytes)

    # ------------------------------------------------------------------
    # Page lifecycle
    # ------------------------------------------------------------------
    def allocate(self, payload: Any = None, n_blocks: int = 1) -> int:
        """Create a page (``n_blocks`` > 1 models a supernode) and return
        its id.  Allocation counts as a write of ``n_blocks`` blocks."""
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = _Page(page_id, payload, n_blocks)
        self._count_write(n_blocks)
        self._cache_put(page_id, n_blocks)
        return page_id

    def set_chaos(self, injector) -> None:
        """Install (or, with ``None``, remove) a read-fault injector.

        Every read runs it through :func:`chaos_read`.  A single
        ``is None`` check when disabled — clean reads pay nothing.
        """
        self._chaos = injector

    def read(self, page_id: int) -> Any:
        """Fetch a page payload, counting the access."""
        page = self._pages.get(page_id)
        if page is None:
            raise KeyError(f"page {page_id} does not exist")
        if self._chaos is not None:
            chaos_read(self._chaos, page_id)
        self.stats.logical_reads += page.n_blocks
        metrics.inc("storage.logical_reads", page.n_blocks)
        if self._cache is None:
            self.stats.physical_reads += page.n_blocks
            metrics.inc("storage.physical_reads", page.n_blocks)
            analytics.record_page(page_id, page.n_blocks)
        elif not self._cache.touch(page_id):
            self.stats.physical_reads += page.n_blocks
            metrics.inc("storage.physical_reads", page.n_blocks)
            self._cache_put(page_id, page.n_blocks)
            analytics.record_page(page_id, page.n_blocks, hit=False)
        else:
            analytics.record_page(page_id, page.n_blocks, hit=True)
        return page.payload

    def write(self, page_id: int, payload: Any, n_blocks: "int | None" = None) -> None:
        """Overwrite a page payload, counting the access.  Passing
        ``n_blocks`` resizes the page (supernode growth/shrink)."""
        page = self._pages.get(page_id)
        if page is None:
            raise KeyError(f"page {page_id} does not exist")
        if n_blocks is not None:
            if n_blocks < 1:
                raise ValueError("n_blocks must be >= 1")
            page.n_blocks = n_blocks
        page.payload = payload
        self._count_write(page.n_blocks)
        self._cache_put(page_id, page.n_blocks)

    def _cache_put(self, page_id: int, n_blocks: int) -> None:
        """Admit a page to the buffer pool, bypassing oversized ones.

        A supernode wider than the whole pool can never be held within
        capacity (``LRUCache.put`` refuses it with a
        :class:`~repro.storage.cache.CacheCapacityError`); it reads
        uncached instead.  Any stale cached entry under the same id is
        dropped so a page *resized* past capacity cannot linger with its
        old block count.
        """
        if self._cache is None:
            return
        if n_blocks > self._cache.capacity_blocks:
            self._cache.evict(page_id)
            return
        self._cache.put(page_id, True, n_blocks)

    def free(self, page_id: int) -> None:
        """Release a page (and its buffer-pool slot)."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} does not exist")
        del self._pages[page_id]
        if self._cache is not None:
            self._cache.evict(page_id)

    def n_blocks_of(self, page_id: int) -> int:
        """Disk blocks occupied by ``page_id``."""
        return self._pages[page_id].n_blocks

    @property
    def next_page_id(self) -> int:
        """The id the next :meth:`allocate` returns."""
        return self._next_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return len(self._pages)

    def total_blocks(self) -> int:
        """Total blocks allocated — the on-disk footprint of the index."""
        return sum(p.n_blocks for p in self._pages.values())

    def reset_stats(self) -> None:
        """Zero the access counters."""
        self.stats.reset()

    def drop_cache(self) -> None:
        """Empty the buffer pool (cold-start measurements)."""
        if self._cache is not None:
            self._cache.clear()

    def _count_write(self, n_blocks: int) -> None:
        self.stats.logical_writes += n_blocks
        self.stats.physical_writes += n_blocks
        metrics.inc("storage.writes", n_blocks)
