"""repro.engine — the execution layer: parallel build, batched queries.

The layers below this one are *algorithms* (LPs, trees, cells); this
package is about *throughput*.  It contains no new geometry — only two
orchestrations of the existing pipeline:

* :mod:`repro.engine.parallel` — cell construction fanned out over
  worker processes.  The paper's precomputation solves ``2d``
  linear programs per data point (Definition 3), one point independent
  of the next — embarrassingly parallel.  Workers rebuild identical
  read-only state and results merge in point-id order, so the built
  index is bit-identical to a serial build for every worker count.
* :mod:`repro.engine.batch` — the one query path: many point queries
  answered in one shared tree walk plus one vectorised candidate
  distance scan, amortising page reads and NumPy dispatch across the
  batch; a single query is a batch of one.

Both are reached through the normal API (``BuildConfig(workers=...)``,
``NNCellIndex.query_batch``); importing this package directly is only
needed for the lower-level entry points.
"""

from .batch import BatchQueryInfo, batched_point_query, query_batch
from .parallel import CellWorkshop, chunk_ids, parallel_cells, resolve_workers

__all__ = [
    "BatchQueryInfo",
    "CellWorkshop",
    "batched_point_query",
    "chunk_ids",
    "parallel_cells",
    "query_batch",
    "resolve_workers",
]
