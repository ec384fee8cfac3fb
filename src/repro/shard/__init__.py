"""Horizontal scaling layer: sharded solution spaces, exact answers.

``repro.shard`` partitions the database across N independent
:class:`~repro.core.nncell_index.NNCellIndex` shards and answers
queries by scatter-gather with an exact k-merge — results are
bit-identical to an unsharded index over the same points.  Probes run
on the calling thread, or on a thread pool for a large batch and under
a resilience policy.  See
``docs/sharding.md`` for the partitioners, the exactness argument and
tuning guidance.

The scatter is fault-tolerant when a
:class:`~repro.shard.resilience.ResilienceConfig` is installed
(:meth:`ShardedNNCellIndex.set_resilience`): per-probe timeouts,
exponential-backoff retries, hedged duplicate probes, and — under
``allow_partial`` — explicitly *degraded* answers naming their missing
shards instead of failed queries.  Failures are typed
(:mod:`repro.shard.errors`); the policy and gather loop live in
:mod:`repro.shard.resilience`; ``docs/resilience.md`` has the contract.
"""

from .errors import AllShardsFailed, ShardError, ShardProbeError
from .partition import (
    PARTITIONER_KINDS,
    HashPartitioner,
    HilbertRangePartitioner,
    make_partitioner,
    partitioner_from_manifest,
)
from .resilience import ResilienceConfig, ScatterReport
from .sharded import ShardConfig, ShardedNNCellIndex

__all__ = [
    "PARTITIONER_KINDS",
    "AllShardsFailed",
    "HashPartitioner",
    "HilbertRangePartitioner",
    "ResilienceConfig",
    "ScatterReport",
    "ShardConfig",
    "ShardError",
    "ShardProbeError",
    "ShardedNNCellIndex",
    "make_partitioner",
    "partitioner_from_manifest",
]
