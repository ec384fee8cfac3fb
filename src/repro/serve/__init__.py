"""Concurrent serving layer: micro-batched queries over a built index.

``QueryService`` turns concurrent single-query submissions into
:meth:`NNCellIndex.query_batch` calls (whenever the flusher is free it
takes up to ``max_batch_size`` queued requests), bounds its queue with
an admission controller, honours per-request deadlines, and degrades
gracefully through a batch -> serial -> linear-scan fallback ladder.
See ``docs/serving.md``.
"""

from .config import ServeConfig, TelemetryConfig
from .errors import (
    DeadlineExceeded,
    ServeError,
    ServiceClosed,
    ServiceOverloaded,
)
from .service import PendingResult, QueryResult, QueryService
from .telemetry import TelemetrySession

__all__ = [
    "DeadlineExceeded",
    "PendingResult",
    "QueryResult",
    "QueryService",
    "ServeConfig",
    "ServeError",
    "ServiceClosed",
    "ServiceOverloaded",
    "TelemetryConfig",
    "TelemetrySession",
]
