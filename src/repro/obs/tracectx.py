"""Request-scoped trace identity, propagated via :mod:`contextvars`.

The serving layer interleaves many callers' queries through micro-batch
flushes, worker pools and a fallback ladder, so no single span tree
explains one slow response any more.  A *trace id* restores the missing
causality: it is minted once at serve admission (or at the top of any
CLI workflow), bound to the executing context, and from there it rides
along automatically —

* every :class:`~repro.obs.tracing.Span` opened while an id is bound is
  stamped with a ``trace_id`` attribute;
* every :mod:`repro.obs.events` record emitted while an id is bound
  carries a ``trace_id`` field, making the event log joinable with the
  trace store;
* the serve JSONL protocol echoes the id on every response (success or
  typed error), so a client can hand it straight back to
  ``GET /trace/<id>`` or ``repro trace show``.

Binding uses a :class:`~contextvars.ContextVar`, so concurrent threads
hold independent trace identities and nested binds restore the outer id
on exit.  Crossing an executor boundary needs one explicit step — the
submitting side captures its context and the worker re-enters it (see
:func:`repro.obs.tracing.carrier`); the shard scatter pool
(:mod:`repro.shard.sharded`) does this for every probe.

Minting an id costs one 64-bit read of the process RNG and never
allocates beyond the 16-char hex string, so the service mints
unconditionally — tracing being off only skips the *recording*, not the
identity.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = [
    "bind",
    "current_trace_id",
    "new_trace_id",
]

# Process-wide id source.  Seeded from urandom (the default), guarded by
# a lock because random.Random instances are not documented thread-safe
# and submissions race in from many client threads.
_rng = random.Random()
_rng_lock = threading.Lock()

_current: "ContextVar[Optional[str]]" = ContextVar(
    "repro_current_trace", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    with _rng_lock:
        return f"{_rng.getrandbits(64):016x}"


def current_trace_id() -> "Optional[str]":
    """The trace id bound to the calling context, or ``None``."""
    return _current.get()


@contextmanager
def bind(trace_id: "Optional[str]") -> "Iterator[Optional[str]]":
    """Bind ``trace_id`` for the duration of the ``with`` block.

    Nested binds shadow and restore; ``bind(None)`` explicitly clears
    the identity for the block (useful around work that must not be
    attributed to the enclosing request).
    """
    token = _current.set(trace_id)
    try:
        yield trace_id
    finally:
        _current.reset(token)
