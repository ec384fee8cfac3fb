"""Point-to-shard routing policies.

A partitioner is a *pure, deterministic* function from a point's
coordinates to a shard number.  Determinism is what makes the sharded
index dynamic: an ``insert`` long after the build, or after a reload,
routes to the shard the build would have chosen.  A ``delete`` names a
point by its id, which it finds in the shards' id maps — the maps the
fleet keeps anyway to translate answers — so no second routing table
is kept in sync.  Two policies are provided:

* :class:`HashPartitioner` — a content hash of the coordinate bytes.
  Shards come out statistically balanced for any input distribution and
  the policy needs no fitting, but points that are close in space land
  on arbitrary shards, so every query must visit every shard.
* :class:`HilbertRangePartitioner` — points are ordered along the
  Hilbert space-filling curve (reusing
  :func:`repro.index.hilbert.hilbert_indices`, the same keys the
  Hilbert-packed bulk loader sorts by) and the key range is cut into
  ``n_shards`` contiguous runs fitted to the build set, at
  :data:`HILBERT_BITS` bits per axis (:func:`key_bits`).  Spatial
  locality is preserved — a shard owns a compact region — which keeps
  per-shard candidate sets small for clustered data, at the price of
  balance depending on how well the build sample predicts future
  inserts.

Either way the scatter-gather merge in
:mod:`repro.shard.sharded` is exact (see ``docs/sharding.md``); the
partitioner only shifts *where* work happens, never *what* is returned.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict

import numpy as np

from ..index.hilbert import hilbert_indices

__all__ = [
    "HILBERT_BITS",
    "PARTITIONER_KINDS",
    "HashPartitioner",
    "HilbertRangePartitioner",
    "key_bits",
    "make_partitioner",
    "partitioner_from_manifest",
]

#: Recognised ``ShardConfig.partitioner`` / CLI ``--partitioner`` values.
PARTITIONER_KINDS = ("hash", "hilbert")

#: The per-axis precision of a Hilbert key, before :func:`key_bits`
#: caps it so that a key fits in 62 bits.
HILBERT_BITS = 10


class HashPartitioner:
    """Route by a stable content hash of the point's float64 bytes.

    The hash is :func:`hashlib.blake2b` over the coordinate buffer —
    process-independent (unlike Python's salted ``hash``) so a reloaded
    archive routes exactly as the process that built it did.
    """

    kind = "hash"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)

    def shard_of(self, point: np.ndarray) -> int:
        buffer = np.ascontiguousarray(point, dtype=np.float64).tobytes()
        digest = hashlib.blake2b(buffer, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_shards

    def shard_of_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.fromiter(
            (self.shard_of(pts[i]) for i in range(pts.shape[0])),
            dtype=np.int64,
            count=pts.shape[0],
        )

    def to_manifest(self) -> "Dict[str, Any]":
        return {"kind": self.kind, "n_shards": self.n_shards}

    @classmethod
    def from_manifest(cls, doc: "Dict[str, Any]") -> "HashPartitioner":
        return cls(_manifest_int(doc, "n_shards"))


class HilbertRangePartitioner:
    """Route by contiguous ranges of the Hilbert key space.

    ``uppers[i]`` is the largest key owned by shard ``i`` (for
    ``i < n_shards - 1``); a key routes to the first shard whose upper
    bound is not below it, and keys beyond every bound go to the last
    shard.  Bounds are fitted with :meth:`fit` so the build set splits
    into near-equal runs; duplicated keys never straddle a boundary
    (routing is a function of the key alone), so a run of identical
    points always shares a shard.
    """

    kind = "hilbert"

    def __init__(self, n_shards: int, uppers: np.ndarray, bits: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self.uppers = np.asarray(uppers, dtype=np.int64)
        if self.uppers.shape != (self.n_shards - 1,):
            raise ValueError("uppers must have n_shards - 1 entries")
        if self.uppers.size > 1 and np.any(np.diff(self.uppers) < 0):
            raise ValueError("uppers must be non-decreasing")
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = int(bits)

    @classmethod
    def fit(cls, points: np.ndarray, n_shards: int) -> "HilbertRangePartitioner":
        """Bounds splitting ``points`` into ``n_shards`` near-equal runs,
        keyed at :func:`key_bits` bits per axis."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n, dim = pts.shape
        if n == 0:
            raise ValueError("cannot fit a partitioner to zero points")
        bits = key_bits(dim)
        keys = np.sort(hilbert_indices(pts, bits=bits))
        cuts = [
            keys[min(n - 1, math.ceil(n * (i + 1) / n_shards) - 1)]
            for i in range(n_shards - 1)
        ]
        return cls(n_shards, np.asarray(cuts, dtype=np.int64), bits)

    def shard_of(self, point: np.ndarray) -> int:
        p = np.asarray(point, dtype=np.float64)
        key = hilbert_indices(p[None, :], bits=self.bits)[0]
        return int(np.searchsorted(self.uppers, key, side="left"))

    def shard_of_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        keys = hilbert_indices(pts, bits=self.bits)
        return np.searchsorted(self.uppers, keys, side="left").astype(np.int64)

    def to_manifest(self) -> "Dict[str, Any]":
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "bits": self.bits,
            "uppers": [int(u) for u in self.uppers],
        }

    @classmethod
    def from_manifest(cls, doc: "Dict[str, Any]") -> "HilbertRangePartitioner":
        uppers = doc.get("uppers")
        if not (
            isinstance(uppers, list) and all(type(u) is int for u in uppers)
        ):
            raise ValueError(
                "partitioner key 'uppers' is not a list of ints: "
                f"{uppers!r}"
            )
        return cls(
            _manifest_int(doc, "n_shards"),
            np.asarray(uppers, dtype=np.int64),
            _manifest_int(doc, "bits"),
        )


def _manifest_int(doc: "Dict[str, Any]", key: str) -> int:
    """The int ``doc[key]``; ``ValueError`` naming the key unless it is
    an int (a float or a bool is not)."""
    value = doc.get(key)
    if type(value) is not int:
        raise ValueError(f"partitioner key {key!r} is not an int: {value!r}")
    return value


def key_bits(dim: int) -> int:
    """The per-axis precision :meth:`HilbertRangePartitioner.fit` keys
    ``dim``-dimensional points with: :data:`HILBERT_BITS`, capped so
    that a key fits in 62 bits."""
    return min(HILBERT_BITS, max(1, 62 // dim))


def make_partitioner(kind: str, n_shards: int, points: np.ndarray):
    """Build-time factory: a fitted partitioner of the requested kind."""
    if kind == "hash":
        return HashPartitioner(n_shards)
    if kind == "hilbert":
        return HilbertRangePartitioner.fit(points, n_shards)
    raise ValueError(
        f"unknown partitioner {kind!r} (expected one of {PARTITIONER_KINDS})"
    )


def partitioner_from_manifest(doc: "Dict[str, Any]"):
    """Rebuild a saved partitioner from its manifest dictionary."""
    kind = doc.get("kind")
    if kind == "hash":
        return HashPartitioner.from_manifest(doc)
    if kind == "hilbert":
        return HilbertRangePartitioner.from_manifest(doc)
    raise ValueError(f"unknown partitioner kind in manifest: {kind!r}")
