"""Hilbert-curve bulk loading (packed R-tree variant).

An alternative to the STR packing in :mod:`repro.index.bulk`: entries are
sorted along the Hilbert space-filling curve of their centres (Kamel &
Faloutsos' Hilbert-packed R-tree) and cut into consecutive runs.  Hilbert
ordering preserves locality better than per-dimension tiling on clustered
data, which shows up as slightly tighter leaf regions; the decomposition
ablation bench compares both packings.

The Hilbert index is computed with the classic Butz/Lawder bit
transposition algorithm, implemented here for arbitrary dimensionality
and precision (no lookup tables).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .bulk import (
    DEFAULT_FILL,
    LayoutLevel,
    _balanced_chunks,
    load_layout,
    pack_layout,
)
from .node import Fanout
from .rstar import RStarTree

__all__ = ["hilbert_bulk_load", "hilbert_indices", "hilbert_layout"]


def hilbert_indices(points: np.ndarray, bits: int = 10) -> np.ndarray:
    """Hilbert-curve index of each row of ``points`` (unit-cube data).

    ``bits`` is the per-dimension precision; the result fits in signed
    64-bit integers as long as ``bits * dim <= 62``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, dim = pts.shape
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if bits * dim > 62:
        raise ValueError(
            f"bits * dim = {bits * dim} exceeds the 64-bit key budget"
        )
    grid = np.clip((pts * (1 << bits)).astype(np.int64), 0, (1 << bits) - 1)
    keys = np.empty(n, dtype=np.int64)
    for row in range(n):
        keys[row] = _hilbert_key(grid[row].tolist(), bits)
    return keys


def _hilbert_key(coords: "List[int]", bits: int) -> int:
    """Point -> Hilbert index (Skilling's transposition algorithm)."""
    dim = len(coords)
    x = list(coords)
    # Inverse undo of the Gray-code transform (Skilling 2004).
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(dim):
            if x[i] & q:
                x[0] ^= p  # invert low bits of x[0]
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, dim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dim):
        x[i] ^= t
    # Interleave the transposed bits into a single key.
    key = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(dim):
            key = (key << 1) | ((x[i] >> bit) & 1)
    return key


def hilbert_layout(
    fanout: Fanout,
    lows: np.ndarray,
    highs: np.ndarray,
    ids: np.ndarray,
    fill: float = DEFAULT_FILL,
    first_page: int = 1,
    bits: int = 10,
) -> "List[LayoutLevel]":
    """The nodes of the Hilbert packing: runs of leaves in the curve
    order of the entries' centres, then consecutive runs of nodes."""
    bits = min(bits, max(1, 62 // lows.shape[1]))

    def runs(level, lows, highs, capacity, min_entries):
        if level:  # children are already in curve order
            order = np.arange(lows.shape[0])
        else:
            centers = (lows + highs) / 2.0
            keys = hilbert_indices(centers, bits=bits)
            order = np.argsort(keys, kind="stable")
        return _balanced_chunks(order, capacity, min_entries)

    return pack_layout(fanout, lows, highs, ids, fill, runs, first_page)


def hilbert_bulk_load(
    tree: RStarTree,
    lows: np.ndarray,
    highs: np.ndarray,
    ids: Sequence[int],
    fill: float = DEFAULT_FILL,
    bits: int = 10,
) -> RStarTree:
    """Fill an empty tree with entries packed in Hilbert order."""
    return load_layout(tree, hilbert_layout, lows, highs, ids, fill, bits=bits)
