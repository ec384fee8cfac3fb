"""Saving and loading NN-cell indexes.

Precomputing the solution space is the expensive step of the paper's
approach (thousands of LPs), so a production deployment computes it once
and reuses it.  This module serialises everything the precomputation
produced — the points, each cell's constraint system and its (decomposed)
rectangle approximations — into a single ``.npz`` archive, and rebuilds
the in-memory index (including both trees, via bulk loading) on load.

The archive stores *results*, not tree pages: rebuilding the trees from
the stored rectangles is deterministic and costs milliseconds, while
keeping the format independent of node-layout details.

Format version 2 is columnar.  Each per-cell field is one array
concatenated over the active cells in id order, with CSR offsets: cell
``i`` (the ``i``-th active id) owns rows ``offsets[i]:offsets[i + 1]``.

* ``sys_offsets``, ``sys_a``, ``sys_b``, ``sys_ids`` — the constraint
  systems (``A x <= b`` rows and the point that generated each row);
* ``rect_offsets``, ``rect_lows``, ``rect_highs`` — the rectangles.

With the points, the active mask, the data-space box and the build
config, an archive has a fixed number of members whatever the number of
points, so loading costs a fixed number of reads.  Archives are outside
input: :func:`load_index` checks that the columns fit together before
slicing them.  Version-1 archives (five members per cell) are refused;
rebuild them with ``repro build``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..geometry.halfspace import HalfspaceSystem
from ..geometry.mbr import MBR
from .candidates import CandidateSelector, SelectorKind, SelectorParams
from .nncell_index import BuildConfig, NNCellIndex

__all__ = [
    "is_sharded_archive",
    "load_any_index",
    "load_index",
    "load_sharded_index",
    "save_index",
    "save_sharded_index",
]

_FORMAT_VERSION = 2

_SHARD_FORMAT_VERSION = 1
_SHARD_MANIFEST = "manifest.json"
_SHARD_GLOBALS = "global.npz"

#: Offsets array -> the columns it partitions into per-cell runs.
_COLUMNS = {
    "sys_offsets": ("sys_a", "sys_b", "sys_ids"),
    "rect_offsets": ("rect_lows", "rect_highs"),
}


def _offsets(counts) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def save_index(index: NNCellIndex, path: "Union[str, Path]") -> None:
    """Serialise a built index to ``path`` (a ``.npz`` archive)."""
    active = [int(pid) for pid in index.active_ids]
    systems = [index._systems[pid] for pid in active]
    cell_rects = [index._cell_rects[pid] for pid in active]
    rects = [rect for cell in cell_rects for rect in cell]
    arrays = {
        "format_version": np.int64(_FORMAT_VERSION),
        "points": index.points,
        "active": index._active,
        "box_low": index.box.low,
        "box_high": index.box.high,
        "selector": np.bytes_(index.config.selector.value.encode()),
        "sphere_radius_factor": np.float64(
            index.config.selector_params.sphere_radius_factor
        ),
        "decompose": np.bool_(index.config.decompose),
        "index_kind": np.bytes_(index.config.index_kind.encode()),
        "page_size": np.int64(index.config.page_size),
        "cache_pages": np.int64(index.config.cache_pages),
        "query_atol": np.float64(index.config.query_atol),
        "sys_offsets": _offsets([s.n_constraints for s in systems]),
        "sys_a": np.concatenate([s.a for s in systems]),
        "sys_b": np.concatenate([s.b for s in systems]),
        "sys_ids": np.concatenate([s.point_ids for s in systems]),
        "rect_offsets": _offsets([len(cell) for cell in cell_rects]),
        "rect_lows": np.stack([r.low for r in rects]),
        "rect_highs": np.stack([r.high for r in rects]),
    }
    np.savez_compressed(Path(path), **arrays)


def load_index(path: "Union[str, Path]") -> NNCellIndex:
    """Rebuild an index saved with :func:`save_index`."""
    with np.load(Path(path)) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported index archive version {version} "
                f"(expected {_FORMAT_VERSION}); rebuild the index with "
                "`repro build`"
            )
        fields = {name: archive[name] for name in archive.files}
    points = fields["points"]
    active = fields["active"]
    box = MBR(fields["box_low"], fields["box_high"])
    config = BuildConfig(
        selector=SelectorKind(bytes(fields["selector"]).decode()),
        selector_params=SelectorParams(
            sphere_radius_factor=float(fields["sphere_radius_factor"])
        ),
        decompose=bool(fields["decompose"]),
        index_kind=bytes(fields["index_kind"]).decode(),
        page_size=int(fields["page_size"]),
        cache_pages=int(fields["cache_pages"]),
        query_atol=float(fields["query_atol"]),
        data_space=box,
    )

    index = NNCellIndex(points[active], config)
    # Restore the full id space (deleted rows keep their slots so the
    # stored constraint point_ids stay valid).
    index.points = points.copy()
    index._active = active.copy()

    active_ids = np.flatnonzero(active)
    _check_columns(fields, active_ids.size, points.shape[0])
    sys_at = fields["sys_offsets"].tolist()
    rect_at = fields["rect_offsets"].tolist()
    sys_a, sys_b, sys_ids = fields["sys_a"], fields["sys_b"], fields["sys_ids"]
    lows, highs = fields["rect_lows"], fields["rect_highs"]
    for i, pid in enumerate(active_ids.tolist()):
        s0, s1 = sys_at[i], sys_at[i + 1]
        system = HalfspaceSystem(sys_a[s0:s1], sys_b[s0:s1], box, sys_ids[s0:s1])
        rects = [MBR(lows[r], highs[r]) for r in range(rect_at[i], rect_at[i + 1])]
        index._register_cell(pid, system, rects)

    _rebuild_runtime_state(index)
    return index


def _check_columns(
    fields: "Dict[str, np.ndarray]", n_active: int, n_points: int
) -> None:
    """Raise ``ValueError`` naming the field unless the columns fit
    together, and make them read-only: cells share the column buffers,
    so an in-place write to one cell's slice must not reach another."""
    for offsets_name, columns in _COLUMNS.items():
        offsets = fields[offsets_name]
        if offsets.shape != (n_active + 1,):
            raise ValueError(
                f"index archive field {offsets_name!r} has shape "
                f"{offsets.shape}; expected one offset pair per active "
                f"point ({n_active + 1} entries)"
            )
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError(
                f"index archive field {offsets_name!r} must start at 0 "
                "and never decrease"
            )
        for name in columns:
            if fields[name].shape[:1] != (offsets[-1],):
                raise ValueError(
                    f"index archive field {offsets_name!r} ends at "
                    f"{offsets[-1]}, but {name!r} has shape "
                    f"{fields[name].shape}"
                )
            fields[name].setflags(write=False)
    if np.any(np.diff(fields["rect_offsets"]) == 0):
        raise ValueError(
            "index archive field 'rect_offsets' gives a cell no rectangle"
        )
    ids = fields["sys_ids"]
    if ids.size and (ids.min() < -1 or ids.max() >= n_points):
        raise ValueError(
            f"index archive field 'sys_ids' must lie in [-1, {n_points})"
        )


# ======================================================================
# Sharded archives: one directory, one sub-archive per live shard
#
# A sharded index persists as a *directory* so each shard stays an
# ordinary `save_index` .npz that loads independently — a deployment can
# ship shards to different hosts and only the manifest needs global
# knowledge.  `manifest.json` carries the shard/partitioner config and
# the per-shard local→global id maps; `global.npz` carries the full
# point array and active mask (rows of deleted points included, so
# global ids stay stable across save/load exactly as unsharded ids do).
# ======================================================================

def is_sharded_archive(path: "Union[str, Path]") -> bool:
    """Whether ``path`` is a sharded archive directory."""
    p = Path(path)
    return p.is_dir() and (p / _SHARD_MANIFEST).exists()


def save_sharded_index(index, path: "Union[str, Path]") -> None:
    """Serialise a :class:`~repro.shard.ShardedNNCellIndex` directory."""
    import json

    target = Path(path)
    if target.exists() and not target.is_dir():
        raise ValueError(
            f"{target} exists and is not a directory (sharded archives"
            " are directories)"
        )
    target.mkdir(parents=True, exist_ok=True)
    shard_entries = []
    for s, shard in enumerate(index._shards):
        if shard is None:
            shard_entries.append(
                {"archive": None, "global_ids": list(index._globals[s])}
            )
            continue
        name = f"shard_{s}.npz"
        save_index(shard, target / name)
        shard_entries.append(
            {"archive": name, "global_ids": list(index._globals[s])}
        )
    manifest = {
        "format_version": _SHARD_FORMAT_VERSION,
        "kind": "sharded-nncell",
        "dim": int(index.dim),
        "shard_config": {
            "n_shards": index.shard_config.n_shards,
            "partitioner": index.shard_config.partitioner,
            "hilbert_bits": index.shard_config.hilbert_bits,
            "build_workers": index.shard_config.build_workers,
            "query_workers": index.shard_config.query_workers,
        },
        "partitioner": index.partitioner.to_manifest(),
        "shards": shard_entries,
    }
    (target / _SHARD_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    np.savez_compressed(
        target / _SHARD_GLOBALS,
        points=index.points,
        active=index._active,
        shard_of=np.asarray(index._shard_of, dtype=np.int64),
        local_of=np.asarray(index._local_of, dtype=np.int64),
    )


def load_sharded_index(path: "Union[str, Path]"):
    """Rebuild a sharded index saved with :func:`save_sharded_index`."""
    import json

    from ..shard import ShardConfig, ShardedNNCellIndex, partitioner_from_manifest

    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no sharded index archive at {source}")
    manifest_path = source / _SHARD_MANIFEST
    if not manifest_path.exists():
        raise ValueError(f"{source} is not a sharded index archive")
    manifest = json.loads(manifest_path.read_text())
    version = int(manifest.get("format_version", -1))
    if version != _SHARD_FORMAT_VERSION:
        raise ValueError(
            f"unsupported sharded archive version {version} "
            f"(expected {_SHARD_FORMAT_VERSION})"
        )
    shard_config = ShardConfig(**manifest["shard_config"])
    partitioner = partitioner_from_manifest(manifest["partitioner"])
    shards = []
    globals_ = []
    build_config = None
    for entry in manifest["shards"]:
        globals_.append([int(g) for g in entry["global_ids"]])
        if entry["archive"] is None:
            shards.append(None)
            continue
        shard = load_index(source / entry["archive"])
        if build_config is None:
            build_config = shard.config
        shards.append(shard)
    if build_config is None:  # pragma: no cover - archives are non-empty
        raise ValueError(f"{source} contains no live shards")
    with np.load(source / _SHARD_GLOBALS) as arrays:
        points = arrays["points"]
        active = arrays["active"]
        shard_of = [int(v) for v in arrays["shard_of"]]
        local_of = [int(v) for v in arrays["local_of"]]
    return ShardedNNCellIndex._restore(
        points=points,
        active=active,
        shard_config=shard_config,
        build_config=build_config,
        partitioner=partitioner,
        shards=shards,
        globals_=globals_,
        shard_of=shard_of,
        local_of=local_of,
    )


def load_any_index(path: "Union[str, Path]"):
    """Load either archive format: a directory loads as sharded, a file
    as a plain :class:`NNCellIndex` — the CLI front-ends' entry point."""
    if is_sharded_archive(path):
        return load_sharded_index(path)
    if Path(path).is_dir():
        raise ValueError(
            f"{path} is a directory without a {_SHARD_MANIFEST}"
            " (not a sharded index archive)"
        )
    return load_index(path)


def _rebuild_runtime_state(index: NNCellIndex) -> None:
    """Reconstruct the trees and selector from the restored cell data."""
    from ..index.bulk import bulk_load

    active = index.active_ids
    live_points = index.points[active]
    if active.size > 1:
        bulk_load(index.data_tree, live_points, live_points, active)
    else:
        index.data_tree.insert_point(live_points[0], int(active[0]))

    lows, highs, owners = [], [], []
    for pid in active:
        for rect in index._cell_rects[int(pid)]:
            lows.append(rect.low)
            highs.append(rect.high)
            owners.append(int(pid))
    if len(owners) > 1:
        bulk_load(index.cell_tree, np.stack(lows), np.stack(highs), owners)
    else:
        index.cell_tree.insert(lows[0], highs[0], owners[0])

    index._selector = CandidateSelector(
        index.points,
        index.data_tree,
        index.config.selector,
        index.config.selector_params,
    )
    for pid in np.flatnonzero(~index._active):
        index._selector.set_active(int(pid), False)
