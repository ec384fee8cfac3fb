"""Shared reference implementations for tests (brute-force baselines,
the HiGHS LP oracle, the cell and data trees the snapshots pack),
writers of the retired archive formats 5 and 6, a batch function that
holds a service's flush, and a loader for the standalone scripts in
``tools/``."""

import importlib.util
import json
import threading
import zlib
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    """Import ``tools/<name>.py`` (not a package) as a module."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Stall:
    """A ``QueryService`` batch function that holds each flush until the
    test sets ``release``; ``entered`` is set once a flush is held.

    Submissions made while the head request's flush is held stay queued,
    so a test can build a batch, overflow the queue or let a deadline
    lapse without depending on how fast the flusher runs.
    """

    def __init__(self, index):
        self.index = index
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, points, batch_size=None):
        self.entered.set()
        assert self.release.wait(10.0), "stalled batch never released"
        return self.index.query_batch(points, batch_size=batch_size)


def cell_tree(index):
    """The cell tree STR packs from ``index``'s current columns, bulk
    loaded into an X-tree: the oracle of the packed walk.  Its
    ``point_query`` finds the owners the walk of ``index.snapshot`` finds
    and reads, as logical reads, the pages that walk counts."""
    from repro.index.bulk import bulk_load
    from repro.index.xtree import XTree

    dim = index.dim
    tree = XTree(
        dim, page_size=index.config.page_size,
        leaf_entry_bytes=3 * 8 * dim + 8,
    )
    return bulk_load(tree, *index._cell_entries())


def data_tree(index):
    """``index``'s live points, bulk loaded into an X-tree of its page
    geometry: the oracle of the searches of ``index.data_snapshot``.
    ``nnsearch.rkv_nearest``, ``nnsearch.hs_k_nearest`` and its
    ``sphere_query_blocks`` find the ids and read the pages those
    searches find and count, and its leaf queries give the Point and
    Sphere selectors' ids."""
    from repro.index.bulk import bulk_load
    from repro.index.xtree import XTree

    dim = index.dim
    tree = XTree(
        dim, page_size=index.config.page_size, leaf_entry_bytes=8 * dim + 8
    )
    live = index.active_ids
    return bulk_load(tree, index.points[live], index.points[live], live)


def snapshots_equal(a, b):
    """Two packed snapshots hold the same arrays, byte for byte."""
    if a.height != b.height:
        return False
    return all(
        getattr(x, f).dtype == getattr(y, f).dtype
        and getattr(x, f).tobytes() == getattr(y, f).tobytes()
        for x, y in zip(a.levels, b.levels)
        for f in ("lows", "highs", "ids", "offsets", "counts", "page_ids")
    )


def brute_nearest(query, points):
    """Reference nearest neighbor: (index, distance)."""
    diffs = np.asarray(points) - np.asarray(query)
    dist_sq = np.einsum("ij,ij->i", diffs, diffs)
    idx = int(np.argmin(dist_sq))
    return idx, float(np.sqrt(dist_sq[idx]))


def brute_k_nearest(query, points, k):
    """Reference k-NN: (indices, distances) sorted ascending."""
    diffs = np.asarray(points) - np.asarray(query)
    dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(dist)[:k]
    return order, dist[order]


def highs_maximize(c, a_ub, b_ub, lb, ub):
    """Reference LP: maximize ``c . x`` s.t. ``a_ub x <= b_ub`` and
    ``lb <= x <= ub`` with scipy's HiGHS, as an ``LPResult``.

    HiGHS is the test suite's oracle for the from-scratch simplex; the
    package itself never imports scipy.
    """
    from scipy.optimize import linprog

    from repro.lp import LPResult

    c = np.asarray(c, dtype=np.float64)
    a_ub = np.asarray(a_ub, dtype=np.float64)
    lb = np.asarray(lb, dtype=np.float64)
    ub = np.asarray(ub, dtype=np.float64)
    res = linprog(
        -c,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=np.asarray(b_ub, dtype=np.float64) if a_ub.shape[0] else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )
    if res.status == 0:
        x = np.clip(res.x, lb, ub)
        return LPResult("optimal", x, float(np.dot(c, x)))
    if res.status == 2:
        return LPResult("infeasible", None, float("nan"))
    if res.status == 3:
        return LPResult("unbounded", None, float("nan"))
    raise RuntimeError(f"scipy linprog failed: {res.message}")


def highs_least_violation(a_ub, b_ub, lb, ub):
    """The least ``v >= 0`` for which some ``x`` in the box holds every
    row of ``a_ub x <= b_ub + v``, by HiGHS: the optimum of the phase-1
    LP, which the simplex compares with its ``_INFEASIBLE`` band."""
    from scipy.optimize import linprog

    a_ub = np.asarray(a_ub, dtype=np.float64)
    m, d = a_ub.shape
    res = linprog(
        np.r_[np.zeros(d), 1.0],
        A_ub=np.hstack([a_ub, -np.ones((m, 1))]),
        b_ub=np.asarray(b_ub, dtype=np.float64),
        bounds=[*zip(lb, ub), (0.0, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"scipy linprog failed: {res.message}")
    return float(res.fun)


def _rewrite_header(path, version, meta=None, columns=None):
    """Rewrite the archive at ``path`` with ``format_version`` set to
    ``version``, under a valid checksum; ``meta`` (a dict) updates its
    meta, and ``columns`` (name -> array, in file order) replaces its
    columns."""
    from repro.core.persistence import (
        _MAGIC,
        _PREAMBLE,
        _read_archive,
        _write_archive,
    )

    stored, stored_columns = _read_archive(path)
    _write_archive(
        path, {**stored, **(meta or {})}, columns or dict(stored_columns)
    )
    data = Path(path).read_bytes()
    __, size, __ = _PREAMBLE.unpack_from(data)
    doc = json.loads(data[_PREAMBLE.size:_PREAMBLE.size + size])
    doc["format_version"] = version
    header = json.dumps(doc, sort_keys=True).encode()
    header += b" " * (-len(header) % 8)
    payload = header + data[_PREAMBLE.size + size:]
    Path(path).write_bytes(
        _PREAMBLE.pack(_MAGIC, len(header), zlib.crc32(payload)) + payload
    )


def write_format_5(index, path):
    """Write ``index`` to ``path`` as archive format 5 did: the same
    preamble, header and columns, plus each constraint row's normal as
    the column ``sys_a`` after ``sys_offsets``, ``meta.cache_pages`` 0
    and ``format_version`` 5, under a valid checksum."""
    from repro.core.persistence import _read_archive, save_index

    save_index(index, path)
    __, columns = _read_archive(path)
    owners = np.repeat(index.active_ids, np.diff(columns["sys_offsets"]))
    ids = columns["sys_ids"]
    ordered = {}
    for name, column in columns.items():
        ordered[name] = column
        if name == "sys_offsets":
            ordered["sys_a"] = 2.0 * (index.points[ids] - index.points[owners])
    _rewrite_header(path, 5, {"cache_pages": 0}, ordered)


def write_format_6(index, path):
    """Write ``index`` to ``path`` as archive format 6 did: the same
    preamble, header and columns, with ``meta.cache_pages`` 0 and
    ``format_version`` 6, under a valid checksum."""
    from repro.core.persistence import save_index

    save_index(index, path)
    _rewrite_header(path, 6, {"cache_pages": 0})


def highs_mbr(system):
    """Per-axis HiGHS minimum and maximum over a ``HalfspaceSystem``:
    ``(low, high)``, or ``None`` when HiGHS finds the system empty."""
    box, dim = system.box, system.dim
    low, high = np.empty(dim), np.empty(dim)
    for axis in range(dim):
        c = np.eye(dim)[axis]
        top = highs_maximize(c, system.a, system.b, box.low, box.high)
        if top.status == "infeasible":
            return None
        bottom = highs_maximize(-c, system.a, system.b, box.low, box.high)
        low[axis], high[axis] = -bottom.objective, top.objective
    return low, high
