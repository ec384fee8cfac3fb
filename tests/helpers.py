"""Shared reference implementations for tests (brute-force baselines,
the cell tree a snapshot packs), a batch function that holds a service's
flush, and a loader for the standalone scripts in ``tools/``."""

import importlib.util
import threading
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
    loaded: the oracle of the packed walk.  Its ``point_query`` finds the
    owners the walk of ``index.snapshot`` finds and reads, as logical
    reads, the pages that walk counts."""
    from repro.core.nncell_index import make_tree
    from repro.index.bulk import bulk_load

    dim = index.dim
    tree = make_tree(dim, index.config, 3 * 8 * dim + 8)
    return bulk_load(tree, *index._cell_entries())


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
