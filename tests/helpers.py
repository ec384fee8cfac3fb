"""Shared reference implementations for tests (brute-force baselines)."""

import numpy as np


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
