"""MBR approximation of NN-cells (Definition 3 of the paper).

The minimum bounding rectangle of a cell ``{x : A x <= b} ∩ box`` is found
by ``2d`` linear programs: per dimension ``i``, minimise and maximise
``x_i`` over the cell.  The LP optima are the exact bounds ``l_i``/``h_i``
of Definition 3; with a *subset* of constraints they can only move outward
(Lemma 1), so approximations computed from the optimised selectors remain
supersets of the true cell.

:func:`approximate_cell` returns ``None`` when the system is infeasible —
impossible for a full cell (its centre is always feasible) but routine for
decomposition sub-boxes that miss the cell entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.halfspace import HalfspaceSystem
from ..geometry.mbr import MBR
from ..lp.interface import maximize, minimize
from ..lp.simplex import SimplexState
from ..obs import metrics

__all__ = ["approximate_cell", "CellApproximation", "lp_call_count"]

# Module-level LP call counter: the Figure 4 performance experiment
# reports construction effort; LP invocations are its machine-independent
# proxy alongside wall-clock time.
_LP_CALLS = 0


def lp_call_count() -> int:
    """Total LPs solved by :func:`approximate_cell` in this process."""
    return _LP_CALLS


@dataclass(frozen=True)
class CellApproximation:
    """A cell's MBR approximation together with its provenance."""

    point_id: int
    mbr: MBR
    n_constraints: int


def approximate_cell(
    system: HalfspaceSystem,
    center: "np.ndarray | None" = None,
    prune: bool = True,
) -> "Optional[MBR]":
    """MBR of ``system`` via ``2d`` LPs, or ``None`` if it is empty.

    ``center`` is an optional known-feasible point (the cell's own data
    point): when provided, infeasibility checks can be skipped for the
    full-cell case, and large systems take an *exact pruning* fast path:
    a preliminary superset MBR is computed from the few nearest bisector
    planes, every constraint that cannot cut that rectangle is dropped,
    and the final LPs run over the reduced system clipped to it — the
    optima are provably identical (the cell is contained in any
    subset-constraint MBR, and dropped rows hold throughout it).

    The ``2d`` LPs of one system share a :class:`SimplexState`: phase 1
    runs once, and each axis re-optimises from the previous basis.
    Bounds are post-processed so the returned rectangle always contains
    every feasible LP optimum despite solver roundoff.
    """
    global _LP_CALLS
    box = system.box
    dim = box.dim
    metrics.inc("cell.approximations")
    metrics.observe("cell.constraints", system.n_constraints)
    if system.n_constraints == 0:
        return MBR(box.low, box.high)

    if prune and center is not None and system.n_constraints > 6 * dim:
        plane_dist = system.distances_to_planes(center)
        nearest = np.argsort(plane_dist)[: 4 * dim]
        pre_system = HalfspaceSystem(
            system.a[nearest], system.b[nearest], box
        )
        pre_mbr = approximate_cell(pre_system, center=center, prune=False)
        if pre_mbr is not None:
            reduced = system.reduced_to_box(pre_mbr)
            return approximate_cell(reduced, center=center, prune=False)

    low = np.empty(dim)
    high = np.empty(dim)
    a, b = system.a, system.b
    state = SimplexState(a, b, box.low, box.high)
    for axis in range(dim):
        c = np.zeros(dim)
        c[axis] = 1.0
        res_min = minimize(c, a, b, box.low, box.high, state)
        _LP_CALLS += 1
        metrics.inc("cell.lp_calls")
        if not res_min.is_optimal:
            if res_min.status == "infeasible":
                return None
            raise RuntimeError(
                f"cell LP unexpectedly {res_min.status} on axis {axis}"
            )
        res_max = maximize(c, a, b, box.low, box.high, state)
        _LP_CALLS += 1
        metrics.inc("cell.lp_calls")
        if not res_max.is_optimal:  # pragma: no cover - same system as above
            if res_max.status == "infeasible":
                return None
            raise RuntimeError(
                f"cell LP unexpectedly {res_max.status} on axis {axis}"
            )
        low[axis] = res_min.objective
        high[axis] = res_max.objective

    if center is not None:
        # Guard against solver tolerance shaving off the centre itself.
        np.minimum(low, center, out=low)
        np.maximum(high, center, out=high)
    # Numerical safety: the MBR must stay inside the box and be ordered.
    np.clip(low, box.low, box.high, out=low)
    np.clip(high, box.low, box.high, out=high)
    high = np.maximum(low, high)
    return MBR(low, high)
