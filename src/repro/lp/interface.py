"""LP front-end: one solve per objective, counted.

Every LP in the system goes through :func:`maximize` or :func:`minimize`,
which count each solve (``lp.solves``, ``lp.constraint_rows``,
``lp.infeasible``) and run the from-scratch simplex of
:mod:`repro.lp.simplex`.  Callers that solve several objectives over one
constraint system pass the same :class:`~repro.lp.simplex.SimplexState`
to each call: phase 1 then runs once for the system, and each objective
starts from the previous optimal basis.  Without a state a call is a cold
solve.  scipy's HiGHS is the test suite's oracle, not a runtime backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs import metrics
from .simplex import SimplexState

__all__ = ["LPResult", "maximize", "minimize"]


@dataclass(frozen=True)
class LPResult:
    """Outcome of one LP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: float

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def maximize(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    state: "SimplexState | None" = None,
) -> LPResult:
    """Maximize ``c . x`` s.t. ``a_ub x <= b_ub``, ``lb <= x <= ub``.

    ``state``, when given, must hold this same system; the solve starts
    from the basis its previous solve left.
    """
    if state is None:
        state = SimplexState(a_ub, b_ub, lb, ub)
    metrics.inc("lp.solves")
    metrics.inc("lp.constraint_rows", np.shape(a_ub)[0])
    res = state.maximize(c)
    if res.status == "infeasible":
        metrics.inc("lp.infeasible")
    return LPResult(res.status, res.x, res.objective)


def minimize(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    state: "SimplexState | None" = None,
) -> LPResult:
    """Minimize ``c . x`` under the same constraint shape as :func:`maximize`."""
    result = maximize(-np.asarray(c, dtype=np.float64), a_ub, b_ub, lb, ub,
                      state)
    if not result.is_optimal:
        return result
    return LPResult("optimal", result.x, -result.objective)
