"""Dense two-phase tableau simplex with a warm-startable state, from scratch.

The paper computes each NN-cell approximation by ``2d`` linear programs
("determining the approximation of a Voronoi cell can be seen as a typical
linear programming problem", Section 2) and cites Dantzig's simplex method
and the Best & Ritter active-set variant.  All ``2d`` programs of one cell
share one polytope and differ only in the objective, so the solver keeps
one :class:`SimplexState` per constraint system:

* problem form: maximize ``c . x`` subject to ``A x <= b`` and box bounds
  ``lb <= x <= ub`` (exactly the shape of an MBR-extent LP over bisector
  constraints clipped to the data space);
* the box is translated so variables are non-negative and the finite
  upper bounds become ordinary rows, giving the standard form
  ``max c.y, A' y <= b', y >= 0``;
* the tableau is condensed: one row per basic and one column per
  nonbasic variable, so a pivot exchanges a row label with a column
  label and no identity block of slack columns is stored;
* phase 1 runs once per system, on its first solve: a single artificial
  variable relaxes every row, enters at the most violated one and is
  driven back to zero.  A system whose rows cannot all hold within
  ``_INFEASIBLE`` is infeasible — routine for decomposition sub-boxes
  that miss the cell;
* every objective then re-prices the objective row and runs phase 2 from
  the previous optimal basis, which stays primal feasible: the active-set
  warm start of Best & Ritter.  A fresh state is a cold solve;
* Dantzig's rule prices the first pivots of a solve; Bland's anti-cycling
  rule takes over after ``_BLAND_AFTER`` and guarantees termination.

A variable whose bound is active at the optimum is returned as that bound
exactly, not as ``lb + y``: an optimum on a face of the box comes back on
the face, so an MBR side there is not a few ulps short of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs import metrics

__all__ = ["SimplexResult", "SimplexState", "simplex_maximize", "SimplexError"]

_EPS = 1e-9
# Phase-1 optimum (the largest row violation left) above which a system
# is empty.  Looser than _EPS on purpose: a system feasible only up to
# roundoff (a degenerate vertex, a sub-box touching the cell) must stay
# feasible, because dropping it could drop part of a cell.
_INFEASIBLE = 1e-7
_MAX_ITERATIONS = 10_000
_BLAND_AFTER = 200  # switch from Dantzig to Bland after this many pivots


class SimplexError(RuntimeError):
    """Raised when the solver exceeds its iteration budget (should not
    happen with Bland's rule; kept as a hard backstop)."""


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of one LP solve.

    ``status`` is one of ``"optimal"``, ``"infeasible"`` or ``"unbounded"``;
    ``x`` and ``objective`` are only meaningful for ``"optimal"``.
    ``iterations`` counts this solve's pivots, phase 1 included when the
    solve was the system's first.
    """

    status: str
    x: Optional[np.ndarray]
    objective: float
    iterations: int

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def simplex_maximize(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> SimplexResult:
    """Maximize ``c . x`` subject to ``a_ub x <= b_ub`` and ``lb <= x <= ub``.

    All arguments are dense numpy arrays; ``a_ub`` may have zero rows.
    A one-objective solve on a fresh :class:`SimplexState`.
    """
    return SimplexState(a_ub, b_ub, lb, ub).maximize(c)


class SimplexState:
    """One constraint system ``a_ub x <= b_ub``, ``lb <= x <= ub`` and the
    tableau of its last optimal basis.

    The tableau is built, and phase 1 run, by the first :meth:`maximize`;
    later calls start phase 2 from the basis the previous call left.
    Not thread-safe: one state serves one caller's sequence of solves.
    """

    def __init__(
        self,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
    ):
        self.a_ub = np.asarray(a_ub, dtype=np.float64)
        self.b_ub = np.asarray(b_ub, dtype=np.float64)
        self.lb = np.asarray(lb, dtype=np.float64)
        self.ub = np.asarray(ub, dtype=np.float64)
        self.n = self.lb.shape[0]
        if self.a_ub.ndim != 2 or (
            self.a_ub.shape[0] and self.a_ub.shape[1] != self.n
        ):
            raise ValueError("a_ub must be an (m, n) matrix")
        #: ``None`` until the first solve, then ``"feasible"`` or
        #: ``"infeasible"``.
        self.status: "Optional[str]" = None
        self._t = np.zeros((1, self.n + 1))
        self._basic = np.zeros(0, dtype=np.int64)  # label of each row
        self._nonbasic = np.arange(self.n)  # label of each column
        self._bound_label = np.full(self.n, -1)  # slack of y_i <= span_i
        self._n_labels = self.n

    def maximize(self, c: np.ndarray) -> SimplexResult:
        """Maximize ``c . x`` from the basis the previous solve left."""
        c = np.asarray(c, dtype=np.float64)
        pivots = 0
        if self.status is None:
            pivots = self._phase_one()
        if self.status == "infeasible":
            metrics.inc("lp.simplex.pivots", pivots)
            return SimplexResult("infeasible", None, float("nan"), pivots)
        costs = np.zeros(self._n_labels)
        costs[: self.n] = c
        self._price(costs)
        status, it = self._run()
        pivots += it
        metrics.inc("lp.simplex.pivots", pivots)
        if status != "optimal":
            return SimplexResult(status, None, float("nan"), pivots)
        x = self._solution()
        return SimplexResult("optimal", x, float(np.dot(c, x)), pivots)

    # -- set-up and phase 1 --------------------------------------------
    def _phase_one(self) -> int:
        """Build the tableau and find a feasible basis; pivots made."""
        n, lb, ub = self.n, self.lb, self.ub
        a, b = self.a_ub, self.b_ub
        if np.any(lb > ub + _EPS):
            self.status = "infeasible"
            return 0
        span = ub - lb
        b_shift = b - a @ lb if a.shape[0] else np.zeros(0)
        # Drop all-zero rows (degenerate bisectors from duplicate points):
        # 0 <= b is vacuous when b >= 0 and infeasible otherwise.
        if a.shape[0]:
            zero_rows = np.all(np.abs(a) <= _EPS, axis=1)
            if np.any(zero_rows & (b_shift < -_EPS)):
                self.status = "infeasible"
                return 0
            a = a[~zero_rows]
            b_shift = b_shift[~zero_rows]
        finite = np.flatnonzero(np.isfinite(span))
        m = a.shape[0] + finite.size
        # Labels: structural 0..n-1, slack of row i n+i, artificial n+m.
        self._n_labels = n + m + 1
        self._basic = np.arange(n, n + m)
        self._bound_label[finite] = n + a.shape[0] + np.arange(finite.size)
        t = np.zeros((m + 1, n + 1))
        t[: a.shape[0], :n] = a
        t[a.shape[0]:m, :n][np.arange(finite.size), finite] = 1.0
        t[:m, n] = np.concatenate([b_shift, span[finite]])
        self._t = t
        self.status = "feasible"
        if m == 0 or t[:m, n].min() >= -_EPS:
            return 0

        # Auxiliary problem: max -x0 s.t. A' y - x0 <= b', y, x0 >= 0.
        # x0 enters at the most violated row, which makes every RHS
        # non-negative; the system is feasible iff x0 can reach zero.
        art = n + m
        self._t = t = np.hstack([t[:, :n], -np.ones((m + 1, 1)), t[:, n:]])
        self._nonbasic = np.append(self._nonbasic, art)
        costs = np.zeros(self._n_labels)
        costs[art] = -1.0
        self._price(costs)
        self._pivot(int(np.argmin(t[:m, -1])), n)
        status, pivots = self._run(prefer_leaving=art)
        pivots += 1
        if status != "optimal":  # pragma: no cover - -x0 is bounded by 0
            raise SimplexError(f"phase 1 ended {status}")
        if -self._t[m, -1] > _INFEASIBLE:
            self.status = "infeasible"
            return pivots
        rows = np.flatnonzero(self._basic == art)
        if rows.size:
            # x0 is basic at (about) zero: exchange it for the column
            # with the largest entry of its row, then drop its column.
            row = int(rows[0])
            entries = np.abs(self._t[row, :-1])
            if entries.max() > _EPS:
                self._pivot(row, int(np.argmax(entries)))
                pivots += 1
            else:  # an all-zero row: x0 stays basic, the row is inert
                self._t[row, :] = 0.0
        keep = self._nonbasic != art
        self._t = self._t[:, np.append(keep, True)]
        self._nonbasic = self._nonbasic[keep]
        return pivots

    # -- phase 2 -------------------------------------------------------
    def _price(self, costs: np.ndarray) -> None:
        """Objective row of ``max costs . labels`` at the current basis."""
        t = self._t
        m = t.shape[0] - 1
        basic_costs = costs[self._basic]
        t[m, :-1] = basic_costs @ t[:m, :-1] - costs[self._nonbasic]
        t[m, -1] = basic_costs @ t[:m, -1]

    def _run(self, prefer_leaving: int = -1) -> "tuple[str, int]":
        """Pivot to optimality from the current (feasible) basis.

        The objective row is the last row in reduced-cost form
        ``z + d . x_N = z0``: the basis is optimal when ``d >= 0``.
        ``prefer_leaving`` names a label that leaves on a ratio tie
        (phase 1's artificial, so it ends nonbasic).
        """
        t = self._t
        m = t.shape[0] - 1
        for iteration in range(_MAX_ITERATIONS):
            costs = t[m, :-1]
            if iteration < _BLAND_AFTER:
                enter = int(np.argmin(costs)) if costs.size else 0
                if not costs.size or costs[enter] >= -_EPS:
                    return "optimal", iteration
            else:
                negatives = np.flatnonzero(costs < -_EPS)
                if negatives.size == 0:
                    return "optimal", iteration
                # Bland: the smallest label enters.
                enter = int(negatives[np.argmin(self._nonbasic[negatives])])

            col = t[:m, enter]
            positive = col > _EPS
            if not np.any(positive):
                return "unbounded", iteration
            # A basic value that roundoff left slightly negative counts
            # as zero, and leaves at zero: the step is degenerate, never
            # backwards, so infeasibility cannot grow across pivots and
            # warm-started solves.
            rhs = np.maximum(t[:m, -1], 0.0)
            ratios = np.full(m, np.inf)
            ratios[positive] = rhs[positive] / col[positive]
            tied = np.flatnonzero(ratios <= np.min(ratios) + _EPS)
            labels = self._basic[tied]
            if prefer_leaving >= 0 and np.any(labels == prefer_leaving):
                leave = int(tied[labels == prefer_leaving][0])
            else:  # Bland tie-break on the leaving row: lowest label.
                leave = int(tied[np.argmin(labels)])
            t[leave, -1] = rhs[leave]
            self._pivot(leave, enter)
        raise SimplexError(
            f"simplex exceeded {_MAX_ITERATIONS} iterations"
        )  # pragma: no cover

    def _pivot(self, row: int, col: int) -> None:
        """Exchange the basic variable of ``row`` with the nonbasic
        variable of ``col`` (a Jordan exchange on the condensed tableau)."""
        t = self._t
        pivot_val = t[row, col]
        pivot_row = t[row] / pivot_val
        factors = t[:, col].copy()
        t -= np.outer(factors, pivot_row)
        t[row] = pivot_row
        t[:, col] = -factors / pivot_val
        t[row, col] = 1.0 / pivot_val
        self._basic[row], self._nonbasic[col] = (
            self._nonbasic[col], self._basic[row],
        )

    def _solution(self) -> np.ndarray:
        """``x`` of the current basis, bounds returned exactly."""
        n, m = self.n, self._t.shape[0] - 1
        y = np.zeros(n)
        structural = self._basic < n
        y[self._basic[structural]] = self._t[:m, -1][structural]
        np.clip(y, 0.0, None, out=y)
        x = self.lb + y
        # y_i at its upper bound: the slack of its bound row is nonbasic.
        basic = np.zeros(self._n_labels, dtype=bool)
        basic[self._basic] = True
        bounded = self._bound_label >= 0
        at_upper = bounded.copy()
        at_upper[bounded] = ~basic[self._bound_label[bounded]]
        x[at_upper] = self.ub[at_upper]
        # Clamp roundoff so downstream geometry sees in-box coordinates.
        np.clip(x, self.lb, self.ub, out=x)
        return x
