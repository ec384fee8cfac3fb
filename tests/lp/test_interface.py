"""Unit tests for the LP front-end, checked against the HiGHS oracle."""

import numpy as np
import pytest

from helpers import highs_maximize
from repro.lp.interface import LPResult, maximize, minimize
from repro.lp.simplex import SimplexState
from repro.obs import metrics


def random_feasible_problem(rng, d=4, m=10):
    a = rng.normal(size=(m, d))
    x0 = rng.uniform(0.2, 0.8, size=d)
    b = a @ x0 + rng.uniform(0.0, 0.5, size=m)
    c = rng.normal(size=d)
    return c, a, b, np.zeros(d), np.ones(d)


class TestBackends:
    """The simplex against HiGHS, the test suite's oracle."""

    def test_simplex_scipy_agree_on_optimum(self, rng):
        for __ in range(30):
            c, a, b, lb, ub = random_feasible_problem(rng)
            r1 = maximize(c, a, b, lb, ub)
            r2 = highs_maximize(c, a, b, lb, ub)
            assert r1.is_optimal and r2.is_optimal
            assert r1.objective == pytest.approx(r2.objective, abs=1e-7)

    def test_simplex_scipy_agree_on_infeasible(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.2, -0.8])
        c = np.array([1.0, 0.0])
        for res in (
            maximize(c, a, b, np.zeros(2), np.ones(2)),
            highs_maximize(c, a, b, np.zeros(2), np.ones(2)),
        ):
            assert res.status == "infeasible"
            assert res.x is None


class TestWarmStart:
    def test_shared_state_matches_cold_solves(self, rng):
        """One state re-optimised over many objectives gives each cold
        optimum, and the oracle's."""
        c, a, b, lb, ub = random_feasible_problem(rng, d=5, m=30)
        state = SimplexState(a, b, lb, ub)
        for __ in range(20):
            c = rng.normal(size=5)
            warm = maximize(c, a, b, lb, ub, state)
            cold = maximize(c, a, b, lb, ub)
            ref = highs_maximize(c, a, b, lb, ub)
            assert warm.is_optimal and cold.is_optimal
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.objective == pytest.approx(ref.objective, abs=1e-7)

    def test_phase_one_runs_once(self):
        """Only the first solve of a state pays for phase 1: a warm solve
        from the optimum it already sits at makes no pivot."""
        # x0 >= 0.3, x1 >= 0.2, x0 + x1 <= 1.2: the box corner 0 is cut
        # off, so the first solve needs phase 1.
        a = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        b = np.array([-0.3, -0.2, 1.2])
        state = SimplexState(a, b, np.zeros(2), np.ones(2))
        c = np.array([1.0, 0.0])
        first = state.maximize(c)
        again = state.maximize(c)
        assert first.is_optimal and again.is_optimal
        assert first.iterations > 0
        assert again.iterations == 0
        assert again.objective == first.objective == 1.0

    def test_infeasible_state_stays_infeasible(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([0.2, -0.8])
        state = SimplexState(a, b, np.zeros(1), np.ones(1))
        for sign in (1.0, -1.0, 1.0):
            res = maximize(np.array([sign]), a, b, np.zeros(1), np.ones(1),
                           state)
            assert res.status == "infeasible"

    def test_unbounded_solve_leaves_state_usable(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([5.0])
        lb, ub = np.zeros(2), np.array([np.inf, np.inf])
        state = SimplexState(a, b, lb, ub)
        assert maximize(np.array([0.0, 1.0]), a, b, lb, ub,
                        state).status == "unbounded"
        res = maximize(np.array([1.0, 0.0]), a, b, lb, ub, state)
        assert res.is_optimal
        assert res.objective == pytest.approx(5.0)

    def test_every_call_counts_one_solve(self, rng):
        c, a, b, lb, ub = random_feasible_problem(rng)
        state = SimplexState(a, b, lb, ub)
        with metrics.collecting(fresh=True) as registry:
            for __ in range(3):
                maximize(c, a, b, lb, ub, state)
                minimize(c, a, b, lb, ub, state)
        snap = registry.snapshot()
        assert snap["lp.solves"] == 6
        assert snap["lp.constraint_rows"] == 6 * a.shape[0]


class TestMinimize:
    def test_minimize_is_negated_maximize(self, rng):
        c, a, b, lb, ub = random_feasible_problem(rng)
        mn = minimize(c, a, b, lb, ub)
        mx = maximize(-c, a, b, lb, ub)
        assert mn.is_optimal
        assert mn.objective == pytest.approx(-mx.objective)

    def test_minimize_propagates_infeasible(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([0.2, -0.8])
        res = minimize(np.array([1.0]), a, b, np.zeros(1), np.ones(1))
        assert res.status == "infeasible"

    def test_minimize_axis_objective(self):
        # min x0 subject to x0 + x1 >= 0.6 over unit box.
        a = np.array([[-1.0, -1.0]])
        b = np.array([-0.6])
        res = minimize(np.array([1.0, 0.0]), a, b, np.zeros(2), np.ones(2))
        assert res.is_optimal
        assert res.objective == pytest.approx(0.0)  # (0, 0.6) feasible


class TestLPResult:
    def test_flags(self):
        ok = LPResult("optimal", np.zeros(1), 0.0)
        bad = LPResult("infeasible", None, float("nan"))
        assert ok.is_optimal
        assert not bad.is_optimal

    def test_scipy_result_within_bounds(self, rng):
        """The solver's optimum stays in the box and matches the
        oracle's objective."""
        for __ in range(10):
            c, a, b, lb, ub = random_feasible_problem(rng)
            res = maximize(c, a, b, lb, ub)
            assert np.all(res.x >= lb) and np.all(res.x <= ub)
            assert res.objective == pytest.approx(
                highs_maximize(c, a, b, lb, ub).objective, abs=1e-7
            )
