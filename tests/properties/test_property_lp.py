"""Property-based tests for the LP substrate.

The central property: the from-scratch simplex and scipy's HiGHS (the
test oracle) agree on status and optimal objective for arbitrary
box-bounded systems, and a warm-started solve reaches the same optimum
as a cold one — the LP layer is the foundation of every approximation
guarantee upstream.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import highs_maximize
from repro.lp.interface import maximize
from repro.lp.simplex import SimplexState


@st.composite
def lp_problems(draw):
    d = draw(st.integers(2, 5))
    m = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    a = rng.normal(size=(m, d))
    # Mix of feasible and infeasible systems: offset rows around a base
    # point by signed slack.
    x0 = rng.uniform(0.0, 1.0, size=d)
    slack = draw(
        st.lists(st.floats(-0.4, 0.8), min_size=m, max_size=m)
    )
    b = a @ x0 + np.asarray(slack)
    c = rng.normal(size=d)
    return c, a, b, np.zeros(d), np.ones(d)


@settings(max_examples=100, deadline=None)
@given(problem=lp_problems())
def test_simplex_agrees_with_scipy(problem):
    c, a, b, lb, ub = problem
    ours = maximize(c, a, b, lb, ub)
    ref = highs_maximize(c, a, b, lb, ub)
    assert ours.status == ref.status
    if ours.status == "optimal":
        assert abs(ours.objective - ref.objective) < 1e-6


@settings(max_examples=60, deadline=None)
@given(problem=lp_problems(), seed=st.integers(0, 2 ** 31))
def test_warm_state_matches_cold_solves(problem, seed):
    """A sequence of objectives through one state: each solve starts
    from the previous basis and must reach the optimum of a fresh state,
    which the test above holds to the oracle's."""
    __, a, b, lb, ub = problem
    state = SimplexState(a, b, lb, ub)
    rng = np.random.default_rng(seed)
    for __ in range(6):
        c = rng.normal(size=a.shape[1])
        warm = maximize(c, a, b, lb, ub, state)
        cold = maximize(c, a, b, lb, ub)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert abs(warm.objective - cold.objective) < 1e-7


@settings(max_examples=100, deadline=None)
@given(problem=lp_problems())
def test_optimal_solutions_are_feasible(problem):
    c, a, b, lb, ub = problem
    res = maximize(c, a, b, lb, ub)
    if res.status != "optimal":
        return
    assert np.all(res.x >= lb - 1e-9)
    assert np.all(res.x <= ub + 1e-9)
    if a.shape[0]:
        assert np.all(a @ res.x <= b + 1e-6)


@settings(max_examples=60, deadline=None)
@given(problem=lp_problems(), scale=st.floats(0.1, 10.0))
def test_objective_scaling_invariance(problem, scale):
    """Scaling the objective scales the optimum but not the argmax set."""
    c, a, b, lb, ub = problem
    base = maximize(c, a, b, lb, ub)
    scaled = maximize(scale * c, a, b, lb, ub)
    assert base.status == scaled.status
    if base.status == "optimal":
        assert abs(scaled.objective - scale * base.objective) < 1e-6


@settings(max_examples=60, deadline=None)
@given(problem=lp_problems())
def test_adding_constraints_never_improves(problem):
    """Monotonicity: dropping rows can only increase the maximum — the
    LP-level statement behind Lemma 1."""
    c, a, b, lb, ub = problem
    if a.shape[0] < 2:
        return
    full = maximize(c, a, b, lb, ub)
    half = maximize(c, a[::2], b[::2], lb, ub)
    if full.status == "optimal":
        assert half.status == "optimal"
        assert half.objective >= full.objective - 1e-7
