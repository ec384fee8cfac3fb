"""Property-based tests for the LP substrate.

The central property: the from-scratch simplex and scipy's HiGHS (the
test oracle) agree on status and optimal objective for arbitrary
box-bounded systems, and a warm-started solve reaches the same optimum
as a cold one — the LP layer is the foundation of every approximation
guarantee upstream.

One band is the simplex's by contract: a system whose rows can all hold
within ``_INFEASIBLE`` is feasible to it, although HiGHS may call it
empty.  There the tests assert that contract instead of HiGHS's answer.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import highs_least_violation, highs_maximize
from repro.lp.interface import maximize
from repro.lp.simplex import _INFEASIBLE, SimplexState


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


#: A drawn system HiGHS calls empty whose rows can all hold within
#: 1.42e-8: the simplex answers it ``optimal`` with a row 2.03e-8 short,
#: and with a higher maximum than its every-other-row half.
NEAR_FEASIBLE = (
    np.array([-0.7037352358069926, -1.2654214710460525]),
    np.array([
        [0.1257302210933933, -0.1321048632913019],
        [0.6404226504432821, 0.10490011715303971],
        [-0.535669373161111, 0.36159505490948474],
    ]),
    np.array([-0.0200975932498963, 0.4650275660804949, -0.06117391632166509]),
    np.zeros(2),
    np.ones(2),
)


def in_band(reference, a, b, lb, ub):
    """HiGHS's ``reference`` solve found the system empty, but its rows
    can all hold within ``_INFEASIBLE``."""
    return (
        reference.status == "infeasible"
        and highs_least_violation(a, b, lb, ub) <= _INFEASIBLE
    )


def assert_feasible_within_band(result, a, b, lb, ub):
    """What the simplex promises a system inside the band."""
    assert result.status == "optimal"
    assert np.all(result.x >= lb) and np.all(result.x <= ub)
    assert np.all(a @ result.x <= b + _INFEASIBLE)


@settings(max_examples=100, deadline=None)
@given(problem=lp_problems())
@example(problem=NEAR_FEASIBLE)
def test_simplex_agrees_with_scipy(problem):
    c, a, b, lb, ub = problem
    ours = maximize(c, a, b, lb, ub)
    ref = highs_maximize(c, a, b, lb, ub)
    if in_band(ref, a, b, lb, ub):
        assert_feasible_within_band(ours, a, b, lb, ub)
        return
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
@example(problem=NEAR_FEASIBLE)
def test_adding_constraints_never_improves(problem):
    """Monotonicity: dropping rows can only increase the maximum — the
    LP-level statement behind Lemma 1.  Inside the band the full system
    is only feasible within ``_INFEASIBLE``, so its maximum may pass the
    half's; there the band's contract is asserted."""
    c, a, b, lb, ub = problem
    if a.shape[0] < 2:
        return
    full = maximize(c, a, b, lb, ub)
    half = maximize(c, a[::2], b[::2], lb, ub)
    if full.status == "optimal":
        assert half.status == "optimal"
        if in_band(highs_maximize(c, a, b, lb, ub), a, b, lb, ub):
            assert_feasible_within_band(full, a, b, lb, ub)
        else:
            assert half.objective >= full.objective - 1e-7
