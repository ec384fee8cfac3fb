"""Stress tests for the simplex: degeneracy, conditioning, cycling."""

import numpy as np
import pytest

from helpers import highs_maximize
from repro.lp.simplex import SimplexState, simplex_maximize


class TestDegeneracyStress:
    def test_many_coincident_hyperplanes(self):
        """Dozens of constraints active at the same vertex (maximal
        degeneracy) must terminate via Bland's rule and stay correct."""
        d = 4
        rng = np.random.default_rng(231)
        vertex = np.full(d, 0.5)
        a = rng.normal(size=(40, d))
        b = a @ vertex  # every constraint passes through the vertex
        c = -np.abs(rng.normal(size=d))
        # Feasible set contains... the vertex at least; maximum of a
        # negative objective over it is bounded.
        res = simplex_maximize(c, a, b, np.zeros(d), np.ones(d))
        ref = highs_maximize(c, a, b, np.zeros(d), np.ones(d))
        assert res.status == ref.status
        if res.is_optimal:
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_duplicate_rows_mass(self):
        a = np.tile(np.array([[1.0, 1.0, 1.0]]), (60, 1))
        b = np.full(60, 1.2)
        res = simplex_maximize(
            np.ones(3), a, b, np.zeros(3), np.ones(3)
        )
        assert res.is_optimal
        assert res.objective == pytest.approx(1.2)

    def test_nearly_parallel_constraints(self):
        rng = np.random.default_rng(232)
        base = rng.normal(size=3)
        a = np.stack([base + rng.normal(scale=1e-9, size=3)
                      for __ in range(20)])
        x0 = np.full(3, 0.5)
        b = a @ x0 + 0.1
        res = simplex_maximize(base, a, b, np.zeros(3), np.ones(3))
        ref = highs_maximize(base, a, b, np.zeros(3), np.ones(3))
        assert res.is_optimal and ref.is_optimal
        assert res.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_wide_coefficient_range(self):
        """Mixed magnitudes (1e-6 .. 1e6) should not break feasibility
        detection."""
        a = np.array([[1e6, 0.0], [0.0, 1e-6], [-1.0, -1.0]])
        x0 = np.array([0.3, 0.4])
        b = a @ x0 + np.array([1.0, 1e-7, 0.1])
        c = np.array([1.0, 1.0])
        res = simplex_maximize(c, a, b, np.zeros(2), np.ones(2))
        ref = highs_maximize(c, a, b, np.zeros(2), np.ones(2))
        assert res.status == ref.status == "optimal"
        assert res.objective == pytest.approx(ref.objective, rel=1e-5)


class TestBulkAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_batches_of_random_cells(self, seed):
        """Mini soak: whole batches of bisector-shaped systems, all
        2d objectives of a cell through one warm state, statuses and
        optima identical to the oracle's."""
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(2, 7))
        pts = rng.uniform(size=(18, d))
        center = pts[0]
        a = 2.0 * (pts[1:] - center)
        b = np.einsum("ij,ij->i", pts[1:], pts[1:]) - float(center @ center)
        state = SimplexState(a, b, np.zeros(d), np.ones(d))
        for axis in range(d):
            c = np.zeros(d)
            c[axis] = 1.0
            for sign in (1.0, -1.0):
                ours = state.maximize(sign * c)
                ref = highs_maximize(sign * c, a, b, np.zeros(d), np.ones(d))
                assert ours.status == ref.status == "optimal"
                assert ours.objective == pytest.approx(
                    ref.objective, abs=1e-7
                )
