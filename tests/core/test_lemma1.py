"""Lemma 1: optimized selectors never shrink the approximation.

For every point set and every optimised strategy (Point, Sphere,
NN-Direction), the MBR approximation computed from the strategy's
constraint subset must *contain* the Correct approximation — the paper's
no-false-dismissal argument hinges on this.
"""

import numpy as np
import pytest

from repro.core.approximation import approximate_cell
from repro.core.candidates import CandidateSelector, SelectorKind, SelectorParams
from repro.core.constraints import cell_system
from repro.data import clustered_points, uniform_points
from repro.index.node import entry_bytes
from repro.index.packed import bulk_load
from repro.storage.page import DEFAULT_PAGE_SIZE

OPTIMIZED = [SelectorKind.POINT, SelectorKind.SPHERE, SelectorKind.NN_DIRECTION]


def build_tree(points):
    """The data snapshot of ``points``, each leaf entry sized as a
    directory rectangle."""
    return bulk_load(
        points, points, np.arange(len(points)), DEFAULT_PAGE_SIZE,
        entry_bytes(points.shape[1]),
    )


@pytest.mark.parametrize("kind", OPTIMIZED)
@pytest.mark.parametrize(
    "points",
    [
        uniform_points(60, 2, seed=31),
        uniform_points(60, 4, seed=32),
        uniform_points(40, 6, seed=33),
        clustered_points(60, 3, seed=34),
    ],
    ids=["uniform-2d", "uniform-4d", "uniform-6d", "clustered-3d"],
)
def test_optimized_approximation_contains_correct(points, kind):
    tree = build_tree(points)
    selector = CandidateSelector(points, tree, kind, SelectorParams())
    n = len(points)
    for center in range(0, n, max(1, n // 12)):
        correct_system = cell_system(points, center, np.arange(n))
        correct_mbr = approximate_cell(correct_system, center=points[center])
        subset = selector.candidates(center)
        subset_system = cell_system(points, center, subset)
        subset_mbr = approximate_cell(subset_system, center=points[center])
        assert subset_mbr.contains(correct_mbr, atol=1e-7), (
            f"{kind.value} approximation lost part of the correct cell "
            f"for centre {center}"
        )


def test_subset_monotonicity(rng):
    """More constraints never enlarge the approximation (the generalised
    form of Lemma 1: MBR(S1) ⊇ MBR(S2) whenever S1 ⊆ S2)."""
    points = uniform_points(50, 3, seed=35)
    center = 0
    all_ids = np.arange(1, 50)
    for __ in range(10):
        small = rng.choice(all_ids, size=8, replace=False)
        extra = rng.choice(
            np.setdiff1d(all_ids, small), size=12, replace=False
        )
        big = np.concatenate([small, extra])
        mbr_small = approximate_cell(
            cell_system(points, center, small), center=points[center]
        )
        mbr_big = approximate_cell(
            cell_system(points, center, big), center=points[center]
        )
        assert mbr_small.contains(mbr_big, atol=1e-7)


def test_correct_is_tightest_in_volume():
    points = uniform_points(80, 4, seed=36)
    tree = build_tree(points)
    n = len(points)
    correct_volumes = []
    for center in range(0, n, 10):
        system = cell_system(points, center, np.arange(n))
        correct_volumes.append(
            approximate_cell(system, center=points[center]).volume()
        )
    for kind in OPTIMIZED:
        selector = CandidateSelector(points, tree, kind, SelectorParams())
        for i, center in enumerate(range(0, n, 10)):
            subset_system = cell_system(
                points, center, selector.candidates(center)
            )
            vol = approximate_cell(
                subset_system, center=points[center]
            ).volume()
            assert vol >= correct_volumes[i] - 1e-9
