"""Property-based tests for the paper's core guarantees.

* no false dismissals: the cell index always returns the exact nearest
  neighbor, for arbitrary point sets, selectors and decompositions;
* Lemma 1 as a property: constraint subsets only enlarge approximations,
  and every warm-started MBR contains the HiGHS optima of its axes;
* NN-cells tile the data space: every generic point has exactly one owner.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import highs_mbr
from repro.core.approximation import approximate_cell
from repro.core.candidates import SelectorKind
from repro.core.constraints import cell_system
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.geometry.mbr import MBR


@st.composite
def small_point_sets(draw):
    n = draw(st.integers(3, 35))
    dim = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, dim))


@settings(max_examples=15, deadline=None)
@given(
    points=small_point_sets(),
    selector=st.sampled_from(list(SelectorKind)),
    decompose=st.booleans(),
)
def test_no_false_dismissals(points, selector, decompose):
    config = BuildConfig(
        selector=selector,
        decompose=decompose,
        decomposition=DecompositionConfig(k_max=4),
    )
    index = NNCellIndex.build(points, config)
    rng = np.random.default_rng(7)
    for __ in range(10):
        q = rng.uniform(size=points.shape[1])
        __, dist, __ = index.nearest(q)
        true_dist = float(np.min(np.linalg.norm(points - q, axis=1)))
        assert abs(dist - true_dist) < 1e-9


@settings(max_examples=25, deadline=None)
@given(points=small_point_sets(), data=st.data())
def test_lemma1_subset_monotonicity(points, data):
    n = points.shape[0]
    center = data.draw(st.integers(0, n - 1))
    others = [i for i in range(n) if i != center]
    subset_size = data.draw(st.integers(1, len(others)))
    subset = data.draw(
        st.lists(
            st.sampled_from(others),
            min_size=subset_size,
            max_size=subset_size,
            unique=True,
        )
    )
    full = approximate_cell(
        cell_system(points, center, others), center=points[center]
    )
    partial = approximate_cell(
        cell_system(points, center, subset), center=points[center]
    )
    assert partial.contains(full, atol=1e-7)


@settings(max_examples=15, deadline=None)
@given(points=small_point_sets())
def test_cells_tile_the_data_space(points):
    """Each generic query point lies in the (exact) cell of its NN and in
    no other exact cell; with approximations it lies in >= 1 rectangle."""
    n = points.shape[0]
    index = NNCellIndex.build(
        points, BuildConfig(selector=SelectorKind.CORRECT)
    )
    rng = np.random.default_rng(11)
    for __ in range(10):
        q = rng.uniform(size=points.shape[1])
        dists = np.linalg.norm(points - q, axis=1)
        order = np.argsort(dists)
        if dists[order[1]] - dists[order[0]] < 1e-6:
            continue  # near-tie: ownership numerically ambiguous
        owner = int(order[0])
        inside = [
            i for i in range(n)
            if index.constraint_system(i).contains(q)
        ]
        assert inside == [owner]


@settings(max_examples=15, deadline=None)
@given(points=small_point_sets(), data=st.data())
def test_dynamic_insert_preserves_exactness(points, data):
    index = NNCellIndex.build(
        points, BuildConfig(selector=SelectorKind.NN_DIRECTION)
    )
    dim = points.shape[1]
    extra = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(13)
    for __ in range(extra):
        index.insert(rng.uniform(size=dim))
    live = index.points[index.active_ids]
    for __ in range(8):
        q = rng.uniform(size=dim)
        __, dist, __ = index.nearest(q)
        true_dist = float(np.min(np.linalg.norm(live - q, axis=1)))
        assert abs(dist - true_dist) < 1e-9


@st.composite
def bisector_cases(draw):
    """A cell's bisector system (d 2..8, up to ~150 rows, some duplicate
    points) and either no sub-box or one that may miss the cell."""
    dim = draw(st.integers(2, 8))
    n = draw(st.integers(2, 151))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    points = rng.uniform(size=(n, dim))
    n_dup = draw(st.integers(0, n // 4))
    points[rng.integers(0, n, n_dup)] = points[rng.integers(0, n, n_dup)]
    center = int(rng.integers(n))
    sub_box = None
    if draw(st.booleans()):
        # Around the centre (mostly hits the cell) or anywhere (mostly
        # misses it once the cell is small).
        anchor = points[center] if draw(st.booleans()) else rng.uniform(size=dim)
        low = np.clip(anchor - rng.uniform(0.0, 0.3, dim), 0.0, 1.0)
        high = np.clip(anchor + rng.uniform(0.0, 0.3, dim), 0.0, 1.0)
        sub_box = MBR(low, high)
    return points, center, sub_box


@settings(max_examples=60, deadline=None)
@given(case=bisector_cases())
def test_lemma1_mbr_contains_highs_optima(case):
    """The MBR of the warm-started LPs contains the HiGHS minimum and
    maximum on every axis, and is ``None`` exactly when HiGHS finds the
    (sub-boxed) cell empty.  Full cells take the pruning pre-pass."""
    points, center, sub_box = case
    system = cell_system(points, center, np.arange(points.shape[0]))
    if sub_box is None:
        mbr = approximate_cell(system, center=points[center])
    else:
        system = system.clipped_to(sub_box)
        mbr = approximate_cell(system)
    ref = highs_mbr(system)
    if ref is None:
        assert mbr is None
        return
    assert mbr is not None
    low, high = ref
    assert np.all(mbr.low <= low + 1e-7) and np.all(mbr.high >= high - 1e-7)
    assert np.allclose(mbr.low, low, atol=1e-6)
    assert np.allclose(mbr.high, high, atol=1e-6)
