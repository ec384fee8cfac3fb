"""Ablation — selector tuning and the LP solver (ours, beyond the paper).

Two sweeps:

* the Sphere selector's radius factor (the paper's heuristic constant,
  OCR-damaged in the source; we expose it as a parameter and sweep it),
  showing the overlap / construction-cost trade-off around the paper's
  ``2.0``;
* the same cells' ``2d`` LPs solved by the warm-started simplex, by a
  cold simplex (a fresh state per LP) and by scipy's HiGHS, validating
  the one-solver runtime: the warm simplex must not be slower than
  HiGHS.  This sweep needs scipy (the ``test`` extra).
"""

import numpy as np
from bench_common import publish, scaled
from scipy.optimize import linprog

from repro.core.candidates import SelectorKind, SelectorParams
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.quality import average_overlap
from repro.data import uniform_points
from repro.eval.harness import Timer
from repro.eval.reporting import ResultTable
from repro.geometry.mbr import MBR
from repro.lp.interface import maximize
from repro.lp.simplex import SimplexState

RADIUS_FACTORS = (0.5, 1.0, 2.0, 4.0)


def bench_ablation_sphere_radius(benchmark):
    def run():
        table = ResultTable(
            "Ablation: Sphere selector radius factor (paper value: 2.0)",
            ["radius_factor", "overlap", "build_seconds",
             "mean_constraints"],
        )
        points = uniform_points(scaled(150), 3, seed=103)
        box = MBR.unit_cube(3)
        for factor in RADIUS_FACTORS:
            config = BuildConfig(
                selector=SelectorKind.SPHERE,
                selector_params=SelectorParams(sphere_radius_factor=factor),
                # Small pages so the sphere query distinguishes data
                # pages even at the scaled-down database size.
                page_size=512,
            )
            with Timer() as timer:
                index = NNCellIndex.build(points, config)
            rects = [r for __, r in index.all_cell_rectangles()]
            mean_constraints = sum(
                index.constraint_system(i).n_constraints
                for i in index.active_ids
            ) / len(index)
            table.add_row(
                radius_factor=factor,
                overlap=average_overlap(rects, box),
                build_seconds=timer.seconds,
                mean_constraints=mean_constraints,
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(table, "ablation_sphere_radius")
    overlaps = table.column("overlap")
    constraints = table.column("mean_constraints")
    # Bigger radius -> more constraints -> tighter approximations.
    assert constraints == sorted(constraints)
    assert overlaps[-1] <= overlaps[0] + 1e-9


def _axis_extents(system, solve):
    """Per-axis minimum and maximum over ``system`` by ``solve(c, state)``,
    one state shared by the ``2d`` objectives."""
    box, dim = system.box, system.dim
    state = SimplexState(system.a, system.b, box.low, box.high)
    ext = np.empty((2, dim))
    for axis in range(dim):
        c = np.eye(dim)[axis]
        ext[0, axis] = -solve(system, -c, state)
        ext[1, axis] = solve(system, c, state)
    return ext


def _warm(system, c, state):
    box = system.box
    return maximize(c, system.a, system.b, box.low, box.high, state).objective


def _cold(system, c, __):
    box = system.box
    return maximize(c, system.a, system.b, box.low, box.high).objective


def _highs(system, c, __):
    res = linprog(-c, A_ub=system.a, b_ub=system.b,
                  bounds=list(zip(system.box.low, system.box.high)),
                  method="highs")
    return -res.fun


SOLVERS = (("simplex (warm)", _warm), ("simplex (cold)", _cold),
           ("highs", _highs))


def bench_ablation_lp_backend(benchmark):
    def run():
        table = ResultTable(
            "Ablation: the same cells' 2d LPs per solver",
            ["cells", "solver", "lps", "mean_rows", "seconds", "us_per_lp"],
        )
        # Small systems (NN-direction) and the default Sphere build's
        # full systems (~100 rows), where HiGHS's fixed per-call cost
        # weighs least.
        for cells, selector, n, dim in (
            ("nn_direction", SelectorKind.NN_DIRECTION, scaled(50), 4),
            ("sphere", SelectorKind.SPHERE, scaled(100), 6),
        ):
            points = uniform_points(n, dim, seed=104)
            index = NNCellIndex.build(points, BuildConfig(selector=selector))
            systems = [index.constraint_system(i) for i in index.active_ids]
            lps = 2 * dim * len(systems)
            rows = float(np.mean([s.n_constraints for s in systems]))
            extents = {}
            for name, solve in SOLVERS:
                with Timer() as timer:
                    extents[name] = [_axis_extents(s, solve) for s in systems]
                table.add_row(cells=cells, solver=name, lps=lps,
                              mean_rows=rows, seconds=timer.seconds,
                              us_per_lp=1e6 * timer.seconds / lps)
            for name, __ in SOLVERS[1:]:
                assert np.allclose(extents[name], extents["simplex (warm)"],
                                   atol=1e-6), (cells, name)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(table, "ablation_lp_backend")
    seconds = {(r["cells"], r["solver"]): r["seconds"] for r in table.rows}
    # The runtime keeps one solver only while it is not slower than the
    # oracle it replaced, on small systems and on large ones.
    for cells in ("nn_direction", "sphere"):
        assert seconds[cells, "simplex (warm)"] <= seconds[cells, "highs"]
