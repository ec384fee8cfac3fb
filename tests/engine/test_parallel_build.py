"""Parity suite: parallel cell construction is bit-identical to serial.

The determinism guarantee of :mod:`repro.engine.parallel` — same cells,
same constraint systems, same tree pages, for every worker count and
process start method.  This is what lets ``--workers`` be a pure
throughput knob with no semantic surface.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from helpers import snapshots_equal
from repro.core.candidates import SelectorKind
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.data import uniform_points
from repro.engine.parallel import (
    CellWorkshop,
    _init_process_worker,
    _mp_context,
    chunk_ids,
    parallel_cells,
    resolve_workers,
)
from repro.obs import analytics, events, metrics, tracing


def cells_signature(index):
    """Byte-exact record of every cell: the index's cell columns."""
    return {
        name: (column.dtype.str, column.shape, column.tobytes())
        for name, column in index.cells.items()
    }


def assert_cell_matches(index, point_id, system, rects):
    """``(system, rects)`` is, to the byte, the index's cell ``point_id``."""
    expected = index.constraint_system(point_id)
    assert system.a.tobytes() == expected.a.tobytes()
    assert system.b.tobytes() == expected.b.tobytes()
    assert system.point_ids.tobytes() == expected.point_ids.tobytes()
    assert [(r.low.tobytes(), r.high.tobytes()) for r in rects] == [
        (r.low.tobytes(), r.high.tobytes())
        for r in index.cell_rectangles(point_id)
    ]


def assert_runs_match(index, point_id, runs):
    """A worker's column runs ``(b, ids, lows, highs)`` are, to the
    byte, the index's cell ``point_id``."""
    b, ids, lows, highs = runs
    expected = index.constraint_system(point_id)
    assert b.tobytes() == expected.b.tobytes()
    assert ids.tobytes() == expected.point_ids.tobytes()
    rects = index.cell_rectangles(point_id)
    assert lows.tobytes() == np.stack([r.low for r in rects]).tobytes()
    assert highs.tobytes() == np.stack([r.high for r in rects]).tobytes()


def build(points, **overrides):
    defaults = dict(selector=SelectorKind.NN_DIRECTION)
    defaults.update(overrides)
    return NNCellIndex.build(points, BuildConfig(**defaults))


class TestParity:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_build_identical(self, seed, workers):
        points = uniform_points(48, 3, seed=seed)
        serial = build(points)
        parallel = build(points, workers=workers)
        assert cells_signature(serial) == cells_signature(parallel)
        assert snapshots_equal(serial.snapshot, parallel.snapshot)
        assert snapshots_equal(serial.data_snapshot, parallel.data_snapshot)

    def test_thread_build_identical(self):
        points = uniform_points(40, 3, seed=3)
        serial = build(points)
        parallel = build(points, workers=2)
        assert cells_signature(serial) == cells_signature(parallel)
        assert snapshots_equal(serial.snapshot, parallel.snapshot)

    def test_sphere_selector_build_identical(self):
        points = uniform_points(36, 2, seed=11)
        serial = build(points, selector=SelectorKind.SPHERE)
        for workers in (2, 3):
            parallel = build(
                points, selector=SelectorKind.SPHERE, workers=workers
            )
            assert cells_signature(serial) == cells_signature(parallel)

    def test_spawned_workers_match_serial(self, monkeypatch):
        # Platforms without fork start workers from a fresh import.
        monkeypatch.setattr(
            "repro.engine.parallel._mp_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        points = uniform_points(30, 3, seed=13)
        serial = build(points)
        cells = parallel_cells(points, serial.config, workers=2)
        assert len(cells) == points.shape[0]
        for point_id, runs in enumerate(cells):
            assert_runs_match(serial, point_id, runs)

    def test_decomposed_build_identical(self):
        points = uniform_points(24, 2, seed=5)
        serial = build(points, decompose=True)
        parallel = build(points, decompose=True, workers=2)
        assert cells_signature(serial) == cells_signature(parallel)
        assert snapshots_equal(serial.snapshot, parallel.snapshot)

    def test_parallel_index_answers_queries(self):
        points = uniform_points(50, 3, seed=2)
        index = build(points, workers=2)
        rng = np.random.default_rng(9)
        for q in rng.uniform(size=(25, 3)):
            pid, dist, __ = index.nearest(q)
            diffs = points - q
            brute = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
            assert pid == brute


class TestWorkshop:
    def test_workshop_matches_serial_cells(self):
        points = uniform_points(30, 2, seed=4)
        serial = build(points)
        workshop = CellWorkshop(points, serial.config)
        assert snapshots_equal(workshop.data_snapshot, serial.data_snapshot)
        for point_id in range(points.shape[0]):
            system, rects = workshop.compute(point_id)
            assert_cell_matches(serial, point_id, system, rects)


class TestChunking:
    def test_chunks_cover_range_in_order(self):
        chunks = chunk_ids(103, workers=4)
        joined = np.concatenate(chunks)
        assert np.array_equal(joined, np.arange(103))

    def test_empty_workload(self):
        assert chunk_ids(0, workers=2) == []

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestConfigValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            BuildConfig(workers=-2)


def instrumentation_switches(__):
    return (
        metrics.enabled(),
        tracing.enabled(),
        events.enabled(),
        analytics.get_recorder() is not None,
    )


class TestWorkerInstrumentation:
    def test_forked_workers_record_nothing(self):
        # A fork copies the parent's switches; the pool initializer must
        # turn every one off, or each worker LP updates (and locks) a
        # copy of the parent's sinks that nobody reads.
        points = uniform_points(8, 2, seed=1)
        config = BuildConfig(selector=SelectorKind.NN_DIRECTION)
        with metrics.collecting(), tracing.collecting(), \
                events.collecting(), analytics.recording():
            assert all(instrumentation_switches(None))
            with ProcessPoolExecutor(
                max_workers=2,
                mp_context=_mp_context(),
                initializer=_init_process_worker,
                initargs=(points, config),
            ) as pool:
                reports = list(pool.map(instrumentation_switches, range(8)))
        assert reports == [(False, False, False, False)] * 8
