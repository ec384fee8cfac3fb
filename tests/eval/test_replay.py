"""Replay parity: captured workloads re-execute bit-identically.

The replay contract is the capture-side mirror of the engine parity
suites: whatever backend answered the capture (serial, batched,
sharded), replaying the log against an equivalent index must match
every id exactly and every distance float-exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nncell_index import NNCellIndex
from repro.eval.replay import Mismatch, ReplayReport, replay, replay_file
from repro.obs import workload
from repro.obs.workload import Workload, WorkloadRecorder
from repro.shard import ShardConfig, ShardedNNCellIndex


@pytest.fixture(autouse=True)
def clean_recorder():
    workload.uninstall()
    yield
    workload.uninstall()


def _capture_serial(index, queries):
    """Answer ``queries`` one by one; ``index.nearest`` itself feeds the
    installed recorder through the hot-path hook."""
    with workload.capturing() as recorder:
        for q in queries:
            index.nearest(q)
        return recorder.workload()


@st.composite
def point_sets_with_queries(draw):
    n = draw(st.integers(5, 30))
    dim = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    points = rng.uniform(size=(n, dim))
    queries = rng.uniform(size=(draw(st.integers(3, 12)), dim))
    return points, queries


class TestReplayParity:
    @settings(max_examples=10, deadline=None)
    @given(data=point_sets_with_queries())
    def test_serial_and_batch_replays_are_bit_identical(self, data):
        points, queries = data
        index = NNCellIndex.build(points)
        captured = _capture_serial(index, queries)
        assert len(captured) == len(queries)
        for mode in ("serial", "batch"):
            report = replay(index, captured, mode=mode)
            assert report.bit_identical, report.as_dict()
            assert report.n_queries == len(queries)

    @settings(max_examples=6, deadline=None)
    @given(data=point_sets_with_queries(), n_shards=st.integers(2, 4))
    def test_sharded_replay_matches_unsharded_capture(self, data, n_shards):
        points, queries = data
        index = NNCellIndex.build(points)
        captured = _capture_serial(index, queries)
        sharded = ShardedNNCellIndex.build(
            points, ShardConfig(n_shards=n_shards)
        )
        try:
            for mode in ("serial", "batch"):
                report = replay(sharded, captured, mode=mode)
                assert report.bit_identical, report.as_dict()
        finally:
            sharded.close()

    @settings(max_examples=6, deadline=None)
    @given(data=point_sets_with_queries(), batch_size=st.integers(1, 8))
    def test_batch_size_does_not_change_answers(self, data, batch_size):
        points, queries = data
        index = NNCellIndex.build(points)
        captured = _capture_serial(index, queries)
        report = replay(
            index, captured, mode="batch", batch_size=batch_size
        )
        assert report.bit_identical, report.as_dict()


class TestMismatchDetection:
    def _captured(self, seed=3):
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(20, 3))
        index = NNCellIndex.build(points)
        return index, _capture_serial(index, rng.uniform(size=(6, 3)))

    def test_doctored_id_is_reported(self):
        index, captured = self._captured()
        captured.point_ids[2] = captured.point_ids[2] + 1
        report = replay(index, captured)
        assert not report.bit_identical
        [mismatch] = report.mismatches
        assert isinstance(mismatch, Mismatch)
        assert mismatch.index == 2
        assert mismatch.expected_id == int(captured.point_ids[2])

    def test_doctored_distance_is_reported(self):
        index, captured = self._captured()
        captured.distances[4] += 1e-12  # any ULP difference counts
        report = replay(index, captured)
        assert [m.index for m in report.mismatches] == [4]

    def test_negative_expected_id_skips_distance_check(self):
        index, captured = self._captured()
        got_id, __, __ = index.nearest(captured.queries[0])
        captured.point_ids[0] = -1
        captured.distances[0] = float("nan")
        report = replay(index, captured)
        # id mismatch (-1 vs real id) is still flagged ...
        assert any(m.index == 0 for m in report.mismatches)
        assert all(m.got_id == got_id for m in report.mismatches
                   if m.index == 0)

    def test_as_dict_caps_listed_mismatches(self):
        index, captured = self._captured()
        captured.point_ids[:] = -999
        report = replay(index, captured)
        doc = report.as_dict(max_mismatches=2)
        assert doc["n_mismatches"] == 6
        assert len(doc["mismatches"]) == 2
        assert doc["bit_identical"] is False


class TestReplayMechanics:
    def test_mode_validated(self):
        rng = np.random.default_rng(0)
        index = NNCellIndex.build(rng.uniform(size=(5, 2)))
        empty = Workload(
            np.empty((0, 2)), np.empty(0, np.int64), np.empty(0)
        )
        with pytest.raises(ValueError, match="mode"):
            replay(index, empty, mode="warp")

    def test_empty_workload_short_circuits(self):
        rng = np.random.default_rng(0)
        index = NNCellIndex.build(rng.uniform(size=(5, 2)))
        empty = Workload(
            np.empty((0, 2)), np.empty(0, np.int64), np.empty(0)
        )
        report = replay(index, empty)
        assert isinstance(report, ReplayReport)
        assert report.bit_identical
        assert report.n_queries == 0
        assert report.throughput_qps() == 0.0

    def test_replay_accounts_pages_both_sides(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(size=(30, 3))
        index = NNCellIndex.build(points)
        captured = _capture_serial(index, rng.uniform(size=(8, 3)))
        report = replay(index, captured, mode="serial")
        assert report.captured_pages == int(captured.pages.sum())
        assert report.pages == report.captured_pages  # same index, same cost

    def test_replay_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        points = rng.uniform(size=(15, 2))
        index = NNCellIndex.build(points)
        path = tmp_path / "w.jsonl"
        recorder = WorkloadRecorder(sink=path)
        for q in rng.uniform(size=(5, 2)):
            point_id, distance, info = index.nearest(q)
            recorder.record(q, point_id, distance, info.pages)
        recorder.close()
        report = replay_file(index, path, mode="batch")
        assert report.bit_identical
        assert report.n_queries == 5
