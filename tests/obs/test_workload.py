"""Workload capture: recorder, sampling, sinks, JSONL/NPZ round trips."""

import json

import numpy as np
import pytest

from repro.core.nncell_index import QueryInfo
from repro.engine.batch import BatchQueryInfo
from repro.obs import analytics, workload
from repro.obs.events import EventLog
from repro.obs.workload import (
    WORKLOAD_FORMAT,
    WORKLOAD_VERSION,
    Workload,
    WorkloadFormatError,
    WorkloadRecorder,
    load_workload,
    save_workload_npz,
)


@pytest.fixture(autouse=True)
def clean_recorder():
    workload.uninstall()
    yield
    workload.uninstall()


def _fill(recorder, n, dim=3, pages=2):
    rng = np.random.default_rng(7)
    for i in range(n):
        recorder.record(rng.random(dim), i, float(i) * 0.5, pages)


class TestWorkloadRecorder:
    def test_records_and_exports_a_workload(self):
        rec = WorkloadRecorder()
        _fill(rec, 5)
        captured = rec.workload()
        assert len(captured) == 5
        assert captured.dim == 3
        assert captured.point_ids.tolist() == [0, 1, 2, 3, 4]
        assert captured.distances[3] == 1.5
        assert captured.pages.tolist() == [2] * 5
        assert rec.seen == rec.recorded == 5

    def test_capacity_ring_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(WorkloadRecorder, "capacity", 3)
        rec = WorkloadRecorder()
        _fill(rec, 5)
        captured = rec.workload()
        assert len(captured) == 3
        assert captured.point_ids.tolist() == [2, 3, 4]
        assert rec.dropped == 2
        assert rec.recorded == 5

    def test_sampling_is_seeded_and_reproducible(self):
        kept = []
        for __ in range(2):
            rec = WorkloadRecorder(sample=0.3)
            _fill(rec, 200)
            kept.append(rec.workload().point_ids.tolist())
        assert kept[0] == kept[1]
        assert 0 < len(kept[0]) < 200
        assert rec.seen == 200
        assert rec.recorded == len(kept[0])

    def test_sample_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                WorkloadRecorder(sample=bad)

    def test_capacity_validated(self):
        assert WorkloadRecorder.capacity == workload.DEFAULT_CAPACITY >= 1
        assert isinstance(WorkloadRecorder(), EventLog)  # the one log class

    def test_path_sink_writes_header_then_records(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        rec = WorkloadRecorder(sink=path)
        _fill(rec, 2)
        rec.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {
            "format": WORKLOAD_FORMAT,
            "version": WORKLOAD_VERSION,
            "dim": 3,
        }
        first = json.loads(lines[1])
        assert first["id"] == 0
        assert first["pages"] == 2
        assert len(first["q"]) == 3

    def test_appending_to_existing_log_skips_second_header(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        rec = WorkloadRecorder(sink=path)
        _fill(rec, 1)
        rec.close()
        rec2 = WorkloadRecorder(sink=path)
        _fill(rec2, 1)
        rec2.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # one header, two records
        loaded = load_workload(path)
        assert len(loaded) == 2

    def test_borrowed_file_sink_is_not_closed(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            rec = WorkloadRecorder(sink=handle)
            _fill(rec, 1)
            rec.close()
            assert not handle.closed


class TestBatchPages:
    """A batched capture's per-query pages add up to the batch's pages."""

    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(3).uniform(size=(80, 4))

    @staticmethod
    def _check(index, n_batches=5, size=32):
        rng = np.random.default_rng(4)
        rec = workload.install()
        total = 0
        for __ in range(n_batches):
            before = len(rec)
            __, __, info = index.query_batch(rng.uniform(size=(size, 4)))
            assert 0 < info.pages < size  # the case that used to record 0
            total += info.pages
            pages = rec.workload().pages[before:]
            assert pages.sum() == info.pages
            assert pages.max() - pages.min() <= 1
        assert rec.workload().pages.sum() == total

    def test_unsharded_batch_pages_add_up(self, points):
        from repro.core.nncell_index import NNCellIndex

        self._check(NNCellIndex.build(points))

    def test_sharded_batch_pages_add_up(self, points):
        from repro.shard import ShardConfig, ShardedNNCellIndex

        with ShardedNNCellIndex.build(
            points,
            shard_config=ShardConfig(n_shards=4, partitioner="hilbert"),
        ) as index:
            self._check(index)


class TestRoundTrips:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "w.jsonl"
        rec = WorkloadRecorder(sink=path)
        _fill(rec, 10)
        rec.close()
        loaded = load_workload(path)
        original = rec.workload()
        np.testing.assert_array_equal(loaded.queries, original.queries)
        np.testing.assert_array_equal(loaded.point_ids, original.point_ids)
        np.testing.assert_array_equal(loaded.distances, original.distances)
        np.testing.assert_array_equal(loaded.pages, original.pages)

    def test_npz_round_trip_is_exact(self, tmp_path):
        rec = WorkloadRecorder()
        _fill(rec, 10)
        original = rec.workload()
        path = save_workload_npz(original, tmp_path / "w.npz")
        loaded = load_workload(path)
        np.testing.assert_array_equal(loaded.queries, original.queries)
        np.testing.assert_array_equal(loaded.point_ids, original.point_ids)
        np.testing.assert_array_equal(loaded.distances, original.distances)
        np.testing.assert_array_equal(loaded.pages, original.pages)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(WorkloadFormatError, match="no such"):
            load_workload(tmp_path / "absent.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(WorkloadFormatError, match="empty"):
            load_workload(path)

    def test_wrong_format_header_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something.else", "version": 1}\n')
        with pytest.raises(WorkloadFormatError, match="header"):
            load_workload(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": WORKLOAD_FORMAT, "version": 99}) + "\n"
        )
        with pytest.raises(WorkloadFormatError, match="version"):
            load_workload(path)

    def test_malformed_record_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": WORKLOAD_FORMAT, "version": 1, "dim": 2}
            )
            + '\n{"q": [0.1, 0.2]}\n'
        )
        with pytest.raises(WorkloadFormatError, match=":2:"):
            load_workload(path)

    def test_non_json_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(WorkloadFormatError, match="not JSON"):
            load_workload(path)

    def test_npz_wrong_format_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, queries=np.zeros((1, 2)))
        with pytest.raises(WorkloadFormatError, match="not a workload"):
            load_workload(path)

    def test_length_mismatch_raises(self):
        with pytest.raises(WorkloadFormatError, match="length"):
            Workload(np.zeros((3, 2)), np.zeros(2, np.int64), np.zeros(3))


class TestModuleFastPath:
    def test_record_query_noop_when_off(self):
        # must not raise
        workload.record_query(np.zeros(2), 0, 0.0, QueryInfo())
        assert workload.get_recorder() is None

    def test_record_query_feeds_installed_recorder(self):
        rec = workload.install()
        workload.record_query(
            np.array([0.1, 0.2]), 4, 0.25, QueryInfo(pages=3)
        )
        assert len(rec) == 1
        assert rec.workload().point_ids.tolist() == [4]
        (record,) = rec.records()
        assert record["pages"] == 3
        assert record["source"] == "cell"

    def test_install_rejects_recorder_plus_kwargs(self):
        with pytest.raises(ValueError):
            workload.install(WorkloadRecorder(), sample=0.5)

    def test_record_batch_amortises_pages(self):
        rec = workload.install()
        qs = np.arange(6, dtype=np.float64).reshape(3, 2)
        workload.record_batch(
            qs, np.array([5, 6, 7]), np.array([0.1, 0.2, 0.3]),
            BatchQueryInfo(n_queries=3, pages=10),
        )
        captured = rec.workload()
        assert captured.point_ids.tolist() == [5, 6, 7]
        # 10 // 3 each, and the 10 % 3 left over to the first query.
        assert captured.pages.tolist() == [4, 3, 3]

    def test_record_batch_empty_is_noop(self):
        rec = workload.install()
        workload.record_batch(
            np.empty((0, 2)), np.empty(0, np.int64), np.empty(0),
            BatchQueryInfo(),
        )
        assert len(rec) == 0

    def test_shard_scope_suppresses_inner_capture(self):
        rec = workload.install()
        with analytics.shard_scope(1):
            workload.record_query(np.zeros(2), 0, 0.0, QueryInfo())
            workload.record_batch(
                np.zeros((2, 2)), np.zeros(2, np.int64), np.zeros(2),
                BatchQueryInfo(n_queries=2),
            )
        assert len(rec) == 0
        workload.record_query(np.zeros(2), 0, 0.0, QueryInfo())
        assert len(rec) == 1

    def test_capturing_context_restores_and_closes(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        outer = workload.install()
        with workload.capturing(sink=path) as inner:
            assert workload.get_recorder() is inner
            workload.record_query(np.array([0.5, 0.5]), 1, 0.1, QueryInfo())
        assert workload.get_recorder() is outer
        assert len(load_workload(path)) == 1
