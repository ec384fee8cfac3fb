"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.obs.export import load_profile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildAndQuery:
    def test_build_query_info_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, stdout, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "40",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "built index over 40 points" in stdout

        code, stdout, __ = run(
            capsys, "query", str(out), "--point", "0.5,0.5,0.5",
        )
        assert code == 0
        assert "#1  point" in stdout

        code, stdout, __ = run(
            capsys, "query", str(out), "--point", "0.5,0.5,0.5", "-k", "3",
        )
        assert code == 0
        assert "#3" in stdout

        code, stdout, __ = run(capsys, "info", str(out))
        assert code == 0
        assert "expected_candidates" in stdout

    def test_build_from_point_file(self, tmp_path, capsys):
        rng = np.random.default_rng(151)
        points = rng.uniform(size=(25, 3))
        npy = tmp_path / "points.npy"
        np.save(npy, points)
        out = tmp_path / "idx.npz"
        code, stdout, __ = run(
            capsys, "build", "--points", str(npy), "--out", str(out),
            "--selector", "nn-direction",
        )
        assert code == 0
        assert "25 points" in stdout

    def test_build_from_csv(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("0.1,0.2\n0.7,0.8\n0.4,0.5\n")
        out = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--points", str(csv), "--out", str(out),
        )
        assert code == 0
        code, stdout, __ = run(
            capsys, "query", str(out), "--point", "0.69,0.79",
        )
        assert code == 0
        assert "point 1" in stdout

    def test_build_with_decomposition(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, stdout, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "20",
            "--dim", "2", "--out", str(out), "--decompose", "--k-max", "4",
        )
        assert code == 0


class TestParallelAndBatch:
    def test_build_with_workers_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.npz"
        parallel_out = tmp_path / "parallel.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "2", "--out", str(serial_out),
        )
        assert code == 0
        code, stdout, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "2", "--out", str(parallel_out),
            "--workers", "2", "--executor", "thread",
        )
        assert code == 0
        assert "built index over 30 points" in stdout
        with np.load(serial_out) as serial, np.load(parallel_out) as parallel:
            assert sorted(serial.files) == sorted(parallel.files)
            for name in serial.files:
                assert np.array_equal(serial[name], parallel[name]), name

    def test_query_batch_file(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "40",
            "--dim", "3", "--out", str(out))
        rng = np.random.default_rng(77)
        batch = tmp_path / "queries.npy"
        np.save(batch, rng.uniform(size=(25, 3)))
        code, stdout, __ = run(
            capsys, "query", str(out), "--batch", str(batch),
            "--batch-size", "8",
        )
        assert code == 0
        assert "query 0  ->  point" in stdout
        assert "... (5 more)" in stdout
        assert "batch: 25 queries" in stdout

    def test_batch_rejects_k(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "10",
            "--dim", "2", "--out", str(out))
        batch = tmp_path / "q.npy"
        np.save(batch, np.zeros((2, 2)))
        code, __, stderr = run(
            capsys, "query", str(out), "--batch", str(batch), "-k", "2",
        )
        assert code == 1
        assert "-k must be 1" in stderr

    def test_batch_rejects_wrong_shape(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "10",
            "--dim", "2", "--out", str(out))
        batch = tmp_path / "q.npy"
        np.save(batch, np.zeros((2, 5)))
        code, __, stderr = run(
            capsys, "query", str(out), "--batch", str(batch),
        )
        assert code == 1
        assert "batch file" in stderr

    def test_batch_profile_document(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        profile = tmp_path / "batch_profile.json"
        run(capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "2", "--out", str(out))
        batch = tmp_path / "q.npy"
        np.save(batch, np.random.default_rng(5).uniform(size=(6, 2)))
        code, __, __ = run(
            capsys, "query", str(out), "--batch", str(batch),
            "--profile", str(profile),
        )
        assert code == 0
        doc = load_profile(profile)
        assert doc["meta"]["command"] == "query-batch"
        assert doc["meta"]["n_queries"] == 6
        assert doc["metrics"]["counters"]["query.batch.queries"] == 6


class TestErrorHandling:
    def test_missing_point_file(self, tmp_path, capsys):
        code, __, stderr = run(
            capsys, "build", "--points", str(tmp_path / "nope.npy"),
            "--out", str(tmp_path / "o.npz"),
        )
        assert code == 1
        assert "error" in stderr

    def test_wrong_query_dim(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "10",
            "--dim", "3", "--out", str(out))
        code, __, stderr = run(capsys, "query", str(out), "--point", "0.5")
        assert code == 1
        assert "3-d" in stderr

    def test_unparseable_point(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "10",
            "--dim", "2", "--out", str(out))
        code, __, stderr = run(capsys, "query", str(out), "--point", "a,b")
        assert code == 1

    def test_bad_experiment_param(self, capsys):
        code, __, stderr = run(
            capsys, "experiment", "figure2", "--param", "oops",
        )
        assert code == 1


class TestShardedCli:
    def test_build_query_info_sharded_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        code, stdout, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "40",
            "--dim", "3", "--out", str(out), "--shards", "3",
            "--partitioner", "hilbert",
        )
        assert code == 0
        assert out.is_dir()
        assert "shards (hilbert partitioner)" in stdout

        code, stdout, __ = run(
            capsys, "query", str(out), "--point", "0.5,0.5,0.5", "-k", "3",
        )
        assert code == 0
        assert "#3" in stdout

        code, stdout, __ = run(capsys, "info", str(out))
        assert code == 0
        assert "sharding:" in stdout
        assert "3 shards (hilbert partitioner)" in stdout

    def test_sharded_query_matches_unsharded(self, tmp_path, capsys):
        flat = tmp_path / "idx.npz"
        fleet = tmp_path / "fleet"
        for target, extra in ((flat, []), (fleet, ["--shards", "4"])):
            code, __, __ = run(
                capsys, "build", "--dataset", "uniform", "--n", "40",
                "--dim", "3", "--out", str(target), *extra,
            )
            assert code == 0
        __, flat_out, __ = run(
            capsys, "query", str(flat), "--point", "0.3,0.6,0.9", "-k", "2",
        )
        __, fleet_out, __ = run(
            capsys, "query", str(fleet), "--point", "0.3,0.6,0.9", "-k", "2",
        )
        # Identical answer lines (ids and distances), modulo the path.
        flat_rows = [l for l in flat_out.splitlines() if l.startswith("#")]
        fleet_rows = [l for l in fleet_out.splitlines() if l.startswith("#")]
        assert flat_rows == fleet_rows

    def test_build_rejects_negative_shards(self, tmp_path, capsys):
        code, __, stderr = run(
            capsys, "build", "--dataset", "uniform", "--n", "10",
            "--dim", "2", "--out", str(tmp_path / "x"), "--shards", "-1",
        )
        assert code == 1


class TestStatsCommand:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        return out

    def test_stats_prints_table(self, index_path, capsys):
        code, stdout, __ = run(capsys, "stats", str(index_path))
        assert code == 0
        assert "Index statistics" in stdout
        assert "expected_candidates" in stdout

    def test_stats_live_collects_metrics(self, index_path, capsys):
        code, stdout, __ = run(
            capsys, "stats", str(index_path), "--live", "--queries", "5",
        )
        assert code == 0
        assert "Live metrics (5 sample queries)" in stdout
        assert "query.count" in stdout

    def test_info_and_stats_share_statistics_rendering(
        self, index_path, capsys
    ):
        __, info_out, __ = run(capsys, "info", str(index_path))
        __, stats_out, __ = run(capsys, "stats", str(index_path))
        # Both paths render through export.stats_table: same rows.
        info_rows = [l for l in info_out.splitlines()
                     if "expected_candidates" in l]
        stats_rows = [l for l in stats_out.splitlines()
                      if "expected_candidates" in l]
        assert info_rows == stats_rows


class TestProfileFlag:
    def test_build_profile_document(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        profile = tmp_path / "build_profile.json"
        code, stdout, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out), "--profile", str(profile),
        )
        assert code == 0
        assert f"(profile written to {profile})" in stdout
        doc = load_profile(profile)
        assert doc["meta"]["command"] == "build"
        assert doc["metrics"]["counters"]["build.cells"] == 30
        root_names = [s["name"] for s in doc["trace"]]
        assert "build.nncell" in root_names

    def test_query_profile_has_nested_spans(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        profile = tmp_path / "query_profile.json"
        run(capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out))
        code, stdout, __ = run(
            capsys, "query", str(out), "--point", "0.5,0.5,0.5",
            "--profile", str(profile),
        )
        assert code == 0
        doc = load_profile(profile)
        assert doc["meta"]["command"] == "query"
        (root,) = [s for s in doc["trace"] if s["name"] == "query.nearest"]
        child_names = [c["name"] for c in root["children"]]
        assert "query.point_query" in child_names
        assert "query.candidate_scan" in child_names
        assert doc["metrics"]["counters"]["query.count"] == 1


class TestServeCommand:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        return out

    def serve(self, monkeypatch, capsys, index_path, stdin_text, *flags):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code, stdout, stderr = run(capsys, "serve", str(index_path), *flags)
        import json

        responses = [json.loads(line) for line in stdout.splitlines()]
        return code, responses, stderr

    def test_jsonl_roundtrip_matches_query(
        self, monkeypatch, capsys, index_path
    ):
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            '[0.5, 0.5, 0.5]\n{"id": 7, "point": [0.1, 0.2, 0.3]}\n',
        )
        assert code == 0
        assert len(responses) == 2
        assert all(r["ok"] for r in responses)
        assert responses[1]["id"] == 7
        assert responses[0]["source"] in ("batch", "serial", "scan")

        # The serving answer must agree with the one-shot query path.
        code, stdout, __ = run(
            capsys, "query", str(index_path), "--point", "0.5,0.5,0.5",
        )
        assert code == 0
        assert f"point {responses[0]['point_id']}" in stdout

    def test_bad_requests_get_typed_errors_in_order(
        self, monkeypatch, capsys, index_path
    ):
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            "not json\n"
            '{"id": 2, "point": [0.5]}\n'
            "[0.4, 0.4, 0.4]\n",
        )
        assert code == 0
        assert [r["ok"] for r in responses] == [False, False, True]
        assert responses[0]["error"] == "bad_request"
        assert responses[1]["error"] == "bad_request"
        assert responses[1]["id"] == 2
        assert "3-element" in responses[1]["message"]

    def test_blank_lines_skipped_and_stats_flag(
        self, monkeypatch, capsys, index_path
    ):
        code, responses, stderr = self.serve(
            monkeypatch, capsys, index_path,
            "\n[0.2, 0.2, 0.2]\n\n", "--stats",
        )
        assert code == 0
        assert len(responses) == 1
        assert responses[0]["ok"]
        assert "Serving statistics" in stderr
        assert "submitted" in stderr


class TestExplainCommand:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        return out

    def test_text_output_names_path_and_answer(self, index_path, capsys):
        code, stdout, __ = run(
            capsys, "explain", str(index_path), "--point", "0.5,0.5,0.5",
        )
        assert code == 0
        assert "path:" in stdout
        assert "<- answer" in stdout
        assert "nodes_visited" in stdout or "nodes visited" in stdout

    def test_json_output_matches_query(self, index_path, capsys):
        import json

        code, stdout, __ = run(
            capsys, "explain", str(index_path), "--point", "0.5,0.5,0.5",
            "--json",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["path"] in ("cell", "cell_retry")
        assert doc["n_candidates"] >= 1

        code, stdout, __ = run(
            capsys, "query", str(index_path), "--point", "0.5,0.5,0.5",
        )
        assert code == 0
        assert f"point {doc['nearest_id']}" in stdout

    def test_outside_data_space_explained(self, index_path, capsys):
        import json

        code, stdout, __ = run(
            capsys, "explain", str(index_path), "--point", "9,9,9",
            "--json",
        )
        assert code == 0
        assert json.loads(stdout)["path"] == "outside_data_space"

    def test_wrong_dimension_is_an_error(self, index_path, capsys):
        code, __, stderr = run(
            capsys, "explain", str(index_path), "--point", "0.5",
        )
        assert code == 1
        assert "error" in stderr


class TestServeTelemetry:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        return out

    def serve(self, monkeypatch, capsys, index_path, stdin_text, *flags):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code, stdout, stderr = run(capsys, "serve", str(index_path), *flags)
        responses = [json.loads(line) for line in stdout.splitlines()]
        return code, responses, stderr

    def test_explain_echo_on_request(
        self, monkeypatch, capsys, index_path
    ):
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            '{"point": [0.5, 0.5, 0.5], "explain": true}\n'
            "[0.4, 0.4, 0.4]\n",
        )
        assert code == 0
        assert responses[0]["ok"]
        explain = responses[0]["explain"]
        assert explain["nearest_id"] == responses[0]["point_id"]
        assert explain["path"] in ("cell", "cell_retry")
        # Requests that did not opt in carry no explain payload.
        assert "explain" not in responses[1]

    def test_metrics_port_announced_and_stats_table(
        self, monkeypatch, capsys, index_path
    ):
        code, responses, stderr = self.serve(
            monkeypatch, capsys, index_path,
            "[0.2, 0.2, 0.2]\n",
            "--metrics-port", "0", "--stats",
        )
        assert code == 0
        assert responses[0]["ok"]
        assert "metrics endpoint: http://127.0.0.1:" in stderr
        assert "Live telemetry" in stderr

    def test_events_flag_writes_jsonl(
        self, monkeypatch, capsys, index_path, tmp_path
    ):
        import json

        events_path = tmp_path / "events.jsonl"
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            "[0.3, 0.3, 0.3]\n",
            "--events", str(events_path),
        )
        assert code == 0
        assert responses[0]["ok"]
        records = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        assert any(r["kind"] == "flush" for r in records)

    def test_events_dir_must_exist(
        self, monkeypatch, capsys, index_path, tmp_path
    ):
        code, __, stderr = self.serve(
            monkeypatch, capsys, index_path, "",
            "--events", str(tmp_path / "missing" / "ev.jsonl"),
        )
        assert code == 1
        assert "error" in stderr

    def test_telemetry_torn_down_after_serve(
        self, monkeypatch, capsys, index_path
    ):
        from repro.obs import events as obs_events
        from repro.obs import metrics as obs_metrics

        code, __, __ = self.serve(
            monkeypatch, capsys, index_path,
            "[0.1, 0.1, 0.1]\n", "--metrics-port", "0",
        )
        assert code == 0
        assert not obs_metrics.enabled()
        assert not obs_metrics.get_registry().windowed
        assert not obs_events.enabled()


class TestStatsWatch:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "25",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        return out

    def test_watch_renders_live_table(self, index_path, capsys):
        code, stdout, __ = run(
            capsys, "stats", str(index_path), "--watch",
            "--interval", "0.2", "--duration", "0.5",
        )
        assert code == 0
        assert "Live telemetry" in stdout
        assert "queries)" in stdout  # final table is count-titled
        for window in ("1s", "10s", "60s"):
            assert window in stdout

    def test_watch_rejects_bad_interval(self, index_path, capsys):
        code, __, stderr = run(
            capsys, "stats", str(index_path), "--watch",
            "--interval", "0", "--duration", "0.2",
        )
        assert code == 1
        assert "interval" in stderr


class TestExperimentCommand:
    def test_figure2_runs(self, capsys):
        code, stdout, __ = run(
            capsys, "experiment", "figure2", "--param", "n_points=10",
        )
        assert code == 0
        assert "Figure 2" in stdout

    def test_csv_output(self, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        code, stdout, __ = run(
            capsys, "experiment", "figure2", "--param", "n_points=10",
            "--csv", str(csv),
        )
        assert code == 0
        assert csv.exists()
        assert csv.read_text().startswith("distribution,")

    def test_tuple_params(self, capsys):
        code, stdout, __ = run(
            capsys, "experiment", "figure13",
            "--param", "dims=2,", "--param", "n_points=15",
            "--param", "k_max=4",
        )
        assert code == 0
        assert "Figure 13" in stdout


class TestTraceCommand:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        return out

    def test_top_renders_stage_attribution_table(self, index_path, capsys):
        code, stdout, __ = run(
            capsys, "trace", str(index_path), "top",
            "--queries", "20", "--threads", "2", "--limit", "5",
        )
        assert code == 0
        assert "Slowest requests" in stdout
        for column in ("trace_id", "total_ms", "coverage", "queue_ms",
                       "walk_ms", "deliver_ms"):
            assert column in stdout
        assert "20 queries" in stdout

    def test_show_prints_span_tree_and_critical_path(
        self, index_path, capsys
    ):
        code, stdout, __ = run(
            capsys, "trace", str(index_path), "show", "--queries", "10",
        )
        assert code == 0
        assert "critical path (coverage" in stdout
        assert "serve.request" in stdout
        assert "serve.queue_wait" in stdout
        assert "queue_wait" in stdout

    def test_show_unknown_trace_id_fails_cleanly(self, index_path, capsys):
        code, __, stderr = run(
            capsys, "trace", str(index_path), "show",
            "--queries", "5", "--trace-id", "doesnotexist",
        )
        assert code == 1
        assert "no stored trace" in stderr

    def test_export_writes_chrome_trace_json(
        self, index_path, tmp_path, capsys
    ):
        import json

        out = tmp_path / "trace.json"
        code, __, stderr = run(
            capsys, "trace", str(index_path), "export",
            "--queries", "10", "--out", str(out),
        )
        assert code == 0
        assert "trace events written" in stderr
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"M", "X"}
        names = {e.get("name") for e in document["traceEvents"]}
        assert "serve.request" in names
        assert "serve.flush" in names

    def test_export_to_stdout(self, index_path, capsys):
        import json

        code, stdout, __ = run(
            capsys, "trace", str(index_path), "export", "--queries", "5",
        )
        assert code == 0
        assert json.loads(stdout)["traceEvents"]

    def test_export_missing_parent_dir_fails_before_load(
        self, index_path, tmp_path, capsys
    ):
        code, __, stderr = run(
            capsys, "trace", str(index_path), "export",
            "--queries", "5", "--out", str(tmp_path / "nope" / "t.json"),
        )
        assert code == 1
        assert "does not exist" in stderr


class TestWatchAndServeTracing:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "20",
            "--dim", "3", "--out", str(out))
        return out

    def test_watch_renders_with_empty_workload(self, index_path, capsys):
        # Regression: --queries 0 used to divide by zero before the
        # first render; it must idle and still print all-zero windows.
        code, stdout, __ = run(
            capsys, "stats", str(index_path), "--watch",
            "--queries", "0", "--duration", "0.4", "--interval", "0.1",
        )
        assert code == 0
        assert "Live telemetry (0 queries)" in stdout

    def test_watch_rejects_negative_queries(self, index_path, capsys):
        code, __, stderr = run(
            capsys, "stats", str(index_path), "--watch", "--queries", "-1",
            "--duration", "0.1",
        )
        assert code == 1
        assert "--queries" in stderr

    def test_explain_echoes_a_trace_id(self, index_path, capsys):
        import re

        code, stdout, __ = run(
            capsys, "explain", str(index_path), "--point", "0.5,0.5,0.5",
        )
        assert code == 0
        match = re.search(r"^trace: ([0-9a-f]{16})$", stdout, re.M)
        assert match

    def test_explain_json_carries_the_trace_id(self, index_path, capsys):
        import json
        import re

        code, stdout, __ = run(
            capsys, "explain", str(index_path),
            "--point", "0.5,0.5,0.5", "--json",
        )
        assert code == 0
        document = json.loads(stdout)
        assert re.fullmatch(r"[0-9a-f]{16}", document["trace_id"])


class TestServeTracingProtocol:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "30",
            "--dim", "3", "--out", str(out))
        return out

    def serve(self, monkeypatch, capsys, index_path, stdin_text, *flags):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code, stdout, stderr = run(capsys, "serve", str(index_path), *flags)
        responses = [json.loads(line) for line in stdout.splitlines()]
        return code, responses, stderr

    def test_every_response_echoes_a_distinct_trace_id(
        self, monkeypatch, capsys, index_path
    ):
        import re

        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            "[0.5, 0.5, 0.5]\n[0.2, 0.2, 0.2]\n[0.8, 0.8, 0.8]\n",
            "--tracing",
        )
        assert code == 0
        ids = [r["trace_id"] for r in responses]
        assert all(re.fullmatch(r"[0-9a-f]{16}", tid) for tid in ids)
        assert len(set(ids)) == 3

    def test_trace_id_flows_without_the_tracing_flag(
        self, monkeypatch, capsys, index_path
    ):
        # Identity is unconditional; --tracing only adds the recording.
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path, "[0.5, 0.5, 0.5]\n",
        )
        assert code == 0
        assert len(responses[0]["trace_id"]) == 16

    def test_event_log_records_join_on_trace_ids(
        self, monkeypatch, capsys, index_path, tmp_path
    ):
        import json

        events_path = tmp_path / "events.jsonl"
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            "[0.3, 0.3, 0.3]\n",
            "--tracing", "--events", str(events_path),
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        flushes = [r for r in records if r["kind"] == "flush"]
        assert flushes
        assert all("trace_id" in r for r in flushes)

    def test_slo_flag_serves_and_answers(
        self, monkeypatch, capsys, index_path
    ):
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            "[0.5, 0.5, 0.5]\n", "--tracing", "--slo", "--slo-degrade",
        )
        assert code == 0
        assert responses[0]["ok"]
        assert responses[0]["trace_id"]


class TestChaosAndResilience:
    @pytest.fixture()
    def index_path(self, tmp_path, capsys):
        out = tmp_path / "idx.npz"
        run(capsys, "build", "--dataset", "uniform", "--n", "40",
            "--dim", "3", "--out", str(out))
        return out

    def serve(self, monkeypatch, capsys, index_path, stdin_text, *flags):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code, stdout, stderr = run(capsys, "serve", str(index_path), *flags)
        responses = [json.loads(line) for line in stdout.splitlines()]
        return code, responses, stderr

    def test_chaos_drill_passes_and_reports(self, index_path, capsys):
        code, stdout, __ = run(
            capsys, "chaos", str(index_path), "--shards", "4",
            "--queries", "30", "--threads", "2",
            "--fail-shard", "2", "--fail-p", "1.0",
            "--shard-retries", "1", "--allow-partial",
        )
        assert code == 0
        assert "chaos drill: PASSED" in stdout
        assert "degraded" in stdout

    def test_chaos_drill_json_report(self, index_path, capsys):
        import json

        code, stdout, __ = run(
            capsys, "chaos", str(index_path), "--shards", "4",
            "--queries", "20", "--threads", "2",
            "--fail-shard", "1", "--fail-p", "1.0",
            "--shard-retries", "0", "--allow-partial", "--json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"] is True
        assert report["untyped_errors"] == 0
        assert report["faulted_shards"] == [1]
        assert report["outcomes"].get("degraded", 0) > 0

    def test_chaos_drill_healthy_fleet(self, index_path, capsys):
        import json

        code, stdout, __ = run(
            capsys, "chaos", str(index_path), "--shards", "2",
            "--queries", "10", "--threads", "1", "--json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"] is True
        assert report["outcomes"] == {"ok": 10}

    def test_serve_resilience_flags_on_sharded_index(
        self, monkeypatch, capsys, index_path
    ):
        code, responses, __ = self.serve(
            monkeypatch, capsys, index_path,
            "[0.5, 0.5, 0.5]\n[0.2, 0.8, 0.4]\n",
            "--shards", "3", "--shard-timeout-ms", "500",
            "--hedge-after-ms", "100", "--allow-partial",
        )
        assert code == 0
        assert all(r["ok"] for r in responses)
        # Healthy fleet: nothing degraded, so no degraded fields.
        assert all("degraded" not in r for r in responses)

    def test_serve_resilience_flags_need_sharded_index(
        self, monkeypatch, capsys, index_path
    ):
        code, __, stderr = self.serve(
            monkeypatch, capsys, index_path,
            "[0.5, 0.5, 0.5]\n", "--allow-partial",
        )
        assert code != 0
        assert "sharded" in stderr


class TestAnalyzeAndReplayCommands:
    @pytest.fixture
    def captured_setup(self, tmp_path, capsys):
        """A built index plus a workload captured against it."""
        from repro.core.persistence import load_any_index
        from repro.obs import workload as obs_workload

        index_path = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "60",
            "--dim", "3", "--out", str(index_path),
        )
        assert code == 0
        capture = tmp_path / "capture.jsonl"
        index = load_any_index(index_path)
        with obs_workload.capturing(sink=capture):
            rng = np.random.default_rng(5)
            for q in rng.uniform(size=(12, 3)):
                index.nearest(q)
        return index_path, capture

    def test_replay_reports_bit_parity(self, captured_setup, capsys):
        index_path, capture = captured_setup
        code, stdout, __ = run(
            capsys, "replay", str(index_path), "--workload", str(capture),
        )
        assert code == 0
        assert "bit-identical" in stdout

    def test_replay_json_and_batch_mode(self, captured_setup, capsys):
        import json as json_mod

        index_path, capture = captured_setup
        code, stdout, __ = run(
            capsys, "replay", str(index_path), "--workload", str(capture),
            "--mode", "batch", "--json",
        )
        assert code == 0
        doc = json_mod.loads(stdout)
        assert doc["bit_identical"] is True
        assert doc["n_queries"] == 12
        assert doc["mode"] == "batch"

    def test_replay_doctored_capture_exits_nonzero(
        self, captured_setup, tmp_path, capsys
    ):
        import json as json_mod

        index_path, capture = captured_setup
        lines = capture.read_text().splitlines()
        doctored = [lines[0]]
        for line in lines[1:]:
            record = json_mod.loads(line)
            record["id"] += 1
            doctored.append(json_mod.dumps(record))
        bad = tmp_path / "doctored.jsonl"
        bad.write_text("\n".join(doctored) + "\n")
        code, stdout, __ = run(
            capsys, "replay", str(index_path), "--workload", str(bad),
        )
        assert code == 1
        assert "MISMATCHES" in stdout

    def test_analyze_balanced_unsharded_traffic(
        self, captured_setup, capsys
    ):
        index_path, capture = captured_setup
        code, stdout, __ = run(
            capsys, "analyze", str(index_path),
            "--workload", str(capture),
        )
        assert code == 0  # unsharded: nothing to convict
        assert "hot cells" in stdout

    def test_analyze_sharded_json_report(self, captured_setup, capsys):
        import json as json_mod

        index_path, capture = captured_setup
        code, stdout, __ = run(
            capsys, "analyze", str(index_path),
            "--workload", str(capture), "--shards", "2", "--json",
        )
        assert code in (0, 2)  # verdict depends on the random workload
        doc = json_mod.loads(stdout)
        assert sorted(doc["shards"]) == ["0", "1"]
        assert doc["format"] == "repro.analytics"
        assert "hot_cells" in doc and "verdict" in doc

    def test_serve_capture_writes_replayable_workload(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        index_path = tmp_path / "idx.npz"
        code, __, __ = run(
            capsys, "build", "--dataset", "uniform", "--n", "40",
            "--dim", "3", "--out", str(index_path),
        )
        assert code == 0
        capture = tmp_path / "served.jsonl"
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('[0.5, 0.5, 0.5]\n[0.1, 0.9, 0.4]\n')
        )
        code, __, __ = run(
            capsys, "serve", str(index_path), "--capture", str(capture),
        )
        assert code == 0
        code, stdout, __ = run(
            capsys, "replay", str(index_path), "--workload", str(capture),
        )
        assert code == 0
        assert "replayed 2 queries" in stdout
