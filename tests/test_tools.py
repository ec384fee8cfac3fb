"""Tests for the standalone CI tools in ``tools/``.

``tools/compare_archives.py`` backs the build and shard legs of
``tools/smoke.py`` and ``tools/compare_bench.py`` backs the
perf-trajectory gate; the comparison logic of both is unit-tested here
so the CI contracts are exercised by the suite, not only on a runner.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import load_tool, write_format_5, write_format_6
from repro.core.nncell_index import NNCellIndex
from repro.core.persistence import _write_archive, save_index
from repro.data import uniform_points


@pytest.fixture(scope="module")
def tool():
    return load_tool("compare_archives")


@pytest.fixture(scope="module")
def bench_tool():
    return load_tool("compare_bench")


def save(path, meta=None, **columns):
    """An archive of ``columns`` and the JSON object ``meta``."""
    _write_archive(path, meta or {}, columns)
    return path


class TestCompareArchives:
    def test_identical_archives_have_no_diffs(self, tool, tmp_path):
        data = {"ids": np.arange(5), "points": np.eye(3)}
        a = save(tmp_path / "a.nnc", **data)
        b = save(tmp_path / "b.nnc", **data)
        assert tool.compare_archives(a, b) == []

    def test_nan_bytes_compare_equal(self, tool, tmp_path):
        # The contract is "same bytes", so NaN == NaN here even though
        # IEEE comparison says otherwise.
        values = np.array([1.0, np.nan, 3.0])
        a = save(tmp_path / "a.nnc", values=values)
        b = save(tmp_path / "b.nnc", values=values.copy())
        assert tool.compare_archives(a, b) == []

    def test_missing_key_reported_for_each_side(self, tool, tmp_path):
        a = save(tmp_path / "a.nnc", x=np.zeros(2), only_a=np.ones(1))
        b = save(tmp_path / "b.nnc", x=np.zeros(2), only_b=np.ones(1))
        diffs = tool.compare_archives(a, b)
        assert any("only_a" in d and str(a) in d for d in diffs)
        assert any("only_b" in d and str(b) in d for d in diffs)

    def test_dtype_shape_and_value_diffs(self, tool, tmp_path):
        a = save(
            tmp_path / "a.nnc",
            d=np.zeros(3, dtype=np.float64),
            s=np.zeros((2, 2)),
            v=np.array([1.0, 2.0]),
        )
        b = save(
            tmp_path / "b.nnc",
            d=np.zeros(3, dtype=np.int64),
            s=np.zeros((2, 3)),
            v=np.array([1.0, 2.5]),
        )
        diffs = dict(line.split(":", 1) for line in tool.compare_archives(a, b))
        assert "dtype" in diffs["d"]
        assert "shape" in diffs["s"]
        assert "values differ" in diffs["v"]

    def test_index_meta_listed_key_by_key(self, tool, tmp_path, capsys):
        from repro.core.nncell_index import BuildConfig, NNCellIndex
        from repro.core.persistence import save_index
        from repro.data import uniform_points

        points = uniform_points(12, 2, seed=5)
        a, b = tmp_path / "a.nnc", tmp_path / "b.nnc"
        save_index(NNCellIndex.build(points), a)
        save_index(NNCellIndex.build(points, BuildConfig(query_atol=1e-8)), b)
        assert tool.compare_archives(a, b) == ["meta.query_atol: 1e-09 != 1e-08"]
        assert tool.main([str(a), str(b)]) == 1
        assert "meta.query_atol: 1e-09 != 1e-08" in capsys.readouterr().out

    def test_nested_meta_listed_leaf_by_leaf(self, tool, tmp_path):
        from repro.core.decomposition import DecompositionConfig
        from repro.core.nncell_index import BuildConfig, NNCellIndex
        from repro.core.persistence import save_index
        from repro.data import uniform_points

        # Undecomposed, so the budget changes the meta and nothing else.
        points = uniform_points(12, 2, seed=5)
        a, b = tmp_path / "a.nnc", tmp_path / "b.nnc"
        config = BuildConfig(decomposition=DecompositionConfig(k_max=4))
        save_index(NNCellIndex.build(points, config), a)
        save_index(NNCellIndex.build(points), b)
        assert tool.compare_archives(a, b) == [
            "meta.decomposition.k_max: 4 != 100"
        ]

        a = save(tmp_path / "a.nnc", meta={"c": {"x": 1, "y": {"z": 2}}})
        b = save(tmp_path / "b.nnc", meta={"c": {"x": 1, "w": 3}})
        assert tool.compare_archives(a, b) == [
            f"meta.c.w: only in {b}",
            f"meta.c.y.z: only in {a}",
        ]

    def test_meta_keys_only_on_one_side_and_non_json(
        self, tool, tmp_path, capsys
    ):
        a = save(tmp_path / "a.nnc", meta={"k": 1, "only_a": 0})
        b = save(tmp_path / "b.nnc", meta={"k": 1.0, "only_b": 0})
        assert tool.compare_archives(a, b) == [
            "meta.k: 1 != 1.0",
            f"meta.only_a: only in {a}",
            f"meta.only_b: only in {b}",
        ]
        # A file that is not an archive, say a JSON document, is an
        # error of the persistence reader, not a difference.
        b.write_text(json.dumps({"k": 1}))
        with pytest.raises(ValueError, match="not an index archive"):
            tool.compare_archives(a, b)
        assert tool.main([str(a), str(b)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestMain:
    def test_exit_zero_and_summary_on_parity(self, tool, tmp_path, capsys):
        a = save(tmp_path / "a.nnc", x=np.arange(4), y=np.ones(2))
        b = save(tmp_path / "b.nnc", x=np.arange(4), y=np.ones(2))
        assert tool.main([str(a), str(b)]) == 0
        assert "parity OK: 2 arrays identical" in capsys.readouterr().out

    def test_exit_one_lists_differences(self, tool, tmp_path, capsys):
        a = save(tmp_path / "a.nnc", x=np.arange(4))
        b = save(tmp_path / "b.nnc", x=np.arange(1, 5))
        assert tool.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "x: values differ" in out
        assert "1 difference(s)" in out

    def test_format_5_archive_exit_two(self, tool, tmp_path, capsys):
        a = tmp_path / "a.nnc"
        b = tmp_path / "b.nnc"
        index = NNCellIndex.build(uniform_points(10, 2, seed=6))
        save_index(index, a)
        write_format_5(index, b)
        assert tool.main([str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "version 5" in err

    def test_format_6_archive_exit_two(self, tool, tmp_path, capsys):
        a = tmp_path / "a.nnc"
        b = tmp_path / "b.nnc"
        index = NNCellIndex.build(uniform_points(10, 2, seed=6))
        save_index(index, a)
        write_format_6(index, b)
        for args in ([a, b], [b, a]):
            assert tool.main([str(path) for path in args]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "version 6 (expected 7)" in err

    def test_usage_and_missing_file_exit_two(self, tool, tmp_path, capsys):
        assert tool.main(["just-one.nnc"]) == 2
        assert "usage" in capsys.readouterr().err
        a = save(tmp_path / "a.nnc", x=np.arange(2))
        assert tool.main([str(a), str(tmp_path / "nope.nnc")]) == 2
        assert "does not exist" in capsys.readouterr().err


def make_bench(path, **metrics):
    document = {"bench": "obs_overhead", "format_version": 1,
                "metrics": metrics}
    Path(path).write_text(json.dumps(document))
    return path


class TestCompareBench:
    def test_direction_from_suffix(self, bench_tool):
        assert bench_tool.metric_direction("serve_wall_qps") == "higher"
        assert bench_tool.metric_direction("serve_p99_ms") == "lower"
        assert bench_tool.metric_direction("query_pages") == "lower"
        assert bench_tool.metric_direction("build_seconds") == "lower"
        assert bench_tool.metric_direction("overhead_pct") is None
        assert bench_tool.metric_direction("qps_disabled") is None

    def test_identical_documents_are_ok(self, bench_tool, tmp_path):
        doc = bench_tool.load_bench(
            make_bench(tmp_path / "a.json", x_qps=100.0, y_ms=2.0)
        )
        rows, regressions = bench_tool.compare_bench(doc, doc)
        assert regressions == []
        assert {r["verdict"] for r in rows} == {"ok"}

    def test_qps_drop_and_latency_rise_regress(self, bench_tool, tmp_path):
        base = bench_tool.load_bench(
            make_bench(tmp_path / "a.json", x_qps=100.0, y_ms=2.0)
        )
        cur = bench_tool.load_bench(
            make_bench(tmp_path / "b.json", x_qps=80.0, y_ms=2.5)
        )
        rows, regressions = bench_tool.compare_bench(base, cur)
        assert len(regressions) == 2
        verdicts = {r["name"]: r["verdict"] for r in rows}
        assert verdicts == {"x_qps": "regressed", "y_ms": "regressed"}

    def test_improvements_and_threshold(self, bench_tool, tmp_path):
        base = bench_tool.load_bench(
            make_bench(tmp_path / "a.json", x_qps=100.0, y_ms=2.0)
        )
        cur = bench_tool.load_bench(
            make_bench(tmp_path / "b.json", x_qps=150.0, y_ms=1.84)
        )
        rows, regressions = bench_tool.compare_bench(base, cur)
        assert regressions == []
        verdicts = {r["name"]: r["verdict"] for r in rows}
        assert verdicts["x_qps"] == "improved"
        assert verdicts["y_ms"] == "ok"  # -8% is within the 10% band
        # A tighter threshold flips the qps drop into a regression.
        __, regressions = bench_tool.compare_bench(
            cur, base, threshold=0.05
        )
        assert any("x_qps" in line for line in regressions)

    def test_pct_and_unknown_suffixes_never_gate(self, bench_tool, tmp_path):
        base = bench_tool.load_bench(
            make_bench(tmp_path / "a.json", overhead_pct=1.0, weird=5.0)
        )
        cur = bench_tool.load_bench(
            make_bench(tmp_path / "b.json", overhead_pct=3.0, weird=50.0)
        )
        rows, regressions = bench_tool.compare_bench(base, cur)
        assert regressions == []
        assert {r["verdict"] for r in rows} == {"info"}

    def test_missing_metrics_reported_not_gated(self, bench_tool, tmp_path):
        base = bench_tool.load_bench(
            make_bench(tmp_path / "a.json", x_qps=100.0, gone_ms=1.0)
        )
        cur = bench_tool.load_bench(
            make_bench(tmp_path / "b.json", x_qps=100.0, new_ms=1.0)
        )
        rows, regressions = bench_tool.compare_bench(base, cur)
        assert regressions == []
        verdicts = {r["name"]: r["verdict"] for r in rows}
        assert verdicts["gone_ms"] == "missing"
        assert verdicts["new_ms"] == "missing"

    def test_zero_baseline_is_informational(self, bench_tool, tmp_path):
        base = bench_tool.load_bench(
            make_bench(tmp_path / "a.json", x_qps=0.0)
        )
        cur = bench_tool.load_bench(
            make_bench(tmp_path / "b.json", x_qps=10.0)
        )
        rows, regressions = bench_tool.compare_bench(base, cur)
        assert regressions == []
        assert rows[0]["verdict"] == "info"

    def test_load_bench_rejects_malformed(self, bench_tool, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            bench_tool.load_bench(bad)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"no": "metrics"}))
        with pytest.raises(ValueError, match="metrics"):
            bench_tool.load_bench(foreign)

    def test_negative_threshold_rejected(self, bench_tool, tmp_path):
        doc = bench_tool.load_bench(make_bench(tmp_path / "a.json", x_qps=1.0))
        with pytest.raises(ValueError):
            bench_tool.compare_bench(doc, doc, threshold=-0.1)


class TestCompareBenchMain:
    def test_exit_zero_on_parity(self, bench_tool, tmp_path, capsys):
        a = make_bench(tmp_path / "a.json", x_qps=100.0)
        b = make_bench(tmp_path / "b.json", x_qps=99.0)
        assert bench_tool.main([str(a), str(b)]) == 0
        assert "bench OK" in capsys.readouterr().out

    def test_exit_one_lists_regressions(self, bench_tool, tmp_path, capsys):
        a = make_bench(tmp_path / "a.json", x_qps=100.0, y_ms=1.0)
        b = make_bench(tmp_path / "b.json", x_qps=50.0, y_ms=1.0)
        assert bench_tool.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "1 regression(s)" in out
        assert "x_qps" in out

    def test_threshold_flag(self, bench_tool, tmp_path, capsys):
        a = make_bench(tmp_path / "a.json", x_qps=100.0)
        b = make_bench(tmp_path / "b.json", x_qps=92.0)
        assert bench_tool.main(
            [str(a), str(b), "--threshold", "0.05"]
        ) == 1
        capsys.readouterr()
        assert bench_tool.main(
            ["--threshold", "0.2", str(a), str(b)]
        ) == 0

    def test_usage_and_load_errors_exit_two(
        self, bench_tool, tmp_path, capsys
    ):
        assert bench_tool.main(["only-one.json"]) == 2
        assert "usage" in capsys.readouterr().err
        assert bench_tool.main(["a.json", "b.json", "--threshold"]) == 2
        assert "--threshold" in capsys.readouterr().err
        a = make_bench(tmp_path / "a.json", x_qps=1.0)
        assert bench_tool.main([str(a), str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err
